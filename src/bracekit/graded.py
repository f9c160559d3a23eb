"""Permutations, unshuffles and Koszul signs for graded objects.

Permutations live in one-line notation with 1-based values: ``s`` sends
position ``i`` to the value ``s(i)``, and applying ``s`` to a sequence
``(x_1, ..., x_n)`` yields ``(x_{s(1)}, ..., x_{s(n)})``.

Two signs govern everything downstream.  Rearranging homogeneous objects
``x_1, ..., x_n`` into ``x_{s(1)}, ..., x_{s(n)}`` costs the Koszul sign
``eps(s)``, accumulated one adjacent swap at a time at ``(-1)^{|x||y|}``
per swap, and the antisymmetric variant is ``chi(s) = sgn(s) * eps(s)``.
Only degree parities enter either sign.

Enumerating all of S_n, or all unshuffles of n elements, grows like n!;
both enumerators refuse n above the fixed ENUMERATION_CAP with
ResourceLimitError, as does antisymmetrize above that arity.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError, ResourceLimitError

ENUMERATION_CAP = 8


class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> s = Permutation((2, 3, 1))
    >>> s(1), s(2), s(3)
    (2, 3, 1)
    >>> s.apply("abc")
    ('b', 'c', 'a')
    >>> s.compose(s.inverse()) == Permutation.identity(3)
    True
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(v) for v in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise InputError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise InputError(f"position {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def apply(self, seq: Sequence) -> tuple:
        """Rearrange seq, placing seq[s(i)-1] at position i."""
        if len(seq) != len(self.images):
            raise InputError("sequence length does not match permutation size")
        return tuple(seq[v - 1] for v in self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """(self.compose(other))(i) = self(other(i)).

        Equivalently c.apply(x) == other.apply(self.apply(x)) for c = compose.
        """
        if len(other) != len(self):
            raise InputError("cannot compose permutations of different sizes")
        return Permutation(self.images[v - 1] for v in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def sign(self) -> int:
        swaps, _ = _swap_and_cross_parities(self.images, (0,) * len(self.images))
        return -1 if swaps else 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def _swap_and_cross_parities(images: Sequence[int], parities: Sequence[int]):
    """Bubble-sort the one-line word back to the identity.

    Returns (swap parity, crossing parity): each adjacent swap exchanges two
    of the rearranged objects, so it counts once toward sgn and contributes
    the product of the two objects' degree parities toward the Koszul sign.
    """
    word = list(images)
    swaps = 0
    crossings = 0
    n = len(word)
    for top in range(n, 1, -1):
        for j in range(top - 1):
            a, b = word[j], word[j + 1]
            if a > b:
                word[j], word[j + 1] = b, a
                swaps += 1
                crossings += parities[a - 1] & parities[b - 1]
    return swaps & 1, crossings & 1


def _checked_parities(perm: Permutation, degrees: Sequence[int]) -> tuple:
    if len(degrees) != len(perm):
        raise InputError(
            f"got {len(degrees)} degrees for a permutation of size {len(perm)}"
        )
    return tuple(d & 1 for d in degrees)


def koszul_sign(perm: Permutation, degrees: Sequence[int]) -> int:
    """eps(perm) for objects whose degrees are listed in original order.

    >>> koszul_sign(Permutation((1, 2, 3)), (3, -1, 0))
    1
    >>> koszul_sign(Permutation((2, 1)), (1, 1))
    -1
    >>> koszul_sign(Permutation((2, 1)), (1, 2))
    1
    """
    parities = _checked_parities(perm, degrees)
    _, crossings = _swap_and_cross_parities(perm.images, parities)
    return -1 if crossings else 1


def antisym_koszul_sign(perm: Permutation, degrees: Sequence[int]) -> int:
    """chi(perm) = sgn(perm) * eps(perm).

    >>> antisym_koszul_sign(Permutation((2, 1)), (1, 1))
    1
    >>> antisym_koszul_sign(Permutation((2, 1)), (0, 0))
    -1
    """
    parities = _checked_parities(perm, degrees)
    swaps, crossings = _swap_and_cross_parities(perm.images, parities)
    return -1 if swaps ^ crossings else 1


def _check_cap(n: int, what: str) -> None:
    if n < 0:
        raise InputError(f"{what} size must be nonnegative, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"{what} over {n} elements exceeds cap {ENUMERATION_CAP}"
        )


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line words."""
    _check_cap(n, "permutation enumeration")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


@dataclass(frozen=True)
class UnshuffleSpec:
    """An ordered tuple of block sizes; blocks may be empty."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if any(b < 0 for b in blocks):
            raise InputError(f"block sizes must be nonnegative: {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def total(self) -> int:
        return sum(self.blocks)


def enumerate_unshuffles(spec: UnshuffleSpec) -> Iterator[Permutation]:
    """Permutations increasing within each consecutive block of positions.

    Blocks partition the positions 1..N in order; an unshuffle deals the
    values 1..N into the blocks so that each block reads increasingly.

    >>> [u.images for u in enumerate_unshuffles(UnshuffleSpec((1, 1)))]
    [(1, 2), (2, 1)]
    >>> sum(1 for _ in enumerate_unshuffles(UnshuffleSpec((2, 1))))
    3
    """
    _check_cap(spec.total, "unshuffle enumeration")

    def deal(values: tuple, blocks: tuple) -> Iterator[tuple]:
        if not blocks:
            yield ()
            return
        for picked in itertools.combinations(values, blocks[0]):
            rest = tuple(v for v in values if v not in picked)
            for tail in deal(rest, blocks[1:]):
                yield picked + tail

    for images in deal(tuple(range(1, spec.total + 1)), spec.blocks):
        yield Permutation(images)


@dataclass(frozen=True)
class InsertionPattern:
    """Slot counts (k_0, ..., k_n): free inputs kept between inserted maps."""

    slots: tuple

    def __post_init__(self):
        slots = tuple(int(k) for k in self.slots)
        if not slots:
            raise InputError("an insertion pattern needs at least one slot")
        if any(k < 0 for k in slots):
            raise InputError(f"slot counts must be nonnegative: {slots}")
        object.__setattr__(self, "slots", slots)

    @property
    def total(self) -> int:
        return sum(self.slots)


def insertion_patterns(total: int, parts: int) -> Iterator[InsertionPattern]:
    """All weak compositions of `total` into `parts` slots, lexicographic.

    >>> [p.slots for p in insertion_patterns(2, 2)]
    [(0, 2), (1, 1), (2, 0)]
    """
    if parts < 1:
        raise InputError("need at least one slot")
    if total < 0:
        raise InputError("total must be nonnegative")
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield InsertionPattern(
            tuple(bounds[i + 1] - bounds[i] for i in range(parts))
        )


def interleave_block_permutation(
    pi: Permutation,
    sigma: Permutation,
    blocks: Sequence[int],
    slots: Sequence[int],
    degrees: Sequence[int],
):
    """Flatten a blockwise rearrangement into a single permutation.

    Positions 1..r are split as: the first ``sum(blocks)`` positions carry n
    consecutive blocks (sizes ``blocks``), the rest are free.  The image word
    of ``pi`` is laid out as

        free chunk 0, block sigma(1), free chunk 1, ..., block sigma(n), free chunk n

    where free chunk j has ``slots[j]`` of the trailing pi-values in order.
    Returns (flattened permutation, alpha1, alpha2) with alpha1/alpha2 the
    mod-2 corrections relating its eps/chi to those of ``pi``:

        eps(flat) = eps(pi) * (-1)^alpha1      chi(flat) = chi(pi) * (-1)^alpha2

    ``degrees`` lists the degrees of the r objects in original order.
    """
    blocks = tuple(int(b) for b in blocks)
    slots = tuple(int(k) for k in slots)
    n = len(blocks)
    if len(slots) != n + 1:
        raise InputError(f"expected {n + 1} slot counts, got {len(slots)}")
    if any(b < 0 for b in blocks) or any(k < 0 for k in slots):
        raise InputError("block and slot sizes must be nonnegative")
    total_blocks = sum(blocks)
    r = total_blocks + sum(slots)
    if len(pi) != r:
        raise InputError(f"pi must permute {r} elements, got {len(pi)}")
    if len(sigma) != n:
        raise InputError(f"sigma must permute {n} blocks, got {len(sigma)}")
    if len(degrees) != r:
        raise InputError(f"expected {r} degrees, got {len(degrees)}")

    par = [d & 1 for d in degrees]
    block_off = [0] * n
    for i in range(1, n):
        block_off[i] = block_off[i - 1] + blocks[i - 1]
    block_vals = [
        [pi(block_off[i] + l) for l in range(1, blocks[i] + 1)] for i in range(n)
    ]
    free_vals = []
    pos = total_blocks
    for k in slots:
        free_vals.append([pi(pos + l) for l in range(1, k + 1)])
        pos += k

    block_par = [sum(par[v - 1] for v in vals) & 1 for vals in block_vals]
    free_par = [sum(par[v - 1] for v in vals) & 1 for vals in free_vals]

    images = list(free_vals[0])
    for i in range(1, n + 1):
        images.extend(block_vals[sigma(i) - 1])
        images.extend(free_vals[i])

    alpha1 = 0
    alpha2 = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if sigma(i) > sigma(j):
                alpha1 += block_par[sigma(i) - 1] * block_par[sigma(j) - 1]
                alpha2 += blocks[sigma(i) - 1] * blocks[sigma(j) - 1]
    free_prefix = 0
    slot_prefix = 0
    for i in range(1, n + 1):
        free_prefix += free_par[i - 1]
        slot_prefix += slots[i - 1]
        alpha1 += block_par[sigma(i) - 1] * (free_prefix & 1)
        alpha2 += blocks[sigma(i) - 1] * slot_prefix
    alpha2 += alpha1
    return Permutation(images), alpha1 & 1, alpha2 & 1


def block_permutation_sign_check(
    pi: Permutation,
    sigma: Permutation,
    blocks: Sequence[int],
    slots: Sequence[int],
    degrees: Sequence[int],
) -> bool:
    """Do the returned alpha corrections match direct sign computation?"""
    flat, alpha1, alpha2 = interleave_block_permutation(
        pi, sigma, blocks, slots, degrees
    )
    eps_ok = koszul_sign(flat, degrees) == koszul_sign(pi, degrees) * (
        -1 if alpha1 else 1
    )
    chi_ok = antisym_koszul_sign(flat, degrees) == antisym_koszul_sign(
        pi, degrees
    ) * (-1 if alpha2 else 1)
    return eps_ok and chi_ok


def unshuffle_decomposition_check(
    blocks: Sequence[int], degrees: Sequence[int]
) -> bool:
    """Unshuffles times within-block permutations sweep out all of S_N.

    For both sign conventions: dealing 1..N into the blocks by an unshuffle
    gamma and then permuting each dealt hand reproduces every permutation of
    S_N exactly once, with the composite sign equal to the product of the
    unshuffle sign and the within-hand signs (hands graded by the degrees
    they were dealt).
    """
    spec = UnshuffleSpec(tuple(blocks))
    n_total = spec.total
    if len(degrees) != n_total:
        raise InputError(f"expected {n_total} degrees, got {len(degrees)}")
    offs = [0] * len(spec.blocks)
    for i in range(1, len(spec.blocks)):
        offs[i] = offs[i - 1] + spec.blocks[i - 1]
    hand_perms = [list(enumerate_permutations(b)) for b in spec.blocks]
    for sign_fn in (antisym_koszul_sign, koszul_sign):
        expected = Counter(
            (p.images, sign_fn(p, degrees))
            for p in enumerate_permutations(n_total)
        )
        got: Counter = Counter()
        for gamma in enumerate_unshuffles(spec):
            base = sign_fn(gamma, degrees)
            hand_degrees = [
                [degrees[gamma(offs[b] + l) - 1] for l in range(1, size + 1)]
                for b, size in enumerate(spec.blocks)
            ]
            for pis in itertools.product(*hand_perms):
                images = []
                sign = base
                for b, pb in enumerate(pis):
                    images.extend(gamma(offs[b] + pb(l)) for l in range(1, len(pb) + 1))
                    sign *= sign_fn(pb, hand_degrees[b])
                got[(tuple(images), sign)] += 1
        if got != expected:
            return False
    return True


def inversion_parity_check(
    sigma: Permutation, v: Sequence[int], w: Sequence[int]
) -> bool:
    """Two mod-2 identities tying inversion sums of sigma to weight vectors.

    With s = sigma, both of the following must vanish mod 2:

      sum_{i>j} v_i w_j + sum_{i<j, s(i)>s(j)} (w_{s(i)} v_{s(j)} + v_{s(i)} w_{s(j)})
                        + sum_{i>j} v_{s(i)} w_{s(j)}

      sum_{i<j, s(i)>s(j)} (v_{s(i)} + v_{s(j)})
                        - sum_i (i-1) v_i - sum_i (i-1) v_{s(i)}
    """
    n = len(sigma)
    if len(v) != n or len(w) != n:
        raise InputError(f"expected weight vectors of length {n}")

    def V(i):
        return v[i - 1]

    def W(i):
        return w[i - 1]

    s = sigma
    first = 0
    for i in range(1, n + 1):
        for j in range(1, i):
            first += V(i) * W(j) + V(s(i)) * W(s(j))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if s(i) > s(j):
                first += W(s(i)) * V(s(j)) + V(s(i)) * W(s(j))
    if first & 1:
        return False

    second = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if s(i) > s(j):
                second += V(s(i)) + V(s(j))
    for i in range(1, n + 1):
        second -= (i - 1) * (V(i) + V(s(i)))
    return second & 1 == 0


def adjacent_swap_order(n: int) -> list:
    """Positions of adjacent swaps that walk through all of S_n.

    Starting from any arrangement of n objects and applying the returned
    swaps (position j means swap slots j and j+1, 0-based) visits every
    rearrangement exactly once.  Length is n! - 1.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    if n <= 1:
        return []
    inner = adjacent_swap_order(n - 1)
    down = list(range(n - 2, -1, -1))
    up = list(range(n - 1))
    seq = list(down)
    at_left = True
    for j in inner:
        seq.append(j + 1 if at_left else j)
        if at_left:
            seq.extend(up)
            at_left = False
        else:
            seq.extend(down)
            at_left = True
    return seq
