"""Permutations, unshuffles and Koszul signs for graded objects.

Inside the library a rearrangement is a 0-based word ``w``, putting the
objects ``x_{w[0]}, ..., x_{w[n-1]}`` in a row.  unshuffle_words is the one
enumerator of unshuffles (S_n is itertools.permutations: permutation_words)
and word_parity the one sign, read off the word: eps is (-1)^{|x||y|} for
each pair x, y the word puts out of order, chi = sgn * eps, and only degree
parities enter.  riffles is the one table of riffles, and
staged_rearrangements (Lemmas 4.1, chi, and 5.1, eps) the one riffle sign.

At the API edge, a Permutation is a word in one-line notation with 1-based
values: ``s`` sends position ``i`` to the value ``s(i)``, and applying ``s``
to ``(x_1, ..., x_n)`` yields ``(x_{s(1)}, ..., x_{s(n)})``; the checks of
Lemmas 4.3 and 4.4 read each Permutation they take once, as its 0-based word.

Enumerating all of S_n, or all unshuffles of n elements, grows like n!;
both enumerators and riffles refuse n above the fixed ENUMERATION_CAP with
ResourceLimitError, as do antisymmetrize and symbrace_eval above that arity.
_ints is the one integer rule: an int, never a bool, else InputError.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
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
        images = _ints(images, "permutation images")
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
        return antisym_koszul_sign(self, (0,) * len(self))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def word_parity(word: Sequence[int], parities: Sequence[int], chi: bool) -> int:
    """The sign of a rearrangement as a parity, read off its 0-based word,
    whose letters may repeat: eps adds |x_a||x_b| per pair of letters a > b
    it puts out of order, from the low bits of parities (or degrees), and
    chi adds 1 more.  seen holds the letters read an odd number of times,
    odd the odd-parity ones among them: x counts those above it.

    >>> word_parity((1, 0), (1, 1), False), word_parity((1, 0), (1, 1), True)
    (1, 0)
    """
    seen = odd = count = 0
    for x in word:
        if chi:
            count += (seen >> (x + 1)).bit_count()
            seen ^= 1 << x
        if parities[x] & 1:
            count += (odd >> (x + 1)).bit_count()
            odd ^= 1 << x
    return count & 1


def _sign(perm: Permutation, degrees: Sequence[int], chi: bool) -> int:
    if len(degrees) != len(perm):
        raise InputError(
            f"got {len(degrees)} degrees for a permutation of size {len(perm)}"
        )
    return -1 if word_parity([v - 1 for v in perm.images], degrees, chi) else 1


def koszul_sign(perm: Permutation, degrees: Sequence[int]) -> int:
    """eps(perm) for objects whose degrees are listed in original order.

    >>> koszul_sign(Permutation((1, 2, 3)), (3, -1, 0))
    1
    >>> koszul_sign(Permutation((2, 1)), (1, 1))
    -1
    >>> koszul_sign(Permutation((2, 1)), (1, 2))
    1
    """
    return _sign(perm, degrees, False)


def antisym_koszul_sign(perm: Permutation, degrees: Sequence[int]) -> int:
    """chi(perm) = sgn(perm) * eps(perm).

    >>> antisym_koszul_sign(Permutation((2, 1)), (1, 1))
    1
    >>> antisym_koszul_sign(Permutation((2, 1)), (0, 0))
    -1
    """
    return _sign(perm, degrees, True)


def _check_cap(n: int, what: str) -> None:
    if n < 0:
        raise InputError(f"{what} size must be nonnegative, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"{what} over {n} elements exceeds cap {ENUMERATION_CAP}"
        )


def _ints(values: Iterable, what: str) -> tuple:
    """values as a tuple, each an int of exact type (so not a bool)."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise InputError(f"{what} must be integers: {values}")
    return values


def _block_sizes(blocks: Sequence[int]) -> tuple:
    blocks = _ints(blocks, "block sizes")
    if any(b < 0 for b in blocks):
        raise InputError(f"block sizes must be nonnegative: {blocks}")
    return blocks


def unshuffle_words(blocks: Sequence[int]) -> Iterator[tuple]:
    """The word of every unshuffle, lexicographic.

    The block sizes, which may be 0, partition the positions 0..N-1 in
    order; an unshuffle deals the values 0..N-1 into the blocks so that
    each block reads increasingly.

    >>> list(unshuffle_words((1, 2)))
    [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
    """
    blocks = _block_sizes(blocks)
    _check_cap(sum(blocks), "unshuffle enumeration")
    deals = [((), tuple(range(sum(blocks))))]
    for size in blocks:
        deals = [
            (word + hand, tuple(v for v in rest if v not in hand))
            for word, rest in deals
            for hand in itertools.combinations(rest, size)
        ]
    return (word for word, _ in deals)


def permutation_words(n: int) -> Iterator[tuple]:
    """S_n as 0-based words, lexicographic (itertools.permutations)."""
    _check_cap(n, "permutation enumeration")
    return itertools.permutations(range(n))


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line words."""
    for word in permutation_words(n):
        yield Permutation(v + 1 for v in word)


def enumerate_unshuffles(blocks: Sequence[int]) -> Iterator[Permutation]:
    """The unshuffles of unshuffle_words as 1-based Permutations.

    >>> [u.images for u in enumerate_unshuffles((2, 1))]
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    for word in unshuffle_words(blocks):
        yield Permutation(v + 1 for v in word)


def insertion_patterns(total: int, parts: int) -> Iterator[tuple]:
    """All weak compositions of `total` into `parts` slots, lexicographic:
    the slot counts (k_0, ..., k_n) of free inputs kept between n inserted
    maps.

    >>> list(insertion_patterns(2, 2))
    [(0, 2), (1, 1), (2, 0)]
    """
    if parts < 1:
        raise InputError("need at least one slot")
    if total < 0:
        raise InputError("total must be nonnegative")
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


@functools.cache
def riffles(n: int, m: int) -> tuple:
    """(deal, parity, below) per riffle of n heads among m tails, the heads'
    places in combinations order: deal reads heads + tails in the riffled
    order (tuple below two items), parity is that of the places' sum, and
    below has bit i*m + j per tail j dealt before head i.  Refused above
    ENUMERATION_CAP items, so the cache holds at most 511 riffles.

    >>> [("".join(deal("abc")), parity, below) for deal, parity, below in riffles(1, 2)]
    [('abc', 0, 0), ('bac', 1, 1), ('bca', 0, 3)]
    """
    for size in (n, m, n + m):
        _check_cap(size, "riffle enumeration")
    out = []
    for places in itertools.combinations(range(n + m), n):
        order, below = [*range(n, n + m)], 0
        for i, p in enumerate(places):
            order.insert(p, i)
            below |= ((1 << p - i) - 1) << i * m
        out.append((itemgetter(*order) if n + m > 1 else tuple, sum(places) & 1, below))
    return tuple(out)


def staged_rearrangements(
    items: Sequence, parities: Sequence[int], n: int, chi: bool
) -> Iterator[tuple]:
    """S_{n+m} = riffles . (S_n x S_m): every rearrangement of items, staged.

    The first n items are the heads y, the last m the tails z.  Yields
    (sign, rearranged tuple) for every permutation of the z's (outermost),
    then every permutation of the y's, then every riffle of the permuted z's
    among the permuted y's: the y's take n of the n + m places in order
    (lexicographic combinations), the z's the rest, b_i of them before y_i.
    Block permutations are signed by word_parity over the items' degree
    parities, chi when chi is set and eps otherwise; the riffle by (-1)^eta:

        eta = sum_i |y_i| * (parities of the z's placed before y_i)
            + sum_i b_i        (this term only when chi is set)

    Each rearrangement comes once, with its chi or eps sign.  Each riffle of
    riffles(n, m), read once per call, deals ys + zs; its parity + n(n-1)/2
    is sum_i b_i mod 2; its below bits of odd y_i and z_j are eta's first sum.

    >>> terms = staged_rearrangements("abc", (0, 0, 0), 1, True)
    >>> sorted(("".join(w), s) for s, w in terms)
    [('abc', 1), ('acb', -1), ('bac', -1), ('bca', 1), ('cab', 1), ('cba', -1)]
    """
    m = len(items) - n
    if not 0 <= n <= len(items) == len(parities):
        raise InputError(
            f"cannot split {len(items)} items ({len(parities)} parities) at {n}"
        )
    dealt = [(d, p + n * (n - 1) // 2 if chi else 0, b) for d, p, b in riffles(n, m)]
    hpar, tails, tpar = parities[:n], items[n:], parities[n:]
    heads = [
        (word_parity(w, hpar, chi), tuple(map(items.__getitem__, w)),
         sum(1 << i * m for i, x in enumerate(w) if hpar[x] & 1))
        for w in permutation_words(n)
    ]
    for w in permutation_words(m):
        zneg, zs = word_parity(w, tpar, chi), tuple(map(tails.__getitem__, w))
        odd = sum(1 << j for j, x in enumerate(w) if tpar[x] & 1)
        for yneg, ys, spread in heads:
            word, pairs, neg = ys + zs, spread * odd, yneg + zneg
            for deal, eta, below in dealt:
                yield -1 if (neg + eta + (below & pairs).bit_count()) & 1 else 1, deal(word)


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
    blocks, slots = _ints(blocks, "block sizes"), _ints(slots, "slot sizes")
    n = len(blocks)
    if len(slots) != n + 1:
        raise InputError(f"expected {n + 1} slot counts, got {len(slots)}")
    if any(b < 0 for b in blocks) or any(k < 0 for k in slots):
        raise InputError("block and slot sizes must be nonnegative")
    r = sum(blocks) + sum(slots)
    if len(pi) != r:
        raise InputError(f"pi must permute {r} elements, got {len(pi)}")
    if len(sigma) != n:
        raise InputError(f"sigma must permute {n} blocks, got {len(sigma)}")
    if len(degrees) != r:
        raise InputError(f"expected {r} degrees, got {len(degrees)}")

    # pi's images cut into the n blocks, then the n + 1 free chunks
    cuts = list(itertools.accumulate((0,) + blocks + slots))
    chunks = [pi.images[a:b] for a, b in zip(cuts, cuts[1:])]
    chunk_par = [sum(degrees[v - 1] & 1 for v in vals) & 1 for vals in chunks]
    block_par, free_par = chunk_par[:n], chunk_par[n:]

    images = list(chunks[n])
    word = [v - 1 for v in sigma.images]
    alpha1, alpha2 = word_parity(word, block_par, False), word_parity(word, blocks, False)
    free_prefix = slot_prefix = 0
    for i, s in enumerate(sigma.images):
        images += chunks[s - 1] + chunks[n + 1 + i]
        free_prefix += free_par[i]
        slot_prefix += slots[i]
        alpha1 += block_par[s - 1] * (free_prefix & 1)
        alpha2 += blocks[s - 1] * slot_prefix
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
    flat_word, pi_word = ([v - 1 for v in p.images] for p in (flat, pi))
    return all(
        word_parity(flat_word, degrees, chi) == word_parity(pi_word, degrees, chi) ^ alpha
        for chi, alpha in ((False, alpha1), (True, alpha2))
    )


def unshuffle_decomposition_check(
    blocks: Sequence[int], degrees: Sequence[int]
) -> bool:
    """Unshuffles times within-block permutations sweep out all of S_N.

    For both sign conventions: dealing 0..N-1 into the blocks by an
    unshuffle gamma and then permuting each dealt hand reproduces every
    permutation of S_N exactly once, with the composite sign equal to the
    product of the unshuffle sign and the within-hand signs (hands graded by
    the degrees they were dealt).
    """
    blocks = _block_sizes(blocks)
    n_total = sum(blocks)
    if len(degrees) != n_total:
        raise InputError(f"expected {n_total} degrees, got {len(degrees)}")
    cuts = list(itertools.accumulate((0,) + blocks))
    hand_perms = [list(permutation_words(b)) for b in blocks]
    everything, seen = set(permutation_words(n_total)), set()
    for gamma in unshuffle_words(blocks):
        hands = [gamma[a:b] for a, b in zip(cuts, cuts[1:])]
        grades = [[degrees[v] for v in hand] for hand in hands]
        for pis in itertools.product(*hand_perms):
            word = tuple(hand[i] for hand, pw in zip(hands, pis) for i in pw)
            if word in seen:
                return False
            seen.add(word)
            for chi in (True, False):
                neg = word_parity(gamma, degrees, chi)
                for pw, grade in zip(pis, grades):
                    neg ^= word_parity(pw, grade, chi)
                if neg != word_parity(word, degrees, chi):
                    return False
    return seen == everything


def inversion_parity_check(
    sigma: Permutation, v: Sequence[int], w: Sequence[int]
) -> bool:
    """Two mod-2 identities tying inversion sums of sigma to weight vectors.

    With s the 0-based word of sigma (s(i) = sigma(i + 1) - 1) and v, w
    indexed from 0, both of the following must vanish mod 2:

      sum_{i>j} v_i w_j + sum_{i<j, s(i)>s(j)} (w_{s(i)} v_{s(j)} + v_{s(i)} w_{s(j)})
                        + sum_{i>j} v_{s(i)} w_{s(j)}

      sum_{i<j, s(i)>s(j)} (v_{s(i)} + v_{s(j)})
                        - sum_i i v_i - sum_i i v_{s(i)}
    """
    n = len(sigma)
    if len(v) != n or len(w) != n:
        raise InputError(f"expected weight vectors of length {n}")
    s = [x - 1 for x in sigma.images]
    # the (s(i), s(j)) with i < j and s(i) > s(j)
    inv = [(a, b) for a, b in itertools.combinations(s, 2) if a > b]
    first = sum(w[a] * v[b] + v[a] * w[b] for a, b in inv)
    for j, i in itertools.combinations(range(n), 2):
        first += v[i] * w[j] + v[s[i]] * w[s[j]]
    second = sum(v[a] + v[b] for a, b in inv)
    second -= sum(i * (v[i] + v[s[i]]) for i in range(n))
    return (first | second) & 1 == 0
