"""Graded vector spaces and sparse multilinear maps, exact coefficients.

A GradedSpace is a finite ordered basis, each element carrying an integer
degree.  Vectors and maps store sparse dicts of int or Fraction
coefficients; arithmetic never leaves exact rationals.

A MultiMap is a multilinear map V^k -> V of fixed internal degree p,
stored as a table on basis tuples.  Construction enforces homogeneity:
every tabulated output lives in degree p + sum of the input degrees.

The sign convention for evaluating a tensor product of maps on a tensor
product of arguments is fixed here once, in tensor_block_eval: a map of
degree q picks up (-1)^{q * d} when it moves past arguments of total
degree d to reach its own inputs.  compose_into, the sparse composition
the braces are built from, uses it too and is differential-tested against it.
Signed sums of whole maps accumulate into one entry table with add_into and
are validated once, as a MultiMap, at the end.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, ResourceLimitError
from .graded import (
    ENUMERATION_CAP,
    InsertionPattern,
    adjacent_swap_order,
    antisym_koszul_sign,
    enumerate_permutations,
    insertion_patterns,
)

Scalar = int | Fraction


class GradedSpace:
    """Finite ordered basis with integer degrees."""

    __slots__ = ("basis", "names", "degrees", "parities", "_index")

    def __init__(self, basis: Iterable[tuple]):
        basis = tuple((str(name), int(deg)) for name, deg in basis)
        if not basis:
            raise InputError("a graded space needs at least one basis element")
        names = tuple(name for name, _ in basis)
        if len(set(names)) != len(names):
            raise InputError("basis names must be distinct")
        if any(not name for name in names):
            raise InputError("basis names must be nonempty")
        self.basis = basis
        self.names = names
        self.degrees = tuple(deg for _, deg in basis)
        self.parities = tuple(deg & 1 for deg in self.degrees)
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown basis element {name!r}") from None

    def basis_vector(self, i: int, coeff: Scalar = 1) -> "GradedVector":
        return GradedVector(self, {i: coeff})

    def zero_vector(self) -> "GradedVector":
        return GradedVector(self, {})

    def vector(self, coeffs: Mapping[int, Scalar]) -> "GradedVector":
        return GradedVector(self, coeffs)

    def tuples(self, arity: int) -> Iterator[tuple]:
        return itertools.product(range(self.dim), repeat=arity)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedSpace) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in self.basis)
        return f"GradedSpace({inner})"


class GradedVector:
    """A sparse vector; zero coefficients are never stored."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: GradedSpace, coeffs: Mapping[int, Scalar]):
        clean = {}
        for i, c in coeffs.items():
            if not 0 <= i < space.dim:
                raise InputError(f"basis index {i} out of range")
            if c:
                clean[i] = c
        self.space = space
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Degree of a homogeneous vector, None for the zero vector."""
        degs = {self.space.degrees[i] for i in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"vector is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def scale(self, c: Scalar) -> "GradedVector":
        return GradedVector(self.space, {i: c * v for i, v in self.coeffs.items()})

    def __rmul__(self, c: Scalar) -> "GradedVector":
        return self.scale(c)

    def __add__(self, other: "GradedVector") -> "GradedVector":
        if not isinstance(other, GradedVector):
            return NotImplemented
        if other.space != self.space:
            raise InputError("cannot add vectors from different spaces")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return GradedVector(self.space, out)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(-1)

    def __neg__(self) -> "GradedVector":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedVector)
            and other.space == self.space
            and other.coeffs == self.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self.coeffs:
            return "GradedVector(0)"
        terms = " + ".join(
            f"{c}*{self.space.names[i]}" for i, c in sorted(self.coeffs.items())
        )
        return f"GradedVector({terms})"


class MultiMap:
    """A degree-p multilinear map V^k -> V as a sparse basis table.

    entries maps input index tuples to sparse output coefficient dicts;
    missing tuples are zero.  Homogeneity is checked at construction:
    an entry on inputs of total degree d may only output degree p + d.
    """

    __slots__ = ("space", "arity", "degree", "entries")

    def __init__(
        self,
        space: GradedSpace,
        arity: int,
        degree: int,
        entries: Mapping[tuple, Mapping[int, Scalar]],
    ):
        arity = int(arity)
        if arity < 1:
            raise InputError(f"map arity must be at least 1, got {arity}")
        degree = int(degree)
        clean = {}
        for key, out in entries.items():
            key = tuple(int(i) for i in key)
            if len(key) != arity:
                raise InputError(f"entry {key}: expected {arity} inputs")
            in_degree = 0
            for i in key:
                if not 0 <= i < space.dim:
                    raise InputError(f"entry {key}: basis index {i} out of range")
                in_degree += space.degrees[i]
            target = degree + in_degree
            if isinstance(out, GradedVector):
                out = out.coeffs
            pruned = {}
            for j, c in out.items():
                if not c:
                    continue
                if not 0 <= j < space.dim:
                    raise InputError(f"entry {key}: output index {j} out of range")
                if space.degrees[j] != target:
                    names = tuple(space.names[i] for i in key)
                    raise InputError(
                        f"entry {names} -> {space.names[j]} violates homogeneity: "
                        f"output degree {space.degrees[j]}, expected {target}"
                    )
                pruned[j] = c
            if pruned:
                clean[key] = pruned
        self.space = space
        self.arity = arity
        self.degree = degree
        self.entries = clean

    @classmethod
    def zero(cls, space: GradedSpace, arity: int, degree: int) -> "MultiMap":
        return cls(space, arity, degree, {})

    @property
    def brace_parity(self) -> int:
        """Degree parity of this map viewed as a brace-algebra element."""
        return (self.degree + self.arity + 1) & 1

    def is_zero(self) -> bool:
        return not self.entries

    def __call__(self, args: Sequence[GradedVector]) -> GradedVector:
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        supports = []
        for a in args:
            if not isinstance(a, GradedVector) or a.space != self.space:
                raise InputError("arguments must be vectors in the map's space")
            if not a.coeffs:
                return self.space.zero_vector()
            supports.append(tuple(a.coeffs.items()))
        out: dict = {}
        for combo in itertools.product(*supports):
            key = tuple(i for i, _ in combo)
            val = self.entries.get(key)
            if val is None:
                continue
            c = 1
            for _, ci in combo:
                c = c * ci
            for j, cj in val.items():
                out[j] = out.get(j, 0) + c * cj
        return GradedVector(self.space, out)

    def value(self, key: Sequence[int]) -> GradedVector:
        """Table lookup on a basis index tuple."""
        return GradedVector(self.space, self.entries.get(tuple(key), {}))

    def scale(self, c: Scalar) -> "MultiMap":
        if not c:
            return MultiMap.zero(self.space, self.arity, self.degree)
        return MultiMap(
            self.space,
            self.arity,
            self.degree,
            {k: {j: c * v for j, v in out.items()} for k, out in self.entries.items()},
        )

    def __rmul__(self, c: Scalar) -> "MultiMap":
        return self.scale(c)

    def __add__(self, other: "MultiMap") -> "MultiMap":
        if not isinstance(other, MultiMap):
            return NotImplemented
        if (
            other.space != self.space
            or other.arity != self.arity
            or other.degree != self.degree
        ):
            raise InputError(
                "cannot add maps with different signatures: "
                f"(arity {self.arity}, degree {self.degree}) vs "
                f"(arity {other.arity}, degree {other.degree})"
            )
        merged = {k: dict(v) for k, v in self.entries.items()}
        for k, out in other.entries.items():
            tgt = merged.setdefault(k, {})
            for j, c in out.items():
                tgt[j] = tgt.get(j, 0) + c
        return MultiMap(self.space, self.arity, self.degree, merged)

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiMap)
            and other.space == self.space
            and other.arity == self.arity
            and other.degree == self.degree
            and other.entries == self.entries
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MultiMap(arity={self.arity}, degree={self.degree}, "
            f"{len(self.entries)} entries)"
        )


def _arg_parities(args: Sequence[GradedVector]):
    """Degree parities of homogeneous args, or None if any arg is zero."""
    pars = []
    for a in args:
        d = a.degree()
        if d is None:
            return None
        pars.append(d & 1)
    return pars


def _tensor_core(
    f: MultiMap,
    gs: Sequence[MultiMap],
    slots: Sequence[int],
    args: Sequence[GradedVector],
) -> GradedVector:
    """Evaluate (1^{k_0} (x) g_1 (x) 1^{k_1} (x) ... (x) g_n (x) 1^{k_n})
    then f, on already-validated homogeneous args."""
    pars = _arg_parities(args)
    if pars is None:
        return f.space.zero_vector()
    outer = []
    sign_exp = 0
    prefix = 0
    pos = 0
    for i, g in enumerate(gs):
        for _ in range(slots[i]):
            outer.append(args[pos])
            prefix ^= pars[pos]
            pos += 1
        sign_exp ^= (g.degree & 1) & prefix
        chunk = args[pos : pos + g.arity]
        for p in pars[pos : pos + g.arity]:
            prefix ^= p
        pos += g.arity
        outer.append(g(chunk))
    outer.extend(args[pos:])
    val = f(outer)
    return val.scale(-1) if sign_exp else val


def tensor_block_eval(
    f: MultiMap,
    gs: Sequence[MultiMap],
    slots: InsertionPattern | Sequence[int],
    args: Sequence[GradedVector],
) -> GradedVector:
    """Evaluate f after feeding blocks of args through the maps gs.

    slots gives the counts of untouched arguments before, between and after
    the n maps; f must have arity n + sum(slots).  Each g consumes the next
    g.arity arguments as a block.  The Koszul sign moves each g past all
    arguments standing before its block: a factor (-1)^{deg g * deg x} per
    argument x crossed.
    """
    gs = tuple(gs)
    if isinstance(slots, InsertionPattern):
        slots = slots.slots
    slots = tuple(int(k) for k in slots)
    if len(slots) != len(gs) + 1:
        raise InputError(f"expected {len(gs) + 1} slot counts, got {len(slots)}")
    if any(k < 0 for k in slots):
        raise InputError("slot counts must be nonnegative")
    if f.arity != len(gs) + sum(slots):
        raise InputError(
            f"outer map arity {f.arity} does not match "
            f"{len(gs)} insertions plus {sum(slots)} free slots"
        )
    expected = sum(g.arity for g in gs) + sum(slots)
    if len(args) != expected:
        raise InputError(f"expected {expected} arguments, got {len(args)}")
    for g in gs:
        if g.space != f.space:
            raise InputError("all maps must share one space")
    for a in args:
        if not isinstance(a, GradedVector) or a.space != f.space:
            raise InputError("arguments must be vectors in the maps' space")
        a.degree()  # raises on non-homogeneous input
    return _tensor_core(f, gs, slots, args)


def compose_into(
    acc: dict, sign: int, f: MultiMap, gs: Sequence[MultiMap], slots: Sequence[int]
) -> None:
    """Add sign * f o (1^{k_0} (x) g_1 (x) ... (x) g_n (x) 1^{k_n}) to the
    entry table acc, joining each g's entries, indexed by output, to f's
    entries on the slot g fills.  The Koszul sign is tensor_block_eval's; a
    block's degree parity is its g's output parity plus |g|, so the sign
    depends on f's entry alone.
    """
    par = f.space.parities
    by_out = []
    for g in gs:
        index: dict = {}
        for block, out in g.entries.items():
            for j, c in out.items():
                index.setdefault(j, []).append((block, c))
        by_out.append((index, g.degree & 1))
    pos = [sum(slots[: i + 1]) + i for i in range(len(gs))]
    starts = [0] + [p + 1 for p in pos]
    for key, fout in f.entries.items():
        hits = [index.get(key[p]) for (index, _), p in zip(by_out, pos)]
        if None in hits:
            continue
        sign_exp = prefix = 0
        for start, p, (_, q) in zip(starts, pos, by_out):
            for x in key[start:p]:
                prefix ^= par[x]
            sign_exp ^= q & prefix
            prefix ^= par[key[p]] ^ q
        segments = [key[start:p] for start, p in zip(starts, pos)]
        for combo in itertools.product(*hits):
            composed, c = (), -sign if sign_exp else sign
            for segment, (block, cg) in zip(segments, combo):
                composed += segment + block
                c *= cg
            row = acc.setdefault(composed + key[starts[-1] :], {})
            for j, cf in fout.items():
                row[j] = row.get(j, 0) + c * cf


def add_into(acc: dict, sign: int, m: MultiMap) -> None:
    """Add sign * m to the entry table acc: compose_into's counterpart for
    a map already tabulated."""
    for key, out in m.entries.items():
        row = acc.setdefault(key, {})
        for j, c in out.items():
            row[j] = row.get(j, 0) + sign * c


def antisymmetrize(f: MultiMap) -> MultiMap:
    """Signed symmetrization: as(f)(v) = sum over s in S_k of chi(s) f(sv).

    No averaging factor: an already antisymmetric f comes back as k! * f.
    Scatters each nonzero f(w) to every rearrangement of w with the chi sign
    of the way there, which is that of the way back: nnz(f) * k! adjacent-swap
    steps, each updating the sign and the word in constant time.
    """
    k = f.arity
    if k > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"antisymmetrize over arity {k} exceeds cap {ENUMERATION_CAP}"
        )
    par = f.space.parities
    swaps = (None, *adjacent_swap_order(k))
    result: dict = {}
    for key, out in f.entries.items():
        word, sign = list(key), 1
        for s in swaps:
            if s is not None:
                a, b = word[s], word[s + 1]
                word[s], word[s + 1] = b, a
                sign = sign if par[a] & par[b] else -sign
            row = result.setdefault(tuple(word), {})
            for j, c in out.items():
                row[j] = row.get(j, 0) + sign * c
    return MultiMap(f.space, k, f.degree, result)


def is_antisymmetric(f: MultiMap) -> bool:
    """Does f pick up chi under every adjacent argument swap?"""
    par = f.space.parities
    for key, out in f.entries.items():
        for s in range(f.arity - 1):
            a, b = key[s], key[s + 1]
            swapped = key[:s] + (b, a) + key[s + 2 :]
            flip = not (par[a] & par[b])
            other = f.entries.get(swapped, {})
            for j in set(out) | set(other):
                lhs = other.get(j, 0)
                rhs = out.get(j, 0)
                if flip:
                    rhs = -rhs
                if lhs != rhs:
                    return False
    return True


def tail_permutation_terms(
    word: Sequence[int], parities: Sequence[int], m: int
) -> list:
    """chi-signed permutations of the last m letters of a word of basis
    indices, each letter i graded by parities[i].

    Returns a list of (sign, rearranged word) pairs, one per element of S_m.
    """
    word = tuple(word)
    n = len(word) - m
    if not 0 <= m <= len(word):
        raise InputError(f"cannot permute the last {m} of {len(word)} letters")
    tail = word[n:]
    degs = [parities[i] for i in tail]
    return [
        (antisym_koszul_sign(p, degs), word[:n] + p.apply(tail))
        for p in enumerate_permutations(m)
    ]


def head_permutation_terms(
    word: Sequence[int], parities: Sequence[int], n: int
) -> list:
    """chi-signed permutations of the first n letters of a word."""
    word = tuple(word)
    if not 0 <= n <= len(word):
        raise InputError(f"cannot permute the first {n} of {len(word)} letters")
    head = word[:n]
    degs = [parities[i] for i in head]
    return [
        (antisym_koszul_sign(p, degs), p.apply(head) + word[n:])
        for p in enumerate_permutations(n)
    ]


def interleave_terms(
    word: Sequence[int], parities: Sequence[int], n: int, m: int
) -> list:
    """Signed ways of riffling the last m letters of a word among the first n.

    The first n letters keep their order; for every insertion pattern
    (k_0, ..., k_n) the trailing m letters are dealt, in order, into the
    gaps.  The sign on a pattern is (-1)^eta with

        eta = sum_i |y_i| * (degrees of z's placed before y_i)
            + sum_{i=0..n} (n - i) k_i

    where y are the leading and z the trailing letters.
    """
    word = tuple(word)
    if n < 0 or m < 0 or n + m != len(word):
        raise InputError(f"split {n}+{m} does not match {len(word)} letters")
    heads = word[:n]
    tails = word[n:]
    hpar = [parities[i] for i in heads]
    tpar = [parities[i] for i in tails]
    terms = []
    for pattern in insertion_patterns(m, n + 1):
        k = pattern.slots
        eta = 0
        for i in range(n + 1):
            eta += (n - i) * k[i]
        seq = list(tails[: k[0]])
        zprefix = sum(tpar[: k[0]]) & 1
        zpos = k[0]
        for i in range(1, n + 1):
            eta += hpar[i - 1] * zprefix
            seq.append(heads[i - 1])
            for z_idx in range(zpos, zpos + k[i]):
                seq.append(tails[z_idx])
                zprefix ^= tpar[z_idx]
            zpos += k[i]
        terms.append((-1 if eta & 1 else 1, tuple(seq)))
    return terms


def _decomposition_first_defect(f: MultiMap):
    """First (split, tuple) where riffled permutation sums disagree with
    direct antisymmetrization, or None.  Each term is a row of f's table."""
    k = f.arity
    asf = antisymmetrize(f)
    par = f.space.parities
    for n in range(k + 1):
        m = k - n
        for t in f.space.tuples(k):
            total: dict = {}
            for s1, w1 in tail_permutation_terms(t, par, m):
                for s2, w2 in head_permutation_terms(w1, par, n):
                    for s3, w3 in interleave_terms(w2, par, n, m):
                        sign = s1 * s2 * s3
                        for j, c in f.entries.get(w3, {}).items():
                            total[j] = total.get(j, 0) + sign * c
            if {j: c for j, c in total.items() if c} != asf.entries.get(t, {}):
                return {"split": (n, m), "inputs": t}
    return None


def antisymmetrize_decomposition_check(f: MultiMap) -> bool:
    """Does riffling tail perms, head perms and interleavings through f
    reproduce as(f) for every head/tail split of the arity?"""
    return _decomposition_first_defect(f) is None
