"""Graded vector spaces and sparse multilinear maps, exact coefficients.

A GradedSpace is a finite ordered basis with an int degree per element;
every index, arity and letter is an int too, never a bool (graded._ints).
Vectors and maps store sparse int or Fraction coefficients: exact rationals.

A MultiMap is a multilinear map V^k -> V of fixed internal degree p,
stored as a table on basis tuples.  Construction enforces homogeneity:
every tabulated output lives in degree p + sum of the input degrees; it
checks whole tables first, and key by key only where that fails.

The sign convention for evaluating a tensor product of maps on a tensor
product of arguments is fixed here once: a map of degree q picks up
(-1)^{q * d} when it moves past arguments of total degree d to reach its
own inputs.  compose_into, the sparse composition the braces are built
from, applies it to whole tables, symbrace.symbrace_eval to the blocks it
deals to the inserted maps; the tests check both against the oracle
_tensor_core.  Signed sums (add_into, compose_into) accumulate into one
entry table, validated once, as a MultiMap.  A chi-antisymmetric map is
fixed by its rows on sorted words: fold_onto_sorted sums the rows of
antisymmetrize and of symbrace_eval onto them, and orbit_map validates
only those and copies each to each distinct rearrangement of its word,
which orbit_words deals by graded.riffles and signs by word_parity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError
from .graded import _check_cap, _ints, riffles, word_parity

Scalar = int | Fraction


class GradedSpace:
    """Finite ordered basis with integer degrees."""

    __slots__ = (
        "basis", "names", "degrees", "parities", "_index", "_degree_of", "_by_degree"
    )

    def __init__(self, basis: Iterable[tuple]):
        basis = tuple((str(name), deg) for name, deg in basis)
        if not basis:
            raise InputError("a graded space needs at least one basis element")
        names = tuple(name for name, _ in basis)
        if len(set(names)) != len(names):
            raise InputError("basis names must be distinct")
        if any(not name for name in names):
            raise InputError("basis names must be nonempty")
        self.basis = basis
        self.names = names
        self.degrees = degs = _ints((deg for _, deg in basis), "basis degrees")
        self.parities = tuple(deg & 1 for deg in degs)
        self._index = {name: i for i, name in enumerate(names)}
        # index -> degree, degree -> indices: what MultiMap checks tables on
        self._degree_of, self._by_degree = dict(enumerate(degs)), {}
        for i, d in enumerate(degs):
            self._by_degree.setdefault(d, set()).add(i)

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
            if type(i) is not int or not 0 <= i < space.dim:
                _ints(coeffs, "basis indices")  # raises if any index is not an int
                raise InputError(f"basis index {i} out of range")
            if c:
                clean[i] = c
        self.space, self.coeffs = space, clean

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
    missing tuples are zero.  Construction copies the rows without zeros
    and checks homogeneity: an entry on inputs of total degree d may only
    output degree p + d.  A table of several keys is checked whole first
    (_key_degrees); a one-key table, keys that are not plain tuples of ints
    and rows with a zero or a wrong output take the per-key loop instead.
    """

    __slots__ = ("space", "arity", "degree", "entries")

    def __init__(
        self,
        space: GradedSpace,
        arity: int,
        degree: int,
        entries: Mapping[tuple, Mapping[int, Scalar]],
    ):
        arity, degree = _ints((arity, degree), "map arity and degree")
        if arity < 1:
            raise InputError(f"map arity must be at least 1, got {arity}")
        degrees, dim = space.degrees, len(space.degrees)
        clean, items = {}, entries.items()
        # a one-key table is its own whole table: it takes the per-key loop
        key_degrees = len(entries) > 1 and _key_degrees(entries, arity, space)
        if key_degrees:
            sums, outputs, empty = iter(key_degrees), space._by_degree.get, frozenset()
        for key, out in items:
            if key_degrees:
                target = degree + next(sums)
                if out and all(out.values()) and out.keys() <= outputs(target, empty):
                    clean[key] = out.copy()
                    continue
            else:
                key = _ints(key, "input letters")
                if len(key) != arity:
                    raise InputError(f"entry {key}: expected {arity} inputs")
                if min(key) < 0 or max(key) >= dim:
                    i = next(i for i in key if not 0 <= i < dim)
                    raise InputError(f"entry {key}: basis index {i} out of range")
                target = degree + sum(map(degrees.__getitem__, key))
            out = out.coeffs if isinstance(out, GradedVector) else out
            _ints(out, "output indices")
            pruned = {}
            for j, c in out.items():
                if not c:
                    continue
                if not 0 <= j < dim:
                    raise InputError(f"entry {key}: output index {j} out of range")
                if degrees[j] != target:
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
        space = self.space
        coeffs = []
        for a in args:
            if not isinstance(a, GradedVector) or (
                a.space is not space and a.space != space
            ):
                raise InputError("arguments must be vectors in the map's space")
            coeffs.append(a.coeffs)
        first, rest = coeffs[0], coeffs[1:]
        out: dict = {}
        # coefficients are multiplied on table rows only, skipping factors of 1
        for key in itertools.product(*coeffs):
            val = self.entries.get(key)
            if val is None:
                continue
            c = first[key[0]]
            for cs, i in zip(rest, key[1:]):
                if cs[i] != 1:
                    c *= cs[i]
            for j, cj in val.items():
                out[j] = out[j] + c * cj if j in out else c * cj
        return GradedVector(space, out)

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
        merged: dict = {}
        add_into(merged, 1, self)
        add_into(merged, 1, other)
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


def _key_degrees(entries: Mapping, arity: int, space: GradedSpace) -> list | None:
    """The degree of each key if all keys are tuples of `arity` ints in
    range(dim) and all rows dicts on ints, of exact types, else None."""
    keys, rows, flat = entries.keys(), entries.values(), itertools.chain.from_iterable
    plain = (
        {*map(type, keys)} <= {tuple}
        and {*map(len, keys)} <= {arity}
        and {*map(type, flat(keys))} <= {int}
        and {*map(type, rows)} <= {dict}
        and {*map(type, flat(rows))} <= {int}
    )
    degree_of = itertools.repeat(space._degree_of.__getitem__)
    try:  # a letter outside range(dim) has no degree
        return list(map(sum, map(map, degree_of, keys))) if plain else None
    except KeyError:
        return None


def compose_into(
    acc: dict, sign: int, f: MultiMap, gs: Sequence[MultiMap], slots: Sequence[int]
) -> None:
    """Add sign * f o (1^{k_0} (x) g_1 (x) ... (x) g_n (x) 1^{k_n}), n >= 1,
    to the entry table acc, joining each g's entries, indexed by output, to
    f's entries on the slot g fills.  The Koszul sign is the module's
    convention, as the tests' point-by-point oracle _tensor_core applies
    it; a block's degree parity is its g's output parity plus |g|, so the
    sign depends on f's entry alone.  sign is +1 or -1; it joins the Koszul
    parity, so each f entry is negated at most once, not multiplied by it.
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
        neg, prefix = sign < 0, 0
        for start, p, (_, q) in zip(starts, pos, by_out):
            for x in key[start:p]:
                prefix ^= par[x]
            neg ^= q & prefix
            prefix ^= par[key[p]] ^ q
        # each slot's free segment joined to each of its g's blocks, once
        parts = [
            [(key[start:p] + block, cg) for block, cg in hit]
            for start, p, hit in zip(starts, pos, hits)
        ]
        tail = key[starts[-1] :]
        outs = [(j, -cf) for j, cf in fout.items()] if neg else fout.items()
        for combo in itertools.product(*parts):
            composed, c = combo[0]
            for part, cg in combo[1:]:
                composed += part
                c *= cg
            row = acc.setdefault(composed + tail, {})
            for j, cf in outs:
                row[j] = row[j] + c * cf if j in row else c * cf


def add_into(acc: dict, sign: int, m: MultiMap) -> None:
    """Add sign * m to the entry table acc: compose_into's counterpart for
    a map already tabulated; a row new to acc is its copy, scaled once."""
    for key, out in m.entries.items():
        out = out.copy() if sign == 1 else {j: sign * c for j, c in out.items()}
        row = acc.setdefault(key, out)
        if row is not out:
            for j, c in out.items():
                row[j] = row[j] + c if j in row else c


def orbit_map(space: GradedSpace, arity: int, degree: int, reps: Mapping) -> MultiMap:
    """The chi-antisymmetric map with rows reps on sorted words.  Only reps
    is checked, by the constructor: a rearrangement of a word has its
    letters, degree sum and row, so each kept row goes unchecked to each
    word orbit_words lists, negated where chi is -1.  The sorted word keeps
    the constructor's row, and every other key gets its own copy.

    >>> V = GradedSpace([("u", 1), ("e", 0)])
    >>> sorted(orbit_map(V, 3, -1, {(0, 0, 1): {0: 2}}).entries.items())
    [((0, 0, 1), {0: 2}), ((0, 1, 0), {0: -2}), ((1, 0, 0), {0: 2})]
    """
    m, entries = MultiMap(space, arity, degree, reps), {}
    for rep, row in m.entries.items():
        plus, minus = orbit_words(rep, space.parities)
        entries.update(zip(plus, map(dict.copy, itertools.repeat(row))))
        entries[rep] = row
        if minus:
            neg = {j: -c for j, c in row.items()}
            entries.update(zip(minus, map(dict.copy, itertools.repeat(neg))))
            entries[minus[0]] = neg
    m.entries = entries
    return m


def orbit_words(word: tuple, parities) -> tuple:
    """(plus, minus): each distinct rearrangement of a sorted word that
    repeats no even letter, once, split by its chi sign.

    chi skips the out-of-order pairs of two odd letters, so the odd letters
    are arranged unsigned: the single ones in every order, then each
    repeated one's copies riffled among them.  An even and an odd letter are
    out of order when one has crossed the other, so chi is word_parity of
    the evens' order times -1 per unit their slots' sum moves from word's.
    Each order of the evens heads each odd arrangement and is riffled into
    it.  Every riffle is dealt by graded.riffles, the parity of the slots too.

    >>> orbit_words((0, 0, 1), (1, 0))
    ([(1, 0, 0), (0, 0, 1)], [(0, 1, 0)])
    """
    runs = [tuple(run) for x, run in itertools.groupby(word) if parities[x]]
    odds = list(itertools.permutations(run[0] for run in runs if len(run) == 1))
    for run in runs:
        if len(run) > 1:
            joined = list(map(run.__add__, odds))
            odds = [w for d, *_ in riffles(len(run), len(odds[0])) for w in map(d, joined)]
    evens = tuple(x for x in word if not parities[x])
    if not evens:
        return odds, []
    base = sum(p for p, x in enumerate(word) if not parities[x]) & 1
    signed: tuple = [], []  # by chi sign, before the evens are dealt
    for order in itertools.permutations(evens):
        signed[word_parity(order, parities, True) ^ base].extend(map(order.__add__, odds))
    out: tuple = [], []
    for deal, parity, _ in riffles(len(evens), len(word) - len(evens)):
        out[parity].extend(map(deal, signed[0]))
        out[parity ^ 1].extend(map(deal, signed[1]))
    return out


def fold_onto_sorted(terms: Iterable[tuple], blocks: Sequence[int], parities) -> dict:
    """The rows on sorted words of the chi-antisymmetric sum of terms.

    terms yields (word, neg, row), a row on a word whose blocks of the given
    sizes each read nondecreasingly, negated if neg is odd.  The row folds
    onto s = sorted(word) with the chi sign of the sort, times the number of
    unshuffles dealing s into the blocks as word: prod over letters x of
    m_x! / (m_x1! ... m_xn!), x occurring m_x times in s and m_xi times in
    block i (the stabilizer of s for singleton blocks).  An s is dropped if
    its row cancels or it repeats an even letter (its unshuffles cancel).

    >>> terms = [((0, 0, 0), 0, {0: 1}), ((0, 1, 0), 0, {0: 1}), ((1, 1, 0), 0, {0: 1})]
    >>> fold_onto_sorted(terms, (2, 1), (1, 0))
    {(0, 0, 0): {0: 3}, (0, 0, 1): {0: -2}}
    """
    cuts = list(itertools.accumulate((0, *blocks)))
    spans = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1]
    folded: dict = {}  # sorted word -> (its _stabilizer, its row)
    for word, neg, row in terms:
        if not row:
            continue
        rep = tuple(sorted(word))
        if rep not in folded:
            folded[rep] = (_stabilizer(rep, parities), {})
        weight, acc = folded[rep]
        if not weight:
            continue
        for a, b in spans if weight > 1 else ():
            weight //= _stabilizer(word[a:b], parities)
        neg = (neg + word_parity(word, parities, True)) & 1
        # a weight of 1 multiplies nothing, and a sign negates, not multiplies
        for j, c in row.items():
            c = c * weight if weight != 1 else c
            if j in acc:
                acc[j] = acc[j] - c if neg else acc[j] + c
            else:
                acc[j] = -c if neg else c
    rows = {s: {j: c for j, c in r.items() if c} for s, (_, r) in folded.items()}
    return {s: r for s, r in rows.items() if r}


def _stabilizer(word: tuple, parities) -> int:
    """m! per run of m copies of a letter in a nondecreasing word, 0 if an
    even letter repeats."""
    runs = ((x, len(list(run))) for x, run in itertools.groupby(word))
    return math.prod(math.factorial(m) if parities[x] else m == 1 for x, m in runs)


def antisymmetrize(f: MultiMap) -> MultiMap:
    """Signed symmetrization: as(f)(v) = sum over s in S_k of chi(s) f(sv).

    No averaging factor: an already antisymmetric f comes back as k! * f.
    as(f) is chi-antisymmetric, fixed by its rows on sorted words, which
    fold_onto_sorted sums from f's rows over k singleton blocks and
    orbit_map checks and writes to their orbits: a sort and an O(k) sign per
    row of f, plus one key per distinct rearrangement of each nonzero sorted
    word, k! / prod m_x!.

    >>> V = GradedSpace([("u", 1), ("e", 0)])
    >>> sorted(antisymmetrize(MultiMap(V, 3, -1, {(0, 0, 1): {0: 1}})).entries.items())
    [((0, 0, 1), {0: 2}), ((0, 1, 0), {0: -2}), ((1, 0, 0), {0: 2})]
    """
    k = f.arity
    _check_cap(k, "antisymmetrization")
    par = f.space.parities
    reps = fold_onto_sorted(((w, 0, r) for w, r in f.entries.items()), (1,) * k, par)
    return orbit_map(f.space, k, f.degree, reps)


def is_antisymmetric(f: MultiMap) -> bool:
    """Does f pick up chi under every adjacent argument swap?  Rows are pruned
    at construction, so a swapped row equals the row or its negation exactly."""
    par, entries = f.space.parities, f.entries
    for key, out in entries.items():
        negated = None
        for s in range(f.arity - 1):
            a, b = key[s], key[s + 1]
            if par[a] & par[b]:
                want = out
            else:
                want = negated = negated or {j: -c for j, c in out.items()}
            if entries.get(key[:s] + (b, a) + key[s + 2 :]) != want:
                return False
    return True
