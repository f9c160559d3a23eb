"""The insertion brace f{g_1, ..., g_n} on graded multilinear maps.

The brace sums, over all ways of keeping free slots between the inserted
maps, the signed tensor-block evaluations

    f{g_1,...,g_n} = sum over patterns (k_0,...,k_n) of
        (-1)^beta  f after (1^{k_0} (x) g_1 (x) ... (x) g_n (x) 1^{k_n})

with beta depending only on the shape data:

    beta = sum_{0 <= j < i} (a_i - 1)(k_j + a_j)      (a_0 = 0)
         + sum_i (N - i) q_i
         + sum_{j < i} q_i a_j

where N is f's arity and a_i, q_i are the arities and degrees of the g's.
This is the one sign the library computes; mutants that drop one of its
terms (the j = 0 slot term among them) live in the tests, which show that
the nesting identity fails under each.

As algebra elements, maps are graded by brace parity (p + k + 1 mod 2); the
Koszul signs of the nesting identity and the symmetrization are taken over
those parities.  symmetrize_brace is the one eps-signed sum of braces over
orderings of the inserted maps.  Lemma 5.1's two-stage symmetrization is
checked against it, and Lemma 4.1's against antisymmetrize
(decomposition_first_defect) on the rearrangements of f's keys and as(f)'s
keys only: a staged word rearranges its tuple, so elsewhere both sides are
empty.  No other module reads staged rearrangements.  One loop, _sum_braces,
adds every brace summand into one table, built unchecked (multimap._derived)
from checked maps: brace_eval and symmetrize_brace are one-term sums, and
bracket_sum sums signed bracket terms, expanding a top-level symmetrized
brace in place and evaluating each shared inner bracket once.  _signature
alone checks a bracket's shape.  The nesting identity deals the y's to the
x's by the weak compositions of insertion_patterns, skipping one that gives a
map more inputs than its arity.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import InputError
from .graded import (
    insertion_patterns,
    permutation_words,
    staged_rearrangements,
    word_parity,
)
from .multimap import (
    GradedSpace, MultiMap, _derived, add_into, antisymmetrize, compose_into
)


# brace_eval must directly follow `return total & 1`: bench/test_bench.py edits it
def beta_parity(
    N: int,
    a: Sequence[int],
    q: Sequence[int],
    k: Sequence[int],
) -> int:
    """Parity of the brace sign on one insertion pattern: f's arity N, the
    inserted maps' arities a and degrees q, and the free slot counts k."""
    n = len(a)
    total = 0
    for i in range(1, n + 1):
        for j in range(i):
            aj = a[j - 1] if j >= 1 else 0
            total += (a[i - 1] - 1) * (k[j] + aj)
    for i in range(1, n + 1):
        total += (N - i) * q[i - 1]
        for j in range(1, i):
            total += q[i - 1] * a[j - 1]
    return total & 1


def brace_eval(f: MultiMap, gs: Sequence[MultiMap]) -> MultiMap:
    """Insert the maps gs into f, summing all patterns with beta signs: a
    one-term _sum_braces.  The result has arity sum(a_i) + N - n and degree
    p + sum(q_i).  With no gs the brace is f itself."""
    gs = tuple(gs)
    if not gs:
        return f
    return _sum_braces(f.space, _signature(f, gs), [(1, brace_eval, f, gs)])


def _signature(f: MultiMap, gs: Sequence[MultiMap]) -> tuple:
    """Arity and degree of a bracket of f with gs, refusing a wrong shape."""
    if len(gs) > f.arity:
        raise InputError(f"cannot insert {len(gs)} maps into a map of arity {f.arity}")
    if any(g.space != f.space for g in gs):
        raise InputError("all maps in a bracket must share one space")
    arity = sum(g.arity for g in gs) + f.arity - len(gs)
    return arity, f.degree + sum(g.degree for g in gs)


def symmetrize_brace(f: MultiMap, gs: Sequence[MultiMap]) -> MultiMap:
    """eps-signed sum of plain braces f{g_sigma} over all orderings of the
    g's, in brace parities, accumulated into one table."""
    gs = tuple(gs)
    if not gs:
        return f
    return _sum_braces(f.space, _signature(f, gs), [(1, symmetrize_brace, f, gs)])


def _sum_braces(space: GradedSpace, signature: tuple, terms) -> MultiMap:
    """The MultiMap of signature (arity, degree) summing sign * bracket(f, gs)
    over the (sign, bracket, f, gs) terms: a brace adds the beta-signed
    compose_into of each insertion pattern, a symmetrized brace that of each
    eps-signed ordering of its gs, any other bracket its table."""
    acc: dict = {}
    for sign, bracket, f, gs in terms:
        if bracket is not brace_eval and bracket is not symmetrize_brace:
            add_into(acc, sign, bracket(f, gs))
            continue
        n, N = len(gs), f.arity
        _signature(f, gs)
        if n == 0:
            add_into(acc, sign, f)
            continue
        parities = [g.brace_parity for g in gs]
        in_order = [range(n)]  # a brace's one ordering
        words = permutation_words(n) if bracket is symmetrize_brace else in_order
        for word in words:
            seq = [gs[i] for i in word]
            arities, degrees = [g.arity for g in seq], [g.degree for g in seq]
            signed = -sign if word_parity(word, parities, False) else sign
            for slots in insertion_patterns(N - n, n + 1):
                parity = beta_parity(N, arities, degrees, slots)
                compose_into(acc, -signed if parity else signed, f, seq, slots)
    return _derived(space, *signature, acc)


def bracket_sum(space: GradedSpace, signature: tuple, terms) -> MultiMap:
    """The MultiMap of signature (arity, degree) summing sign * value(expr)
    over the (sign, expr) terms.  An expression is a map or (bracket, outer,
    inner expressions), the bracket brace_eval, symmetrize_brace or
    symbrace_eval; one shared by several terms is evaluated once, and a
    top-level brace or symmetrized brace is summed in place (_sum_braces)."""
    memo: dict = {}
    return _sum_braces(space, signature, (
        (sign, bracket, _value(outer, memo), tuple([_value(e, memo) for e in inner]))
        for sign, (bracket, outer, inner) in terms
    ))


def _value(expr, memo: dict) -> MultiMap:
    # memo: id -> (node, value); holding the node keeps its id from reuse
    if isinstance(expr, MultiMap):
        return expr
    hit = memo.get(id(expr))
    if hit is None:
        bracket, outer, inner = expr
        value = bracket(_value(outer, memo), [_value(e, memo) for e in inner])
        hit = memo[id(expr)] = expr, value
    return hit[1]


def brace_axiom_sides(x: MultiMap, xs: Sequence[MultiMap], ys: Sequence[MultiMap]):
    """Both sides of the nesting identity for x{x_1..x_n}{y_1..y_r}.

    The right side redistributes the y's by the weak compositions
    (k_0, l_1, k_1, ..., l_n, k_n) of r (insertion_patterns): each x_t
    swallows the next run of l_t y's, the k's feed the outer brace directly,
    and the term carries the Koszul sign of moving each x_t past the y's
    standing before its run, in brace parities.  A composition with some
    l_t above x_t's arity, or n + sum k_t above x's, has no insertion
    pattern and is skipped.  Each run's inner brace is one shared node.
    """
    xs, ys = tuple(xs), tuple(ys)
    n, r = len(xs), len(ys)
    lhs = brace_eval(brace_eval(x, xs), ys)
    bx = [m.brace_parity for m in xs]
    by_prefix = [0] + list(itertools.accumulate(m.brace_parity for m in ys))
    inner = {
        (t, i, j): (brace_eval, m, ys[i:j]) if j > i else m
        for t, m in enumerate(xs) for i in range(r + 1) for j in range(i, r + 1)
    }
    terms = []
    for runs in insertion_patterns(r, 2 * n + 1):
        lengths = runs[1::2]
        if n + sum(runs[::2]) > x.arity or any(
            length > m.arity for length, m in zip(lengths, xs)
        ):
            continue
        cuts = list(itertools.accumulate((0,) + runs))
        outer_args, sign = list(ys[: cuts[1]]), 0
        for t, (start, length) in enumerate(zip(cuts[1::2], lengths)):
            outer_args.append(inner[t, start, start + length])
            outer_args.extend(ys[start + length : cuts[2 * t + 3]])
            sign ^= bx[t] & by_prefix[start] & 1
        terms.append((-1 if sign else 1, (brace_eval, x, outer_args)))
    return lhs, bracket_sum(x.space, (lhs.arity, lhs.degree), terms)


def brace_axiom_check(
    x: MultiMap, xs: Sequence[MultiMap], ys: Sequence[MultiMap]
) -> bool:
    lhs, rhs = brace_axiom_sides(x, xs, ys)
    return lhs == rhs


def braced_symmetrization_sides(
    f: MultiMap, ys: Sequence[MultiMap], zs: Sequence[MultiMap]
):
    """Symmetrizing in two stages versus all at once (Lemma 5.1).

    Left: brace f with every eps-signed staged rearrangement of ys + zs
    (graded.staged_rearrangements in brace parities): the z's permuted, the
    y's permuted, the z's riffled among the y's.  Right: the symmetrized
    brace of f with all n+m maps, evaluated first to refuse too many maps.
    """
    ys = tuple(ys)
    maps = ys + tuple(zs)
    direct = symmetrize_brace(f, maps)
    parities = [g.brace_parity for g in maps]
    staged = staged_rearrangements(maps, parities, len(ys), False)
    terms = [(sign, (brace_eval, f, seq)) for sign, seq in staged]
    return bracket_sum(f.space, (direct.arity, direct.degree), terms), direct


def decomposition_first_defect(f: MultiMap):
    """First split and input tuple, as basis names, where the chi-signed
    staged rearrangements of a tuple (Lemma 4.1), rows of f, disagree with
    as(f), or None.  Only rearrangements of keys of f or as(f) are visited,
    ascending: staged words rearrange their tuple, so elsewhere both sides are empty."""
    asf, par, rows = antisymmetrize(f), f.space.parities, f.entries
    orbits = set().union(*map(itertools.permutations, {tuple(sorted(k)) for k in rows}))
    for n, t in itertools.product(range(f.arity + 1), sorted(orbits | asf.entries.keys())):
        total: dict = {}
        for sign, w in staged_rearrangements(t, [par[i] for i in t], n, True):
            for j, c in rows[w].items() if w in rows else ():
                total[j] = total.get(j, 0) + sign * c
        if {j: c for j, c in total.items() if c} != asf.entries.get(t, {}):
            return {"split": [n, len(t) - n], "inputs": [f.space.names[i] for i in t]}
    return None
