"""The bracket sums that accumulate into one table, against the summed
validated summands.

brace_eval, symmetrize_brace, the right side of brace_axiom_sides and the
staged side of braced_symmetrization_sides write every signed summand
straight into one entry table, and symbrace_axiom_sides signs each
unshuffle by a parity over its inverted pairs.  The oracles below build
each summand as a validated MultiMap, sum the summands with add_into and
sign each unshuffle with koszul_sign on its Permutation.  Instances mix
both parities and int and Fraction coefficients, and include empty
insertions, whose summand is the outer map itself.

The identity sides skip every term that deals a map more inputs than its
arity; the oracles keep the padded design instead, walking every nesting
and dealing and putting a zero map in place of each such bracket.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from bracekit import brace
from bracekit.brace import (
    beta_parity,
    brace_axiom_sides,
    brace_eval,
    braced_symmetrization_sides,
    symmetrize_brace,
)
from bracekit.checks import fuzz_outcomes
from bracekit.fuzz import FuzzCaps
from bracekit.graded import (
    enumerate_permutations,
    enumerate_unshuffles,
    insertion_patterns,
    koszul_sign,
    staged_rearrangements,
)
from bracekit.multimap import (
    GradedSpace,
    MultiMap,
    add_into,
    antisymmetrize,
    compose_into,
)
from bracekit.symbrace import (
    FLAVOR_SYMMETRIZED,
    FLAVOR_UNSHUFFLE,
    symbrace_axiom_sides,
    symbrace_eval,
)
from helpers import random_map

SEED = 20261018
CASES = 60
SPACES = (
    GradedSpace([("a", 0), ("b", 1)]),
    GradedSpace([("a", 1), ("b", -1), ("c", 0)]),
    GradedSpace([("u", 1)]),
    # every map has degree 0, so the binary ones are odd in brace parity
    GradedSpace([("a", 0), ("b", 0)]),
)
COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))


def _mixed(rng, m):
    """m with each coefficient scaled by an int or a Fraction."""
    entries = {
        key: {j: c * rng.choice(COEFFS) for j, c in out.items()}
        for key, out in m.entries.items()
    }
    return MultiMap(m.space, m.arity, m.degree, entries)


def _maps(rng, space, arities, antisym=False):
    maps = []
    for a in arities:
        density = rng.choice((0.4, 0.8))
        maps.append(_mixed(rng, random_map(rng, space, a, density)))
    return [antisymmetrize(m) for m in maps] if antisym else maps


def _signature(f, gs):
    arity = sum(g.arity for g in gs) + f.arity - len(gs)
    return arity, f.degree + sum(g.degree for g in gs)


def summed_brace(f, gs):
    """f{gs}: each pattern's composition validated, then summed with beta
    signs by add_into."""
    gs = tuple(gs)
    if not gs:
        return f
    N, n = f.arity, len(gs)
    arities = tuple(g.arity for g in gs)
    degrees = tuple(g.degree for g in gs)
    total = {}
    for slots in insertion_patterns(N - n, n + 1):
        part = {}
        compose_into(part, 1, f, gs, slots)
        summand = MultiMap(f.space, *_signature(f, gs), part)
        add_into(total, -1 if beta_parity(N, arities, degrees, slots) else 1, summand)
    return MultiMap(f.space, *_signature(f, gs), total)


def summed_symmetrize(f, gs):
    gs = tuple(gs)
    if not gs:
        return f
    parities = [g.brace_parity for g in gs]
    total = {}
    for sigma in enumerate_permutations(len(gs)):
        add_into(total, koszul_sign(sigma, parities), summed_brace(f, sigma.apply(gs)))
    return MultiMap(f.space, *_signature(f, gs), total)


def _or_zero(bracket, f, args, pads, role):
    """The bracket, or the zero map of its signature when there are more
    args than f has inputs, counted in pads[role]: a term that the library
    skips instead of padding."""
    args = tuple(args)
    if len(args) <= f.arity:
        return bracket(f, args)
    pads[role] += 1
    return MultiMap.zero(f.space, *_signature(f, args))


def _nestings(n, r):
    """All ways to hand the maps y_1..y_r to x_1..x_n in order: sequences
    0 <= i_1 <= j_1 <= ... <= i_n <= j_n <= r, as ((i_t, j_t)) pairs."""
    for seq in itertools.combinations_with_replacement(range(r + 1), 2 * n):
        yield tuple((seq[2 * t], seq[2 * t + 1]) for t in range(n))


def summed_brace_axiom_rhs(x, xs, ys, arity, degree, pads):
    bx = [m.brace_parity for m in xs]
    by = [m.brace_parity for m in ys]
    total = {}
    for pairs in _nestings(len(xs), len(ys)):
        outer, sign, prev = [], 0, 0
        for t, (i, j) in enumerate(pairs):
            outer.extend(ys[prev:i])
            outer.append(_or_zero(summed_brace, xs[t], ys[i:j], pads, "inner"))
            sign ^= bx[t] & (sum(by[:i]) & 1)
            prev = j
        outer.extend(ys[prev:])
        term = _or_zero(summed_brace, x, outer, pads, "outer")
        add_into(total, -1 if sign else 1, term)
    return MultiMap(x.space, arity, degree, total)


def summed_staged(f, ys, zs, arity, degree):
    items = tuple(ys) + tuple(zs)
    parities = [g.brace_parity for g in items]
    total = {}
    for sign, seq in staged_rearrangements(items, parities, len(ys), False):
        add_into(total, sign, summed_brace(f, seq))
    return MultiMap(f.space, arity, degree, total)


def summed_symbrace_axiom_rhs(bracket, f, gs, xs, arity, degree, pads, eps=True):
    """eps=False drops the Koszul sign of the unshuffles, a wrong sign the
    comparison must be able to see."""
    n, r = len(gs), len(xs)
    bx = [x.brace_parity for x in xs]
    total = {}
    for sizes in insertion_patterns(r, n + 1):
        for gamma in enumerate_unshuffles(sizes):
            dealt = gamma.apply(xs)
            sign = koszul_sign(gamma, bx) if eps else 1
            outer, prefix, pos = [], 0, 0
            for b in range(n):
                block = dealt[pos : pos + sizes[b]]
                outer.append(_or_zero(bracket, gs[b], block, pads, "inner"))
                if gs[b].brace_parity & prefix:
                    sign = -sign
                prefix ^= sum(x.brace_parity for x in block) & 1
                pos += sizes[b]
            outer.extend(dealt[pos:])
            add_into(total, sign, _or_zero(bracket, f, outer, pads, "outer"))
    return MultiMap(f.space, arity, degree, total)


def test_brace_and_symmetrize_match_summed_summands():
    rng = random.Random(SEED)
    empty = fractions = nonzero = 0
    for _ in range(CASES):
        space = rng.choice(SPACES)
        N = rng.randint(1, 3)
        n = rng.randint(0, min(N, 2))
        f, *gs = _maps(rng, space, [N] + [rng.randint(1, 2) for _ in range(n)])
        got = symmetrize_brace(f, gs)
        assert brace_eval(f, gs) == summed_brace(f, gs)
        assert got == summed_symmetrize(f, gs)
        empty += n == 0
        nonzero += n > 0 and not got.is_zero()
        values = [c for out in got.entries.values() for c in out.values()]
        fractions += any(isinstance(c, Fraction) for c in values)
    assert empty >= 10
    assert nonzero >= 15
    assert fractions >= 20


def test_brace_axiom_right_side_matches_summed_summands():
    rng = random.Random(SEED + 1)
    empty = nonzero = 0
    pads = Counter()
    for _ in range(CASES):
        space = rng.choice(SPACES)
        N = rng.randint(1, 3)
        n = rng.randint(0, min(N, 2))
        x, *xs = _maps(rng, space, [N] + [rng.randint(1, 2) for _ in range(n)])
        room = sum(m.arity for m in xs) + N - n
        r = rng.randint(0, min(room, 2))
        ys = _maps(rng, space, [rng.randint(1, 2) for _ in range(r)])
        empty += n == 0 or r == 0
        lhs, rhs = brace_axiom_sides(x, xs, ys)
        assert lhs == summed_brace(summed_brace(x, xs), ys)
        assert rhs == summed_brace_axiom_rhs(x, xs, ys, lhs.arity, lhs.degree, pads)
        nonzero += not rhs.is_zero()
    assert empty >= 10
    assert nonzero >= 20
    # the skipped terms were compared against zero padding: runs too long
    # for an inner x_t and too many outer inputs both occur
    assert pads["inner"] >= 1 and pads["outer"] >= 1


def test_staged_symmetrization_matches_summed_summands():
    rng = random.Random(SEED + 2)
    empty = nonzero = 0
    for _ in range(CASES):
        space = rng.choice(SPACES)
        N = rng.randint(1, 3)
        total = rng.randint(0, min(N, 3))
        n = rng.randint(0, total)
        f, *maps = _maps(rng, space, [N] + [rng.randint(1, 2) for _ in range(total)])
        ys, zs = maps[:n], maps[n:]
        empty += total == 0
        staged, direct = braced_symmetrization_sides(f, ys, zs)
        assert direct == summed_symmetrize(f, maps)
        assert staged == summed_staged(f, ys, zs, direct.arity, direct.degree)
        nonzero += total > 0 and not staged.is_zero()
    assert empty >= 5
    assert nonzero >= 15


def test_symbrace_axiom_right_side_matches_summed_summands():
    rng = random.Random(SEED + 3)
    empty = 0
    nonzero = {FLAVOR_UNSHUFFLE: 0, FLAVOR_SYMMETRIZED: 0}
    eps_shows = 0
    pads = {FLAVOR_UNSHUFFLE: Counter(), FLAVOR_SYMMETRIZED: Counter()}
    for case in range(2 * CASES):
        flavor = (FLAVOR_UNSHUFFLE, FLAVOR_SYMMETRIZED)[case % 2]
        antisym = flavor == FLAVOR_UNSHUFFLE
        bracket = symbrace_eval if antisym else summed_symmetrize
        # half the cases on the even space, where binary x's are odd
        space = SPACES[-1] if case % 4 < 2 else rng.choice(SPACES)
        N = rng.randint(1, 3)
        n = rng.randint(0, min(N, 2))
        arities = [N] + [rng.randint(1, 2) for _ in range(n)]
        f, *gs = _maps(rng, space, arities, antisym)
        room = sum(g.arity for g in gs) + N - n
        r = rng.randint(0, min(room, 3))
        xs = _maps(rng, space, [rng.choice((1, 2, 2)) for _ in range(r)], antisym)
        empty += n == 0 or r == 0
        lhs, rhs = symbrace_axiom_sides(f, gs, xs, flavor)
        assert lhs == bracket(bracket(f, gs), xs)
        oracle = summed_symbrace_axiom_rhs(
            bracket, f, gs, xs, lhs.arity, lhs.degree, pads[flavor]
        )
        assert rhs == oracle, (case, flavor)
        nonzero[flavor] += not rhs.is_zero()
        shapes = (bracket, f, gs, xs, lhs.arity, lhs.degree, Counter())
        eps_shows += summed_symbrace_axiom_rhs(*shapes, eps=False) != oracle
    assert empty >= 10
    assert min(nonzero.values()) >= 10
    assert eps_shows >= 3
    for counts in pads.values():
        assert counts["inner"] >= 1 and counts["outer"] >= 1


def test_empty_insertion_carries_no_beta_sign(monkeypatch):
    """With beta flipped on every pattern a nonempty brace changes sign,
    but the empty brace and lemma51's empty staged term are still f."""
    rng = random.Random(SEED + 4)
    space = SPACES[0]
    f, g = _maps(rng, space, [2, 1])
    while f.is_zero() or brace_eval(f, [g]).is_zero():
        f, g = _maps(rng, space, [2, 1])
    plain = brace_eval(f, [g])
    original = brace.beta_parity
    monkeypatch.setattr(brace, "beta_parity", lambda *a: 1 - original(*a))
    assert brace_eval(f, [g]) == plain.scale(-1)
    assert brace_eval(f, []) == f
    assert symmetrize_brace(f, []) == f
    assert braced_symmetrization_sides(f, [], []) == (f, f)


def test_identity_sides_build_no_zero_map(monkeypatch):
    """A term that deals some map more inputs than it has is skipped before
    anything is evaluated, so no identity side builds a zero map for it."""
    built = []
    original = MultiMap.zero

    def counting_zero(cls, *args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(MultiMap, "zero", classmethod(counting_zero))
    names = ("brace-axiom", "symbrace-axiom-ex33", "thm1")
    zeros = {}
    for name in names:
        built.clear()
        outcomes = list(fuzz_outcomes(7, 20, [name], FuzzCaps()))
        assert all(outcome.passed for _, _, outcome in outcomes)
        zeros[name] = len(built)
    assert zeros == dict.fromkeys(names, 0)
