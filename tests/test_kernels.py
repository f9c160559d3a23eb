"""The sparse table kernels against point-by-point evaluation.

brace_eval sums partial compositions of tables (multimap.compose_into);
antisymmetrize folds f's entries onto sorted words, and symbrace_eval folds
there one evaluation of f per choice of the inserted maps' sorted rows and
a sorted tail of f's keys that reaches a key of f and repeats no even
letter, both through
multimap.fold_onto_sorted, and both write each distinct rearrangement of a
nonzero sorted word once through multimap.orbit_map.  All three
are compared, with exact equality of arity, degree and every
coefficient, with the reference evaluators in helpers, which evaluate
tensor_block_eval, MultiMap.__call__ and the oracle _tensor_core on every
basis tuple.  Checks built from the kernels alone are guarded against
falling back to point-by-point evaluation.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from bracekit import multimap
from bracekit.brace import brace_eval
from bracekit.checks import fuzz_outcomes
from bracekit.errors import InputError, ResourceLimitError
from bracekit.fuzz import FuzzCaps, SplitMix64, random_map
from bracekit.graded import (
    enumerate_unshuffles,
    insertion_patterns,
    riffles,
    staged_rearrangements,
    word_parity,
)
from bracekit.multimap import (
    GradedSpace,
    MultiMap,
    add_into,
    antisymmetrize,
    compose_into,
    orbit_map,
)
from bracekit.symbrace import symbrace_eval
from helpers import (
    _tensor_core,
    counter_stabilizer,
    pointwise_antisymmetrize,
    pointwise_brace,
    pointwise_compose,
    pointwise_symbrace,
    random_antisym_map,
    walk_expand_orbits,
)

SEED = 20261017
BRACE_CASES = 320
ANTISYM_CASES = 200
SYMBRACE_CASES = 320
# largest output arity per dimension, so the references visit at most
# dim ** arity <= 256 tuples
MAX_OUT_ARITY = {1: 6, 2: 6, 3: 5, 4: 4}


def _space(rng, dim):
    """Degrees in [-2, 2]; from dimension 2 on, both parities occur."""
    degrees = [rng.randint(-2, 2) for _ in range(dim)]
    if dim >= 2:
        degrees[0] = rng.choice((-2, 0, 2))
        degrees[1] = rng.choice((-1, 1))
    return GradedSpace((f"e{i + 1}", d) for i, d in enumerate(degrees))


def _map(rng, space, arity):
    """A fuzz map at a random density, now and then replaced by zero."""
    m = random_map(rng, space, arity, rng.choice((20, 60, 100)))
    return MultiMap.zero(space, arity, m.degree) if rng.chance(10) else m


def _brace_instances():
    rng = SplitMix64(SEED)
    for case in range(BRACE_CASES):
        dim = 1 + case % 4
        space = _space(rng, dim)
        N = rng.randint(1, 3)
        n = rng.randint(0, N)
        room = MAX_OUT_ARITY[dim] - (N - n)
        arities = []
        for i in range(n):
            a = rng.randint(1, min(3, room - (n - i - 1)))
            arities.append(a)
            room -= a
        f = _map(rng, space, N)
        gs = [_map(rng, space, a) for a in arities]
        yield case, f, gs


def test_brace_eval_matches_pointwise_brace():
    seen = {"n": set(), "odd_g": 0, "zero": 0, "dims": set()}
    for case, f, gs in _brace_instances():
        expected = pointwise_brace(f, gs)
        got = brace_eval(f, gs)
        assert (got.arity, got.degree) == (expected.arity, expected.degree), case
        assert got == expected, case
        seen["n"].add((f.arity, len(gs)))
        seen["odd_g"] += any(g.degree & 1 for g in gs)
        seen["zero"] += any(m.is_zero() for m in (f, *gs))
        seen["dims"].add(f.space.dim)
    assert seen["n"] == {(N, n) for N in (1, 2, 3) for n in range(N + 1)}
    assert seen["odd_g"] >= 30 and seen["zero"] >= 10
    assert seen["dims"] == {1, 2, 3, 4}


def test_compose_into_matches_tensor_block_eval_per_pattern():
    for case, f, gs in _brace_instances():
        if case % 4 or not gs:
            continue
        out_arity = sum(g.arity for g in gs) + f.arity - len(gs)
        out_degree = f.degree + sum(g.degree for g in gs)
        for slots in insertion_patterns(f.arity - len(gs), len(gs) + 1):
            acc = {}
            compose_into(acc, 1, f, gs, slots)
            got = MultiMap(f.space, out_arity, out_degree, acc)
            assert got == pointwise_compose(f, gs, slots), (case, slots)


# degrees for the repeated-letter cases: one or two odd letters, or an even one
REPEAT_DEGREES = {1: ((1,), (-1,), (0,)), 2: ((1, 1), (1, -1), (0, 1), (-1, 2))}


def _antisym_instances():
    rng = SplitMix64(SEED + 1)
    arities = {1: 5, 2: 5, 3: 4, 4: 4}
    for case in range(ANTISYM_CASES):
        dim = 1 + case % 4
        space = _space(rng, dim)
        yield _map(rng, space, rng.randint(1, arities[dim]))
    # dims 1-2 at arities 5-6: every word repeats a letter, so the
    # stabilizer weight and the even-repeat zero rule decide every entry
    for case in range(16):
        dim, arity = 1 + case % 2, 5 + case // 2 % 2
        degrees = rng.choice(REPEAT_DEGREES[dim])
        space = GradedSpace((f"e{i + 1}", d) for i, d in enumerate(degrees))
        yield _map(rng, space, arity)


def test_antisymmetrize_matches_pointwise_sum():
    repeated_odd, cancelled = set(), 0
    for case, f in enumerate(_antisym_instances()):
        expected = pointwise_antisymmetrize(f)
        got = antisymmetrize(f)
        assert (got.arity, got.degree) == (expected.arity, expected.degree), case
        assert got == expected, case
        rows = {id(row) for row in got.entries.values()}
        assert len(rows) == len(got.entries), case
        par = f.space.parities
        if any(par[x] and key.count(x) > 1 for key in got.entries for x in key):
            repeated_odd.add((f.space.dim, f.arity))
        cancelled += got.is_zero() and not f.is_zero()
    assert {(1, 5), (1, 6), (2, 5), (2, 6)} <= repeated_odd and cancelled >= 20


U_E = GradedSpace([("u", 1), ("e", 0)])


@pytest.mark.parametrize(
    "arity, key, expected",
    [
        (3, (0, 0, 0), {(0, 0, 0): {0: 6}}),  # 3! on one odd letter
        (4, (0, 0, 0, 0), {(0, 0, 0, 0): {0: 24}}),  # 4!
        # (u, u, e): 2! for the repeated odd letter, -1 per swap past e
        (3, (0, 0, 1), {(0, 0, 1): {0: 2}, (0, 1, 0): {0: -2}, (1, 0, 0): {0: 2}}),
        (3, (0, 1, 0), {(0, 0, 1): {0: -2}, (0, 1, 0): {0: 2}, (1, 0, 0): {0: -2}}),
        (3, (1, 0, 1), {}),  # e repeats: the whole orbit is zero
        (3, (1, 1, 1), {}),
    ],
)
def test_antisymmetrize_orbit_weights(arity, key, expected):
    degree = 1 - sum(U_E.degrees[i] for i in key)
    f = MultiMap(U_E, arity, degree, {key: {0: 1}})
    got = antisymmetrize(f)
    assert got.entries == expected
    assert got == pointwise_antisymmetrize(f)


def test_antisymmetrize_twice_is_k_factorial_times_once():
    rng = SplitMix64(SEED + 4)
    space = GradedSpace([("x", 0), ("u", 1), ("w", -1)])
    nonzero = 0
    for arity in range(1, 6):
        for density in (20, 60, 100):
            asf = antisymmetrize(random_map(rng, space, arity, density))
            assert antisymmetrize(asf) == asf.scale(factorial(arity)), (arity, density)
            nonzero += not asf.is_zero()
    assert nonzero >= 10


# u odd, v even: g of odd degree sends u to v, so in f(x_1, g(x_2)) it
# crosses the odd free input x_1 = u and picks up -1 (as tensor_block_eval's
# `late` case in test_multimap), while in f(g(x_1), x_2) it crosses nothing.
UV = GradedSpace([("u", 1), ("v", 2)])
G_ODD = MultiMap(UV, 1, 1, {(0,): {1: 1}})
F_UV = MultiMap(UV, 2, -2, {(0, 1): {0: 2}, (1, 0): {0: 1}})


@pytest.mark.parametrize(
    "slots, entries",
    [
        ((0, 1), {(0, 0): {0: 1}}),  # f(g(u), u) = f(v, u) = u
        ((1, 0), {(0, 0): {0: -2}}),  # f(u, g(u)) = -f(u, v) = -2u
    ],
)
def test_composition_sign_of_odd_map_crossing_odd_input(slots, entries):
    acc = {}
    compose_into(acc, 1, F_UV, [G_ODD], slots)
    assert acc == entries


def test_brace_sign_of_odd_map_crossing_odd_input():
    # beta = (N - 1) * |g| is odd on both patterns: f{g}(u, u) = -(1 - 2) u
    out = brace_eval(F_UV, [G_ODD])
    assert (out.arity, out.degree) == (2, -1)
    assert out.entries == {(0, 0): {0: 1}}


# u odd, v and w even: g_1 = G_UV and g_2 = G_UW have odd degree, so in
# f(g_1(x_1), g_2(x_2)) g_2 crosses the odd letter x_1 = u and picks up -1.
# Both unshuffles of (u, u) deal the same term with chi = 1, and delta is
# even, so f<g_1, g_2>(u, u) = -2 f(v, w) = -2u.
UVW = GradedSpace([("u", 1), ("v", 0), ("w", 2)])
G_UV = MultiMap(UVW, 1, -1, {(0,): {1: 1}})
G_UW = MultiMap(UVW, 1, 1, {(0,): {2: 1}})
F_VW = MultiMap(UVW, 2, -1, {(1, 2): {0: 1}, (2, 1): {0: -1}})


def test_unshuffle_bracket_sign_of_odd_map_crossing_odd_input():
    got = symbrace_eval(F_VW, [G_UV, G_UW])
    assert got == pointwise_symbrace(F_VW, [G_UV, G_UW])
    assert got.entries == {(0, 0): {0: -2}}
    u = UVW.basis_vector(0)
    unsigned = F_VW([G_UV([u]), G_UW([u])]).scale(2)
    assert got.value((0, 0)) != unsigned


def test_add_into_accumulates_signed_tables():
    rng = SplitMix64(SEED + 2)
    space = _space(rng, 3)
    f = random_map(rng, space, 2, 60)
    g = antisymmetrize(f)
    acc = {}
    add_into(acc, 1, f)
    add_into(acc, -1, g)
    add_into(acc, 2, g)
    assert MultiMap(space, 2, f.degree, acc) == f + g
    add_into(acc, -1, f)
    add_into(acc, -1, g)
    assert MultiMap(space, 2, f.degree, acc).is_zero()


def _add_into_by_formula(acc, sign, m):
    """add_into as every coefficient's row.get(j, 0) + sign * c."""
    for key, out in m.entries.items():
        row = acc.setdefault(key, {})
        for j, c in out.items():
            row[j] = row.get(j, 0) + sign * c


def test_add_into_keeps_values_order_and_coefficient_types():
    """add_into copies a row new to the table instead of adding it to 0;
    values, key and row order, and int or Fraction types stay those of
    the formula, and the table never shares a row with a map."""
    rng = SplitMix64(SEED + 11)
    scales = (1, -1, 3, Fraction(1, 2), Fraction(4, 2), Fraction(-2, 3))
    fractions = ints = 0
    for _ in range(60):
        space = _space(rng, 1 + rng.randint(0, 2))
        maps = [random_map(rng, space, 2, 60) for _ in range(rng.randint(1, 4))]
        maps = [
            MultiMap(space, 2, m.degree, {
                key: {j: c * rng.choice(scales) for j, c in out.items()}
                for key, out in m.entries.items()
            })
            for m in maps
            if m.degree == maps[0].degree
        ]
        got, want = {}, {}
        for m in maps:
            sign = rng.choice((1, -1, 2))
            add_into(got, sign, m)
            _add_into_by_formula(want, sign, m)
        assert got == want
        assert list(got) == list(want)
        for key, row in got.items():
            assert list(row) == list(want[key])
            assert [type(c) for c in row.values()] == [type(c) for c in want[key].values()]
            fractions += any(type(c) is Fraction for c in row.values())
            ints += any(type(c) is int for c in row.values())
        for row in got.values():
            row.clear()
        assert all(all(m.entries.values()) for m in maps)
    assert fractions >= 20 and ints >= 20


def _antisym_map(rng, space, arity):
    """A random antisymmetric map at a random density, redrawn a few times
    while it antisymmetrizes to zero, and now and then replaced by zero."""
    for _ in range(8):
        m = random_antisym_map(rng, space, arity, rng.choice((0.2, 0.6, 1.0)))
        if not m.is_zero():
            break
    return MultiMap.zero(space, arity, m.degree) if rng.random() < 0.05 else m


def _symbrace_instances():
    """n = 1-3 antisymmetric maps inserted into an antisymmetric f of arity
    n to 3, output arity within MAX_OUT_ARITY, over mixed-parity spaces."""
    rng = random.Random(SEED + 5)
    for case in range(SYMBRACE_CASES):
        dim = 1 + case % 4
        space = _space(rng, dim)
        n = rng.randint(1, 3)
        N = rng.randint(n, 3)
        room = MAX_OUT_ARITY[dim] - (N - n)
        arities = []
        for i in range(n):
            a = rng.randint(1, min(3, room - (n - i - 1)))
            arities.append(a)
            room -= a
        f = _antisym_map(rng, space, N)
        yield case, f, [_antisym_map(rng, space, a) for a in arities]


def _repeats(key, letters):
    """Does key repeat one of the given letters?"""
    return any(key.count(x) > 1 for x in key if x in letters)


def _symbrace_terms(f, gs):
    """The terms of the unshuffle sum on the sorted words t without a
    repeated even letter, in word-then-unshuffle order, as the dealt words
    gamma(t): those that can be nonzero, those of a degree skip (t's degree
    plus the bracket's is no basis degree), and those of a block skip (some
    g_i is zero on the block dealt to it).  The coverage floors count them."""
    space = f.space
    par = space.parities
    n = len(gs)
    out_degree = f.degree + sum(g.degree for g in gs)
    blocks = tuple(g.arity for g in gs) + (f.arity - n,)
    gammas = list(enumerate_unshuffles(blocks))
    starts = [sum(g.arity for g in gs[:i]) for i in range(n)]
    kept, no_degree, no_block = [], [], []
    for t in space.tuples(sum(blocks)):
        if list(t) != sorted(t) or any(t.count(x) > 1 for x in t if not par[x]):
            continue
        degree_ok = out_degree + sum(space.degrees[i] for i in t) in space.degrees
        for gamma in gammas:
            word = gamma.apply(t)
            blocks = [word[s : s + g.arity] for s, g in zip(starts, gs)]
            if not degree_ok:
                no_degree.append(word)
            elif any(g.value(b).is_zero() for g, b in zip(gs, blocks)):
                no_block.append(word)
            else:
                kept.append(word)
    return kept, no_degree, no_block


def _crossing_parity(gs, word, par):
    """Parity of the Koszul sign of each g_i moving past the letters dealt
    to g_1, ..., g_{i-1} in the dealt word."""
    total = pos = 0
    for g in gs:
        total += g.degree * sum(par[x] for x in word[:pos])
        pos += g.arity
    return total & 1


def test_symbrace_eval_matches_pointwise_symbrace():
    repeated_odd, cancelled, nonzero, shapes = set(), 0, 0, set()
    lose_words, lose_terms, lose_nothing, odd_crossing = 0, 0, 0, 0
    for case, f, gs in _symbrace_instances():
        expected = pointwise_symbrace(f, gs)
        got = symbrace_eval(f, gs)
        assert (got.arity, got.degree) == (expected.arity, expected.degree), case
        assert got == expected, case
        par = f.space.parities
        evens = {x for x in range(f.space.dim) if not par[x]}
        odds = set(range(f.space.dim)) - evens
        assert not any(_repeats(key, evens) for key in got.entries), case
        if any(_repeats(key, odds) for key in got.entries):
            repeated_odd.add((f.space.dim, got.arity))
        cancelled += got.is_zero() and not any(m.is_zero() for m in (f, *gs))
        nonzero += not got.is_zero()
        shapes.add((f.space.dim, len(gs)))
        kept, no_degree, no_block = _symbrace_terms(f, gs)
        odd_crossing += any(_crossing_parity(gs, word, par) for word in kept)
        lose_words += bool(no_degree)
        lose_terms += bool(no_block)
        lose_nothing += not no_degree and not no_block
    assert shapes == {(dim, n) for dim in (1, 2, 3, 4) for n in (1, 2, 3)}
    # nonzero orbits through a repeated odd letter at dims 1-4, output
    # arities 2-6; zero brackets of nonzero maps; and mostly nonzero results
    assert {(1, 6), (2, 6), (3, 5), (4, 4)} <= repeated_odd and len(repeated_odd) >= 12
    assert cancelled >= 50 and nonzero >= 100
    # both skips drop terms, and some instances keep every term
    assert lose_words >= 150 and lose_terms >= 100 and lose_nothing >= 50
    # in 27 instances some kept term carries an odd crossing sign
    assert odd_crossing >= 20


def _symbrace_choices(f, gs):
    """symbrace_eval's exact work model, in product order: each choice of
    one sorted row of each g_i and one sorted tail of f's entries, split
    into those where some key of f is the tail after a head taking an
    output of each chosen row and the dealt word repeats no even letter,
    on which f is evaluated; the unreachable others; and the reachable ones
    whose dealt word repeats an even letter.  The last two are skipped."""
    n = len(gs)
    par = f.space.parities
    rows = [[key for key in g.entries if list(key) == sorted(key)] for g in gs]
    tails = sorted({tuple(sorted(key[n:])) for key in f.entries})
    kept, unreachable, even_repeat = [], [], []
    for choice in itertools.product(*rows, tails):
        outputs = [g.entries[block] for g, block in zip(gs, choice)]
        live = any(
            key[n:] == choice[-1] and all(j in out for j, out in zip(key, outputs))
            for key in f.entries
        )
        evens = [x for x in sum(choice, ()) if not par[x]]
        if not live:
            unreachable.append(choice)
        elif len(set(evens)) < len(evens):
            even_repeat.append(choice)
        else:
            kept.append(choice)
    return kept, unreachable, even_repeat


def test_symbrace_eval_evaluates_f_once_per_choice_of_sorted_rows(monkeypatch):
    """f is evaluated exactly once per choice of sorted g rows and sorted
    tail whose rows reach a key of f on the tail and whose dealt word
    repeats no even letter, in product order, on the rows' values and the
    tail's basis vectors; every unreachable choice is zero, and every
    reachable one left out repeats an even letter, so its unshuffles
    cancel in pairs."""
    calls = []
    call = MultiMap.__call__

    def record(self, args):
        calls.append((self, list(args)))
        return call(self, args)

    monkeypatch.setattr(MultiMap, "__call__", record)
    skipped_total = even_repeat_total = 0
    for case, f, gs in _symbrace_instances():
        calls.clear()
        symbrace_eval(f, gs)
        kept, skipped, even_repeat = _symbrace_choices(f, gs)
        space = f.space
        want = [
            [g.value(block) for g, block in zip(gs, choice)]
            + [space.basis_vector(i) for i in choice[-1]]
            for choice in kept
        ]
        assert [args for m, args in calls if m is f] == want, case
        slots = (0,) * len(gs) + (f.arity - len(gs),)
        for choice in skipped:
            args = [space.basis_vector(i) for i in sum(choice, ())]
            assert _tensor_core(f, gs, slots, args).is_zero(), (case, choice)
        evens = {x for x in range(space.dim) if not space.parities[x]}
        for choice in even_repeat:
            word = tuple(sorted(sum(choice, ())))
            assert _repeats(word, evens), (case, choice)
            # the fold would weigh it 0
            assert counter_stabilizer(word, space.parities) == 0, (case, choice)
        skipped_total += len(skipped)
        even_repeat_total += len(even_repeat)
    # 832 of the 1,574 choices over the instances are unreachable, where a
    # filter on the output degree alone skips 624, and 221 of the other 742
    # repeat an even letter
    assert skipped_total >= 800 and even_repeat_total >= 200


def test_symbrace_eval_skips_every_word_of_an_unreachable_degree(monkeypatch):
    """f<g> has degree -4 and arity 3 over basis degrees 0 and 1, so its
    outputs would have degree -4 to -1: no term is evaluated."""

    def refuse(self, args):
        raise AssertionError("MultiMap.__call__ reached")

    space = GradedSpace([("x", 0), ("y", 1)])
    f = MultiMap(space, 2, -2, {(1, 1): {0: 1}})
    g = MultiMap(space, 2, -2, {(1, 1): {0: 1}})
    monkeypatch.setattr(MultiMap, "__call__", refuse)
    got = symbrace_eval(f, [g])
    assert (got.arity, got.degree) == (3, -4) and got.is_zero()


# U_E's u is odd and e even; each f<g> below is zero off one sorted word's orbit
@pytest.mark.parametrize(
    "f, g, expected",
    [
        # f(u, u) = e, g(u) = u: (u, u) goes to blocks (1, 1) two ways with
        # chi = +1, so the odd letter repeated across blocks weighs 2!/(1! 1!)
        (
            MultiMap(U_E, 2, -2, {(0, 0): {1: 1}}),
            MultiMap(U_E, 1, 0, {(0,): {0: 1}}),
            {(0, 0): {1: 2}},
        ),
        # f(u) = e, g(u, u) = u: one unshuffle deals (u, u) to g, 2!/2! = 1,
        # where the stabilizer of (u, u) is 2
        (
            MultiMap(U_E, 1, -1, {(0,): {1: 1}}),
            MultiMap(U_E, 2, -1, {(0, 0): {0: 1}}),
            {(0, 0): {1: 1}},
        ),
        # f(u, u) = e, g(u, u) = u: (u, u, u) goes to blocks (2, 1) three
        # ways, 3!/(2! 1!) = 3 against a stabilizer of 6, and delta is odd
        (
            MultiMap(U_E, 2, -2, {(0, 0): {1: 1}}),
            MultiMap(U_E, 2, -1, {(0, 0): {0: 1}}),
            {(0, 0, 0): {1: -3}},
        ),
        # f(u, e) = u, g(e) = u: the two unshuffles of (e, e) into blocks
        # (1, 1) have chi signs +1 and -1, so the even repeat is zero
        (
            MultiMap(U_E, 2, 0, {(0, 1): {0: 1}, (1, 0): {0: -1}}),
            MultiMap(U_E, 1, 1, {(1,): {0: 1}}),
            {},
        ),
    ],
)
def test_symbrace_eval_weighs_each_word_by_its_unshuffles(f, g, expected):
    got = symbrace_eval(f, [g])
    assert got.entries == expected
    assert got == pointwise_symbrace(f, [g])


def test_symbrace_eval_refuses_output_arity_9_before_evaluating_f(monkeypatch):
    def refuse(self, args):
        raise AssertionError("MultiMap.__call__ reached")

    space = GradedSpace([("u", 1)])
    f = MultiMap(space, 2, -1, {(0, 0): {0: 1}})
    g7, g8 = (MultiMap(space, a, 1 - a, {(0,) * a: {0: 1}}) for a in (7, 8))
    # output arity 8 is the largest evaluated: (u)^8 weighs 8!/(7! 1!)
    assert symbrace_eval(f, [g7]).entries == {(0,) * 8: {0: 8}}
    monkeypatch.setattr(MultiMap, "__call__", refuse)
    with pytest.raises(ResourceLimitError) as err:
        symbrace_eval(f, [g8])
    assert str(err.value) == "unshuffle enumeration over 9 elements exceeds cap 8"


def test_orbit_map_round_trips_antisymmetric_maps():
    rng = random.Random(SEED + 6)
    spaces = [
        GradedSpace([("u", 1)]),
        GradedSpace([("u", 1), ("e", 0)]),
        GradedSpace([("x", 0), ("u", 1), ("w", -1)]),
    ]
    nonzero = 0
    for space in spaces:
        for arity in range(1, 6):
            for density in (0.2, 0.6, 1.0):
                f = random_antisym_map(rng, space, arity, density)
                reps = {k: v for k, v in f.entries.items() if list(k) == sorted(k)}
                assert orbit_map(space, arity, f.degree, reps) == f
                nonzero += not f.is_zero()
    assert nonzero >= 20


def _sorted_words(letters, arity, parities):
    """The sorted words of the given arity over range(letters) that repeat
    no even letter: the words orbit_map takes."""
    for word in itertools.combinations_with_replacement(range(letters), arity):
        if all(parities[x] or word.count(x) == 1 for x in word):
            yield word


def _orbit_size(word):
    """k! / prod m_x! for a word of k letters repeating letter x m_x times."""
    size = factorial(len(word))
    for x in set(word):
        size //= factorial(word.count(x))
    return size


# (letters, arities): every parity pattern of up to 4 letters to arity 6,
# and of 1-2 letters to arity 8
ORBIT_SHAPES = [(d, range(1, 7)) for d in (1, 2, 3, 4)] + [(d, (7, 8)) for d in (1, 2)]


def _orbit_space(parities):
    """The letters, of degree their parity, then two outputs of each degree
    0-8: every word of up to 8 letters has a row of two outputs for the
    degree-0 maps of the orbit tests (_orbit_row)."""
    letters = [(f"x{i}", p) for i, p in enumerate(parities)]
    return GradedSpace(letters + [(f"{o}{d}", d) for d in range(9) for o in "yz"])


def _orbit_row(word, parities, coeffs=(2, Fraction(-1, 3))):
    """A row on word of a degree-0 map on _orbit_space(parities): coeffs on
    the outputs of the word's degree."""
    first = len(parities) + 2 * sum(parities[x] for x in word)
    return dict(zip((first, first + 1), coeffs))


def _owns_its_rows(m, reps) -> bool:
    """No two keys of m share a row object, and none is a row of reps."""
    rows = {*map(id, m.entries.values())}
    return len(rows) == len(m.entries) and not rows & {*map(id, reps.values())}


def test_orbit_map_matches_the_walk_oracle():
    """Every sorted word of ORBIT_SHAPES gets the walk's table, its own row
    on the sorted word and a copy on each other key, the row on plus words
    and its negation on the others; all words of one shape at once get the
    union of their tables."""
    words = 0
    for letters, arities in ORBIT_SHAPES:
        for parities in itertools.product((0, 1), repeat=letters):
            space = _orbit_space(parities)
            for arity in arities:
                reps = {}
                for word in _sorted_words(letters, arity, parities):
                    row = _orbit_row(word, parities)
                    one = {word: row}
                    m = orbit_map(space, arity, 0, one)
                    assert m.entries == walk_expand_orbits(one, arity, parities), word
                    assert m.entries[word] == row and _owns_its_rows(m, one), word
                    reps[word] = row
                    words += 1
                got = orbit_map(space, arity, 0, reps)
                assert got.entries == walk_expand_orbits(reps, arity, parities)
                assert _owns_its_rows(got, reps)
    assert words == 1847


def test_word_parity_signs_every_orbit_word():
    """orbit_words splits the distinct rearrangements of each sorted word of
    ORBIT_SHAPES by word_parity under chi: 0 on plus, 1 on minus."""
    words = 0
    for letters, arities in ORBIT_SHAPES:
        for parities in itertools.product((0, 1), repeat=letters):
            for arity in arities:
                for word in _sorted_words(letters, arity, parities):
                    plus, minus = multimap.orbit_words(word, parities)
                    assert {word_parity(w, parities, True) for w in plus} == {0}, word
                    assert {word_parity(w, parities, True) for w in minus} <= {1}, word
                    listed = plus + minus
                    assert len(listed) == len(set(listed)) == _orbit_size(word), word
                    assert set(listed) == set(itertools.permutations(word)), word
                    words += 1
    assert words == 1847


def test_stabilizer_matches_the_counter_oracle():
    """_stabilizer reads the runs of a nondecreasing word: every such word
    of up to 6 letters over 4, under every parity pattern."""
    for parities in itertools.product((0, 1), repeat=4):
        for k in range(7):
            for word in itertools.combinations_with_replacement(range(4), k):
                want = counter_stabilizer(word, parities)
                assert multimap._stabilizer(word, parities) == want, (word, parities)


def test_riffles_match_the_combinations_oracle():
    """Each choice of n of n + m places, in combinations order, puts a
    word's n heads there and its m tails elsewhere, in order, with the
    parity of the places' sum and bit i*m + j for each tail j dealt before
    head i: every n + m <= 8."""
    for total in range(9):
        letters = tuple("abcdefgh"[:total])
        for n in range(total + 1):
            m, want = total - n, []
            for places in itertools.combinations(range(total), n):
                front, back = iter(letters[:n]), iter(letters[n:])
                placed = [next(front) if p in places else next(back) for p in range(total)]
                below = sum(
                    1 << i * m + j
                    for i, p in enumerate(places)
                    for j in range(m)
                    if placed.index(letters[n + j]) < p
                )
                want.append((tuple(placed), sum(places) & 1, below))
            got = riffles(n, m)
            assert [(deal(letters), *rest) for deal, *rest in got] == want, (n, m)


def test_riffles_refuse_more_than_the_cap_before_dealing():
    """riffles refuses n + m above ENUMERATION_CAP, and staged_rearrangements
    of 9 items raises before it yields a first rearrangement."""
    with pytest.raises(ResourceLimitError):
        riffles(4, 5)
    staged = staged_rearrangements(tuple(range(9)), (0,) * 9, 4, True)
    with pytest.raises(ResourceLimitError):
        next(staged)
    with pytest.raises(InputError):
        riffles(-1, 2)


def test_orbit_map_lists_each_rearrangement_once(monkeypatch):
    """orbit_words is called once per nonzero row and lists k! / prod m_x!
    distinct words, each a rearrangement of the row's word: a duplicate
    writes the same key and value again, so only this count sees it."""
    calls = []
    orbit_words = multimap.orbit_words

    def record(word, parities):
        plus, minus = orbit_words(word, parities)
        calls.append((word, plus + minus))
        return plus, minus

    monkeypatch.setattr(multimap, "orbit_words", record)
    for letters, arities in ORBIT_SHAPES:
        for parities in itertools.product((0, 1), repeat=letters):
            space = _orbit_space(parities)
            for arity in arities:
                words = list(_sorted_words(letters, arity, parities))
                rows = {w: _orbit_row(w, parities, (1,)) for w in words}
                reps = {w: rows[w] if i % 3 else {} for i, w in enumerate(words)}
                calls.clear()
                orbit_map(space, arity, 0, reps)
                assert [w for w, _ in calls] == [w for i, w in enumerate(words) if i % 3]
                for word, listed in calls:
                    assert len(listed) == len(set(listed)) == _orbit_size(word), word
                    assert {tuple(sorted(w)) for w in listed} == {word}
    # the 70 rearrangements of four 0s and four 1s, not the walk's 8! = 40,320
    assert _orbit_size((0, 0, 0, 0, 1, 1, 1, 1)) == 70


def test_antisymmetrize_pins_arity_8_on_one_odd_letter():
    """u^8 is its only rearrangement: as(f) = 8! * f, one key."""
    space = GradedSpace([("u", 1)])
    f = MultiMap(space, 8, -7, {(0,) * 8: {0: Fraction(3, 2)}})
    assert antisymmetrize(f).entries == {(0,) * 8: {0: factorial(8) * Fraction(3, 2)}}


def test_orbit_map_pins_the_orbit_of_four_and_four_odd_letters():
    """Two odd letters commute under chi: the 70 words with four of each
    all get the given row, each key its own copy."""
    word, parities = (0, 0, 0, 0, 1, 1, 1, 1), (1, 1)
    reps = {word: _orbit_row(word, parities, (5,))}
    m = orbit_map(_orbit_space(parities), 8, 0, reps)
    words = {w for w in itertools.product((0, 1), repeat=8) if sum(w) == 4}
    assert len(words) == 70 and set(m.entries) == words
    assert all(out == reps[word] for out in m.entries.values())
    assert _owns_its_rows(m, reps)


def test_orbit_map_pins_signs_around_a_repeated_odd_letter():
    """u u e f with u odd, e and f even: chi is -1 once per pair of an even
    letter and a letter out of order."""
    word, parities = (0, 0, 1, 2), (1, 0, 0)
    (out,) = row = _orbit_row(word, parities, (1,))
    got = orbit_map(_orbit_space(parities), 4, 0, {word: row})
    assert {key: value[out] for key, value in got.entries.items()} == {
        (0, 0, 1, 2): 1, (0, 0, 2, 1): -1, (0, 1, 0, 2): -1, (0, 1, 2, 0): 1,
        (0, 2, 0, 1): 1, (0, 2, 1, 0): -1, (1, 0, 0, 2): 1, (1, 0, 2, 0): -1,
        (1, 2, 0, 0): 1, (2, 0, 0, 1): -1, (2, 0, 1, 0): 1, (2, 1, 0, 0): -1,
    }


def test_antisymmetrize_matches_pointwise_on_three_letters_at_arity_6():
    """Two odd letters and one even at arity 6, where most orbits repeat an
    odd letter, against the chi-signed sum over all of S_6."""
    space = GradedSpace([("u", 1), ("v", -1), ("e", 0)])
    f = MultiMap(space, 6, -1, {
        (0, 0, 1, 2, 1, 0): {2: 1},
        (1, 1, 0, 0, 0, 2): {2: Fraction(2, 3)},
        (0, 0, 0, 0, 1, 1): {0: -4},
        (0, 1, 0, 1, 0, 1): {1: 5},
        (0, 0, 0, 1, 1, 1): {1: -1},
        (2, 2, 0, 1, 0, 1): {1: 7},
    })
    got = antisymmetrize(f)
    # the orbits of u^3 v^2 e, u^4 v^2 and u^3 v^3; e repeated cancels
    assert len(got.entries) == 60 + 15 + 20
    assert got == pointwise_antisymmetrize(f)


# checks whose every bracket is a composition or a signed permutation of
# table entries; symbrace_eval, behind ex33, thm2 and linfty, reads the
# inserted maps' rows but still evaluates f point by point, once per choice
# of sorted rows and sorted tail whose rows reach a key of f on the tail
TABLE_LEVEL_CHECKS = ("brace-axiom", "thm1", "lemma41", "lemma51", "ainfty")


def test_table_level_checks_never_evaluate_point_by_point(monkeypatch):
    def refuse(self, args):
        raise AssertionError("MultiMap.__call__ reached")

    monkeypatch.setattr(MultiMap, "__call__", refuse)
    outcomes = list(fuzz_outcomes(7, 20, TABLE_LEVEL_CHECKS, FuzzCaps()))
    assert len(outcomes) == 20 * len(TABLE_LEVEL_CHECKS)
    assert all(outcome.passed for _, _, outcome in outcomes)
