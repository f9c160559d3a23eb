"""The sparse table kernels against point-by-point evaluation.

brace_eval sums partial compositions of tables (multimap.compose_into) and
antisymmetrize scatters from f's nonzero entries.  Both are compared, with
exact equality of arity, degree and every coefficient, with the reference
evaluators in helpers, which evaluate tensor_block_eval and MultiMap.__call__
on every basis tuple.
"""

import pytest

from bracekit.brace import brace_eval
from bracekit.fuzz import SplitMix64, random_map
from bracekit.graded import insertion_patterns
from bracekit.multimap import GradedSpace, MultiMap, antisymmetrize, compose_into
from helpers import pointwise_antisymmetrize, pointwise_brace, pointwise_compose

SEED = 20261017
BRACE_CASES = 320
ANTISYM_CASES = 200
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
        yield case, f, gs, rng.chance(50)


def test_brace_eval_matches_pointwise_brace():
    seen = {"n": set(), "odd_g": 0, "zero": 0, "lead": set(), "dims": set()}
    for case, f, gs, lead in _brace_instances():
        expected = pointwise_brace(f, gs, lead)
        got = brace_eval(f, gs, lead)
        assert (got.arity, got.degree) == (expected.arity, expected.degree), case
        assert got == expected, case
        seen["n"].add((f.arity, len(gs)))
        seen["odd_g"] += any(g.degree & 1 for g in gs)
        seen["zero"] += any(m.is_zero() for m in (f, *gs))
        seen["lead"].add(lead)
        seen["dims"].add(f.space.dim)
    assert seen["n"] == {(N, n) for N in (1, 2, 3) for n in range(N + 1)}
    assert seen["odd_g"] >= 30 and seen["zero"] >= 10
    assert seen["lead"] == {False, True} and seen["dims"] == {1, 2, 3, 4}


def test_compose_into_matches_tensor_block_eval_per_pattern():
    for case, f, gs, _ in _brace_instances():
        if case % 4 or not gs:
            continue
        out_arity = sum(g.arity for g in gs) + f.arity - len(gs)
        out_degree = f.degree + sum(g.degree for g in gs)
        for pattern in insertion_patterns(f.arity - len(gs), len(gs) + 1):
            acc = {}
            compose_into(acc, 1, f, gs, pattern.slots)
            got = MultiMap(f.space, out_arity, out_degree, acc)
            assert got == pointwise_compose(f, gs, pattern.slots), (case, pattern)


def test_antisymmetrize_matches_pointwise_sum():
    rng = SplitMix64(SEED + 1)
    arities = {1: 5, 2: 5, 3: 4, 4: 4}
    for case in range(ANTISYM_CASES):
        dim = 1 + case % 4
        space = _space(rng, dim)
        f = _map(rng, space, rng.randint(1, arities[dim]))
        expected = pointwise_antisymmetrize(f)
        got = antisymmetrize(f)
        assert (got.arity, got.degree) == (expected.arity, expected.degree), case
        assert got == expected, case


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
