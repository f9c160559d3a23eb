"""Brackets and verdicts do not depend on how the basis is numbered.

A degree-preserving invertible linear map T acts on an arity-k map by

    T.f = T o f o (T^-1 (x) ... (x) T^-1),

built here by helpers.pointwise_compose.  Brace, symmetrized brace,
antisymmetrization and the unshuffle bracket are natural in the space, so

    bracket(T.f; T.g_1, ..., T.g_n) = T.bracket(f; g_1, ..., g_n),

and every map check gives the same verdict on the moved maps.  The kernels
take steps that lean on index order: sorted words stand for their orbits,
words repeating an even letter are skipped, the orbit walk signs each
adjacent swap.  Each T below renumbers, mixes or rescales the basis inside
one degree: reversing index order, adding a multiple of one basis element
to another of its degree (both ways round) and a diagonal rational scaling.
Random spaces seldom repeat a degree, and where none repeats T can only
scale, so the spaces here repeat one on purpose.
"""

import random
from fractions import Fraction

import pytest

from bracekit.brace import brace_eval, symmetrize_brace
from bracekit.checks import CHECK_NAMES, CHECKS, CheckInstance
from bracekit.fuzz import FuzzCaps, SplitMix64
from bracekit.multimap import GradedSpace, MultiMap, antisymmetrize
from bracekit.symbrace import symbrace_eval
from helpers import pointwise_compose, random_antisym_map, random_map

SEED = 20261020
CASES_SEED7 = 12
MAP_CHECKS = {
    "brace-axiom", "symbrace-axiom-ex33", "thm1", "thm2", "lemma41", "lemma51"
}


def _spaces():
    """Spaces with a repeated degree: an even pair, an odd pair, one of
    each, and two random ones."""
    spaces = [
        GradedSpace([("a", 0), ("b", 1), ("c", 0)]),
        GradedSpace([("a", 1), ("b", 0), ("c", 1)]),
        GradedSpace([("a", 1), ("b", 0), ("c", 1), ("d", 0)]),
    ]
    rng = random.Random(SEED)
    while len(spaces) < 5:
        degrees = [rng.randint(-1, 1) for _ in range(rng.randint(3, 4))]
        if len(set(degrees)) < len(degrees):
            spaces.append(GradedSpace((f"e{i}", d) for i, d in enumerate(degrees)))
    return spaces


def _linear(space, columns) -> MultiMap:
    """The degree-0 arity-1 map sending basis element i to columns[i], a
    row {j: c}."""
    return MultiMap(space, 1, 0, {(i,): col for i, col in enumerate(columns)})


def changes(space) -> dict:
    """name -> (T, T^-1) for the basis changes of the module docstring; the
    shears only where a degree repeats."""
    dim = space.dim
    blocks = {}
    for k, d in enumerate(space.degrees):
        blocks.setdefault(d, []).append(k)
    image = list(range(dim))
    for block in blocks.values():
        for k, m in zip(block, reversed(block)):
            image[k] = m
    reverse = _linear(space, [{image[k]: 1} for k in range(dim)])
    scales = [Fraction(2), Fraction(-1, 3), Fraction(3, 2), Fraction(-5)][:dim]
    found = {
        "reverse": (reverse, reverse),  # an involution
        "diagonal": (
            _linear(space, [{k: s} for k, s in enumerate(scales)]),
            _linear(space, [{k: 1 / s} for k, s in enumerate(scales)]),
        ),
    }

    def shear(src, dst, c):
        # basis element src -> src + c * dst, the others fixed
        columns = [{k: 1} for k in range(dim)]
        columns[src] = {src: 1, dst: c}
        return _linear(space, columns)

    pairs = [block[:2] for block in blocks.values() if len(block) > 1]
    if pairs:
        i, j = pairs[0]
        found["shear-up"] = shear(j, i, 3), shear(j, i, -3)
        half = Fraction(1, 2)
        found["shear-down"] = shear(i, j, -half), shear(i, j, half)
    return found


def act(change, f: MultiMap) -> MultiMap:
    """T.f = T o f o (T^-1)^{(x)k} for change = (T, T^-1)."""
    T, T_inv = change
    moved = pointwise_compose(T, [f], (0, 0))
    return pointwise_compose(moved, [T_inv] * f.arity, (0,) * (f.arity + 1))


CASES = [
    (space, name, change)
    for space in _spaces()
    for name, change in changes(space).items()
]


def _case_id(case):
    space, name, _ = case
    return f"{''.join(map(str, space.degrees))}-{name}"


def test_spaces_repeat_a_degree_and_each_change_inverts():
    for space, name, (T, T_inv) in CASES:
        identity = _linear(space, [{k: 1} for k in range(space.dim)])
        assert pointwise_compose(T, [T_inv], (0, 0)) == identity, name
        assert T != identity, name
    assert len(CASES) == 4 * len(_spaces())


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_brackets_commute_with_the_change(case):
    space, name, change = case
    rng = random.Random(f"{SEED}-{_case_id(case)}")
    f, g, h = (random_map(rng, space, a) for a in (2, 1, 2))
    plain = [(brace_eval, [g, h]), (brace_eval, [h]), (symmetrize_brace, [g, h])]
    for bracket, gs in plain:
        moved = bracket(act(change, f), [act(change, m) for m in gs])
        assert moved == act(change, bracket(f, gs)), bracket.__name__
    f3 = random_map(rng, space, 3)
    assert antisymmetrize(act(change, f3)) == act(change, antisymmetrize(f3))
    f, g, h = (random_antisym_map(rng, space, a, 0.8) for a in (2, 2, 1))
    for gs in ([g], [g, h]):
        moved = symbrace_eval(act(change, f), [act(change, m) for m in gs])
        assert moved == act(change, symbrace_eval(f, gs)), len(gs)


def _seed7_instances(cases):
    """(name, instance) of each map check in the first cases of
    fuzz --seed 7, which plans all checks."""
    master = SplitMix64(7)
    plan = [(name, master.next_u64()) for _ in range(cases) for name in CHECK_NAMES]
    for name, subseed in plan:
        if name in MAP_CHECKS:
            yield name, CHECKS[name].gen(SplitMix64(subseed), FuzzCaps())


def _moved_instance(inst: CheckInstance, change) -> CheckInstance:
    kwargs = {
        key: act(change, value) if isinstance(value, MultiMap)
        else [act(change, m) for m in value] if isinstance(value, list)
        else value
        for key, value in inst.kwargs.items()
    }
    return CheckInstance(inst.params, kwargs, inst.context)


def test_map_check_verdicts_are_unchanged_on_seed7_instances():
    """Each instance's maps move by a diagonal change and, where its space
    repeats a degree, by one of the others in turn."""
    repeated = 0
    for case, (name, inst) in enumerate(_seed7_instances(CASES_SEED7)):
        check = CHECKS[name]
        maps = [v for v in inst.kwargs.values() if isinstance(v, MultiMap)]
        space = maps[0].space
        found = changes(space)
        kinds = ["diagonal"]
        if "shear-up" in found:
            repeated += 1
            kinds.append(("reverse", "shear-up", "shear-down")[case % 3])
        verdict = check.run(inst).passed
        for kind in kinds:
            moved = _moved_instance(inst, found[kind])
            assert check.run(moved).passed == verdict, (name, kind)
    assert case + 1 == 6 * CASES_SEED7 and repeated >= 10
