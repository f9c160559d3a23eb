"""bracket_sum, the one evaluator of the identity sides and homotopy
relations, against a second evaluator and against repeated work.

Every sum the identities state goes through brace.bracket_sum as a list of
signed bracket expressions.  A spy on bracket_sum records each term list
that the identity sides and relations hand it, on fuzz instances and on
random structure families; helpers.pointwise_bracket_sum evaluates the
same list through the point-by-point references, and the two sums must
agree exactly.  A second spy counts the kernel calls: within one sum no
bracket is evaluated twice on the same maps, and no check calls its
kernels more often than when each identity side kept its own caches.
"""

import random
import sys
from collections import Counter

import pytest

from bracekit.brace import (
    brace_axiom_sides,
    brace_eval,
    bracket_sum,
    symmetrize_brace,
)
from bracekit.checks import fuzz_outcomes
from bracekit.fuzz import FuzzCaps
from bracekit.homotopy import (
    A_INFINITY,
    StructureFamily,
    a_infinity_defects,
    antisymmetrize_structure,
    l_infinity_defects,
)
from bracekit.multimap import GradedSpace, MultiMap
from bracekit.symbrace import (
    FLAVOR_SYMMETRIZED,
    FLAVOR_UNSHUFFLE,
    symbrace_axiom_sides,
    symbrace_eval,
)
from helpers import (
    pointwise_bracket_sum,
    pointwise_value,
    random_antisym_map,
    random_map,
)

SEED = 20261019
# the map checks whose sides sum brackets, at output arities small enough
# for the point-by-point references
SIDES = ("brace-axiom", "symbrace-axiom-ex33", "thm1", "lemma51")
SMALL = FuzzCaps(max_dim=2, max_out_arity=4)
# fuzz(7, 40) with up to 3 maps inserted per stage, and the kernel calls
# each check made there while the identity sides kept their own caches
# (inner_cache, block_cache) and tables
WIDER = FuzzCaps(max_n=3)
CACHED_CALLS = {
    "brace-axiom": 124,
    "symbrace-axiom-ex33": 189,
    "thm1": 189,
    "lemma51": 40,
    "ainfty": 46,
    "linfty": 46,
    "corollary": 92,
}
SPACE = GradedSpace([("a", 0), ("b", 1)])
# structure families need more room for their terms to be nonzero
FAMILY_SPACE = GradedSpace([("a", 0), ("b", 1), ("c", -1)])


def _modules():
    return [m for name, m in sys.modules.items() if name.startswith("bracekit")]


def _rebind(monkeypatch, original, replacement):
    """Replace original in every bracekit module that binds it, as the
    benchmark's tracer does."""
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _spy_sums(monkeypatch):
    """Record (space, signature, terms, result) of every bracket_sum call."""
    calls = []

    def spy(space, signature, terms):
        terms = list(terms)
        result = bracket_sum(space, signature, terms)
        calls.append((space, signature, terms, result))
        return result

    _rebind(monkeypatch, bracket_sum, spy)
    return calls


def _inner_nodes(terms) -> list:
    """The bracket nodes the terms insert, once per insertion."""
    return [
        e for _, (_, _, inner) in terms for e in inner if not isinstance(e, MultiMap)
    ]


def test_every_generator_binds_the_one_evaluator():
    bound = {
        module.__name__
        for module in _modules()
        if any(value is bracket_sum for value in vars(module).values())
    }
    assert bound == {"bracekit.brace", "bracekit.symbrace", "bracekit.homotopy"}


@pytest.mark.parametrize("name", SIDES)
def test_sides_match_the_pointwise_evaluator(name, monkeypatch):
    calls = _spy_sums(monkeypatch)
    outcomes = list(fuzz_outcomes(11, 25, [name], SMALL))
    assert all(outcome.passed for _, _, outcome in outcomes)
    nonzero = nested = 0
    for space, signature, terms, result in calls:
        assert result == pointwise_bracket_sum(space, signature, terms), name
        nonzero += not result.is_zero()
        nested += bool(_inner_nodes(terms))
    assert len(calls) == 25 and nonzero >= 10, name
    if name != "lemma51":
        assert nested >= 5, name


def _component(rng, k):
    """A random arity-k map of degree k - 2 on FAMILY_SPACE."""
    space = FAMILY_SPACE
    entries = {}
    for key in space.tuples(k):
        target = k - 2 + sum(space.degrees[i] for i in key)
        row = {
            j: rng.choice((-2, -1, 1, 2))
            for j in range(space.dim)
            if space.degrees[j] == target and rng.random() < 0.6
        }
        if row:
            entries[key] = row
    return MultiMap(space, k, k - 2, entries)


def test_relations_match_the_pointwise_evaluator(monkeypatch):
    """Random families of components of arity 1 to 3, which need not
    satisfy their relations, so that a relation adds several nonzero
    terms."""
    calls = _spy_sums(monkeypatch)
    rng = random.Random(SEED)
    for _ in range(6):
        components = [_component(rng, k) for k in (1, 2, 3)]
        fam = StructureFamily(FAMILY_SPACE, components, A_INFINITY)
        a_infinity_defects(fam, 4)
        l_infinity_defects(antisymmetrize_structure(fam), 4)
    busy = 0
    for space, signature, terms, result in calls:
        assert result == pointwise_bracket_sum(space, signature, terms)
        busy += sum(not pointwise_value(expr).is_zero() for _, expr in terms) > 1
    assert len(calls) == 6 * 2 * 4 and busy >= 20


def _spy_kernels(monkeypatch):
    """Wrap each bracket kernel and bracket_sum everywhere they are bound.
    Returns the kernel calls, each tagged with the index of the bracket_sum
    it ran in (0 outside any), and the term lists of the sums."""
    calls, sums, inside = [], [], []

    def wrap(kernel):
        def spy(f, gs):
            gs = tuple(gs)
            calls.append((kernel.__name__, f, gs, inside[-1] if inside else 0))
            return kernel(f, gs)

        return spy

    def sum_spy(space, signature, terms):
        terms = list(terms)
        sums.append(terms)
        inside.append(len(sums))
        try:
            return bracket_sum(space, signature, terms)
        finally:
            inside.pop()

    for kernel in (brace_eval, symmetrize_brace, symbrace_eval):
        _rebind(monkeypatch, kernel, wrap(kernel))
    _rebind(monkeypatch, bracket_sum, sum_spy)
    return calls, sums


def _sharing_instances(rng):
    """(sides function, arguments): an outer map of arity 3, two inner maps
    of arity 2 and three inserted maps of arity 1 or 2, so that many terms
    of a right side insert the same inner bracket."""
    for _ in range(3):
        plain = [random_map(rng, SPACE, a) for a in (3, 2, 2, 1, 1, rng.choice((1, 2)))]
        yield brace_axiom_sides, (plain[0], plain[1:3], plain[3:])
        yield symbrace_axiom_sides, (plain[0], plain[1:3], plain[3:], FLAVOR_SYMMETRIZED)
        anti = [random_antisym_map(rng, SPACE, a, 0.8) for a in (3, 2, 2, 1, 1, 1)]
        yield symbrace_axiom_sides, (anti[0], anti[1:3], anti[3:], FLAVOR_UNSHUFFLE)


def test_each_shared_bracket_is_evaluated_once(monkeypatch):
    calls, sums = _spy_kernels(monkeypatch)
    shared = Counter()
    for sides, args in _sharing_instances(random.Random(SEED + 1)):
        first = len(sums)
        lhs, rhs = sides(*args)
        assert lhs == rhs
        for terms in sums[first:]:
            uses = Counter(map(id, _inner_nodes(terms)))
            shared[sides.__name__] += sum(count > 1 for count in uses.values())
    assert len(shared) == 2 and min(shared.values()) >= 10
    # the spy keeps every argument alive, so ids name maps uniquely
    repeats = Counter(
        (kernel, id(f), tuple(map(id, gs)), tag) for kernel, f, gs, tag in calls if tag
    )
    assert max(repeats.values()) == 1


@pytest.mark.parametrize("name", list(CACHED_CALLS))
def test_no_more_kernel_calls_than_with_cached_sides(name, monkeypatch):
    calls, _ = _spy_kernels(monkeypatch)
    outcomes = list(fuzz_outcomes(7, 40, [name], WIDER))
    assert all(outcome.passed for _, _, outcome in outcomes)
    assert len(calls) <= CACHED_CALLS[name], name


def test_a_top_level_brace_skips_the_rebound_kernel(monkeypatch):
    """With brace_eval wrapped everywhere, bracket_sum still recognizes a
    top-level brace and adds its summands straight into the table:
    fuzzing ainfty calls no kernel at all."""
    calls, sums = _spy_kernels(monkeypatch)
    list(fuzz_outcomes(7, 20, ["ainfty"], FuzzCaps()))
    assert sums and not calls


def test_a_top_level_symmetrized_brace_is_summed_in_place(monkeypatch):
    """With symmetrize_brace wrapped everywhere, bracket_sum still expands
    each top-level symmetrized brace into its orderings in the sum's own
    table: every kernel call inside a sum of thm1's right side evaluates
    one of that sum's inner nodes."""
    calls, sums = _spy_kernels(monkeypatch)
    outcomes = list(fuzz_outcomes(7, 40, ["thm1"], WIDER))
    assert all(outcome.passed for _, _, outcome in outcomes)
    inside = [call for call in calls if call[3]]
    assert inside
    for kernel, f, gs, tag in inside:
        nodes = {
            (id(outer), tuple(map(id, inner)))
            for _, outer, inner in _inner_nodes(sums[tag - 1])
        }
        assert kernel == "symmetrize_brace"
        assert (id(f), tuple(map(id, gs))) in nodes
