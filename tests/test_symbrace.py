import random

import pytest

from bracekit import symbrace
from bracekit.brace import brace_eval
from bracekit.checks import fuzz_outcomes
from bracekit.errors import InputError
from bracekit.fuzz import FuzzCaps
from bracekit.multimap import GradedSpace, MultiMap, is_antisymmetric
from bracekit.symbrace import (
    FLAVOR_SYMMETRIZED,
    FLAVOR_UNSHUFFLE,
    antisymmetrized_brace_sides,
    delta_parity,
    symbrace_axiom_check,
    symbrace_axiom_sides,
    symbrace_eval,
    symmetrize_brace,
)
from helpers import (
    delta_without_arity_pair_term,
    delta_without_arity_shift_term,
    delta_without_crossing_term,
    delta_without_degree_shift_term,
    random_antisym_map,
    random_map,
)

POINT = GradedSpace([("e", 0)])
MIXED = GradedSpace([("a", 0), ("b", 1)])
ODDS = GradedSpace([("u", 1), ("v", -1)])


def graded_symmetry_holds(f, gs):
    """Swapping adjacent inserted maps costs (-1)^{|g_i||g_{i+1}|} in brace
    parities; checks every adjacent swap against the base bracket."""
    gs = tuple(gs)
    base = symbrace_eval(f, gs)
    for i in range(len(gs) - 1):
        swapped = gs[:i] + (gs[i + 1], gs[i]) + gs[i + 2 :]
        sign = -1 if gs[i].brace_parity & gs[i + 1].brace_parity else 1
        if symbrace_eval(f, swapped) != base.scale(sign):
            return False
    return True


class TestDeltaParity:
    def test_no_inserts(self):
        assert delta_parity(3, (), ()) == 0

    def test_single_unary_odd(self):
        assert delta_parity(1, (1,), (1,)) == 0

    def test_two_unary_even(self):
        assert delta_parity(2, (1, 1), (0, 0)) == 0

    def test_degree_shift(self):
        # N = 2, one unary insert of odd degree: (N-1) q_1 = 1
        assert delta_parity(2, (1,), (1,)) == 1

    @pytest.mark.parametrize("check", ["symbrace-axiom-ex33", "thm2"])
    @pytest.mark.parametrize(
        "mutant",
        [
            None,
            delta_without_degree_shift_term,
            delta_without_crossing_term,
            delta_without_arity_pair_term,
            delta_without_arity_shift_term,
        ],
        ids=lambda m: m.__name__ if m else "no_mutant",
    )
    def test_fuzz_kills_every_delta_mutant(self, check, mutant, monkeypatch):
        # seed 7 fails 5, 5, 7 and 13 of 100 ex33 cases under these, 4, 3,
        # 4 and 6 of 100 thm2 cases, and none without a mutant
        if mutant:
            monkeypatch.setattr(symbrace, "delta_parity", mutant)
        outcomes = fuzz_outcomes(7, 100, [check], FuzzCaps())
        kills = sum(not outcome.passed for _, _, outcome in outcomes)
        assert (kills > 0) == (mutant is not None)


class TestSymbraceEval:
    def test_empty_bracket_is_identity(self):
        rng = random.Random(1)
        f = random_antisym_map(rng, MIXED, 2)
        assert symbrace_eval(f, []) == f

    def test_arity_one_matches_symmetrized_brace(self):
        rng = random.Random(2)
        for space in (POINT, MIXED, ODDS):
            for g_arity in (1, 2, 3):
                f = random_antisym_map(rng, space, 1)
                g = random_antisym_map(rng, space, g_arity)
                assert symbrace_eval(f, [g]) == symmetrize_brace(f, [g])

    def test_requires_antisymmetric_inputs(self):
        f = MultiMap(POINT, 2, 0, {(0, 0): {0: 1}})  # symmetric, even
        g = MultiMap(POINT, 1, 0, {(0,): {0: 1}})
        with pytest.raises(InputError):
            symbrace_eval(f, [g])

    def test_too_many_inserts(self):
        g = MultiMap(POINT, 1, 0, {(0,): {0: 1}})
        with pytest.raises(InputError):
            symbrace_eval(g, [g, g])

    def test_output_is_antisymmetric(self):
        rng = random.Random(3)
        for _ in range(8):
            space = rng.choice((MIXED, ODDS))
            N = rng.randint(1, 3)
            n = rng.randint(0, min(2, N))
            f = random_antisym_map(rng, space, N)
            gs = [random_antisym_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            assert is_antisymmetric(symbrace_eval(f, gs))

    def test_signature(self):
        rng = random.Random(4)
        f = random_antisym_map(rng, MIXED, 3)
        g = random_antisym_map(rng, MIXED, 2)
        out = symbrace_eval(f, [g])
        assert out.arity == 2 + 3 - 1
        assert out.degree == f.degree + g.degree


class TestSymmetrizeBrace:
    def test_empty(self):
        rng = random.Random(5)
        f = random_map(rng, MIXED, 2)
        assert symmetrize_brace(f, []) == f

    def test_single(self):
        rng = random.Random(6)
        f = random_map(rng, MIXED, 2)
        g = random_map(rng, MIXED, 2)
        assert symmetrize_brace(f, [g]) == brace_eval(f, [g])

    def test_pair_expansion(self):
        rng = random.Random(7)
        f = random_map(rng, MIXED, 2)
        g1 = random_map(rng, MIXED, 1)
        g2 = random_map(rng, MIXED, 2)
        sign = -1 if (g1.brace_parity & g2.brace_parity) else 1
        expected = brace_eval(f, [g1, g2]) + brace_eval(f, [g2, g1]).scale(sign)
        assert symmetrize_brace(f, [g1, g2]) == expected

    def test_output_graded_symmetric(self):
        rng = random.Random(8)
        f = random_map(rng, MIXED, 3)
        g1 = random_map(rng, MIXED, 1)
        g2 = random_map(rng, MIXED, 1)
        sign = -1 if (g1.brace_parity & g2.brace_parity) else 1
        assert symmetrize_brace(f, [g2, g1]) == symmetrize_brace(f, [g1, g2]).scale(
            sign
        )


class TestGradedSymmetry:
    def test_vacuous(self):
        rng = random.Random(9)
        f = random_antisym_map(rng, MIXED, 2)
        assert graded_symmetry_holds(f, [])
        assert graded_symmetry_holds(f, [random_antisym_map(rng, MIXED, 1)])

    def test_equal_odd_inserts_square_to_zero(self):
        rng = random.Random(10)
        for _ in range(6):
            f = random_antisym_map(rng, MIXED, 2)
            g = random_antisym_map(rng, MIXED, 2)  # q=?, a=2
            if g.brace_parity == 1 and not symbrace_eval(f, [g, g]).is_zero():
                pytest.fail("odd square must vanish")

    def test_random_instances(self):
        rng = random.Random(11)
        for _ in range(8):
            space = rng.choice((MIXED, ODDS))
            N = rng.randint(2, 3)
            n = rng.randint(2, min(2, N))
            f = random_antisym_map(rng, space, N)
            gs = [random_antisym_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            assert graded_symmetry_holds(f, gs)


class TestSymbraceAxiom:
    def test_trivial_no_gs(self):
        rng = random.Random(12)
        f = random_antisym_map(rng, MIXED, 2)
        x = random_antisym_map(rng, MIXED, 1)
        assert symbrace_axiom_check(f, [], [x], FLAVOR_UNSHUFFLE)
        assert symbrace_axiom_check(f, [], [x], FLAVOR_SYMMETRIZED)

    def test_trivial_no_xs(self):
        rng = random.Random(13)
        f = random_antisym_map(rng, MIXED, 2)
        g = random_antisym_map(rng, MIXED, 1)
        assert symbrace_axiom_check(f, [g], [], FLAVOR_UNSHUFFLE)
        assert symbrace_axiom_check(f, [g], [], FLAVOR_SYMMETRIZED)

    def test_unknown_flavor(self):
        rng = random.Random(14)
        f = random_antisym_map(rng, MIXED, 1)
        with pytest.raises(InputError):
            symbrace_axiom_check(f, [], [], "other")

    def test_unshuffle_flavor_random_instances(self):
        rng = random.Random(15)
        for _ in range(10):
            space = rng.choice((POINT, MIXED))
            N = rng.randint(1, 3)
            n = rng.randint(0, min(2, N))
            f = random_antisym_map(rng, space, N)
            gs = [random_antisym_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            inner = symbrace_eval(f, gs)
            r = rng.randint(0, min(2, inner.arity))
            xs = [random_antisym_map(rng, space, rng.randint(1, 2)) for _ in range(r)]
            assert symbrace_axiom_check(f, gs, xs, FLAVOR_UNSHUFFLE)

    def test_symmetrized_flavor_random_instances(self):
        rng = random.Random(16)
        for _ in range(10):
            space = rng.choice((POINT, MIXED))
            N = rng.randint(1, 3)
            n = rng.randint(0, min(2, N))
            f = random_map(rng, space, N)
            gs = [random_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            inner = symmetrize_brace(f, gs)
            r = rng.randint(0, min(2, inner.arity))
            xs = [random_map(rng, space, rng.randint(1, 2)) for _ in range(r)]
            lhs, rhs = symbrace_axiom_sides(f, gs, xs, FLAVOR_SYMMETRIZED)
            assert lhs == rhs


class TestAntisymmetrizedBrace:
    def test_no_inserts(self):
        rng = random.Random(17)
        f = random_map(rng, MIXED, 2)
        lhs, rhs = antisymmetrized_brace_sides(f, [])
        assert lhs == rhs

    def test_unary_composition(self):
        rng = random.Random(18)
        for space in (POINT, MIXED):
            f = random_map(rng, space, 1)
            g = random_map(rng, space, 1)
            lhs, rhs = antisymmetrized_brace_sides(f, [g])
            assert lhs == rhs

    def test_random_instances(self):
        rng = random.Random(19)
        for _ in range(10):
            space = rng.choice((POINT, MIXED, ODDS))
            N = rng.randint(1, 3)
            n = rng.randint(0, min(2, N))
            f = random_map(rng, space, N)
            gs = [random_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            lhs, rhs = antisymmetrized_brace_sides(f, gs)
            assert lhs == rhs

    def test_shape_precondition(self):
        f = MultiMap(POINT, 1, 0, {(0,): {0: 1}})
        with pytest.raises(InputError, match="2 maps into a map of arity 1"):
            antisymmetrized_brace_sides(f, [f, f])
