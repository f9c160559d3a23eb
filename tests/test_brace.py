import itertools
import random
from types import SimpleNamespace

import pytest

from bracekit import brace
from bracekit.brace import (
    beta_parity,
    brace_axiom_check,
    brace_axiom_sides,
    brace_eval,
    braced_symmetrization_sides,
    bracket_sum,
    decomposition_first_defect,
    symmetrize_brace,
)
from bracekit.checks import fuzz_outcomes
from bracekit.errors import InputError
from bracekit.fuzz import FuzzCaps
from bracekit.graded import staged_rearrangements
from bracekit.multimap import GradedSpace, MultiMap
from bracekit.symbrace import symbrace_eval
from helpers import (
    beta_without_crossing_term,
    beta_without_degree_shift_term,
    beta_without_leading_slot_term,
    dense_first_defect,
    eta_without_parity_crossing,
    random_map,
)

POINT = GradedSpace([("e", 0)])
PLANE = GradedSpace([("a", 0), ("b", 0)])
MIXED = GradedSpace([("a", 0), ("b", 1)])
# f, y and z of test_riffle_sign_on_odd_pair
_UV = GradedSpace([("u", 0), ("v", 1)])
ODD_PAIR = (
    MultiMap(_UV, 2, -2, {(1, 1): {0: 1}}),
    MultiMap(_UV, 1, 1, {(0,): {1: 1}}),
    MultiMap(_UV, 1, 1, {(0,): {1: 2}}),
)


def const_map(space, arity, value_index=0):
    entries = {key: {value_index: 1} for key in space.tuples(arity)}
    degree = space.degrees[value_index] - 0
    return MultiMap(space, arity, degree, entries)


def _as_term(bracket):
    """The bracket as the one top-level term of a bracket_sum."""

    def term(f, gs):
        return bracket_sum(f.space, (1, 0), [(1, (bracket, f, list(gs)))])

    term.__name__ = f"term-{bracket.__name__}"
    return term


_BRACKETS = (brace_eval, symmetrize_brace, symbrace_eval)
_TOO_MANY = "^cannot insert {} maps into a map of arity {}$"
_OTHER_SPACE = "^all maps in a bracket must share one space$"


class TestShapeChecks:
    """Every bracket, called or as a top-level term of a sum, refuses a
    wrong shape with one text per rule."""

    @pytest.mark.parametrize(
        "bracket", [*_BRACKETS, *map(_as_term, _BRACKETS)], ids=lambda b: b.__name__
    )
    def test_one_text_per_rule(self, bracket):
        f, g = const_map(POINT, 1), const_map(POINT, 1)
        with pytest.raises(InputError, match=_TOO_MANY.format(2, 1)):
            bracket(f, [g, g])
        with pytest.raises(InputError, match=_OTHER_SPACE):
            bracket(f, [const_map(PLANE, 1)])

    @pytest.mark.parametrize(
        "bracket", [symmetrize_brace, _as_term(symmetrize_brace)], ids=["call", "term"]
    )
    def test_too_many_maps_are_refused_before_their_orderings(self, bracket):
        # listing the orderings of 9 maps raises ResourceLimitError (cap 8)
        f, g = const_map(POINT, 3), const_map(POINT, 1)
        with pytest.raises(InputError, match=_TOO_MANY.format(9, 3)):
            bracket(f, [g] * 9)


class TestBetaParity:
    def test_unary_inserts_of_degree_zero(self):
        assert beta_parity(2, (1,), (0,), (0, 1)) == 0
        assert beta_parity(2, (1,), (0,), (1, 0)) == 0

    def test_binary_insert_sees_leading_slot(self):
        assert beta_parity(2, (2,), (0,), (0, 1)) == 0
        assert beta_parity(2, (2,), (0,), (1, 0)) == 1

    def test_degree_shift_term(self):
        assert beta_parity(2, (1,), (1,), (0, 1)) == 1
        assert beta_parity(2, (1,), (1,), (1, 0)) == 1

    def test_unary_degree_zero_inserts_always_trivial(self):
        for slots in [(0, 0, 2), (1, 0, 1), (2, 0, 0), (0, 1, 1)]:
            assert beta_parity(4, (1, 1), (0, 0), slots) == 0

    def test_leading_slot_term_flip(self, monkeypatch):
        shape = (3, (2,), (0,), (1, 1))
        assert beta_parity(*shape) == 1
        monkeypatch.setattr(brace, "beta_parity", beta_without_leading_slot_term)
        assert brace.beta_parity(*shape) == 0


class TestBraceEval:
    def test_empty_brace_is_identity(self):
        f = const_map(POINT, 2)
        assert brace_eval(f, []) == f

    def test_unary_insert_doubles(self):
        f = MultiMap(POINT, 2, 0, {(0, 0): {0: 1}})
        g = MultiMap(POINT, 1, 0, {(0,): {0: 1}})
        out = brace_eval(f, [g])
        assert out.arity == 2
        assert out.degree == 0
        assert out.value((0, 0)).coeffs == {0: 2}

    def test_signature(self):
        rng = random.Random(2)
        f = random_map(rng, MIXED, 3)
        g = random_map(rng, MIXED, 2)
        h = random_map(rng, MIXED, 1)
        out = brace_eval(f, [g, h])
        assert out.arity == 2 + 1 + 3 - 2
        assert out.degree == f.degree + g.degree + h.degree

    def test_too_many_inserts(self):
        f = const_map(POINT, 1)
        g = const_map(POINT, 1)
        with pytest.raises(InputError):
            brace_eval(f, [g, g])

    def test_binary_self_insertion_measures_associativity(self):
        # a*a=a, a*b=b, b*a=0, b*b=0 is associative
        mu = MultiMap(PLANE, 2, 0, {(0, 0): {0: 1}, (0, 1): {1: 1}})
        assert brace_eval(mu, [mu]).is_zero()
        # a*a=b, a*b=a is not
        bad = MultiMap(PLANE, 2, 0, {(0, 0): {1: 1}, (0, 1): {0: 1}})
        defect = brace_eval(bad, [bad])
        assert not defect.is_zero()
        # (aa)b - a(ab) = bb - aa = -b on the (a,a,b) slot
        assert defect.value((0, 0, 1)).coeffs == {1: -1}


class TestBraceAxiom:
    def test_no_inner_maps(self):
        rng = random.Random(4)
        x = random_map(rng, MIXED, 2)
        y = random_map(rng, MIXED, 1)
        assert brace_axiom_check(x, [], [y])

    def test_no_outer_maps(self):
        rng = random.Random(5)
        x = random_map(rng, MIXED, 2)
        g = random_map(rng, MIXED, 1)
        assert brace_axiom_check(x, [g], [])

    def test_random_instances(self):
        rng = random.Random(6)
        for _ in range(25):
            space = rng.choice((POINT, PLANE, MIXED))
            N = rng.randint(1, 3)
            x = random_map(rng, space, N)
            n = rng.randint(0, min(2, N))
            xs = [random_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            inner_arity = sum(m.arity for m in xs) + N - n
            r = rng.randint(0, min(2, inner_arity))
            ys = [random_map(rng, space, rng.randint(1, 2)) for _ in range(r)]
            assert brace_axiom_check(x, xs, ys)

    def test_overflow_terms_appear_and_cancel(self):
        # arity-2 outer with two inserted maps and two late maps forces
        # nestings that overflow both inner and outer braces
        rng = random.Random(7)
        x = random_map(rng, PLANE, 2)
        xs = [random_map(rng, PLANE, 2), random_map(rng, PLANE, 1)]
        ys = [random_map(rng, PLANE, 1), random_map(rng, PLANE, 1)]
        assert brace_axiom_check(x, xs, ys)

    def test_shape_preconditions(self):
        x = const_map(POINT, 1)
        g = const_map(POINT, 1)
        with pytest.raises(InputError):
            brace_axiom_check(x, [g, g], [])
        with pytest.raises(InputError):
            brace_axiom_check(x, [g], [g, g])

    def test_leading_slot_convention_is_load_bearing(self, monkeypatch):
        e = POINT
        x = MultiMap(e, 2, 0, {(0, 0): {0: 1}})
        g = MultiMap(e, 2, 0, {(0, 0): {0: 1}})
        h = MultiMap(e, 1, 0, {(0,): {0: 1}})
        assert brace_axiom_check(x, [g], [h])
        monkeypatch.setattr(brace, "beta_parity", beta_without_leading_slot_term)
        assert not brace_axiom_check(x, [g], [h])

    @pytest.mark.parametrize(
        "mutant",
        [
            beta_without_leading_slot_term,
            beta_without_degree_shift_term,
            beta_without_crossing_term,
        ],
        ids=lambda m: m.__name__,
    )
    def test_fuzz_kills_every_beta_mutant(self, mutant, monkeypatch):
        # seed 7 fails 13, 7 and 6 of 100 brace-axiom cases under these
        monkeypatch.setattr(brace, "beta_parity", mutant)
        outcomes = fuzz_outcomes(7, 100, ["brace-axiom"], FuzzCaps())
        assert any(not outcome.passed for _, _, outcome in outcomes)

    def test_sides_share_signature(self):
        rng = random.Random(8)
        x = random_map(rng, MIXED, 3)
        xs = [random_map(rng, MIXED, 1)]
        ys = [random_map(rng, MIXED, 2)]
        lhs, rhs = brace_axiom_sides(x, xs, ys)
        assert (lhs.arity, lhs.degree) == (rhs.arity, rhs.degree)


class TestBracedSymmetrization:
    def test_interleave_term_count(self):
        rng = random.Random(9)
        f = random_map(rng, MIXED, 4)
        ys = [random_map(rng, MIXED, 1) for _ in range(2)]
        zs = [random_map(rng, MIXED, 1) for _ in range(2)]
        # 2! tail perms times 2! head perms times C(2+2,2) rifflings
        parities = [g.brace_parity for g in ys + zs]
        assert len(list(staged_rearrangements(ys + zs, parities, 2, False))) == 24

    def test_no_tail_maps(self):
        rng = random.Random(10)
        f = random_map(rng, MIXED, 2)
        ys = [random_map(rng, MIXED, 1) for _ in range(2)]
        staged, direct = braced_symmetrization_sides(f, ys, [])
        assert staged == direct

    def test_no_head_maps(self):
        rng = random.Random(11)
        f = random_map(rng, MIXED, 2)
        zs = [random_map(rng, MIXED, 1) for _ in range(2)]
        staged, direct = braced_symmetrization_sides(f, [], zs)
        assert staged == direct

    def test_random_instances(self):
        rng = random.Random(12)
        for _ in range(12):
            space = rng.choice((POINT, MIXED))
            n = rng.randint(0, 2)
            m = rng.randint(0 if n else 1, 2)
            N = rng.randint(n + m, n + m + 1)
            if N == 0:
                continue
            f = random_map(rng, space, N)
            ys = [random_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            zs = [random_map(rng, space, rng.randint(1, 2)) for _ in range(m)]
            staged, direct = braced_symmetrization_sides(f, ys, zs)
            assert staged == direct

    def test_riffle_sign_on_odd_pair(self):
        # y and z are unary of degree 1, so both have odd brace parity: the
        # riffle placing z before y costs (-1)^{|y||z|} = -1, and dropping
        # that sign leaves an uncancelled staged side
        f, y, z = ODD_PAIR
        staged, direct = braced_symmetrization_sides(f, [y], [z])
        assert staged == direct
        assert brace_eval(f, [y, z]) + brace_eval(f, [z, y]) != direct

    def test_eta_mutant_is_caught(self, monkeypatch):
        # the riffle sign without its crossing term fails 25 of 100 seed-7
        # lemma41 cases but no lemma51 case; the odd pair catches it there
        monkeypatch.setattr(brace, "staged_rearrangements", eta_without_parity_crossing)
        outcomes = fuzz_outcomes(7, 100, ["lemma41"], FuzzCaps())
        assert any(not outcome.passed for _, _, outcome in outcomes)
        f, y, z = ODD_PAIR
        staged, direct = braced_symmetrization_sides(f, [y], [z])
        assert staged != direct

    def test_shape_precondition(self):
        f = const_map(POINT, 1)
        g = const_map(POINT, 1)
        with pytest.raises(InputError):
            braced_symmetrization_sides(f, [g], [g])


def _defect_maps():
    """200 seeded maps for comparing Lemma 4.1's first defect with the
    dense loop: arity 1-4 on spaces of dim 1-3 with mixed degree parities;
    one in ten is the zero map and three in ten have one key."""
    rng = random.Random(41)
    maps = []
    for i in range(200):
        dim, arity = rng.randint(1, 3), rng.randint(1, 4)
        space = GradedSpace([(name, rng.randint(-1, 2)) for name in "abc"[:dim]])
        if i % 10 == 0:
            maps.append(MultiMap.zero(space, arity, rng.randint(-1, 1)))
            continue
        if i % 10 > 3:
            maps.append(random_map(rng, space, arity, rng.choice((0.2, 0.6))))
            continue
        key, out = tuple(rng.randrange(dim) for _ in range(arity)), rng.randrange(dim)
        degree = space.degrees[out] - sum(space.degrees[x] for x in key)
        maps.append(MultiMap(space, arity, degree, {key: {out: rng.choice((-1, 2))}}))
    return maps


DEFECT_MAPS = _defect_maps()


class TestDecomposition:
    def test_small_mixed_space(self):
        rng = random.Random(11)
        space = GradedSpace([("a", 0), ("b", 1)])
        for arity in (1, 2, 3):
            for _ in range(4):
                f = random_map(rng, space, arity)
                assert decomposition_first_defect(f) is None

    def test_arity_four(self):
        rng = random.Random(13)
        space = GradedSpace([("a", 1), ("b", 2)])
        f = random_map(rng, space, 4)
        assert decomposition_first_defect(f) is None

    @pytest.mark.parametrize("mutant", [None, eta_without_parity_crossing])
    def test_first_defect_matches_the_dense_loop(self, monkeypatch, mutant):
        # visiting only the orbits of f's keys reports the same split and
        # inputs as visiting every tuple, with or without the eta mutant
        if mutant:
            monkeypatch.setattr(brace, "staged_rearrangements", mutant)
        found = [decomposition_first_defect(f) for f in DEFECT_MAPS]
        assert found == [dense_first_defect(f) for f in DEFECT_MAPS]
        defects = [d for d in found if d is not None]
        assert len(defects) > 20 if mutant else not defects

    def test_a_row_outside_the_orbits_is_reported(self, monkeypatch):
        # an antisymmetrization that writes a row on a tuple rearranging no
        # key of f fails there, at the first split, in both loops
        rng, real, reported = random.Random(43), brace.antisymmetrize, 0
        for f in DEFECT_MAPS:
            sorts = {tuple(sorted(key)) for key in f.entries}
            outside = [t for t in f.space.tuples(f.arity) if tuple(sorted(t)) not in sorts]
            if not outside:
                continue
            t = rng.choice(outside)

            def with_row(g, t=t):
                return SimpleNamespace(entries={**real(g).entries, t: {0: 1}})

            monkeypatch.setattr(brace, "antisymmetrize", with_row)
            expected = {"split": [0, f.arity], "inputs": [f.space.names[i] for i in t]}
            assert decomposition_first_defect(f) == dense_first_defect(f) == expected
            reported += 1
        assert reported > 150

    def test_staged_calls_visit_only_the_orbits(self, monkeypatch):
        # one key (a, b, c, c) has 4!/2! = 12 rearrangements, each staged at
        # 5 splits, against the 3**4 tuples of the dense loop
        calls = []
        real = brace.staged_rearrangements

        def spy(items, parities, n, chi):
            calls.append(items)
            return real(items, parities, n, chi)

        monkeypatch.setattr(brace, "staged_rearrangements", spy)
        space = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
        f = MultiMap(space, 4, -3, {(0, 1, 2, 2): {0: 1}})
        assert decomposition_first_defect(f) is None
        assert len(calls) == 60
        assert set(calls) == set(itertools.permutations((0, 1, 2, 2)))
        calls.clear()
        assert dense_first_defect(f) is None
        assert len(calls) == 405
        calls.clear()
        assert decomposition_first_defect(MultiMap.zero(space, 4, 0)) is None
        assert calls == []
