import itertools
import random

import pytest

from bracekit.checks import CHECKS, _family_instance
from bracekit.errors import InputError, ResourceLimitError
from bracekit.homotopy import (
    A_INFINITY,
    L_INFINITY,
    StructureFamily,
    a_infinity_check,
    a_infinity_defects,
    antisymmetrize_structure,
    l_infinity_check,
    l_infinity_defects,
)
from bracekit.multimap import GradedSpace, MultiMap, antisymmetrize

POINT = GradedSpace([("e", 0)])
PLANE = GradedSpace([("a", 0), ("b", 0)])


def product_map(space, table):
    entries = {}
    for (x, y), out in table.items():
        i, j = space.index(x), space.index(y)
        entries[(i, j)] = {space.index(name): c for name, c in out.items()}
    return MultiMap(space, 2, 0, entries)


# a*a=a, a*b=b, b*a=0, b*b=0: associative, noncommutative
AFFINE = product_map(PLANE, {("a", "a"): {"a": 1}, ("a", "b"): {"b": 1}})


def is_associative(mu):
    space = mu.space
    for i, j, k in itertools.product(range(space.dim), repeat=3):
        vi, vj, vk = (space.basis_vector(x) for x in (i, j, k))
        if mu([mu([vi, vj]), vk]) != mu([vi, mu([vj, vk])]):
            return False
    return True


class TestStructureFamily:
    def test_degree_constraint(self):
        with pytest.raises(InputError):
            StructureFamily(POINT, [MultiMap.zero(POINT, 2, 1)], A_INFINITY)

    def test_duplicate_arity(self):
        comps = [MultiMap.zero(POINT, 2, 0), MultiMap.zero(POINT, 2, 0)]
        with pytest.raises(InputError):
            StructureFamily(POINT, comps, A_INFINITY)

    def test_antisymmetric_flavor_validates(self):
        sym = MultiMap(POINT, 2, 0, {(0, 0): {0: 1}})
        with pytest.raises(InputError):
            StructureFamily(POINT, [sym], L_INFINITY)

    def test_unknown_flavor(self):
        with pytest.raises(InputError):
            StructureFamily(POINT, [], "other")

    def test_component_lookup(self):
        fam = StructureFamily(PLANE, [AFFINE], A_INFINITY)
        assert fam.component(2) is AFFINE
        assert fam.component(1) is None
        assert fam.max_component_arity == 2


class TestAInfinity:
    def test_empty_family_passes(self):
        fam = StructureFamily(POINT, [], A_INFINITY)
        assert a_infinity_check(fam, 4)

    def test_associative_product_passes(self):
        assert is_associative(AFFINE)
        fam = StructureFamily(PLANE, [AFFINE], A_INFINITY)
        assert a_infinity_check(fam, 3)
        defects = a_infinity_defects(fam, 3)
        assert set(defects) == {1, 2, 3}
        assert all(d.is_zero() for d in defects.values())

    def test_nonassociative_product_fails(self):
        bad = product_map(PLANE, {("a", "a"): {"b": 1}, ("a", "b"): {"a": 1}})
        assert not is_associative(bad)
        fam = StructureFamily(PLANE, [bad], A_INFINITY)
        assert not a_infinity_check(fam, 3)
        assert not a_infinity_defects(fam, 3)[3].is_zero()

    def test_differential_squaring_to_zero(self):
        # three-step chain x -> y -> z would need d(d(x)) = 0; send y to 0
        space = GradedSpace([("x", 0), ("y", -1), ("z", -2)])
        d = MultiMap(space, 1, -1, {(0,): {1: 1}})
        fam = StructureFamily(space, [d], A_INFINITY)
        assert a_infinity_check(fam, 2)

    def test_differential_not_squaring_to_zero(self):
        space = GradedSpace([("x", 0), ("y", -1), ("z", -2)])
        d = MultiMap(space, 1, -1, {(0,): {1: 1}, (1,): {2: 1}})
        fam = StructureFamily(space, [d], A_INFINITY)
        assert not a_infinity_check(fam, 1)
        assert a_infinity_defects(fam, 1)[1].value((0,)).coeffs == {2: 1}

    def test_flavor_guard(self):
        fam = StructureFamily(POINT, [], L_INFINITY)
        with pytest.raises(InputError):
            a_infinity_check(fam, 2)

    def test_max_arity_above_cap_is_refused(self):
        fam = StructureFamily(PLANE, [AFFINE], A_INFINITY)
        assert set(a_infinity_defects(fam, 8)) == set(range(1, 9))
        with pytest.raises(ResourceLimitError, match="exceeds cap 8$"):
            a_infinity_defects(fam, 9)

    def test_top_component_raises_the_cap(self):
        # m5{m5} has arity 9, above the enumeration cap: it is still checked
        space = GradedSpace([("x", 0), ("y", 3)])
        m5 = MultiMap(space, 5, 3, {(0,) * 5: {1: 1}})
        fam = StructureFamily(space, [m5], A_INFINITY)
        defects = a_infinity_defects(fam, 9)
        assert set(defects) == set(range(1, 10))
        assert defects[9].arity == 9 and defects[9].is_zero()
        with pytest.raises(ResourceLimitError, match="exceeds cap 9$"):
            a_infinity_defects(fam, 10)


class TestLInfinity:
    def test_commutator_satisfies_jacobi(self):
        ell2 = antisymmetrize(AFFINE)
        # independent Jacobi check: [[x,y],z] + [[z,x],y] + [[y,z],x] = 0
        def br(u, v):
            return ell2([u, v])

        for i, j, k in itertools.product(range(2), repeat=3):
            x, y, z = (PLANE.basis_vector(t) for t in (i, j, k))
            total = br(br(x, y), z) + br(br(z, x), y) + br(br(y, z), x)
            assert total.is_zero()

        fam = StructureFamily(PLANE, [ell2], L_INFINITY)
        assert l_infinity_check(fam, 3)

    def test_nonjacobi_bracket_fails(self):
        space = GradedSpace([("p", 0), ("q", 0), ("r", 0)])
        # [p,q]=r, [p,r]=p: Jacobi on (p,q,r) gives [[p,q],r]+[[r,p],q]+[[q,r],p]
        entries = {
            (0, 1): {2: 1},
            (1, 0): {2: -1},
            (0, 2): {0: 1},
            (2, 0): {0: -1},
        }
        bracket = MultiMap(space, 2, 0, entries)
        fam = StructureFamily(space, [bracket], L_INFINITY)
        assert not l_infinity_check(fam, 3)

    def test_flavor_guard(self):
        fam = StructureFamily(POINT, [], A_INFINITY)
        with pytest.raises(InputError):
            l_infinity_defects(fam, 2)


class TestAntisymmetrizeStructure:
    def test_reflavors_and_antisymmetrizes(self):
        fam = StructureFamily(PLANE, [AFFINE], A_INFINITY)
        anti = antisymmetrize_structure(fam)
        assert anti.flavor == L_INFINITY
        assert anti.component(2) == antisymmetrize(AFFINE)

    def test_corollary_on_associative_algebra(self):
        fam = StructureFamily(PLANE, [AFFINE], A_INFINITY)
        assert a_infinity_check(fam, 3)
        assert l_infinity_check(antisymmetrize_structure(fam), 3)

    def test_corollary_with_differential(self):
        space = GradedSpace([("x", 0), ("y", -1)])
        d = MultiMap(space, 1, -1, {(0,): {1: 1}})
        fam = StructureFamily(space, [d], A_INFINITY)
        assert a_infinity_check(fam, 2)
        assert l_infinity_check(antisymmetrize_structure(fam), 2)

    def test_invalid_source_is_input_error(self):
        bad = product_map(PLANE, {("a", "a"): {"b": 1}, ("a", "b"): {"a": 1}})
        fam = StructureFamily(PLANE, [bad], A_INFINITY)
        with pytest.raises(InputError, match="associativity"):
            CHECKS["corollary"].run(_family_instance(fam, 3))

    def test_random_commutative_rescalings(self):
        rng = random.Random(23)
        for _ in range(6):
            # diagonal conjugation of the affine product stays associative
            c = [rng.choice((1, 2, 3)) for _ in range(2)]
            entries = {}
            for (i, j), out in AFFINE.entries.items():
                scaled = {
                    k: coeff * c[i] * c[j] for k, coeff in out.items()
                }
                from fractions import Fraction

                scaled = {
                    k: Fraction(coeff, c[k]) for k, coeff in scaled.items()
                }
                entries[(i, j)] = scaled
            mu = MultiMap(PLANE, 2, 0, entries)
            assert is_associative(mu)
            fam = StructureFamily(PLANE, [mu], A_INFINITY)
            assert a_infinity_check(fam, 3)
            assert l_infinity_check(antisymmetrize_structure(fam), 3)
