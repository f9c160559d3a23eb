import itertools
import math
import random

import pytest

from bracekit.errors import InputError, ResourceLimitError
from bracekit.graded import antisym_koszul_sign, enumerate_permutations
from bracekit.multimap import (
    GradedSpace,
    GradedVector,
    MultiMap,
    antisymmetrize,
    antisymmetrize_decomposition_check,
    head_permutation_terms,
    interleave_terms,
    is_antisymmetric,
    tail_permutation_terms,
    tensor_block_eval,
)
from helpers import random_map


MIXED = GradedSpace([("a", 0), ("b", 1)])
EVEN = GradedSpace([("e", 0)])


class TestGradedSpace:
    def test_lookup(self):
        assert MIXED.dim == 2
        assert MIXED.index("b") == 1
        assert MIXED.degrees == (0, 1)
        assert MIXED.parities == (0, 1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            GradedSpace([("a", 0), ("a", 1)])

    def test_unknown_name(self):
        with pytest.raises(InputError):
            MIXED.index("zz")

    def test_empty_basis_rejected(self):
        with pytest.raises(InputError):
            GradedSpace([])


class TestGradedVector:
    def test_zero_pruning(self):
        v = GradedVector(MIXED, {0: 0, 1: 3})
        assert v.coeffs == {1: 3}

    def test_degree(self):
        assert MIXED.basis_vector(1).degree() == 1
        assert MIXED.zero_vector().degree() is None
        with pytest.raises(InputError):
            GradedVector(MIXED, {0: 1, 1: 1}).degree()

    def test_arithmetic(self):
        u = MIXED.basis_vector(0, 2)
        v = MIXED.basis_vector(0, -2) + MIXED.basis_vector(1, 5)
        assert (u + v).coeffs == {1: 5}
        assert (3 * u).coeffs == {0: 6}
        assert (u - u).is_zero()


class TestMultiMap:
    def test_bilinearity(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        two_e = EVEN.basis_vector(0, 2)
        three_e = EVEN.basis_vector(0, 3)
        assert f([two_e, three_e]).coeffs == {0: 6}

    def test_zero_argument(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        assert f([EVEN.zero_vector(), EVEN.basis_vector(0)]).is_zero()

    def test_linear_combination_argument(self):
        space = GradedSpace([("x", 0), ("y", 0)])
        f = MultiMap(space, 1, 0, {(0,): {0: 1}, (1,): {1: 7}})
        arg = space.vector({0: 2, 1: 3})
        assert f([arg]).coeffs == {0: 2, 1: 21}

    def test_homogeneity_enforced(self):
        with pytest.raises(InputError) as err:
            MultiMap(MIXED, 1, 0, {(0,): {1: 1}})
        assert "homogeneity" in str(err.value)

    def test_arity_must_be_positive(self):
        with pytest.raises(InputError):
            MultiMap(EVEN, 0, 0, {})

    def test_add_and_scale(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 3}})
        g = MultiMap(EVEN, 2, 0, {(0, 0): {0: -3}})
        assert (f + g).is_zero()
        assert f.scale(2).value((0, 0)).coeffs == {0: 6}
        from fractions import Fraction

        assert Fraction(1, 2) * f.scale(2) == f

    def test_signature_mismatch(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        g = MultiMap(EVEN, 1, 0, {(0,): {0: 1}})
        assert f != g
        with pytest.raises(InputError):
            f + g

    def test_brace_parity(self):
        assert MultiMap.zero(EVEN, 2, 0).brace_parity == 1
        assert MultiMap.zero(EVEN, 2, 1).brace_parity == 0
        assert MultiMap.zero(EVEN, 1, 0).brace_parity == 0


class TestTensorBlockEval:
    def test_no_insertions_is_plain_eval(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 5}})
        args = [EVEN.basis_vector(0), EVEN.basis_vector(0)]
        assert tensor_block_eval(f, [], (2,), args).coeffs == {0: 5}

    def test_even_degrees_give_no_sign(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        g = MultiMap(EVEN, 1, 0, {(0,): {0: 3}})
        args = [EVEN.basis_vector(0)] * 2
        assert tensor_block_eval(f, [g], (1, 0), args).coeffs == {0: 3}

    def test_odd_map_crossing_odd_argument(self):
        space = GradedSpace([("u", 1), ("v", 2)])
        g = MultiMap(space, 1, 1, {(0,): {1: 1}})
        f = MultiMap(space, 2, -2, {(0, 1): {0: 1}, (1, 0): {0: 1}})
        u = space.basis_vector(0)
        # g slides past the odd first argument: picks up -1
        late = tensor_block_eval(f, [g], (1, 0), [u, u])
        assert late.coeffs == {0: -1}
        # g consumes the first argument directly: no crossing
        early = tensor_block_eval(f, [g], (0, 1), [u, u])
        assert early.coeffs == {0: 1}

    def test_sign_matches_pairwise_oracle(self):
        rng = random.Random(7)
        space = GradedSpace([("a", -1), ("b", 0), ("c", 1), ("d", 2)])
        for _ in range(40):
            n = rng.randint(0, 2)
            gs = [random_map(rng, space, rng.randint(1, 2)) for _ in range(n)]
            free = rng.randint(0 if n else 1, 2)
            slots = [0] * (n + 1)
            for _ in range(free):
                slots[rng.randint(0, n)] += 1
            f = random_map(rng, space, n + free)
            total = sum(g.arity for g in gs) + free
            args = [space.basis_vector(rng.randrange(space.dim)) for _ in range(total)]

            # oracle: double loop over (map, earlier argument) pairs
            exp = 0
            pos = 0
            for i, g in enumerate(gs):
                pos += slots[i]
                for x in args[:pos]:
                    exp += (g.degree & 1) * (x.degree() & 1)
                pos += g.arity
            outer = []
            pos = 0
            for i, g in enumerate(gs):
                outer.extend(args[pos : pos + slots[i]])
                pos += slots[i]
                outer.append(g(args[pos : pos + g.arity]))
                pos += g.arity
            outer.extend(args[pos:])
            expected = f(outer).scale(-1 if exp & 1 else 1)

            assert tensor_block_eval(f, gs, slots, args) == expected

    def test_shape_validation(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        g = MultiMap(EVEN, 1, 0, {(0,): {0: 1}})
        with pytest.raises(InputError):
            tensor_block_eval(f, [g], (0, 0), [EVEN.basis_vector(0)])
        with pytest.raises(InputError):
            tensor_block_eval(f, [g], (1,), [EVEN.basis_vector(0)] * 2)


class TestAntisymmetrize:
    def test_arity_one_is_identity(self):
        f = MultiMap(MIXED, 1, 0, {(0,): {0: 2}})
        assert antisymmetrize(f) == f

    def test_symmetric_even_map_dies(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        assert antisymmetrize(f).is_zero()

    def test_matches_direct_signed_sum(self):
        rng = random.Random(21)
        space = GradedSpace([("a", 0), ("b", 1), ("c", -2)])
        for arity in (1, 2, 3, 4):
            for _ in range(5):
                f = random_map(rng, space, arity)
                asf = antisymmetrize(f)
                for t in space.tuples(arity):
                    degrees = [space.degrees[i] for i in t]
                    expected = space.zero_vector()
                    for p in enumerate_permutations(arity):
                        sign = antisym_koszul_sign(p, degrees)
                        expected = expected + f.value(p.apply(t)).scale(sign)
                    assert asf.value(t) == expected

    def test_output_is_antisymmetric(self):
        rng = random.Random(3)
        space = GradedSpace([("a", 1), ("b", 2)])
        for _ in range(10):
            f = random_map(rng, space, 3)
            assert is_antisymmetric(antisymmetrize(f))

    def test_antisymmetric_input_scales_by_factorial(self):
        rng = random.Random(5)
        space = GradedSpace([("a", 1), ("b", 0)])
        for arity in (2, 3):
            f = antisymmetrize(random_map(rng, space, arity))
            assert antisymmetrize(f) == f.scale(math.factorial(arity))

    def test_cap(self):
        f = MultiMap(EVEN, 9, 0, {(0,) * 9: {0: 1}})
        with pytest.raises(ResourceLimitError, match="arity 9 exceeds cap 8"):
            antisymmetrize(f)


class TestIsAntisymmetric:
    def test_detects_failure(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        assert not is_antisymmetric(f)

    def test_odd_square_is_allowed(self):
        space = GradedSpace([("u", 1), ("w", 2)])
        f = MultiMap(space, 2, 0, {(0, 0): {1: 1}})
        assert is_antisymmetric(f)

    def test_zero_map(self):
        assert is_antisymmetric(MultiMap.zero(MIXED, 3, 0))


class TestPermutationTerms:
    # words of basis indices; letter i has degree parity PAR[i]
    PAR = MIXED.parities

    def test_tail_terms_trivial(self):
        assert tail_permutation_terms((0, 1), self.PAR, 0) == [(1, (0, 1))]

    def test_tail_terms_swap(self):
        terms = tail_permutation_terms((1, 1), self.PAR, 2)
        signs = sorted(s for s, _ in terms)
        assert signs == [1, 1]  # odd pair: chi(swap) = +1

    def test_head_terms_swap_evens(self):
        terms = head_permutation_terms((0, 0), self.PAR, 2)
        assert sorted(s for s, _ in terms) == [-1, 1]

    def test_head_terms_keep_tail(self):
        terms = head_permutation_terms((0, 1, 1), self.PAR, 2)
        assert [w for _, w in terms] == [(0, 1, 1), (1, 0, 1)]

    def test_interleave_counts(self):
        word = (0, 0, 0, 0)
        assert len(interleave_terms(word, self.PAR, 2, 2)) == 6
        assert len(interleave_terms(word, self.PAR, 4, 0)) == 1
        assert len(interleave_terms(word, self.PAR, 0, 4)) == 1

    def test_interleave_single_even_pair(self):
        # one head y = letter 0, one tail z = letter 1, both even:
        # patterns (0,1) and (1,0)
        terms = {w: s for s, w in interleave_terms((0, 1), (0, 0), 1, 1)}
        assert terms == {(0, 1): 1, (1, 0): -1}

    def test_interleave_single_odd_pair(self):
        terms = {w: s for s, w in interleave_terms((0, 1), (1, 1), 1, 1)}
        assert terms == {(0, 1): 1, (1, 0): 1}  # -(-1)^{|y||z|} = +1

    def test_bad_splits(self):
        with pytest.raises(InputError):
            tail_permutation_terms((0, 1), self.PAR, 3)
        with pytest.raises(InputError):
            head_permutation_terms((0, 1), self.PAR, -1)
        with pytest.raises(InputError):
            interleave_terms((0, 1), self.PAR, 1, 2)


class TestDecomposition:
    def test_small_mixed_space(self):
        rng = random.Random(11)
        space = GradedSpace([("a", 0), ("b", 1)])
        for arity in (1, 2, 3):
            for _ in range(4):
                f = random_map(rng, space, arity)
                assert antisymmetrize_decomposition_check(f)

    def test_arity_four(self):
        rng = random.Random(13)
        space = GradedSpace([("a", 1), ("b", 2)])
        f = random_map(rng, space, 4)
        assert antisymmetrize_decomposition_check(f)
