import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from bracekit.errors import InputError, ResourceLimitError
from bracekit.graded import (
    antisym_koszul_sign,
    enumerate_permutations,
    koszul_sign,
    staged_rearrangements,
)
from bracekit.multimap import (
    GradedSpace,
    GradedVector,
    MultiMap,
    antisymmetrize,
    is_antisymmetric,
)
from helpers import (
    eta_without_parity_crossing,
    random_map,
    sliced_staged_rearrangements,
    tensor_block_eval,
)


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

    def test_any_ordered_iterable_of_pairs_is_a_basis(self):
        """A dict's items and a generator are read in order, as a list is;
        a set, which has no order, is refused (tests/test_refusals.py)."""
        assert GradedSpace({"a": 0, "b": 1}.items()) == MIXED
        assert GradedSpace(pair for pair in MIXED.basis) == MIXED


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
        assert (-v).coeffs == {0: 2, 1: -5}


class TestMultiMap:
    def test_bilinearity(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        two_e = EVEN.basis_vector(0, 2)
        three_e = EVEN.basis_vector(0, 3)
        assert f([two_e, three_e]).coeffs == {0: 6}

    def test_zero_argument(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        assert f([EVEN.zero_vector(), EVEN.basis_vector(0)]).is_zero()

    def test_a_zero_argument_does_not_skip_checking_the_others(self):
        f = MultiMap(EVEN, 2, 0, {(0, 0): {0: 1}})
        other = GradedSpace([("e", 1)])
        for bad in ("junk", other.basis_vector(0), other.zero_vector()):
            with pytest.raises(InputError, match="vectors in the map's space"):
                f([EVEN.zero_vector(), bad])

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
        assert (f - g).value((0, 0)).coeffs == {0: 6}
        assert (f - f).is_zero()

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


def pointwise_call(f, args):
    """f on vectors by multilinear expansion over every basis tuple."""
    total = f.space.zero_vector()
    for t in f.space.tuples(f.arity):
        c = math.prod(a.coeffs.get(i, 0) for a, i in zip(args, t))
        if c:
            total = total + f.value(t).scale(c)
    return total


class TestCall:
    F = MultiMap(MIXED, 2, 0, {(0, 0): {0: 3}, (0, 1): {1: -1}, (1, 0): {1: 2}})

    def test_equal_but_distinct_space_is_accepted(self):
        twin = GradedSpace(MIXED.basis)
        assert twin is not MIXED and twin == MIXED
        args = [GradedVector(twin, {0: 2, 1: 1}), twin.basis_vector(1)]
        assert self.F(args) == self.F([MIXED.vector(a.coeffs) for a in args])

    def test_any_sequence_of_vectors_is_accepted(self):
        args = [GradedVector(MIXED, {0: 2, 1: 1}), MIXED.basis_vector(1)]
        assert self.F(tuple(args)) == self.F(args)

    def test_other_space_is_refused(self):
        other = GradedSpace([("a", 0), ("c", 1)])
        with pytest.raises(InputError):
            self.F([other.basis_vector(0), other.basis_vector(1)])
        with pytest.raises(InputError):
            self.F([MIXED.basis_vector(0), {0: 1}])

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, -1, 2, -3),
            (Fraction(1, 2), Fraction(-2, 3), Fraction(1)),
            (1, Fraction(1, 2), -2),
        ],
        ids=["int", "fraction", "mixed"],
    )
    def test_values_match_pointwise_expansion(self, coeffs):
        rng = random.Random(len(coeffs))
        space = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
        for arity in (1, 2, 3):
            for _ in range(10):
                m = random_map(rng, space, arity)
                entries = {
                    k: {j: c * rng.choice(coeffs) for j, c in out.items()}
                    for k, out in m.entries.items()
                }
                f = MultiMap(space, arity, m.degree, entries)
                args = []
                for _ in range(arity):
                    hits = [i for i in range(space.dim) if rng.random() < 0.6]
                    args.append(space.vector({i: rng.choice(coeffs) for i in hits}))
                got = f(args)
                assert got == pointwise_call(f, args)
                if all(isinstance(c, int) for c in coeffs):
                    assert all(isinstance(c, int) for c in got.coeffs.values())


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
        with pytest.raises(ResourceLimitError, match="antisymmetrization over 9 elements exceeds cap 8"):
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

    def test_missing_swapped_row(self):
        assert not is_antisymmetric(MultiMap(MIXED, 2, 0, {(0, 1): {1: 1}}))
        both = {(0, 1): {1: 1}, (1, 0): {1: -1}}
        assert is_antisymmetric(MultiMap(MIXED, 2, 0, both))

    def test_odd_odd_pair_keeps_its_sign(self):
        space = GradedSpace([("u", 1), ("v", 1), ("w", 2)])
        same = {(0, 1): {2: 3}, (1, 0): {2: 3}}
        assert is_antisymmetric(MultiMap(space, 2, 0, same))
        flipped = {(0, 1): {2: 3}, (1, 0): {2: -3}}
        assert not is_antisymmetric(MultiMap(space, 2, 0, flipped))

    def test_matches_the_termwise_comparison(self):
        def termwise(f):
            par = f.space.parities
            for key, out in f.entries.items():
                for s in range(f.arity - 1):
                    a, b = key[s], key[s + 1]
                    other = f.entries.get(key[:s] + (b, a) + key[s + 2 :], {})
                    sign = 1 if par[a] & par[b] else -1
                    for j in {*out, *other}:
                        if other.get(j, 0) != sign * out.get(j, 0):
                            return False
            return True

        rng = random.Random(4)
        verdicts = set()
        for _ in range(200):
            dim = rng.randint(1, 3)
            space = GradedSpace((f"x{i}", rng.randint(-1, 2)) for i in range(dim))
            f = random_map(rng, space, rng.randint(1, 3))
            g = antisymmetrize(f)
            for m in (f, g, g + f.scale(rng.choice((0, 1)))):
                verdicts.add(is_antisymmetric(m))
                assert is_antisymmetric(m) == termwise(m)
        assert verdicts == {True, False}


def staged_sign_failures(staged, max_k=4):
    """The (k, parities, n, chi) with k <= max_k for which the (sign, word)
    multiset of staged(range(k), parities, n, chi) is not the chi- or
    eps-signed S_k, {(sign(s, parities), s)}: all parity patterns, all
    splits, both forms."""
    failures = []
    for k in range(max_k + 1):
        for parities in itertools.product((0, 1), repeat=k):
            for chi, sign_fn in ((True, antisym_koszul_sign), (False, koszul_sign)):
                expected = Counter(
                    (s.apply(range(k)), sign_fn(s, parities))
                    for s in enumerate_permutations(k)
                )
                for n in range(k + 1):
                    got = Counter((w, s) for s, w in staged(range(k), parities, n, chi))
                    if got != expected:
                        failures.append((k, parities, n, chi))
    return failures


class TestPermutationTerms:
    # words of basis indices; letter i has degree parity PAR[i]
    PAR = MIXED.parities

    def terms(self, word, n, chi=True):
        return list(staged_rearrangements(word, [self.PAR[i] for i in word], n, chi))

    def test_tail_terms_trivial(self):
        assert self.terms((), 0) == [(1, ())]
        assert self.terms((0,), 0) == [(1, (0,))]

    def test_tail_terms_swap(self):
        terms = self.terms((1, 1), 0)
        signs = sorted(s for s, _ in terms)
        assert signs == [1, 1]  # odd pair: chi(swap) = +1

    def test_head_terms_swap_evens(self):
        terms = self.terms((0, 0), 2)
        assert sorted(s for s, _ in terms) == [-1, 1]

    def test_head_terms_keep_tail(self):
        terms = self.terms((0, 1), 2)
        assert [w for _, w in terms] == [(0, 1), (1, 0)]

    def test_interleave_counts(self):
        # m! * n! * C(n + m, m) terms: 4! for every split of four letters
        word = (0, 0, 0, 0)
        assert len(self.terms(word, 2)) == 24
        assert len(self.terms(word, 4)) == 24
        assert len(self.terms(word, 0)) == 24

    def test_interleave_single_even_pair(self):
        # one head y = letter 0, one tail z = letter 1, both even:
        # patterns (0,1) and (1,0)
        terms = {w: s for s, w in staged_rearrangements((0, 1), (0, 0), 1, True)}
        assert terms == {(0, 1): 1, (1, 0): -1}

    def test_interleave_single_odd_pair(self):
        terms = {w: s for s, w in staged_rearrangements((0, 1), (1, 1), 1, True)}
        assert terms == {(0, 1): 1, (1, 0): 1}  # -(-1)^{|y||z|} = +1

    def test_eps_single_odd_pair(self):
        # without the sgn factor the odd pair's swap costs (-1)^{|y||z|}
        terms = {w: s for s, w in staged_rearrangements("yz", (1, 1), 1, False)}
        assert terms == {("y", "z"): 1, ("z", "y"): -1}

    def test_each_rearrangement_once_with_its_sign(self):
        assert staged_sign_failures(staged_rearrangements) == []

    def test_words_and_signs_in_the_sliced_order(self):
        # the whole list, so the order is pinned as well as the multiset
        for k in range(6):
            for parities in itertools.product((0, 1), repeat=k):
                for n, chi in itertools.product(range(k + 1), (True, False)):
                    args = (tuple(range(k)), parities, n, chi)
                    got = list(staged_rearrangements(*args))
                    assert got == list(sliced_staged_rearrangements(*args)), args

    @pytest.mark.parametrize(
        "items, degrees",
        [("", ()), ("y", (1,)), ("yz", (1, 2)), ("abcd", (3, -2, 1, -1))],
    )
    def test_string_items_and_degrees_in_the_sliced_order(self, items, degrees):
        # under two items the riffle deals with tuple, not an itemgetter
        for n, chi in itertools.product(range(len(items) + 1), (True, False)):
            args = (items, degrees, n, chi)
            got = list(staged_rearrangements(*args))
            assert got == list(sliced_staged_rearrangements(*args)), args

    def test_eta_mutant_fails_in_both_forms(self):
        failures = staged_sign_failures(eta_without_parity_crossing)
        assert {chi for *_, chi in failures} == {True, False}

    def test_bad_splits(self):
        with pytest.raises(InputError):
            self.terms((0, 1), 3)
        with pytest.raises(InputError):
            self.terms((0, 1), -1)
        with pytest.raises(InputError):
            list(staged_rearrangements((0, 1), (0,), 1, True))
