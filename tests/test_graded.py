import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.errors import InputError, ResourceLimitError
from bracekit.graded import (
    ENUMERATION_CAP,
    InsertionPattern,
    Permutation,
    UnshuffleSpec,
    adjacent_swap_order,
    antisym_koszul_sign,
    block_permutation_sign_check,
    enumerate_permutations,
    enumerate_unshuffles,
    insertion_patterns,
    interleave_block_permutation,
    inversion_parity_check,
    koszul_sign,
    unshuffle_decomposition_check,
)


def eps_oracle(perm, degrees):
    """Independent Koszul sign: product over inversion pairs."""
    n = len(perm)
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if perm(i) > perm(j):
                total += degrees[perm(i) - 1] * degrees[perm(j) - 1]
    return -1 if total & 1 else 1


def sgn_oracle(perm):
    n = len(perm)
    inv = sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if perm(i) > perm(j)
    )
    return -1 if inv & 1 else 1


small_degree = st.integers(min_value=-2, max_value=2)


def perm_and_degrees(max_n=5):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.lists(small_degree, min_size=n, max_size=n),
        )
    )


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity(3).images == (1, 2, 3)
        assert Permutation.identity(0).images == ()

    def test_rejects_non_bijection(self):
        with pytest.raises(InputError):
            Permutation((1, 1))
        with pytest.raises(InputError):
            Permutation((0, 1))

    def test_apply(self):
        s = Permutation((3, 1, 2))
        assert s.apply(("a", "b", "c")) == ("c", "a", "b")

    def test_compose_matches_pointwise(self):
        a = Permutation((2, 3, 1))
        b = Permutation((1, 3, 2))
        c = a.compose(b)
        assert all(c(i) == a(b(i)) for i in (1, 2, 3))

    def test_compose_apply_order(self):
        a = Permutation((2, 3, 1))
        b = Permutation((1, 3, 2))
        x = ("p", "q", "r")
        assert a.compose(b).apply(x) == b.apply(a.apply(x))

    def test_inverse(self):
        s = Permutation((3, 1, 4, 2))
        assert s.compose(s.inverse()) == Permutation.identity(4)
        assert s.inverse().compose(s) == Permutation.identity(4)

    def test_sign(self):
        assert Permutation.identity(4).sign() == 1
        assert Permutation((2, 1, 3)).sign() == -1
        for images in itertools.permutations((1, 2, 3, 4)):
            assert Permutation(images).sign() == sgn_oracle(Permutation(images))


class TestKoszulSigns:
    def test_identity_is_plus_one(self):
        assert koszul_sign(Permutation.identity(3), (3, -1, 0)) == 1

    def test_swap_of_odds(self):
        assert koszul_sign(Permutation((2, 1)), (1, 1)) == -1

    def test_swap_odd_even(self):
        assert koszul_sign(Permutation((2, 1)), (1, 2)) == 1

    def test_cycle_of_odds(self):
        assert koszul_sign(Permutation((2, 3, 1)), (1, 1, 1)) == 1

    def test_antisym_swap_of_odds(self):
        assert antisym_koszul_sign(Permutation((2, 1)), (1, 1)) == 1

    def test_antisym_swap_of_evens(self):
        assert antisym_koszul_sign(Permutation((2, 1)), (0, 0)) == -1

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            koszul_sign(Permutation((2, 1)), (1,))

    def test_matches_inversion_oracle_exhaustively(self):
        degree_pool = (-2, -1, 0, 1, 2)
        for n in range(5):
            for images in itertools.permutations(range(1, n + 1)):
                p = Permutation(images)
                for degrees in itertools.product(degree_pool[:3], repeat=n):
                    assert koszul_sign(p, degrees) == eps_oracle(p, degrees)
                    assert antisym_koszul_sign(p, degrees) == sgn_oracle(
                        p
                    ) * eps_oracle(p, degrees)

    @given(perm_and_degrees())
    @settings(deadline=None)
    def test_chi_is_sgn_times_eps(self, data):
        images, degrees = data
        p = Permutation(images)
        assert antisym_koszul_sign(p, degrees) == p.sign() * koszul_sign(p, degrees)

    @given(perm_and_degrees())
    @settings(deadline=None)
    def test_even_degrees_make_eps_trivial(self, data):
        images, degrees = data
        p = Permutation(images)
        even = [2 * d for d in degrees]
        assert koszul_sign(p, even) == 1
        assert antisym_koszul_sign(p, even) == p.sign()

    @given(perm_and_degrees())
    @settings(deadline=None)
    def test_odd_degrees_make_chi_trivial(self, data):
        images, degrees = data
        p = Permutation(images)
        odd = [2 * d + 1 for d in degrees]
        assert koszul_sign(p, odd) == p.sign()
        assert antisym_koszul_sign(p, odd) == 1

    @given(
        st.integers(min_value=0, max_value=5).flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(1, n + 1))),
                st.permutations(list(range(1, n + 1))),
                st.lists(small_degree, min_size=n, max_size=n),
            )
        )
    )
    @settings(deadline=None)
    def test_multiplicativity(self, data):
        a_images, b_images, degrees = data
        a = Permutation(a_images)
        b = Permutation(b_images)
        left = koszul_sign(a.compose(b), degrees)
        right = koszul_sign(a, degrees) * koszul_sign(b, a.apply(degrees))
        assert left == right


class TestEnumeration:
    def test_permutation_counts(self):
        for n in range(6):
            count = sum(1 for _ in enumerate_permutations(n))
            assert count == [1, 1, 2, 6, 24, 120][n]

    def test_permutations_lexicographic(self):
        perms = [p.images for p in enumerate_permutations(3)]
        assert perms == sorted(perms)
        assert perms[0] == (1, 2, 3)

    def test_cap_enforced(self):
        assert ENUMERATION_CAP == 8
        assert next(enumerate_permutations(8)) == Permutation.identity(8)
        with pytest.raises(ResourceLimitError, match="exceeds cap 8"):
            list(enumerate_permutations(9))
        with pytest.raises(ResourceLimitError, match="exceeds cap 8"):
            list(enumerate_unshuffles(UnshuffleSpec((5, 4))))

    def test_unshuffle_counts(self):
        def multinomial(blocks):
            import math

            out = math.factorial(sum(blocks))
            for b in blocks:
                out //= math.factorial(b)
            return out

        for blocks in [(1, 1), (2, 1), (2, 2), (0, 2), (3,), (1, 1, 1), (2, 0, 1)]:
            got = sum(1 for _ in enumerate_unshuffles(UnshuffleSpec(blocks)))
            assert got == multinomial(blocks)

    def test_unshuffles_increase_within_blocks(self):
        for u in enumerate_unshuffles(UnshuffleSpec((2, 3))):
            assert u(1) < u(2)
            assert u(3) < u(4) < u(5)

    def test_empty_block_unshuffle_is_identity(self):
        us = list(enumerate_unshuffles(UnshuffleSpec((0, 2))))
        assert us == [Permutation.identity(2)]

    def test_insertion_patterns(self):
        pats = [p.slots for p in insertion_patterns(2, 2)]
        assert pats == [(0, 2), (1, 1), (2, 0)]
        assert [p.slots for p in insertion_patterns(0, 3)] == [(0, 0, 0)]
        total = sum(1 for _ in insertion_patterns(3, 3))
        assert total == 10

    def test_insertion_pattern_validation(self):
        with pytest.raises(InputError):
            InsertionPattern(())
        with pytest.raises(InputError):
            InsertionPattern((1, -1))


class TestAdjacentSwapOrder:
    def test_visits_every_arrangement_once(self):
        for n in range(1, 6):
            word = list(range(n))
            seen = {tuple(word)}
            for j in adjacent_swap_order(n):
                word[j], word[j + 1] = word[j + 1], word[j]
                seen.add(tuple(word))
            assert len(seen) == [1, 1, 2, 6, 24, 120][n]


class TestBlockInterleave:
    def test_single_block_is_unchanged(self):
        pi = Permutation((3, 1, 2))
        flat, a1, a2 = interleave_block_permutation(
            pi, Permutation.identity(1), (3,), (0, 0), (1, 0, 1)
        )
        assert flat == pi
        assert (a1, a2) == (0, 0)

    def test_two_singleton_blocks_swapped(self):
        flat, a1, a2 = interleave_block_permutation(
            Permutation.identity(2), Permutation((2, 1)), (1, 1), (0, 0, 0), (0, 0)
        )
        assert flat == Permutation((2, 1))
        assert (a1, a2) == (0, 1)

    def test_free_positions_interleave(self):
        # one block of size 1 carrying pi(1), two free values pi(2), pi(3)
        pi = Permutation((2, 3, 1))
        flat, a1, a2 = interleave_block_permutation(
            pi, Permutation.identity(1), (1,), (1, 1), (0, 0, 0)
        )
        # layout: free chunk 0 = (3,), block = (2,), free chunk 1 = (1,)
        assert flat == Permutation((3, 2, 1))

    def test_signs_match_direct_computation_exhaustively(self):
        configs = [
            ((1, 1), (0, 0, 0)),
            ((1, 1), (1, 0, 0)),
            ((2, 1), (0, 1, 0)),
            ((1, 1, 1), (0, 1, 0, 0)),
            ((2,), (1, 1)),
            ((0, 2), (1, 0, 0)),
        ]
        for blocks, slots in configs:
            n = len(blocks)
            r = sum(blocks) + sum(slots)
            for sigma in enumerate_permutations(n):
                for pi in enumerate_permutations(r):
                    for parities in itertools.product((0, 1), repeat=r):
                        assert block_permutation_sign_check(
                            pi, sigma, blocks, slots, parities
                        )

    def test_layout_reproduces_block_reading(self):
        pi = Permutation((4, 1, 3, 2, 5))
        sigma = Permutation((2, 1))
        blocks, slots = (2, 1), (1, 0, 1)
        flat, _, _ = interleave_block_permutation(pi, sigma, blocks, slots, (0,) * 5)
        # blocks carry pi(1..2)=(4,1) and pi(3)=(3); frees are pi(4)=2, pi(5)=5
        assert flat.images == (2, 3, 4, 1, 5)


class TestInversionParity:
    def test_trivial_sigma(self):
        assert inversion_parity_check(Permutation.identity(1), (7,), (-3,))

    def test_swap_example(self):
        assert inversion_parity_check(Permutation((2, 1)), (1, 0), (1, 1))

    def test_exhaustive_small(self):
        for n in range(1, 4):
            for images in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(images)
                for v in itertools.product((0, 1, 2), repeat=n):
                    for w in itertools.product((0, 1), repeat=n):
                        assert inversion_parity_check(sigma, v, w)

    def test_length_validation(self):
        with pytest.raises(InputError):
            inversion_parity_check(Permutation((2, 1)), (1,), (1, 0))


class TestUnshuffleDecomposition:
    def test_small_blocks(self):
        for blocks in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (0, 2), (3, 1)]:
            n = sum(blocks)
            for parities in itertools.product((0, 1), repeat=n):
                assert unshuffle_decomposition_check(blocks, parities)

    def test_mixed_degrees(self):
        assert unshuffle_decomposition_check((2, 1), (-2, 1, 3))
