import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit import graded
from bracekit.checks import fuzz_outcomes
from bracekit.errors import InputError, ResourceLimitError
from bracekit.fuzz import FuzzCaps
from bracekit.graded import (
    ENUMERATION_CAP,
    Permutation,
    antisym_koszul_sign,
    block_permutation_sign_check,
    enumerate_permutations,
    enumerate_unshuffles,
    insertion_patterns,
    interleave_block_permutation,
    inversion_parity_check,
    koszul_sign,
    permutation_words,
    unshuffle_decomposition_check,
    unshuffle_words,
    word_parity,
)
from bracekit.multimap import GradedSpace, MultiMap
from bracekit.symbrace import symmetrize_brace
from helpers import adjacent_swap_order, inverted_pairs, pair_word_parity


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
        permutations = re.escape("permutation enumeration over 9 elements exceeds cap 8")
        with pytest.raises(ResourceLimitError, match=f"^{permutations}$"):
            list(enumerate_permutations(9))
        unshuffles = re.escape("unshuffle enumeration over 9 elements exceeds cap 8")
        with pytest.raises(ResourceLimitError, match=f"^{unshuffles}$"):
            list(enumerate_unshuffles((5, 4)))
        point = GradedSpace([("e", 0)])
        f = MultiMap(point, 9, 0, {(0,) * 9: {0: 1}})
        g = MultiMap(point, 1, 0, {(0,): {0: 1}})
        with pytest.raises(ResourceLimitError, match=f"^{permutations}$"):
            symmetrize_brace(f, [g] * 9)

    def test_permutation_words_match_the_singleton_unshuffles(self):
        for n in range(8):
            words = list(permutation_words(n))
            public = [tuple(v - 1 for v in p.images) for p in enumerate_permutations(n)]
            assert words == list(unshuffle_words((1,) * n)) == public, n
        permutations = re.escape("permutation enumeration over 9 elements exceeds cap 8")
        with pytest.raises(ResourceLimitError, match=f"^{permutations}$"):
            permutation_words(9)

    def test_unshuffle_counts(self):
        def multinomial(blocks):
            import math

            out = math.factorial(sum(blocks))
            for b in blocks:
                out //= math.factorial(b)
            return out

        for blocks in [(1, 1), (2, 1), (2, 2), (0, 2), (3,), (1, 1, 1), (2, 0, 1)]:
            got = sum(1 for _ in enumerate_unshuffles(blocks))
            assert got == multinomial(blocks)

    def test_unshuffles_increase_within_blocks(self):
        for u in enumerate_unshuffles((2, 3)):
            assert u(1) < u(2)
            assert u(3) < u(4) < u(5)

    def test_empty_block_unshuffle_is_identity(self):
        us = list(enumerate_unshuffles((0, 2)))
        assert us == [Permutation.identity(2)]

    def test_insertion_patterns(self):
        pats = list(insertion_patterns(2, 2))
        assert pats == [(0, 2), (1, 1), (2, 0)]
        assert list(insertion_patterns(0, 3)) == [(0, 0, 0)]
        total = sum(1 for _ in insertion_patterns(3, 3))
        assert total == 10

    def test_unshuffle_block_validation(self):
        with pytest.raises(InputError, match=r"nonnegative: \(1, -1\)"):
            list(enumerate_unshuffles((1, -1)))
        with pytest.raises(InputError):
            list(insertion_patterns(1, 0))
        with pytest.raises(InputError):
            list(insertion_patterns(-1, 2))


# each entry point given a size that int() would read, or a bool
NON_INT_SIZES = [
    ("unshuffle_words", lambda: list(unshuffle_words((1.9, True)))),
    ("enumerate_unshuffles", lambda: list(enumerate_unshuffles(("2", 1)))),
    ("unshuffle_decomposition_check", lambda: unshuffle_decomposition_check((2.0,), (0, 0))),
    (
        "interleave_block_permutation blocks",
        lambda: interleave_block_permutation(
            Permutation((1,)), Permutation((1,)), (1.5,), (0, 0), (0,)
        ),
    ),
    (
        "interleave_block_permutation slots",
        lambda: interleave_block_permutation(
            Permutation((1, 2)), Permutation((1,)), (1,), (False, 1), (0, 0)
        ),
    ),
]


@pytest.mark.parametrize(
    "call", [call for _, call in NON_INT_SIZES], ids=[name for name, _ in NON_INT_SIZES]
)
def test_sizes_must_be_ints(call):
    """A block or slot size that is not an int, bool included, is refused,
    not read through int()."""
    with pytest.raises(InputError, match="sizes must be integers"):
        call()


def recursive_adjacent_swap_order(n: int) -> list:
    """The recursive walk adjacent_swap_order used to rebuild on every
    call, kept as the oracle of its iterative form."""
    if n <= 1:
        return []
    inner = recursive_adjacent_swap_order(n - 1)
    down = list(range(n - 2, -1, -1))
    up = list(range(n - 1))
    seq = list(down)
    at_left = True
    for j in inner:
        seq.append(j + 1 if at_left else j)
        if at_left:
            seq.extend(up)
            at_left = False
        else:
            seq.extend(down)
            at_left = True
    return seq


class TestAdjacentSwapOrder:
    def test_same_swaps_as_the_recursive_walk(self):
        for n in range(8):
            assert adjacent_swap_order(n) == recursive_adjacent_swap_order(n)

    def test_negative_size_is_refused(self):
        with pytest.raises(InputError, match="n must be nonnegative"):
            adjacent_swap_order(-1)

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

    @pytest.mark.parametrize(
        "change",
        [lambda words: words[:-1], lambda words: words + words[-1:]],
        ids=["drops-the-last", "repeats-the-last"],
    )
    def test_fails_when_the_unshuffles_miss_or_repeat_a_word(self, monkeypatch, change):
        # S_N and the hands' S_b come from permutation_words, which deals
        # no unshuffle, so they stay whole
        unshuffles = graded.unshuffle_words

        def changed(blocks):
            words = list(unshuffles(blocks))
            return change(words) if max(blocks, default=0) >= 2 else words

        cases = [((2, 1), (0, 1, 1)), ((1, 2), (1, 1, 0)), ((2, 2), (0, 1, 1, 0))]
        assert all(unshuffle_decomposition_check(*case) for case in cases)
        monkeypatch.setattr(graded, "unshuffle_words", changed)
        assert not any(unshuffle_decomposition_check(*case) for case in cases)

    def test_compares_with_an_s_n_the_unshuffles_did_not_deal(self, monkeypatch):
        # the patch drops an unshuffle of singleton blocks too; S_N is not
        # dealt from those, so the composites still miss a word of it
        unshuffles = graded.unshuffle_words

        def dropped(blocks):
            words = list(unshuffles(blocks))
            return words[:-1] if len(blocks) >= 2 else words

        cases = [((1, 1), (0, 0)), ((1, 1, 1), (0, 1, 1))]
        assert all(unshuffle_decomposition_check(*case) for case in cases)
        monkeypatch.setattr(graded, "unshuffle_words", dropped)
        assert not any(unshuffle_decomposition_check(*case) for case in cases)

    @pytest.mark.parametrize("faulty", [True, False], ids=["chi", "eps"])
    def test_fails_when_one_sign_convention_is_wrong(self, monkeypatch, faulty):
        # the faulty convention flips the sign of each unsorted word of three
        # letters or more: a composite of an identity unshuffle then differs
        # from its factors, which are sorted or shorter
        word_parity = graded.word_parity

        def flipped(word, degrees, chi):
            wrong = chi == faulty and len(word) > 2 and list(word) != sorted(word)
            return word_parity(word, degrees, chi) ^ wrong

        cases = [((2, 1), (0, 1, 1)), ((1, 2, 3), (1, 0, 1, 1, 0, 2))]
        assert all(unshuffle_decomposition_check(*case) for case in cases)
        monkeypatch.setattr(graded, "word_parity", flipped)
        assert not any(unshuffle_decomposition_check(*case) for case in cases)


def unshuffle_oracle(blocks):
    """The unshuffles of the block sizes by brute force: the 0-based words
    of S_N, lexicographic, that increase within every block."""
    cuts = list(itertools.accumulate((0,) + tuple(blocks)))
    return [
        w
        for w in itertools.permutations(range(cuts[-1]))
        if all(list(w[a:b]) == sorted(w[a:b]) for a, b in zip(cuts, cuts[1:]))
    ]


class TestSignedWords:
    """The library's one enumerator and one sign, against independent
    oracles and the 1-based public API, exhaustively on small sizes."""

    BLOCK_TUPLES = [
        blocks
        for length in range(5)
        for blocks in itertools.product(range(4), repeat=length)
        if sum(blocks) <= 6
    ]

    def test_unshuffle_words_match_the_public_enumerator(self):
        assert len(self.BLOCK_TUPLES) == 225
        for blocks in self.BLOCK_TUPLES:
            words = list(unshuffle_words(blocks))
            public = [tuple(v - 1 for v in u.images) for u in enumerate_unshuffles(blocks)]
            assert words == public == unshuffle_oracle(blocks), blocks

    def test_word_parity_matches_the_sign_oracles(self):
        for n in range(6):
            words = list(unshuffle_words((1,) * n))
            assert words == list(itertools.permutations(range(n)))
            for w in words:
                perm = Permutation(v + 1 for v in w)
                for parities in itertools.product((0, 1), repeat=n):
                    eps = eps_oracle(perm, parities)
                    assert (-1) ** word_parity(w, parities, False) == eps
                    chi = sgn_oracle(perm) * eps
                    assert (-1) ** word_parity(w, parities, True) == chi

    def test_inverted_pairs_oracle(self):
        assert inverted_pairs((2, 0, 1, 0)) == [(2, 0), (2, 1), (2, 0), (1, 0)]
        assert inverted_pairs((0, 0, 1)) == []
        assert pair_word_parity((2, 0, 1, 0), (1, 1, 1), True) == 0
        assert pair_word_parity((2, 0, 1, 0), (1, 0, 1), False) == 0
        assert pair_word_parity((1, 0), (1, 1), False) == 1

    @staticmethod
    def assert_matches_the_pair_oracle(words, patterns):
        for parities in patterns:
            for chi in (False, True):
                for w in words:
                    got = word_parity(w, parities, chi)
                    assert got == pair_word_parity(w, parities, chi), (w, parities, chi)

    # parity patterns of the permutations of 6 and 7 letters
    FIXED_PARITIES = [(0,) * 7, (1,) * 7, (1, 0) * 3 + (1,), (0, 0, 1, 1, 1, 0, 1)]

    def test_word_parity_matches_the_pair_oracle_on_every_permutation(self):
        for k in range(8):
            patterns = (
                itertools.product((0, 1), repeat=k)
                if k <= 5
                else [p[:k] for p in self.FIXED_PARITIES]
            )
            words = list(itertools.permutations(range(k)))
            self.assert_matches_the_pair_oracle(words, patterns)

    def test_word_parity_matches_the_pair_oracle_on_repeated_letters(self):
        words = [w for n in range(7) for w in itertools.product(range(4), repeat=n)]
        assert len(words) == 5461
        patterns = itertools.product((0, 1), repeat=4)
        self.assert_matches_the_pair_oracle(words, patterns)

    def test_word_parity_reads_only_the_low_bit_of_degrees(self):
        # _sign passes degrees and interleave_block_permutation block sizes;
        # the oracle's parities[a] & parities[b] has the low bits' product
        raw = (-3, -2, -1, 0, 2, 3, 4, 7)
        for k in range(5):
            words = list(itertools.permutations(range(k)))
            self.assert_matches_the_pair_oracle(words, itertools.product(raw, repeat=k))

    def test_fuzzing_builds_no_permutation(self, monkeypatch):
        # Permutation is the public and CLI type only: the map checks sign
        # and enumerate plain 0-based words
        built = []
        init = Permutation.__init__

        def counting_init(self, images):
            built.append(1)
            init(self, images)

        monkeypatch.setattr(Permutation, "__init__", counting_init)
        names = [
            "brace-axiom",
            "symbrace-axiom-ex33",
            "thm1",
            "thm2",
            "lemma41",
            "lemma51",
            "ainfty",
            "linfty",
            "corollary",
        ]
        outcomes = list(fuzz_outcomes(7, 20, names, FuzzCaps()))
        assert len(outcomes) == 180
        assert all(outcome.passed for _, _, outcome in outcomes)
        assert built == []
        Permutation((2, 1))
        assert built == [1]
