"""Deterministic generator and curated structure-family pool."""

import pytest

from bracekit.checks import CHECK_NAMES, CHECKS, fuzz_outcomes
from bracekit.errors import InputError
from bracekit.fuzz import (
    COEFFS,
    FuzzCaps,
    SplitMix64,
    random_a_infinity_family,
    random_l_infinity_family,
    random_map,
    random_permutation_images,
    random_space,
)
from bracekit.homotopy import (
    A_INFINITY,
    L_INFINITY,
    a_infinity_check,
    l_infinity_check,
)
from bracekit.graded import ENUMERATION_CAP
from bracekit.multimap import antisymmetrize, is_antisymmetric

CAPS = FuzzCaps()


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # standard test vectors for this generator
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_same_seed_same_stream(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(20)] == [
            b.next_u64() for _ in range(20)
        ]

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_randint_bounds(self):
        rng = SplitMix64(3)
        values = {rng.randint(-2, 2) for _ in range(200)}
        assert values == {-2, -1, 0, 1, 2}
        with pytest.raises(InputError):
            rng.randint(3, 2)

    def test_choice_and_chance(self):
        rng = SplitMix64(4)
        assert all(rng.choice([7]) == 7 for _ in range(5))
        assert all(rng.choice("ab") in "ab" for _ in range(20))
        with pytest.raises(InputError):
            rng.choice([])
        assert not any(rng.chance(0) for _ in range(50))
        assert all(rng.chance(100) for _ in range(50))

    def test_shuffle_permutes(self):
        rng = SplitMix64(5)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))


class TestCaps:
    def test_defaults_are_valid(self):
        caps = FuzzCaps()
        assert caps.max_dim == 3 and caps.degree_lo == -2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_dim": 0},
            {"max_arity": 0},
            {"max_n": -1},
            {"degree_lo": 1, "degree_hi": 0},
            {"max_out_arity": 0},
        ],
    )
    def test_invalid_caps_rejected(self, kwargs):
        with pytest.raises(InputError):
            FuzzCaps(**kwargs)


class TestRandomInstances:
    def test_random_space_within_caps(self):
        for seed in range(30):
            space = random_space(SplitMix64(seed), CAPS)
            assert 1 <= space.dim <= CAPS.max_dim
            assert all(CAPS.degree_lo <= d <= CAPS.degree_hi for d in space.degrees)
            assert len(set(space.names)) == space.dim

    def test_random_map_is_nonzero_and_homogeneous(self):
        for seed in range(30):
            rng = SplitMix64(seed)
            space = random_space(rng, CAPS)
            arity = rng.randint(1, 3)
            m = random_map(rng, space, arity)
            # construction validates homogeneity; nonzero is the anchor's job
            assert not m.is_zero()
            assert m.arity == arity
            for out in m.entries.values():
                assert all(c in COEFFS for c in out.values())

    def test_random_map_is_seed_deterministic(self):
        def build(seed):
            rng = SplitMix64(seed)
            return random_map(rng, random_space(rng, CAPS), 2)

        assert build(11) == build(11)

    def test_antisymmetrized_random_map_is_antisymmetric(self):
        """ex33's draw: a random map, antisymmetrized."""
        for seed in range(20):
            rng = SplitMix64(seed)
            space = random_space(rng, CAPS)
            m = antisymmetrize(random_map(rng, space, rng.randint(1, 3)))
            assert is_antisymmetric(m)

    def test_random_permutation_images(self):
        for seed in range(20):
            images = random_permutation_images(SplitMix64(seed), 6)
            assert sorted(images) == [1, 2, 3, 4, 5, 6]


class TestCuratedFamilies:
    def test_a_infinity_pool_members_pass(self):
        seen = set()
        for seed in range(60):
            tag, fam = random_a_infinity_family(SplitMix64(seed), CAPS)
            seen.add(tag.split("+")[0])
            assert fam.flavor == A_INFINITY
            assert a_infinity_check(fam, 4), tag
        # the pool actually gets exercised, twists included
        assert {"zero", "idempotent", "affine", "dual"} <= seen

    def test_l_infinity_pool_members_pass(self):
        seen = set()
        for seed in range(60):
            tag, fam = random_l_infinity_family(SplitMix64(seed), CAPS)
            seen.add(tag.split("(")[0])
            assert fam.flavor == L_INFINITY
            for comp in fam.components:
                assert is_antisymmetric(comp)
            assert l_infinity_check(fam, 4), tag
        assert {"sl2", "heisenberg", "abelian", "as"} <= seen

    def test_families_respect_tight_degree_caps(self):
        caps = FuzzCaps(degree_lo=0, degree_hi=0)
        for seed in range(40):
            _, fam = random_a_infinity_family(SplitMix64(seed), caps)
            assert a_infinity_check(fam, 4)


class TestStatedCaps:
    """The README, FuzzCaps, the checks docstring and `fuzz --help` state
    what each cap bounds; over seeds 0-99 each stated bound holds and is
    reached."""

    STAGED = ("brace-axiom", "symbrace-axiom-ex33", "thm1", "thm2")
    MAP_CHECKS = STAGED + ("lemma41", "lemma51")
    FAMILIES = ("ainfty", "linfty", "corollary")

    @staticmethod
    def _draws(caps, name):
        """One record per seed 0-99: the space, and for a map check the
        outer arity N, the inserted maps per stage and the output arity."""
        records = []
        for seed in range(100):
            kwargs = CHECKS[name].gen(SplitMix64(seed), caps).kwargs
            if "family" in kwargs:
                records.append({"space": kwargs["family"].space})
                continue
            head, *stages = [v for v in kwargs.values() if not isinstance(v, str)]
            inserted = [m for stage in stages for m in stage]
            records.append({
                "space": head.space,
                "N": head.arity,
                "stages": [len(stage) for stage in stages],
                "arities": [head.arity] + [m.arity for m in inserted],
                "out": head.arity + sum(m.arity - 1 for m in inserted),
            })
        return records

    @staticmethod
    def _top(records, key):
        return max(rec[key] for rec in records)

    def test_default_caps_hold_and_are_reached(self):
        caps = FuzzCaps()
        draws = {name: self._draws(caps, name) for name in self.MAP_CHECKS}
        for name, records in draws.items():
            dims = {rec["space"].dim for rec in records}
            degrees = {d for rec in records for d in rec["space"].degrees}
            assert dims == {1, 2, 3}, name
            assert degrees == {-2, -1, 0, 1, 2}, name
        for name in self.STAGED + ("lemma51",):
            arities = {a for rec in draws[name] for a in rec["arities"]}
            assert arities == {1, 2, 3}, name
            assert self._top(draws[name], "out") == caps.max_out_arity, name
        # lemma41's k goes one past max_arity, up to 4
        assert self._top(draws["lemma41"], "N") == 4
        # stage s inserts up to min(max_n + s, the arity it inserts into)
        for name in self.STAGED:
            stages = list(zip(*(rec["stages"] for rec in draws[name])))
            reach = [caps.max_n + s for s in range(len(stages))]
            assert [max(sizes) for sizes in stages] == reach, name
        # lemma51 ignores max_n: n + m <= min(4, N), and N <= max_arity
        totals = [(sum(rec["stages"]), rec["N"]) for rec in draws["lemma51"]]
        assert all(total <= min(4, N) for total, N in totals)
        assert max(total for total, _ in totals) == 3 > caps.max_n
        assert max(rec["stages"][0] for rec in draws["lemma51"]) == 3

    def test_lemma41_and_lemma51_follow_max_arity(self):
        small = FuzzCaps(max_arity=1)
        assert self._top(self._draws(small, "lemma41"), "N") == 2
        assert {a for rec in self._draws(small, "thm1") for a in rec["arities"]} == {1}
        wide = FuzzCaps(max_arity=4)
        assert self._top(self._draws(wide, "lemma41"), "N") == 4
        totals = [sum(rec["stages"]) for rec in self._draws(wide, "lemma51")]
        assert max(totals) == 4

    def test_symmetric_checks_stay_within_the_enumeration_cap(self):
        """At dim 1 every unshuffle count fits the budget, so ex33 and thm1
        need the enumeration cap itself to keep their output arity below
        what graded refuses; a fuzz run on such caps reports every case."""
        caps = FuzzCaps(max_arity=5, max_out_arity=9, max_dim=1)
        for name in ("symbrace-axiom-ex33", "thm1"):
            assert self._top(self._draws(caps, name), "out") == ENUMERATION_CAP
        outcomes = list(fuzz_outcomes(7, 30, CHECK_NAMES, caps))
        assert len(outcomes) == 30 * len(CHECK_NAMES)

    def test_curated_families_keep_their_dimension(self):
        for caps in (FuzzCaps(), FuzzCaps(max_dim=1)):
            for name in self.FAMILIES:
                dims = {rec["space"].dim for rec in self._draws(caps, name)}
                assert dims == {1, 2, 3}, (name, caps)
