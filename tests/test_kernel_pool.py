"""Every kernel-large benchmark instance still gives its recorded result.

bench/kernel_pool.json records, for each of the 25 kernel specs and each
of its 8 variants, the accepted random draw and the digest of the result.
The benchmark's own tests replay only its first round; this replays all
200 instances through bench/kernel.py, which it imports without changing,
and checks each digest and the identity each call states.  It also checks
that every table the kernels and the fuzzer build passes MultiMap's
whole-table checks, so none of them needs the per-key loop, and that each
antisymmetric map orbit_map builds from checked rows on sorted words is the
map the constructor builds from its whole table.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import bracekit
from bracekit import multimap, symbrace
from bracekit.checks import CHECK_NAMES, fuzz_outcomes
from bracekit.fuzz import FuzzCaps
from bracekit.multimap import GradedVector, MultiMap, _key_degrees

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import kernel  # noqa: E402

POOL = kernel.load_pool()


class Key(tuple):
    """A tuple subclass key, which the whole-table check refuses."""


@pytest.mark.parametrize("spec", kernel.SPECS, ids=lambda spec: spec.name)
def test_every_variant_matches_its_recorded_digest(spec):
    records = POOL[spec.name]
    assert len(records) == kernel.VARIANTS
    for variant, record in enumerate(records):
        op, _ = kernel.build(bracekit, spec, variant, record["attempt"])
        result = op()
        assert kernel.digest(bracekit, result) == record["digest"], variant
        assert kernel.verdict(spec, result), variant
        assert kernel.nnz(kernel.result_maps(result)) == record["out_nnz"], variant


def test_kernels_and_fuzzing_build_only_plain_tables(monkeypatch):
    """No table handed to MultiMap needs its keys or output indices
    normalized: each passes the whole-table checks.  No row of a table of
    several keys reaches the per-key loop's GradedVector, not even one
    holding a cancelled zero coefficient, which the whole-table pass prunes."""
    tables, refused, zeros, per_key, building = [], [], [], [], []
    init, vector_init = MultiMap.__init__, GradedVector.__init__

    def spy(self, space, arity, degree, entries):
        tables.append(len(entries))
        if _key_degrees(entries, arity, space) is None:
            refused.append((arity, list(entries)[:3]))
        elif len(entries) > 1 and not all(map(all, map(dict.values, entries.values()))):
            zeros.append(len(entries))
        building.append(len(entries))
        try:
            init(self, space, arity, degree, entries)
        finally:
            building.pop()

    def vector_spy(self, space, coeffs):
        if building and building[-1] > 1:
            per_key.append(dict(coeffs))
        vector_init(self, space, coeffs)

    monkeypatch.setattr(MultiMap, "__init__", spy)
    monkeypatch.setattr(GradedVector, "__init__", vector_spy)
    for spec in kernel.SPECS:
        for variant, record in enumerate(POOL[spec.name]):
            op, _ = kernel.build(bracekit, spec, variant, record["attempt"])
            op()
    list(fuzz_outcomes(7, 20, CHECK_NAMES, FuzzCaps()))
    assert not refused and not per_key
    assert len(tables) > 2000 and sum(n > 1 for n in tables) > 1000
    assert len(zeros) > 100
    # the spy sees a table whose keys need normalizing, and the
    # constructor stores its tuple subclass key as a plain tuple
    space = bracekit.GradedSpace([("e1", 0), ("e2", 0)])
    m = MultiMap(space, 1, 0, {Key((1,)): {1: 1}, (0,): {0: 1}})
    assert refused == [(1, [(1,), (0,)])]
    assert {*map(type, m.entries)} == {tuple}


def test_orbit_maps_equal_the_maps_checked_whole(monkeypatch):
    """Every map antisymmetrize and symbrace_eval return through orbit_map,
    over the pool and a fuzz session, equals the constructor's map on its
    whole table with every key kept, and each of its keys owns its row:
    none is shared with another key or is a row of the reps."""
    built, orbit_map = Counter(), multimap.orbit_map

    def spy_for(module):
        def spy(space, arity, degree, reps):
            m = orbit_map(space, arity, degree, reps)
            checked = MultiMap(m.space, m.arity, m.degree, m.entries)
            assert checked == m and list(checked.entries) == list(m.entries)
            rows = {*map(id, m.entries.values())}
            assert len(rows) == len(m.entries)
            assert not rows & {*map(id, reps.values())}
            built[module] += 1
            return m

        return spy

    for module in (multimap, symbrace):
        monkeypatch.setattr(module, "orbit_map", spy_for(module.__name__))
    for spec in kernel.SPECS:
        for variant, record in enumerate(POOL[spec.name]):
            op, _ = kernel.build(bracekit, spec, variant, record["attempt"])
            op()
    list(fuzz_outcomes(7, 20, CHECK_NAMES, FuzzCaps()))
    assert set(built) == {"bracekit.multimap", "bracekit.symbrace"}, built
