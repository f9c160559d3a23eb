"""Every kernel-large benchmark instance still gives its recorded result.

bench/kernel_pool.json records, for each of the 25 kernel specs and each
of its 8 variants, the accepted random draw and the digest of the result.
The benchmark's own tests replay only its first round; this replays all
200 instances through bench/kernel.py, which it imports without changing,
and checks each digest and the identity each call states.

A kernel builds its output with multimap._derived, which checks nothing:
the table is derived from checked maps.  The trust the constructor would
give it is pinned here instead: over the pool and a fuzz session, every
table the kernels build is the constructor's map on the same table, in
entries and key order, and each antisymmetric map orbit_map writes from
rows on sorted words is the map the constructor builds from its whole table.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import bracekit
from bracekit import multimap, symbrace
from bracekit.checks import CHECK_NAMES, fuzz_outcomes
from bracekit.errors import InputError
from bracekit.fuzz import FuzzCaps
from bracekit.multimap import GradedSpace, MultiMap

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import kernel  # noqa: E402

POOL = kernel.load_pool()


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


def checked_like_the_constructor(derived, sizes: list):
    """derived, wrapped: each map it builds must equal the constructor's
    map on the same table, in entries and key order, and the constructor's
    refusal of the table fails the call; sizes collects each table's size."""

    def wrapper(space, arity, degree, entries):
        checked = MultiMap(space, arity, degree, entries)
        m = derived(space, arity, degree, entries)
        assert m == checked and list(m.entries) == list(checked.entries)
        sizes.append(len(entries))
        return m

    return wrapper


def run_pool_and_fuzz():
    """The 200 pool ops, then the first 20 cases of every check, seed 7."""
    for spec in kernel.SPECS:
        for variant, record in enumerate(POOL[spec.name]):
            op, _ = kernel.build(bracekit, spec, variant, record["attempt"])
            op()
    list(fuzz_outcomes(7, 20, CHECK_NAMES, FuzzCaps()))


def test_kernel_tables_equal_the_constructors_maps(monkeypatch):
    """Every table a kernel builds unchecked, in every module that binds
    the builder, passes the constructor's checks and gives its map."""
    sizes, derived = [], multimap._derived
    binders = [
        module for name, module in sorted(sys.modules.items())
        if name.startswith("bracekit.") and "_derived" in vars(module)
    ]
    assert {m.__name__ for m in binders} == {"bracekit.brace", "bracekit.multimap"}
    for module in binders:
        monkeypatch.setattr(module, "_derived", checked_like_the_constructor(derived, sizes))
    run_pool_and_fuzz()
    assert len(sizes) > 1000 and sum(n > 1 for n in sizes) > 500


def test_the_trust_wrapper_fails_on_a_row_of_the_wrong_degree():
    space = GradedSpace([("a", 0), ("b", 1)])
    wrapped = checked_like_the_constructor(multimap._derived, [])
    with pytest.raises(InputError) as raised:
        wrapped(space, 1, 0, {(0,): {0: 1}, (1,): {0: 2}})
    text = "entry ('b',) -> a violates homogeneity: output degree 0, expected 1"
    assert str(raised.value) == text


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
