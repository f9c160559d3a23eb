"""MultiMap construction against the per-key loop it used to run on every
table.

The constructor checks the keys, letters and output indices of a table in
a few passes over the whole table, then each row against the space's
degree index; the per-key loop runs only on a table that fails a whole-table
check, and on a row with a zero coefficient or an output outside its degree.
helpers.per_key_entries is that loop.  On every table here both must store
the same entries in the same key order, with the same key and index types,
or raise the same exception with the same text.
"""

import random
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import pytest

from bracekit.errors import InputError
from bracekit.multimap import (
    GradedSpace,
    GradedVector,
    MultiMap,
    _key_degrees,
    orbit_map,
)
from helpers import per_key_entries, walk_expand_orbits

COEFFS = (-2, -1, 1, 2, Fraction(1, 2))
MIXED = GradedSpace([("a", 0), ("b", 1), ("c", 0)])


class Pairs(Mapping):
    """A Mapping read off (key, row) pairs, in order; keys may be lists."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def __getitem__(self, key):
        for k, row in self.pairs:
            if k == key:
                return row
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


class Key(tuple):
    """A tuple subclass, which the constructor stores as a plain tuple."""


def outcome(build):
    """The stored (key, row) pairs in order, as a repr that tells 1 from
    True and 1.0, or the exception's type and text."""
    try:
        entries = build()
    except Exception as exc:  # compared with the oracle, not handled
        return type(exc), str(exc)
    return repr(list(entries.items()))


def both(space, arity, degree, entries):
    """(constructor outcome, per-key loop outcome) on one table."""
    new = outcome(lambda: MultiMap(space, arity, degree, entries).entries)
    old = outcome(lambda: per_key_entries(space, arity, degree, entries))
    return new, old


def assert_agree(space, arity, degree, entries):
    new, old = both(space, arity, degree, entries)
    assert new == old
    return new


# ---------------------------------------------------------------- corpus

KEY_FAULTS = (
    "bool", "float", "non-integral", "list", "subclass", "short", "long", "negative", "high"
)
ROW_FAULTS = (
    "zero",
    "empty",
    "degree",
    "out high",
    "out negative",
    "float out",
    "bool out",
    "vector",
    "mapping row",
)


def spoil_key(rng, space, key, kind):
    if kind == "bool":
        return tuple(bool(i) if i < 2 else i for i in key)
    if kind == "float":
        return tuple(float(i) for i in key)
    if kind == "list":
        return list(key)
    if kind == "subclass":
        return Key(key)
    if kind == "short":
        return key[:-1]
    if kind == "long":
        return key + (0,)
    pos = rng.randrange(len(key))
    bad = {"negative": -1, "non-integral": 1.5}.get(kind, space.dim)
    return key[:pos] + (bad,) + key[pos + 1 :]


def spoil_row(rng, space, target, row, kind):
    """A row with the fault kind, or None when the space cannot show it."""
    if kind == "zero":
        return {**row, rng.randrange(space.dim): 0}
    if kind == "empty":
        return {}
    if kind == "degree":
        wrong = [j for j in range(space.dim) if space.degrees[j] != target]
        return {**row, rng.choice(wrong): 1} if wrong else None
    if kind == "out high":
        return {**row, space.dim: 1}
    if kind == "out negative":
        return {**row, -1: 1}
    if kind in ("float out", "bool out"):
        if not row:
            return None
        j = next(iter(row))
        if kind == "bool out" and j > 1:
            return None
        rest = {i: c for i, c in row.items() if i != j}
        return {(float(j) if kind == "float out" else bool(j)): row[j], **rest}
    if kind == "vector":
        return GradedVector(space, row)
    return MappingProxyType(row)


def random_table(rng, seen):
    """A random table: half of them valid, the rest with a key or row
    fault in a few of their entries; seen collects the faults used."""
    dim = rng.randint(1, 4)
    space = GradedSpace((f"e{i}", rng.randint(-1, 1)) for i in range(dim))
    arity, degree = rng.randint(1, 3), rng.randint(-2, 2)
    keys = list(space.tuples(arity))
    pairs = []
    faulty = rng.random() < 0.5
    for key in rng.sample(keys, rng.randint(0, min(len(keys), 12))):
        target = degree + sum(space.degrees[i] for i in key)
        outs = [j for j in range(dim) if space.degrees[j] == target]
        row = {j: rng.choice(COEFFS) for j in outs if rng.random() < 0.7}
        if faulty and rng.random() < 0.3:
            kind = rng.choice(KEY_FAULTS + ROW_FAULTS)
            if kind in KEY_FAULTS:
                key = spoil_key(rng, space, key, kind)
            else:
                spoiled = spoil_row(rng, space, target, row, kind)
                row, kind = (row, None) if spoiled is None else (spoiled, kind)
            seen.add(kind)
        pairs.append((key, row))
    if any(isinstance(k, list) for k, _ in pairs):
        return space, arity, degree, Pairs(pairs)
    if rng.random() < 0.2:
        seen.add("mapping")
        return space, arity, degree, MappingProxyType(dict(pairs))
    return space, arity, degree, dict(pairs)


def test_constructor_agrees_with_the_per_key_loop_on_a_seeded_corpus():
    rng = random.Random(20)
    seen, kinds = set(), set()
    for _ in range(3000):
        space, arity, degree, entries = random_table(rng, seen)
        result = assert_agree(space, arity, degree, entries)
        plain = len(entries) > 1 and _key_degrees(entries, arity, space) is not None
        kinds.add(("raises" if isinstance(result, tuple) else "stores", plain))
    assert seen - {None} == set(KEY_FAULTS + ROW_FAULTS + ("mapping",))
    # both outcomes on both paths: the whole-table path also meets rows
    # that raise, and the per-key path tables that are fine
    assert kinds == {(o, p) for o in ("raises", "stores") for p in (True, False)}


# ---------------------------------------------------------------- cases


class TestAgreesWithThePerKeyLoop:
    def test_target_degree_without_a_basis_element(self):
        space = GradedSpace([("x", 0), ("y", 0)])
        # target degree 1 has no basis element: empty and zero rows are
        # dropped, a nonzero output violates homogeneity
        assert assert_agree(space, 1, 1, {(0,): {}, (1,): {0: 0}}) == "[]"
        new = assert_agree(space, 1, 1, {(0,): {0: 0}, (1,): {1: 3}})
        assert new == (InputError, (
            "entry ('y',) -> y violates homogeneity: output degree 0, expected 1"
        ))

    def test_bool_and_float_letters_are_refused(self):
        """A letter is an int: True, 0.0 and 1.9 are refused, not converted,
        in a one-key table and in a table the whole-table check refuses."""
        for letter in (True, 0.0, 1.9):
            table = {(letter, 0): {1: 1}}
            text = f"input letters must be integers: ({letter!r}, 0)"
            assert assert_agree(MIXED, 2, 0, table) == (InputError, text)
            table = {(2, 1): {1: 5}, (letter, 0): {1: 1}}
            assert assert_agree(MIXED, 2, 0, table) == (InputError, text)

    def test_list_and_tuple_subclass_keys(self):
        pairs = [([0, 1], {1: 1}), ([1, 0], {1: -1}), ((2, 2), {0: 1})]
        assert_agree(MIXED, 2, 0, Pairs(pairs))
        table = {Key((0, 1)): {1: 1}, (1, 0): {1: -1}}
        assert_agree(MIXED, 2, 0, table)
        m = MultiMap(MIXED, 2, 0, table)
        assert {type(k) for k in m.entries} == {tuple}

    def test_a_mapping_that_is_not_a_dict(self):
        table = MappingProxyType({(0, 1): {1: 1}, (1, 0): {1: -1}})
        stored = assert_agree(MIXED, 2, 0, table)
        assert stored == "[((0, 1), {1: 1}), ((1, 0), {1: -1})]"

    def test_vector_and_mapping_rows(self):
        rows = {(0, 1): GradedVector(MIXED, {1: 2}), (0, 0): MappingProxyType({0: 1})}
        assert assert_agree(MIXED, 2, 0, rows) == "[((0, 1), {1: 2}), ((0, 0), {0: 1})]"

    def test_zero_coefficients_and_empty_rows(self):
        table = {(0, 0): {0: 0, 2: 3}, (0, 2): {}, (2, 2): {0: 0}, (1, 1): {0: 1}}
        assert assert_agree(MIXED, 2, -2, {(1, 1): {0: 1}, (0, 0): {}}) == (
            "[((1, 1), {0: 1})]"
        )
        assert assert_agree(MIXED, 2, 0, {**table, (1, 1): {}}) == "[((0, 0), {2: 3})]"

    def test_negative_letters(self):
        new = assert_agree(MIXED, 2, 0, {(0, 0): {0: 1}, (0, -1): {1: 1}})
        assert new == (InputError, "entry (0, -1): basis index -1 out of range")

    def test_the_first_fault_in_table_order_wins(self):
        bad_row, bad_key = ((0, 1), {0: 1}), ((7, 0), {0: 1})
        new = assert_agree(MIXED, 2, 0, dict([((0, 0), {0: 1}), bad_row, bad_key]))
        assert new == (InputError, (
            "entry ('a', 'b') -> a violates homogeneity: output degree 0, expected 1"
        ))
        new = assert_agree(MIXED, 2, 0, dict([((0, 0), {0: 1}), bad_key, bad_row]))
        assert new == (InputError, "entry (7, 0): basis index 7 out of range")

    def test_output_index_faults(self):
        for row in ({2: 1, 3: 1}, {0: 1, -1: 1}, {1.0: 1}, {"a": 1}, {True: 1}):
            new = assert_agree(MIXED, 1, 0, {(0,): {0: 1}, (2,): row})
            assert new[0] is InputError

    def test_arity_faults(self):
        for arity in (0, -1, "x", 2.7, True):
            new = assert_agree(MIXED, arity, 0, {(0,): {0: 1}, (2,): {0: 1}})
            assert new[0] is InputError


def test_rows_are_copied():
    # the walk shares one row dict between rearrangements of one sign
    reps = {(0, 1, 2): {1: 1}}
    table = walk_expand_orbits(reps, 3, MIXED.parities)
    m = MultiMap(MIXED, 3, 0, table)
    assert m.entries == table and len(table) == 6
    assert not {id(row) for row in m.entries.values()} & {id(table[0, 1, 2])}
    assert len({id(row) for row in m.entries.values()}) == 6
    # orbit_map gives each key its own row, none of them a row of reps
    m = orbit_map(MIXED, 3, 0, reps)
    assert m.entries == table
    assert not {id(row) for row in m.entries.values()} & {id(reps[0, 1, 2])}
    assert len({id(row) for row in m.entries.values()}) == 6


def test_orbit_map_checks_its_rows_on_sorted_words():
    """orbit_map hands its rows on sorted words to the constructor, which
    refuses, prunes and copies them, and writes only what it kept."""
    wrong = {(0, 1, 1): {1: 1}, (0, 1, 2): {1: 1}}  # b is off degree 0
    refused = outcome(lambda: orbit_map(MIXED, 3, -1, wrong).entries)
    assert refused == outcome(lambda: MultiMap(MIXED, 3, -1, wrong).entries)
    assert refused[0] is InputError
    kept = orbit_map(MIXED, 3, -1, {(0, 1, 1): {1: 3, 0: 0}, (0, 1, 2): {1: 0}})
    assert kept.entries == walk_expand_orbits({(0, 1, 1): {1: 3}}, 3, MIXED.parities)
    assert orbit_map(MIXED, 3, -1, {}) == MultiMap.zero(MIXED, 3, -1)


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1): {1: 1}, (True, 0): {1: 1}},
        {(0, 1): {1: 1}, (1, 0): {1.0: 1}},
        {(0, 1): {1: 1}, Key((1, 0)): {1: 1}},
        {(0, 1): {1: 1}, (1, 0, 0): {1: 1}},
        {(0, 1): {1: 1}, (1, 3): {1: 1}},
        {(0, 1): {1: 1}, (1, -1): {1: 1}},
        {(0, 1): {1: 1}, (1, 0): GradedVector(MIXED, {1: 1})},
    ],
)
def test_whole_table_checks_refuse_what_needs_the_per_key_loop(entries):
    assert _key_degrees(entries, 2, MIXED) is None
    assert _key_degrees({(0, 1): {1: 1}, (1, 0): {1: 1}}, 2, MIXED) == [1, 1]
