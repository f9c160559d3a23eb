"""Refusals no other test reaches: each raise below gives its exception
type and its exact text, from the library calls and from the CLI commands
(run without main's handler, which prints the same text after "error: ")."""

import io

import pytest

from bracekit import cli
from bracekit.errors import InputError, WorkspaceError
from bracekit.fuzz import FuzzCaps
from bracekit.graded import Permutation, interleave_block_permutation, permutation_words
from bracekit.homotopy import (
    A_INFINITY,
    L_INFINITY,
    StructureFamily,
    a_infinity_defects,
    antisymmetrize_structure,
)
from bracekit.multimap import GradedSpace, GradedVector, MultiMap, antisymmetrize
from bracekit.workspace import Workspace

V = GradedSpace([("a", 0), ("b", 0)])
W = GradedSpace([("c", 0)])
MU = MultiMap(V, 2, 0, {(0, 0): {0: 1}})
AS_MU = antisymmetrize(MU)
SWAP = Permutation([2, 1])


def _command(*argv):
    """Run a CLI command's function on its parsed flags, from the working
    directory that holds ws.json."""
    ns = cli.build_parser().parse_args(argv)
    return lambda: cli._COMMANDS[ns.command](ns, io.StringIO())


def _family_check(name, *flags):
    return _command("check", name, "--workspace", "ws.json", *flags)


REFUSALS = {
    # an integer input is an int: none is converted with int()
    "permutation-float-image": (
        lambda: Permutation((1.7, 2)),
        InputError,
        "permutation images must be integers: (1.7, 2)",
    ),
    "permutation-str-image": (
        lambda: Permutation(("2", "1")),
        InputError,
        "permutation images must be integers: ('2', '1')",
    ),
    "space-float-degree": (
        lambda: GradedSpace([("a", 0.6)]),
        InputError,
        "basis degrees must be integers: (0.6,)",
    ),
    "vector-float-index": (
        lambda: GradedVector(V, {0.5: 1}),
        InputError,
        "basis indices must be integers: (0.5,)",
    ),
    "map-float-letter": (
        lambda: MultiMap(V, 2, 0, {(1.9, 0): {0: 1}}),
        InputError,
        "input letters must be integers: (1.9, 0)",
    ),
    "map-float-arity": (
        lambda: MultiMap(V, 2.7, 0, {}),
        InputError,
        "map arity and degree must be integers: (2.7, 0)",
    ),
    "map-float-output": (
        lambda: MultiMap(V, 2, 0, {(0, 0): {1.0: 1}}),
        InputError,
        "entry (0, 0): output basis indices must be integers: (1.0,)",
    ),
    # a row is checked as a GradedVector: an index is in range whatever its
    # coefficient, and a vector row is of the map's space
    "vector-zero-index": (
        lambda: GradedVector(V, {7: 0}),
        InputError,
        "basis index 7 out of range",
    ),
    "map-zero-index": (
        lambda: MultiMap(V, 1, 0, {(0,): {7: 0}}),
        InputError,
        "entry (0,): output basis index 7 out of range",
    ),
    "map-zero-index-whole-table": (
        lambda: MultiMap(V, 1, 0, {(0,): {7: 0}, (1,): {0: 1}}),
        InputError,
        "entry (0,): output basis index 7 out of range",
    ),
    "map-vector-row-space": (
        lambda: MultiMap(V, 1, 0, {(0,): W.basis_vector(0)}),
        InputError,
        "entry (0,): rows must be vectors in the map's space",
    ),
    # each input has one rule, checked as given: a key is a tuple, a row,
    # a table or a vector's coefficients a mapping, a basis or a
    # permutation an ordered iterable (never a set) of pairs or images, a
    # basis name a string; nothing is converted with tuple() or str()
    "map-int-key": (
        lambda: MultiMap(V, 1, 0, {0: {0: 1}}),
        InputError,
        "entry 0: expected a tuple of 1 inputs",
    ),
    "map-frozenset-key": (
        lambda: MultiMap(V, 2, 0, {frozenset({0, 1}): {0: 1}}),
        InputError,
        "entry frozenset({0, 1}): expected a tuple of 2 inputs",
    ),
    "map-range-key": (
        lambda: MultiMap(V, 2, 0, {range(2): {0: 1}}),
        InputError,
        "entry range(0, 2): expected a tuple of 2 inputs",
    ),
    "map-list-row": (
        lambda: MultiMap(V, 1, 0, {(0,): [1]}),
        InputError,
        "entry (0,): output basis coefficients must be a mapping, got list",
    ),
    "map-none-row": (
        lambda: MultiMap(V, 1, 0, {(0,): None}),
        InputError,
        "entry (0,): output basis coefficients must be a mapping, got NoneType",
    ),
    "map-list-row-whole-table": (
        lambda: MultiMap(V, 1, 0, {(0,): {0: 1}, (1,): [1]}),
        InputError,
        "entry (1,): output basis coefficients must be a mapping, got list",
    ),
    "map-none-row-whole-table": (
        lambda: MultiMap(V, 1, 0, {(0,): {0: 1}, (1,): None}),
        InputError,
        "entry (1,): output basis coefficients must be a mapping, got NoneType",
    ),
    # a lookup key takes the constructor's key rule, and a basis name is
    # looked up as given
    "map-value-list-key": (
        lambda: MU.value([0, 1]),
        InputError,
        "entry [0, 1]: expected a tuple of 2 inputs",
    ),
    "map-value-set-key": (
        lambda: MU.value({0, 1}),
        InputError,
        "entry {0, 1}: expected a tuple of 2 inputs",
    ),
    "map-value-str-key": (
        lambda: MU.value("ab"),
        InputError,
        "entry ab: expected a tuple of 2 inputs",
    ),
    "map-value-int-key": (
        lambda: MU.value(3),
        InputError,
        "entry 3: expected a tuple of 2 inputs",
    ),
    "map-value-bool-key": (
        lambda: MU.value((True, False)),
        InputError,
        "input letters must be integers: (True, False)",
    ),
    "map-value-short-key": (
        lambda: MU.value((0,)),
        InputError,
        "entry (0,): expected 2 inputs",
    ),
    "map-value-long-key": (
        lambda: MU.value((0, 1, 1)),
        InputError,
        "entry (0, 1, 1): expected 2 inputs",
    ),
    "map-value-index-range": (
        lambda: MU.value((5, 5)),
        InputError,
        "entry (5, 5): basis index 5 out of range",
    ),
    "space-index-list-name": (
        lambda: V.index(["a"]),
        InputError,
        "unknown basis element ['a']",
    ),
    "map-list-entries": (
        lambda: MultiMap(V, 1, 0, [((0,), {0: 1})]),
        InputError,
        "map entries must be a mapping, got list",
    ),
    "vector-list-coeffs": (
        lambda: GradedVector(V, [1, 0]),
        InputError,
        "basis coefficients must be a mapping, got list",
    ),
    "vector-none-coeffs": (
        lambda: GradedVector(V, None),
        InputError,
        "basis coefficients must be a mapping, got NoneType",
    ),
    "space-int-name": (
        lambda: GradedSpace([(5, 0), ("5", 1)]),
        InputError,
        "basis element 0: expected a (str name, degree) pair, got (5, 0)",
    ),
    "space-tuple-name": (
        lambda: GradedSpace([("a", 0), (("a",), 1)]),
        InputError,
        "basis element 1: expected a (str name, degree) pair, got (('a',), 1)",
    ),
    "space-not-pair": (
        lambda: GradedSpace(["a"]),
        InputError,
        "basis element 0: expected a (str name, degree) pair, got 'a'",
    ),
    "space-set-basis": (
        lambda: GradedSpace({("a", 0), ("b", 1), ("c", 0)}),
        InputError,
        "a basis is read in order: got a set",
    ),
    "permutation-set-images": (
        lambda: Permutation({3, 1, 2}),
        InputError,
        "permutation images are read in order: got a set",
    ),
    "family-not-map": (
        lambda: StructureFamily(V, [5], A_INFINITY),
        InputError,
        "components must be MultiMaps, got int",
    ),
    "workspace-not-pair": (
        lambda: Workspace(V, [("f",)]),
        WorkspaceError,
        "bad map entry ('f',): expected a (name, map) pair",
    ),
    "map-call-not-sequence": (
        lambda: MU(5),
        InputError,
        "expected a sequence of vectors, got int",
    ),
    "caps-float-field": (
        lambda: FuzzCaps(max_dim=2.5),
        InputError,
        "FuzzCaps fields must be integers: (2.5, 3, 2, -2, 2, 6)",
    ),
    "space-empty-name": (
        lambda: GradedSpace([("", 0)]),
        InputError,
        "basis names must be nonempty",
    ),
    "vector-index": (
        lambda: GradedVector(V, {2: 1}),
        InputError,
        "basis index 2 out of range",
    ),
    "vector-spaces": (
        lambda: V.basis_vector(0) + W.basis_vector(0),
        InputError,
        "cannot add vectors from different spaces",
    ),
    "map-call-arity": (
        lambda: MU([V.basis_vector(0)]),
        InputError,
        "expected 2 arguments, got 1",
    ),
    "permutation-call": (
        lambda: SWAP(3),
        InputError,
        "position 3 out of range 1..2",
    ),
    "permutation-apply": (
        lambda: SWAP.apply("abc"),
        InputError,
        "sequence length does not match permutation size",
    ),
    "permutation-compose": (
        lambda: SWAP.compose(Permutation([1])),
        InputError,
        "cannot compose permutations of different sizes",
    ),
    "cap-negative-size": (
        lambda: permutation_words(-1),
        InputError,
        "permutation enumeration size must be nonnegative, got -1",
    ),
    "interleave-negative-block": (
        lambda: interleave_block_permutation(SWAP, Permutation([1]), (-1,), (0, 0), (0, 0)),
        InputError,
        "block and slot sizes must be nonnegative",
    ),
    "family-space": (
        lambda: StructureFamily(W, [MU], A_INFINITY),
        InputError,
        "all components must live on the family's space",
    ),
    "family-max-arity": (
        lambda: a_infinity_defects(StructureFamily(V, [MU], A_INFINITY), 0),
        InputError,
        "max_arity must be at least 1",
    ),
    "antisymmetrize-linfty": (
        lambda: antisymmetrize_structure(StructureFamily(V, [AS_MU], L_INFINITY)),
        InputError,
        "expected an a_infinity family, got l_infinity",
    ),
    "workspace-map-name": (
        lambda: Workspace(V, [("", MU)]),
        WorkspaceError,
        "bad map name ''",
    ),
    "check-ainfty-no-maps": (
        _family_check("ainfty", "--maps", ""),
        InputError,
        "--maps must name at least one map",
    ),
    "check-linfty-no-maps": (
        _family_check("linfty", "--maps", ""),
        InputError,
        "--maps must name at least one map",
    ),
    "check-corollary-max-arity-0": (
        _family_check("corollary", "--maps", "mu", "--max-arity", "0"),
        InputError,
        "--max-arity must be at least 1",
    ),
    "fuzz-no-checks": (
        _command("fuzz", "--checks", ","),
        InputError,
        "--checks selected nothing",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_type_and_text(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Workspace(V, [("mu", MU)]).save("ws.json")  # mu: one A-infinity component
    call, error, text = REFUSALS[name]
    with pytest.raises(Exception) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == text
