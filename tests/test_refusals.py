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
        "output indices must be integers: (1.0,)",
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
