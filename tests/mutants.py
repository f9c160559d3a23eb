"""The sign mutants of tests/helpers.py in one registry, and their kill
matrix: how many cases of a seeded fuzz session each check fails with one
mutant patched in.

A mutant is (name, patch sites, replacement): the replacement is patched
over the attribute at every site, since each module that binds a name
keeps its own reference.  ``tests/golden/mutants.txt`` pins the matrix
over ``fuzz_outcomes(MATRIX_SEED, MATRIX_CASES, CHECK_NAMES, FuzzCaps())``;
``tests/test_golden.py`` recomputes it and regenerates it with the other
goldens.  A mutant that no check fails in at least ``WEAK_BELOW`` cases is
weak, and README.md lists each weak mutant with the roadmap item meant to
catch it.
"""

import contextlib
from unittest import mock

from bracekit import brace, graded, multimap, symbrace
from bracekit.checks import CHECK_NAMES, fuzz_outcomes
from bracekit.fuzz import FuzzCaps
from helpers import (
    alpha1_without_crossing_term,
    alpha2_without_slot_term,
    beta_without_crossing_term,
    beta_without_degree_shift_term,
    beta_without_leading_slot_term,
    delta_without_arity_pair_term,
    delta_without_arity_shift_term,
    delta_without_crossing_term,
    delta_without_degree_shift_term,
    eta_without_parity_crossing,
)

MATRIX_SEED = 7
MATRIX_CASES = 100
WEAK_BELOW = 5

_BETA = ((brace, "beta_parity"),)
_DELTA = ((symbrace, "delta_parity"),)
_ETA = ((multimap, "staged_rearrangements"), (brace, "staged_rearrangements"))
_ALPHA = ((graded, "interleave_block_permutation"),)

MUTANTS = tuple(
    (fn.__name__, sites, fn)
    for sites, fn in (
        (_BETA, beta_without_leading_slot_term),
        (_BETA, beta_without_degree_shift_term),
        (_BETA, beta_without_crossing_term),
        (_DELTA, delta_without_degree_shift_term),
        (_DELTA, delta_without_crossing_term),
        (_DELTA, delta_without_arity_pair_term),
        (_DELTA, delta_without_arity_shift_term),
        (_ETA, eta_without_parity_crossing),
        (_ALPHA, alpha1_without_crossing_term),
        (_ALPHA, alpha2_without_slot_term),
    )
)


@contextlib.contextmanager
def patched(patches):
    """Patch each (module, attribute, replacement) for the block."""
    with contextlib.ExitStack() as stack:
        for module, attribute, replacement in patches:
            stack.enter_context(mock.patch.object(module, attribute, replacement))
        yield


def kill_counts(sites, replacement) -> dict:
    """{check: FAIL cases} of the matrix session with the mutant patched in."""
    counts = dict.fromkeys(CHECK_NAMES, 0)
    with patched([(module, attribute, replacement) for module, attribute in sites]):
        for _, name, outcome in fuzz_outcomes(
            MATRIX_SEED, MATRIX_CASES, CHECK_NAMES, FuzzCaps()
        ):
            counts[name] += not outcome.passed
    return counts


def matrix_text() -> str:
    """The kill matrix: a header of check names, then one row per mutant."""
    width = max(len(name) for name, _, _ in MUTANTS)
    lines = [
        f"# FAIL cases of fuzz_outcomes({MATRIX_SEED}, {MATRIX_CASES}, "
        "CHECK_NAMES, FuzzCaps()) per mutant and check",
        " ".join(["mutant".ljust(width), *CHECK_NAMES]),
    ]
    for name, sites, replacement in MUTANTS:
        counts = kill_counts(sites, replacement)
        cells = [str(counts[c]).rjust(len(c)) for c in CHECK_NAMES]
        lines.append(" ".join([name.ljust(width), *cells]))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> dict:
    """{mutant: {check: count}} read back from matrix_text's output."""
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    checks = rows[0][1:]
    return {row[0]: dict(zip(checks, map(int, row[1:]))) for row in rows[1:]}


def weak_mutants(matrix: dict) -> set:
    return {name for name, row in matrix.items() if max(row.values()) < WEAK_BELOW}
