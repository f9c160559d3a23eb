"""The sign mutants of tests/helpers.py in one registry, and their kill
matrix: how many cases of a seeded fuzz session each check fails with one
mutant patched in.

A mutant is (name, patch sites, replacement): the replacement is patched
over the attribute at every site, since each module that binds a name
keeps its own reference.  The riffle sign eta has one site, brace, whose
checks of Lemmas 4.1 and 5.1 are the only readers of
staged_rearrangements outside graded; the Koszul sign of compose_into
has two, multimap and brace, the one reader of compose_into outside
multimap.  ``tests/golden/mutants.txt`` pins
the matrix over ``fuzz_outcomes(MATRIX_SEED, MATRIX_CASES, CHECK_NAMES,
FuzzCaps())``; ``tests/test_golden.py`` recomputes it and regenerates it
with the other goldens.  A mutant that no check fails in at least
``WEAK_BELOW`` cases is weak, and README.md lists each weak mutant with the
roadmap item meant to catch it.

The session runs once unmutated, with a recorder at every site
(``Session``).  A mutant row reruns, with the patch in place, only the
cases whose verifier reached one of its sites, on their recorded
instances: up to its first call of a patched name a case runs as it does
unmutated, so every other case keeps its unmutated verdict.  If some
case's generator reached a site, the row reruns the whole session.
"""

import contextlib
import dataclasses
from unittest import mock

from bracekit import brace, checks, graded, multimap, symbrace
from bracekit.checks import CHECK_NAMES, fuzz_outcomes
from bracekit.errors import InputError
from bracekit.fuzz import FuzzCaps
from helpers import (
    alpha1_without_crossing_term,
    alpha2_without_slot_term,
    beta_without_crossing_term,
    beta_without_degree_shift_term,
    beta_without_leading_slot_term,
    compose_without_koszul_term,
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
_ETA = ((brace, "staged_rearrangements"),)
_ALPHA = ((graded, "interleave_block_permutation"),)
_COMPOSE = ((brace, "compose_into"), (multimap, "compose_into"))

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
        (_COMPOSE, compose_without_koszul_term),
    )
)


@contextlib.contextmanager
def patched(patches):
    """Patch each (module, attribute, replacement) for the block."""
    with contextlib.ExitStack() as stack:
        for module, attribute, replacement in patches:
            stack.enter_context(mock.patch.object(module, attribute, replacement))
        yield


# every registered patch site, once
SITES = tuple(dict.fromkeys(site for _, sites, _ in MUTANTS for site in sites))


@dataclasses.dataclass(eq=False)
class Reach:
    """One (case, check) of a recorded session: its instance, its unmutated
    verdict and the sites its gen and its run reached.  Records compare and
    hash by identity."""

    check: str
    instance: object = None
    passed: bool = True
    gen: set = dataclasses.field(default_factory=set)
    run: set = dataclasses.field(default_factory=set)


class Session:
    """fuzz_outcomes(seed, cases, CHECK_NAMES, FuzzCaps()) run once
    unmutated, with a recorder at each of sites: its Reach per (case,
    check), in session order."""

    def __init__(self, seed: int, cases: int, sites):
        self.seed, self.cases, self.records = seed, cases, []
        reached = [set()]  # the set the current gen or run records into

        def recorder(site, original):
            def record(*args, **kwargs):
                reached[0].add(site)
                return original(*args, **kwargs)

            return record

        def staged(check):
            def gen(*args):
                self.records.append(Reach(check.name))
                reached[0] = self.records[-1].gen
                self.records[-1].instance = check.gen(*args)
                return self.records[-1].instance

            def run(instance):
                reached[0] = self.records[-1].run
                return check.run(instance)

            return dataclasses.replace(check, gen=gen, run=run)

        recorders = [(m, a, recorder((m, a), getattr(m, a))) for m, a in sites]
        steps = {name: staged(check) for name, check in checks.CHECKS.items()}
        with patched(recorders), mock.patch.dict(checks.CHECKS, steps):
            for _, _, outcome in self._outcomes():
                self.records[-1].passed = outcome.passed

    def _outcomes(self):
        return fuzz_outcomes(self.seed, self.cases, CHECK_NAMES, FuzzCaps())

    def reruns(self, sites) -> list | None:
        """The records whose run reached one of sites, or None if some gen
        did: then the whole session reruns."""
        sites = set(sites)
        if any(record.gen & sites for record in self.records):
            return None
        return [record for record in self.records if record.run & sites]

    def kill_counts(self, sites, replacement) -> dict:
        """{check: FAIL cases} of the session with the mutant patched in."""
        reruns = self.reruns(sites)
        with patched([(module, attribute, replacement) for module, attribute in sites]):
            if reruns is None:
                verdicts = [(name, out.passed) for _, name, out in self._outcomes()]
            else:
                fresh = {record: _rerun_verdict(record) for record in reruns}
                verdicts = [(r.check, fresh.get(r, r.passed)) for r in self.records]
        counts = dict.fromkeys(CHECK_NAMES, 0)
        for name, passed in verdicts:
            counts[name] += not passed
        return counts


def _rerun_verdict(record: Reach) -> bool:
    """The verdict of the record's check on its instance; an InputError is
    a FAIL, as in fuzz_outcomes."""
    try:
        return checks.CHECKS[record.check].run(record.instance).passed
    except InputError:
        return False


def matrix_text() -> str:
    """The kill matrix: a header of check names, then one row per mutant."""
    width = max(len(name) for name, _, _ in MUTANTS)
    lines = [
        f"# FAIL cases of fuzz_outcomes({MATRIX_SEED}, {MATRIX_CASES}, "
        "CHECK_NAMES, FuzzCaps()) per mutant and check",
        " ".join(["mutant".ljust(width), *CHECK_NAMES]),
    ]
    session = Session(MATRIX_SEED, MATRIX_CASES, SITES)
    for name, sites, replacement in MUTANTS:
        counts = session.kill_counts(sites, replacement)
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
