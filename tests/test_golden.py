"""Golden CLI transcripts: output that must stay byte-identical.

The files under tests/golden/ pin four transcripts of in-process
``bracekit`` runs and one table of fuzz verdicts:

* ``fuzz.txt``: the report of ``fuzz --seed 7 --cases 10``;
* ``help.txt``: ``--help``, ``check --help`` and every ``check <name> --help``
  at 80 columns;
* ``counterexamples.txt``: fuzz runs under wrong brace/symmetric-brace signs
  (``brace.beta_parity`` and ``symbrace.delta_parity`` monkeypatched), the
  ``check`` replay of the first counterexample of every failing check, and
  ``check`` runs on a small workspace: brace-axiom under the test-side
  mutant ``helpers.beta_without_leading_slot_term`` patched over
  ``brace.beta_parity``, and ainfty and thm2 on a non-associative product;
* ``fail_reports.txt``: the FAIL report and its ``check`` replay of every
  check the wrong brace signs never fail (lemma41, lemmas 4.2-4.4, linfty
  and corollary), each under a mutation of its own (``MUTANT_RUNS``);
* ``mutants.txt``: the kill matrix of the sign mutants of
  ``tests/mutants.py``, FAIL cases per (mutant, check) over a seed-7,
  100-case fuzz session.

``FUZZ_100_MD5`` below pins the md5 of the report of
``fuzz --seed 7 --cases 100``, as ``| md5sum`` prints it.

A change that alters CLI output on purpose regenerates the files and the
digest from the repository root with

    PYTHONPATH=src python3 tests/test_golden.py

and says in its description why the output changed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from bracekit import brace, checks, cli, symbrace
from bracekit.checks import CHECK_NAMES, fuzz_outcomes
from bracekit.fuzz import FuzzCaps
from bracekit.multimap import GradedSpace, MultiMap, antisymmetrize
from bracekit.workspace import Workspace
from helpers import (
    beta_without_leading_slot_term,
    delta_without_degree_shift_term,
    eta_without_parity_crossing,
    replay_flags,
)
from mutants import (
    MATRIX_SEED,
    MUTANTS,
    SITES,
    Session,
    matrix_text,
    parse_matrix,
    patched,
    weak_mutants,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"
FUZZ_100_MD5 = "b903f17b777743992b547cbdda739197"


def _negated(parity):
    return lambda *a, **k: 1 - parity(*a, **k)


def _alternating(parity):
    """Wrong sign on every second call: breaks identities whose two sides
    use the same number of brackets, which a global negation cannot."""
    calls = itertools.count()
    return lambda *a, **k: parity(*a, **k) ^ (next(calls) & 1)


# (flip, seed, cases, checks): together they fail every map check whose
# sides use a beta or delta sign; lemma41 uses neither, and corollary
# refuses a family that fails ainfty
FLIPPED_RUNS = (
    (_negated, 11, 6, None),
    (_alternating, 7, 6, "thm2,lemma51,ainfty,linfty"),
)


def _map(name, arity, *rows):
    """A degree-0 map over the basis a, b: rows of (inputs, output)."""
    entries = [{"in": list(i), "out": [{"basis": o, "coeff": "1"}]} for i, o in rows]
    return {"name": name, "arity": arity, "degree": 0, "entries": entries}


# mu is associative, bad is not
_WORKSPACE = {
    "space": {"basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0}]},
    "maps": [
        _map("mu", 2, ("aa", "a"), ("ab", "b")),
        _map("bad", 2, ("aa", "a"), ("bb", "a")),
        _map("h", 1, ("a", "b")),
    ],
}
# runs under beta_without_leading_slot_term
_MUTANT_RUN = ["brace-axiom", "--x", "bad", "--xs", "mu", "--ys", "h"]
_WORKSPACE_RUNS = (
    ["ainfty", "--maps", "bad", "--max-arity", "3"],
    ["thm2", "--f", "bad", "--gs", "h"],
)


@contextlib.contextmanager
def _flipped(flip):
    saved = brace.beta_parity, symbrace.delta_parity
    brace.beta_parity, symbrace.delta_parity = (flip(p) for p in saved)
    try:
        yield
    finally:
        brace.beta_parity, symbrace.delta_parity = saved


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"$ bracekit {' '.join(argv)}\n[exit {code}]\n{out.getvalue()}"


def _replay_argv(name, record, path) -> list:
    """The `check` command line a counterexample's workspace and args give."""
    return ["check", name, "--workspace", path, *replay_flags(record["args"])]


def fuzz_transcript() -> str:
    return _run(["fuzz", "--seed", "7", "--cases", "10"])


def fuzz_100_digest() -> str:
    """md5 of the stdout of ``fuzz --seed 7 --cases 100``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["fuzz", "--seed", "7", "--cases", "100"])
    return hashlib.md5(out.getvalue().encode()).hexdigest()


def help_transcript() -> str:
    argvs = [["--help"], ["check", "--help"]]
    argvs += [["check", name, "--help"] for name in CHECK_NAMES]
    return "".join(_run(argv) for argv in argvs)


def counterexample_transcript() -> str:
    """Run in a scratch working directory: replays write workspace files."""
    parts = []
    for flip, seed, cases, checks in FLIPPED_RUNS:
        argv = ["fuzz", "--seed", str(seed), "--cases", str(cases)]
        names = CHECK_NAMES
        if checks:
            argv += ["--checks", checks]
            names = checks.split(",")
        with _flipped(flip):
            parts.append(_run(argv))
        with _flipped(flip):
            outcomes = list(fuzz_outcomes(seed, cases, names, FuzzCaps()))
        first = {}
        for _, name, outcome in outcomes:
            if not outcome.passed:
                first.setdefault(name, outcome.counterexample)
        for name, record in first.items():
            path = f"{name}-seed{seed}.json"
            Path(path).write_text(json.dumps(record["workspace"]), encoding="utf-8")
            with _flipped(flip):
                parts.append(_run(_replay_argv(name, record, path)))
    Path("small.json").write_text(json.dumps(_WORKSPACE), encoding="utf-8")

    def check(name, *flags):
        return _run(["check", name, "--workspace", "small.json", *flags])

    with mock.patch.object(brace, "beta_parity", beta_without_leading_slot_term):
        parts.append(check(*_MUTANT_RUN))
    parts += [check(*argv) for argv in _WORKSPACE_RUNS]
    return "".join(parts)


def _dg_matrices() -> dict:
    """2x2 matrices graded by |E_ij| = i - j, with mu2 the matrix product
    and mu1 = [E12, -] the graded commutator, and their antisymmetrizations
    l1 and l2.  mu1, mu2 satisfy the ainfty relations and l1, l2 the linfty
    ones, while each term mu1{mu2}, mu2{mu1}, l1<l2>, l2<l1> is nonzero, so
    a sign error in one term shows."""
    names = [f"E{i}{j}" for i in (1, 2) for j in (1, 2)]
    space = GradedSpace([(nm, int(nm[1]) - int(nm[2])) for nm in names])
    e = {nm: space.index(nm) for nm in names}
    product = {
        (e[f"E{i}{j}"], e[f"E{j}{k}"]): {e[f"E{i}{k}"]: 1}
        for i in (1, 2) for j in (1, 2) for k in (1, 2)
    }
    differential = {
        (e["E11"],): {e["E12"]: -1},
        (e["E21"],): {e["E11"]: 1, e["E22"]: 1},
        (e["E22"],): {e["E12"]: 1},
    }
    mu1 = MultiMap(space, 1, -1, differential)
    mu2 = MultiMap(space, 2, 0, product)
    maps = [("mu1", mu1), ("mu2", mu2)]
    maps += [("l1", antisymmetrize(mu1)), ("l2", antisymmetrize(mu2))]
    return Workspace(space, maps).to_obj()


def _never(**kwargs):
    return False


# check -> (patches as (module, name, replacement), argv, record keys).  The
# brace-sign flips above fail none of these checks: lemma41 uses no brace
# sign, and no curated family has a nonzero relation term, so each is
# failed by a mutation of its own.  A whole negation of delta flips every
# term of a relation alike, so linfty and corollary drop one of its terms
# instead, on the dg matrices.
_FUZZ_KEYS = ["check", "seed", "case"]
_FAMILY_KEYS = ["workspace", "args", "defect_arity", "defect"]
_ON_DG = ["--workspace", "dg.json"]
MUTANT_RUNS = {
    "lemma41": (
        [(brace, "staged_rearrangements", eta_without_parity_crossing)],
        ["fuzz", "--seed", "9", "--cases", "1", "--checks", "lemma41"],
        _FUZZ_KEYS + ["workspace", "args", "split", "inputs"],
    ),
    "lemma42": (
        [(checks, "unshuffle_decomposition_check", _never)],
        ["fuzz", "--seed", "7", "--cases", "1", "--checks", "lemma42"],
        _FUZZ_KEYS + ["blocks", "degrees"],
    ),
    "lemma43": (
        [(checks, "block_permutation_sign_check", _never)],
        ["fuzz", "--seed", "7", "--cases", "1", "--checks", "lemma43"],
        _FUZZ_KEYS + ["sigma", "blocks", "slots", "pi", "degrees"],
    ),
    "lemma44": (
        [(checks, "inversion_parity_check", _never)],
        ["fuzz", "--seed", "7", "--cases", "1", "--checks", "lemma44"],
        _FUZZ_KEYS + ["sigma", "v", "w"],
    ),
    "linfty": (
        [(symbrace, "delta_parity", delta_without_degree_shift_term)],
        ["check", "linfty", *_ON_DG, "--maps", "l1,l2", "--max-arity", "3"],
        _FAMILY_KEYS,
    ),
    "corollary": (
        [(symbrace, "delta_parity", delta_without_degree_shift_term)],
        ["check", "corollary", *_ON_DG, "--maps", "mu1,mu2", "--max-arity", "3"],
        _FAMILY_KEYS + ["antisymmetrized"],
    ),
}


def _first_failure(transcript: str):
    """The first FAIL line of a transcript and the record printed after it."""
    _, _, rest = transcript.partition("\nFAIL ")
    line, _, body = rest.partition("\n")
    record, _ = json.JSONDecoder().raw_decode(body)
    return "FAIL " + line, record


def _replay_record_argv(name, record) -> list:
    """The `check` command line that reruns a FAIL record: its workspace is
    written to a file, and its args, or for an integer check its data,
    become the flags."""
    if "workspace" not in record:
        data = {k: v for k, v in record.items() if k not in _FUZZ_KEYS}
        return ["check", name, *replay_flags(data)]
    path = f"{name}-replay.json"
    Path(path).write_text(json.dumps(record["workspace"]), encoding="utf-8")
    return _replay_argv(name, record, path)


def _without_seed_and_case(line: str) -> str:
    return " ".join(t for t in line.split() if not t.startswith(("seed=", "case=")))


def fail_report_transcript() -> str:
    """Run in a scratch working directory: the runs read dg.json, and the
    replays write workspace files."""
    Path("dg.json").write_text(json.dumps(_dg_matrices()), encoding="utf-8")
    parts = []
    for name, (patches, argv, _) in MUTANT_RUNS.items():
        with patched(patches):
            parts.append(_run(argv))
            _, record = _first_failure(parts[-1])
            parts.append(_run(_replay_record_argv(name, record)))
    return "".join(parts)


TRANSCRIPTS = {
    "fuzz.txt": fuzz_transcript,
    "help.txt": help_transcript,
    "counterexamples.txt": counterexample_transcript,
    "fail_reports.txt": fail_report_transcript,
    "mutants.txt": matrix_text,
}


def _check(filename, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert TRANSCRIPTS[filename]() == expected


def test_fuzz_report_is_unchanged(tmp_path, monkeypatch):
    _check("fuzz.txt", tmp_path, monkeypatch)


def test_help_texts_are_unchanged(tmp_path, monkeypatch):
    _check("help.txt", tmp_path, monkeypatch)


def test_flipped_sign_counterexamples_are_unchanged(tmp_path, monkeypatch):
    _check("counterexamples.txt", tmp_path, monkeypatch)


def test_unreached_checks_fail_reports_are_unchanged(tmp_path, monkeypatch):
    _check("fail_reports.txt", tmp_path, monkeypatch)


@pytest.mark.parametrize("name", MUTANT_RUNS)
def test_mutant_fail_record_keys_and_replay(name, tmp_path, monkeypatch):
    """Each record lists its keys in a fixed order, and the `check` replay
    of the record prints the same FAIL line."""
    monkeypatch.chdir(tmp_path)
    Path("dg.json").write_text(json.dumps(_dg_matrices()), encoding="utf-8")
    patches, argv, keys = MUTANT_RUNS[name]
    with patched(patches):
        line, record = _first_failure(_run(argv))
        replay_line, _ = _first_failure(_run(_replay_record_argv(name, record)))
    assert line.split()[:2] == ["FAIL", name]
    assert list(record) == keys
    assert replay_line == _without_seed_and_case(line)


def test_mutant_kill_matrix_is_unchanged(tmp_path, monkeypatch):
    _check("mutants.txt", tmp_path, monkeypatch)


def _refuse(*args, **kwargs):
    raise AssertionError("a patched name no check calls was called")


def test_mutant_rows_rerun_only_the_cases_that_reach_their_sites():
    """A mutant patched at a name no check calls reruns nothing and gives an
    all-zero row; a site some generator reaches reruns the whole session;
    and on a short session each mutant's row equals the row of the whole
    session rerun with it patched in."""
    nowhere, at_gen = ((cli, "main"),), ((checks, "random_space"),)
    session = Session(MATRIX_SEED, 10, SITES + nowhere + at_gen)
    zeros = dict.fromkeys(CHECK_NAMES, 0)
    assert session.reruns(nowhere) == []
    assert session.kill_counts(nowhere, _refuse) == zeros
    assert session.reruns(at_gen) is None
    assert session.kill_counts(at_gen, checks.random_space) == zeros
    killed = 0
    for name, sites, replacement in MUTANTS:
        with patched([(module, attribute, replacement) for module, attribute in sites]):
            outcomes = fuzz_outcomes(MATRIX_SEED, 10, CHECK_NAMES, FuzzCaps())
            whole = dict(zeros)
            for _, check, outcome in outcomes:
                whole[check] += not outcome.passed
        assert session.kill_counts(sites, replacement) == whole, name
        assert session.reruns(sites), name
        killed += any(whole.values())
    assert killed >= 5


def test_readme_lists_exactly_the_weak_mutants():
    _, _, section = README.read_text(encoding="utf-8").partition("### Sign mutants\n")
    section = section.split("\n#", 1)[0]
    listed = set(re.findall(r"^- `(\w+)`", section, flags=re.M))
    matrix = parse_matrix((GOLDEN / "mutants.txt").read_text(encoding="utf-8"))
    assert listed == weak_mutants(matrix)


def test_fuzz_100_case_report_is_unchanged():
    assert fuzz_100_digest() == FUZZ_100_MD5


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            texts = {name: make() for name, make in TRANSCRIPTS.items()}
            digest = fuzz_100_digest()
        finally:
            os.chdir(home)
    for name, text in texts.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    source = Path(__file__)
    text = source.read_text(encoding="utf-8")
    pinned = f'FUZZ_100_MD5 = "{digest}"'
    text = re.sub(r"^FUZZ_100_MD5 = .*$", pinned, text, count=1, flags=re.M)
    source.write_text(text, encoding="utf-8")
