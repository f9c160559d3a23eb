"""Golden CLI transcripts: output that must stay byte-identical.

The files under tests/golden/ pin three transcripts of in-process
``bracekit`` runs:

* ``fuzz.txt``: the report of ``fuzz --seed 7 --cases 10``;
* ``help.txt``: ``--help``, ``check --help`` and every ``check <name> --help``
  at 80 columns;
* ``counterexamples.txt``: fuzz runs under wrong brace/symmetric-brace signs
  (``brace.beta_parity`` and ``symbrace.delta_parity`` monkeypatched), the
  ``check`` replay of the first counterexample of every failing check, and
  ``check`` runs on a small workspace: brace-axiom under the test-side
  mutant ``helpers.beta_without_leading_slot_term`` patched over
  ``brace.beta_parity``, and ainfty and thm2 on a non-associative product.

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

from bracekit import brace, cli, symbrace
from bracekit.checks import CHECK_NAMES, fuzz_outcomes
from bracekit.fuzz import FuzzCaps
from helpers import beta_without_leading_slot_term

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    argv = ["check", name, "--workspace", path]
    for key, value in record["args"].items():
        if key != "flavor":
            text = ",".join(value) if isinstance(value, list) else str(value)
            argv.append(f"--{key.replace('_', '-')}={text}")
    return argv


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


TRANSCRIPTS = {
    "fuzz.txt": fuzz_transcript,
    "help.txt": help_transcript,
    "counterexamples.txt": counterexample_transcript,
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
