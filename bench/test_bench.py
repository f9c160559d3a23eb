"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that BENCHMARK.json describes what run.py reports, that the
output checks pass on the current code and fail under an injected sign
error, that tracing leaves bracekit as it found it, and that the benchmark
refuses to run without the source tree.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import kernel  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from source import ROOT, SRC, import_bracekit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

bk = import_bracekit()
FUZZ_OPS = 240  # the first 20 cases of a session, over all checks


def _flipped_beta(monkeypatch):
    """Negate every insertion pattern's sign in brace_eval."""
    original = bk.brace.beta_parity
    monkeypatch.setattr(bk.brace, "beta_parity", lambda *a, **k: 1 - original(*a, **k))


def _bindings() -> dict:
    """Every callable bound in a bracekit module or on its classes."""
    found = {}
    for name in [n for n in sys.modules if n.startswith("bracekit")]:
        for attr, value in vars(sys.modules[name]).items():
            if callable(value):
                found[name, attr] = value
                if isinstance(value, type) and value.__module__ == name:
                    found.update(((name, attr, k), v) for k, v in vars(value).items())
    return found


def _run(workload, limit=None) -> run.Pass:
    done = run.Pass()
    for op in itertools.islice(workload.trace_ops(), limit):
        done.run(op)
    return done


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_kernel_pool_covers_every_spec():
    pool = kernel.load_pool()
    assert sorted(pool) == sorted(spec.name for spec in kernel.SPECS)
    for spec in kernel.SPECS:
        records = pool[spec.name]
        assert len(records) == kernel.VARIANTS
        assert all(r["in_nnz"] > 0 for r in records)
        if spec.call not in ("ainfty", "linfty"):
            assert all(r["out_nnz"] > 0 for r in records)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_outputs_pass_at_this_commit(name, tmp_path):
    done = _run(WORKLOADS[name](bk, 3, tmp_path), FUZZ_OPS)
    assert done.ms and done.failed == 0, done.errors


@pytest.mark.parametrize("name", ["fuzz-default", "kernel-large"])
def test_sign_error_raises_failed_ratio(name, tmp_path, monkeypatch):
    _flipped_beta(monkeypatch)
    done = _run(WORKLOADS[name](bk, 3, tmp_path), FUZZ_OPS)
    assert done.failed / len(done.ms) > 0


def test_sign_error_in_the_cli_raises_failed_ratio(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC / "bracekit", src / "bracekit", ignore=shutil.ignore_patterns("__pycache__"))
    brace = src / "bracekit" / "brace.py"
    text = brace.read_text(encoding="utf-8")
    target = "    return total & 1\n\n\ndef brace_eval("
    assert target in text
    brace.write_text(text.replace(target, "    return (total + 1) & 1\n\n\ndef brace_eval("), encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    done = _run(WORKLOADS["cli-workspace"](bk, 3, work, src=src))
    assert done.failed / len(done.ms) > 0


def test_tracer_counts_and_restores_every_binding(tmp_path):
    before = _bindings()
    checks_before = dict(bk.checks.CHECKS)
    tracer = spans.Tracer(bk)
    tracer.install()
    try:
        assert bk.symbrace.brace_eval is bk.brace.brace_eval is bk.homotopy.brace_eval
        assert bk.brace.brace_eval is not before["bracekit.brace", "brace_eval"]
        done = _run(WORKLOADS["fuzz-default"](bk, 3, tmp_path), 24)
    finally:
        tracer.uninstall()
    assert done.failed == 0
    assert _bindings() == before
    assert bk.checks.CHECKS == checks_before
    metrics = tracer.metrics()
    assert set(metrics) == set(spans.PER_LAYER) - {"trace.overhead_ratio"}
    assert metrics["multimap.call.count"] > 0
    assert metrics["checks.brace-axiom.run_ms"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
