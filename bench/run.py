"""The bracekit benchmark: one workload per process, closed loop, 1 client.

    python3 bench/run.py --workload fuzz-default --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs whole rounds of the workload's ops until
``--seconds`` have passed, checks every output, and prints the end-to-end
metrics.  With ``--trace 1`` it replays the workload's fixed trace list
twice, untraced and then with every layer wrapped (see spans.py), and prints
the per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a summary goes to stderr, and
per-op records and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from source import ROOT, SRC, import_bracekit
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS

OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, run the warm-up op, print 'ready' and exit (times setup_s)",
    )
    return parser.parse_args(argv)


class Pass:
    """Timings and verdicts of the ops run so far."""

    def __init__(self):
        self.ms = []
        self.labels = []
        self.failed = 0
        self.errors = []

    def run(self, op, tracer=None):
        if tracer is not None:
            tracer.op = len(self.ms) + 1
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.ms.append(elapsed * 1e3)
        self.labels.append((op.label, op.info))
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label} {op.info}: {error}"[:500])


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def timed_run(workload, seconds) -> Pass:
    done = Pass()
    start = time.perf_counter()
    for ops in workload.rounds():
        if done.ms and time.perf_counter() - start >= seconds:
            break
        for op in ops:
            done.run(op)
    return done


def traced_run(bk, workload, spans_path) -> tuple:
    plain = Pass()
    for op in workload.trace_ops():
        plain.run(op)
    tracer = Tracer(bk)
    traced = Pass()
    workload.set_tracer(tracer)
    tracer.install()
    try:
        for op in workload.trace_ops():
            traced.run(op, tracer)
    finally:
        tracer.uninstall()
        workload.set_tracer(None)
    tracer.write(spans_path)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(traced.ms) / sum(plain.ms)
    return plain, traced, metrics


def setup_seconds(args) -> float:
    """Median over fresh processes of the time from process start to the
    first timed op: interpreter, import, inputs and the warm-up op."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: setup probe failed (exit {code}): {line!r}")
    return statistics.median(samples)


def summarize(name, done: Pass, tail_pct):
    by_label = defaultdict(list)
    for ms, (label, _) in zip(done.ms, done.labels):
        by_label[label].append(ms)
    beyond = len(done.ms) - math.ceil(tail_pct / 100 * len(done.ms))
    print(
        f"{name}: {len(done.ms)} ops, {done.failed} failed, "
        f"op_ms_tail is p{tail_pct} with {beyond} samples beyond it",
        file=sys.stderr,
    )
    for label, values in sorted(by_label.items()):
        print(
            f"  {label:40s} n={len(values):5d} mean={statistics.fmean(values):10.3f} ms "
            f"max={max(values):10.3f} ms",
            file=sys.stderr,
        )
    for error in done.errors[:10]:
        print(f"  FAILED {error}", file=sys.stderr)


def write_ops(path, done: Pass):
    with open(path, "w", encoding="utf-8") as fh:
        for ms, (label, info) in zip(done.ms, done.labels):
            fh.write(json.dumps({"op": label, "ms": ms, **info}) + "\n")


def byte_compile():
    """Write the bytecode of bracekit and of the benchmark, as an install
    would, so start-up times do not depend on PYTHONDONTWRITEBYTECODE."""
    for directory in (SRC / "bracekit", Path(__file__).resolve().parent):
        compileall.compile_dir(directory, quiet=2)


def main(argv=None) -> int:
    args = parse_args(argv)
    bk = import_bracekit()
    if not args.setup_probe:
        byte_compile()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](bk, args.seed, work)
        workload.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            plain, done, metrics = traced_run(bk, workload, stem.with_suffix(".spans.jsonl"))
            done.failed += plain.failed
            done.errors += plain.errors
            attempted = len(plain.ms) + len(done.ms)
        else:
            done = timed_run(workload, args.seconds)
            attempted = len(done.ms)
            peak_kb = resource.getrusage(workload.rusage_who).ru_maxrss
            metrics = {
                "ops_per_s": len(done.ms) / (sum(done.ms) / 1e3),
                "op_ms_p50": statistics.median(done.ms),
                "op_ms_tail": percentile(done.ms, workload.tail_pct),
                "peak_rss_mb": peak_kb / 1024,
            }
        write_ops(stem.with_suffix(".ops.jsonl"), done)
        summarize(args.workload, done, workload.tail_pct)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": done.failed == 0,
        "attempted": attempted,
        "failed": done.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
