"""Run the benchmark over many seeds and summarize it, one run at a time.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload it makes one untraced run per seed and one traced run
(on the first seed), and writes every result together with, per end-to-end
metric, the median, the quartiles and their distance as a share of the
median (the spread BENCHMARK.json's bounds are judged against).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "unit": results[0]["metrics"][name]["unit"],
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    report = {
        "machine": {
            "cpus": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, spec["run_seconds"], 0))
            print(workload, seed, json.dumps(runs[-1]), file=sys.stderr)
        traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
        report["workloads"][workload] = {"summary": summary(runs), "runs": runs, "traced": traced}
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
