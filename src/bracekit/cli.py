"""Command-line interface.

Verbs:

* ``check <name> ...``  run one named verification on workspace maps or
  explicit combinatorial data; prints one PASS/FAIL line.
* ``fuzz``              run seeded random instances of selected checks;
  identical seeds and flags produce byte-identical reports.
* ``antisymmetrize``    write the antisymmetrization of a workspace map.
* ``fmt``               rewrite a workspace file in canonical form.

Exit codes: 0 all verdicts pass, 1 at least one FAIL, 2 input or parse
error or a request over the enumeration limit (no verdict), 141 (128 +
SIGPIPE) when the reader closes stdout early.  FAIL lines are followed
by a counterexample as indented JSON carrying the instance and both
unequal values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import CHECK_NAMES, CHECKS, fuzz_outcomes, outcome_line
from .errors import BracekitError, InputError
from .fuzz import FuzzCaps
from .multimap import antisymmetrize
from .workspace import Workspace

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CLOSED_PIPE = 141


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer")
    return value


def _degree_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected 'lo..hi' (for example -2..2), got {text!r}"
        )
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integer bounds in 'lo..hi', got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracekit",
        description="Exact verification of graded brace-algebra identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="run one named verification", description="Run one check."
    )
    by_name = check.add_subparsers(dest="check_name", required=True, metavar="<name>")
    for name in CHECK_NAMES:
        spec = CHECKS[name]
        p = by_name.add_parser(name, help=f"run the {name} check")
        p.add_argument(
            "--workspace",
            required=spec.needs_workspace,
            help="workspace JSON file"
            + ("" if spec.needs_workspace else " (unused by this check)"),
        )
        spec.add_cli_args(p)

    fuzz = sub.add_parser(
        "fuzz",
        help="run seeded random instances of the checks",
        description="Deterministic fuzzing: a seed fixes every instance and byte "
        "of the report.",
    )
    fuzz.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    fuzz.add_argument(
        "--cases", type=_nonnegative, default=100, help="cases per check (default 100)"
    )
    fuzz.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or 'all' (default)",
    )
    fuzz.add_argument("--max-dim", type=int, default=3, help="largest space dimension")
    fuzz.add_argument("--max-arity", type=int, default=3, help="largest map arity")
    fuzz.add_argument(
        "--max-n", type=int, default=2, help="largest insertion count per stage"
    )
    fuzz.add_argument(
        "--degree-range",
        type=_degree_range,
        default=(-2, 2),
        metavar="LO..HI",
        help="basis degree range (default -2..2)",
    )
    fuzz.add_argument(
        "--max-arity-out",
        type=int,
        default=6,
        help="largest composed output arity",
    )

    anti = sub.add_parser(
        "antisymmetrize",
        help="antisymmetrize a workspace map",
        description="Write a workspace containing the antisymmetrized map.",
    )
    anti.add_argument("--workspace", required=True, help="workspace JSON file")
    anti.add_argument("--map", dest="map_name", required=True, help="map to antisymmetrize")
    anti.add_argument("--out", required=True, help="output workspace path")
    anti.add_argument(
        "--name", default=None, help="name for the result (default: <map>_as)"
    )

    fmt = sub.add_parser(
        "fmt",
        help="rewrite a workspace file in canonical form",
        description="Canonicalize: sorted maps and entries, reduced coefficients.",
    )
    fmt.add_argument("--workspace", required=True, help="workspace JSON file")
    fmt.add_argument(
        "--out", default=None, help="write here instead of rewriting in place"
    )

    return parser


def _cmd_check(ns, out) -> int:
    spec = CHECKS[ns.check_name]
    ws = Workspace.load(ns.workspace) if spec.needs_workspace else None
    instance = spec.from_cli(ws, ns)
    outcome = spec.run(instance)
    print(outcome_line(outcome), file=out)
    if outcome.counterexample is not None:
        print(json.dumps(outcome.counterexample, indent=2), file=out)
    return EXIT_PASS if outcome.passed else EXIT_FAIL


def _cmd_fuzz(ns, out) -> int:
    lo, hi = ns.degree_range
    caps = FuzzCaps(
        max_dim=ns.max_dim,
        max_arity=ns.max_arity,
        max_n=ns.max_n,
        degree_lo=lo,
        degree_hi=hi,
        max_out_arity=ns.max_arity_out,
    )
    if ns.checks.strip() == "all":
        names = CHECK_NAMES
    else:
        names = tuple(part for part in ns.checks.split(",") if part)
        if not names:
            raise InputError("--checks selected nothing")
    failures = 0
    for case, name, outcome in fuzz_outcomes(ns.seed, ns.cases, names, caps):
        print(outcome_line(outcome, seed=ns.seed, case=case), file=out)
        if not outcome.passed:
            failures += 1
            record = {"check": name, "seed": ns.seed, "case": case}
            record.update(outcome.counterexample or {})
            print(json.dumps(record, indent=2), file=out)
    return EXIT_FAIL if failures else EXIT_PASS


def _cmd_antisymmetrize(ns, out) -> int:
    ws = Workspace.load(ns.workspace)
    result = antisymmetrize(ws.get_map(ns.map_name))
    name = ns.name if ns.name is not None else f"{ns.map_name}_as"
    Workspace(ws.space, [(name, result)]).save(ns.out)
    return EXIT_PASS


def _cmd_fmt(ns, out) -> int:
    target = ns.out if ns.out is not None else ns.workspace
    Workspace.load(ns.workspace).save(target)
    return EXIT_PASS


_COMMANDS = {
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
    "antisymmetrize": _cmd_antisymmetrize,
    "fmt": _cmd_fmt,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns, sys.stdout)
    except BracekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
