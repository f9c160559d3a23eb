"""Per-layer tracing of bracekit from outside the package.

:class:`Tracer` replaces the public functions of each layer with wrappers,
in every namespace that bound them: a function imported into five modules
is wrapped in all five, a method on its class, ``Check.gen``/``Check.run``
through ``checks.CHECKS``, and the CLI verbs through ``cli._COMMANDS``.
A wrapper records a span (op, id, parent id, name, start, end) in memory;
self time is a span's duration minus the durations of its direct children.
``MultiMap.__call__`` runs millions of times per run, so it is only counted,
and the enumerators of ``graded`` count the items they yield.

``PER_LAYER`` is the catalogue of per-layer metrics a traced run reports.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

CHECK_NAMES = (
    "brace-axiom",
    "symbrace-axiom-ex33",
    "thm1",
    "thm2",
    "lemma41",
    "lemma42",
    "lemma43",
    "lemma44",
    "lemma51",
    "ainfty",
    "linfty",
    "corollary",
)

PER_LAYER = {}
for _c in CHECK_NAMES:
    PER_LAYER[f"checks.{_c}.gen_ms"] = "ms"
    PER_LAYER[f"checks.{_c}.run_ms"] = "ms"
PER_LAYER.update(
    {
        "checks.trivial_ratio": "ratio",
        "brace.brace_eval.calls": "count",
        "brace.brace_eval.self_s": "s",
        "brace.brace_eval.tuples": "count",
        "brace.brace_eval.nnz": "count",
        "brace.brace_eval.yield": "ratio",
        "brace.sides.self_s": "s",
        "symbrace.symbrace_eval.calls": "count",
        "symbrace.symbrace_eval.self_s": "s",
        "symbrace.symbrace_eval.terms": "count",
        "symbrace.symbrace_eval.nnz": "count",
        "symbrace.symbrace_eval.yield": "ratio",
        "symbrace.symmetrize_brace.self_s": "s",
        "symbrace.sides.self_s": "s",
        "multimap.call.count": "count",
        "multimap.antisymmetrize.calls": "count",
        "multimap.antisymmetrize.self_s": "s",
        "multimap.antisymmetrize.nnz": "count",
        "multimap.is_antisymmetric.self_s": "s",
        "multimap.add.calls": "count",
        "multimap.add.self_s": "s",
        "graded.unshuffles.count": "count",
        "graded.permutations.count": "count",
        "graded.insertion_patterns.count": "count",
        "homotopy.defects.self_s": "s",
        "fuzz.random_map.self_s": "s",
        "fuzz.families.self_s": "s",
        "workspace.load.self_s": "s",
        "workspace.save.self_s": "s",
        "workspace.to_obj.self_s": "s",
        "workspace.bytes_read": "B",
        "workspace.bytes_written": "B",
        "cli.interp_ms": "ms",
        "cli.import_ms": "ms",
        "cli.build_parser_ms": "ms",
        "cli.fmt_ms": "ms",
        "cli.antisymmetrize_ms": "ms",
        "cli.check_ms": "ms",
        "trace.overhead_ratio": "ratio",
    }
)

# (module, function, span name) for plain spanned functions
_SPANNED = (
    ("multimap", "antisymmetrize", "multimap.antisymmetrize"),
    ("multimap", "is_antisymmetric", "multimap.is_antisymmetric"),
    ("brace", "brace_eval", "brace.brace_eval"),
    ("brace", "brace_axiom_sides", "brace.sides"),
    ("brace", "braced_symmetrization_sides", "brace.sides"),
    ("symbrace", "symbrace_eval", "symbrace.symbrace_eval"),
    ("symbrace", "symmetrize_brace", "symbrace.symmetrize_brace"),
    ("symbrace", "symbrace_axiom_sides", "symbrace.sides"),
    ("symbrace", "antisymmetrized_brace_sides", "symbrace.sides"),
    ("homotopy", "a_infinity_defects", "homotopy.defects"),
    ("homotopy", "l_infinity_defects", "homotopy.defects"),
    ("fuzz", "random_map", "fuzz.random_map"),
    ("fuzz", "random_a_infinity_family", "fuzz.families"),
    ("fuzz", "random_l_infinity_family", "fuzz.families"),
    ("cli", "build_parser", "cli.build_parser"),
)

_ENUMERATORS = (
    ("enumerate_unshuffles", "graded.unshuffles.count"),
    ("enumerate_permutations", "graded.permutations.count"),
    ("insertion_patterns", "graded.insertion_patterns.count"),
)


def _unshuffles(arities, free) -> int:
    count = math.factorial(sum(arities) + free)
    for a in (*arities, free):
        count //= math.factorial(a)
    return count


class Tracer:
    """Spans and counters of one traced run; install, run ops, uninstall."""

    def __init__(self, bk):
        self.bk = bk
        self.op = 0
        self.spans = []  # (op, id, parent, name, start, end)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._next_id = 1
        self._undo = []

    # ------------------------------------------------------------ wrapping

    def _modules(self):
        return [m for name, m in list(sys.modules.items()) if name == "bracekit" or name.startswith("bracekit.")]

    def _set(self, target, attr, value):
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _rebind(self, original, replacement):
        """Replace ``original`` in every bracekit module that bound it."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def span(self, name, fn, after=None):
        """``fn`` recording a span named ``name``; once the span has ended,
        ``after(args, kwargs, result)`` updates the counters."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def install(self):
        bk = self.bk
        counts = self.counts
        afters = {
            "brace_eval": self._after_brace,
            "symbrace_eval": self._after_symbrace,
            "antisymmetrize": self._after_antisymmetrize,
        }
        for module, fname, name in _SPANNED:
            original = getattr(getattr(bk, module), fname)
            self._rebind(original, self.span(name, original, afters.get(fname)))
        for fname, key in _ENUMERATORS:
            original = getattr(bk.graded, fname)
            self._rebind(original, self._counting(key, original))

        MultiMap = bk.multimap.MultiMap
        call = MultiMap.__call__

        def counted_call(m, args):
            counts["multimap.call.count"] += 1
            return call(m, args)

        self._set(MultiMap, "__call__", counted_call)
        self._set(MultiMap, "__add__", self.span("multimap.add", MultiMap.__add__))

        Workspace = bk.workspace.Workspace
        load = vars(Workspace)["load"].__func__
        self._set(
            Workspace,
            "load",
            classmethod(self.span("workspace.load", load, self._after_load)),
        )
        self._set(Workspace, "save", self.span("workspace.save", Workspace.save, self._after_save))
        self._set(Workspace, "to_obj", self.span("workspace.to_obj", Workspace.to_obj))

        checks = bk.checks.CHECKS
        for name, check in list(checks.items()):
            self._undo.append((checks, name, check))
            checks[name] = dataclasses.replace(
                check,
                gen=self.span(f"checks.{name}.gen", check.gen, self._after_gen),
                run=self.span(f"checks.{name}.run", check.run),
            )
        commands = bk.cli._COMMANDS
        for verb, fn in list(commands.items()):
            self._undo.append((commands, verb, fn))
            commands[verb] = self.span(f"cli.{verb}", fn)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # ------------------------------------------------------------ counters

    def _after_brace(self, args, kwargs, result):
        gs = args[1] if len(args) > 1 else kwargs["gs"]
        self._count_table("brace.brace_eval", result, bool(tuple(gs)))

    def _after_symbrace(self, args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        gs = tuple(args[1] if len(args) > 1 else kwargs["gs"])
        tuples = self._count_table("symbrace.symbrace_eval", result, bool(gs))
        if gs:
            arities = [g.arity for g in gs]
            self.counts["symbrace.symbrace_eval.terms"] += tuples * _unshuffles(arities, f.arity - len(gs))

    def _count_table(self, prefix, result, evaluated) -> int:
        """Tuples visited and nonzero rows of a table built point by point;
        an empty insertion returns its input and visits nothing."""
        tuples = result.space.dim**result.arity if evaluated else 0
        self.counts[f"{prefix}.tuples"] += tuples
        self.counts[f"{prefix}.nnz"] += len(result.entries) if evaluated else 0
        return tuples

    def _after_antisymmetrize(self, args, kwargs, result):
        self.counts["multimap.antisymmetrize.nnz"] += len(result.entries)

    def _after_load(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["workspace.bytes_read"] += os.path.getsize(path)

    def _after_save(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["workspace.bytes_written"] += os.path.getsize(path)

    def _after_gen(self, args, kwargs, instance):
        params = dict(instance.params)
        if "n" in params:
            self.counts["checks.with_n"] += 1
            self.counts["checks.trivial"] += params["n"] == 0

    # ------------------------------------------------------------- results

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "samples": dict(self.samples)}

    def merge(self, data: dict):
        """Add the trace of a child process, which ran as the current op."""
        offset = self._next_id
        top = 0
        for _, sid, parent, name, start, end in data["spans"]:
            self.spans.append((self.op, sid + offset, parent + offset if parent else 0, name, start, end))
            top = max(top, sid)
        self._next_id += top + 1
        self.counts.update(data["counts"])
        for key, values in data["samples"].items():
            self.samples[key].extend(values)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Every metric of PER_LAYER but the overhead ratio, which needs an
        untraced run to compare with."""
        calls = Counter()
        total = Counter()
        child = Counter()
        for op, sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent:
                child[(op, parent)] += end - start
        self_s = Counter()
        for op, sid, parent, name, start, end in self.spans:
            self_s[name] += (end - start) - child[(op, sid)]
        counts = self.counts

        def mean_ms(name):
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for c in CHECK_NAMES:
            values[f"checks.{c}.gen_ms"] = mean_ms(f"checks.{c}.gen")
            values[f"checks.{c}.run_ms"] = mean_ms(f"checks.{c}.run")
        values["checks.trivial_ratio"] = ratio(counts["checks.trivial"], counts["checks.with_n"])
        for layer in ("brace.brace_eval", "symbrace.symbrace_eval"):
            values[f"{layer}.calls"] = calls[layer]
            values[f"{layer}.self_s"] = self_s[layer]
            values[f"{layer}.nnz"] = counts[f"{layer}.nnz"]
            values[f"{layer}.yield"] = ratio(counts[f"{layer}.nnz"], counts[f"{layer}.tuples"])
        values["brace.brace_eval.tuples"] = counts["brace.brace_eval.tuples"]
        values["symbrace.symbrace_eval.terms"] = counts["symbrace.symbrace_eval.terms"]
        for name in (
            "brace.sides",
            "symbrace.symmetrize_brace",
            "symbrace.sides",
            "multimap.antisymmetrize",
            "multimap.is_antisymmetric",
            "multimap.add",
            "homotopy.defects",
            "fuzz.random_map",
            "fuzz.families",
            "workspace.load",
            "workspace.save",
            "workspace.to_obj",
        ):
            values[f"{name}.self_s"] = self_s[name]
        values["multimap.antisymmetrize.calls"] = calls["multimap.antisymmetrize"]
        values["multimap.add.calls"] = calls["multimap.add"]
        for key in (
            "multimap.call.count",
            "multimap.antisymmetrize.nnz",
            "graded.unshuffles.count",
            "graded.permutations.count",
            "graded.insertion_patterns.count",
            "workspace.bytes_read",
            "workspace.bytes_written",
        ):
            values[key] = counts[key]
        for key in ("cli.interp_ms", "cli.import_ms"):
            samples = self.samples.get(key, [])
            values[key] = sum(samples) / len(samples) if samples else 0.0
        values["cli.build_parser_ms"] = mean_ms("cli.build_parser")
        for verb in ("fmt", "antisymmetrize", "check"):
            values[f"cli.{verb}_ms"] = mean_ms(f"cli.{verb}")
        return values
