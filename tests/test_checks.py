"""Check registry: generators, runners, report lines, fuzz driver."""

import dataclasses
import itertools
import json
import math

import pytest

import bracekit.checks as checks_module
import bracekit.workspace as workspace_module
from bracekit import brace, symbrace
from bracekit.checks import (
    CHECK_NAMES,
    CHECKS,
    CheckOutcome,
    fuzz_outcomes,
    outcome_line,
)
from bracekit.cli import build_parser, main
from bracekit.errors import InputError
from bracekit.fuzz import FuzzCaps, SplitMix64, random_map
from bracekit.homotopy import StructureFamily
from bracekit.multimap import GradedSpace
from bracekit.workspace import Workspace
from helpers import beta_without_leading_slot_term, replay_flags

CAPS = FuzzCaps()

SPEC_NAMES = (
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


def test_registry_has_every_advertised_check():
    assert CHECK_NAMES == SPEC_NAMES
    for name, check in CHECKS.items():
        assert check.name == name


def test_outcome_line_format():
    outcome = CheckOutcome("thm2", True, (("dim", 2), ("N", 3)))
    assert outcome_line(outcome) == "PASS thm2 dim=2 N=3"
    assert outcome_line(outcome, seed=9, case=4) == "PASS thm2 seed=9 case=4 dim=2 N=3"
    failed = CheckOutcome("thm2", False, ())
    assert outcome_line(failed, seed=0, case=0) == "FAIL thm2 seed=0 case=0"


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_generated_instances_pass(name):
    check = CHECKS[name]
    for seed in range(6):
        inst = check.gen(SplitMix64(seed), CAPS)
        outcome = check.run(inst)
        assert outcome.check == name
        assert outcome.passed, outcome_line(outcome)
        assert outcome.counterexample is None


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_generation_is_deterministic(name):
    check = CHECKS[name]
    a = check.gen(SplitMix64(123), CAPS)
    b = check.gen(SplitMix64(123), CAPS)
    assert a.params == b.params
    assert a.context() == b.context()


def test_map_instances_embed_a_loadable_workspace():
    inst = CHECKS["brace-axiom"].gen(SplitMix64(5), CAPS)
    ws = Workspace.from_obj(inst.context()["workspace"])
    assert inst.context()["args"]["x"] in ws.maps


def test_flipped_sign_convention_fails_and_reports(monkeypatch):
    monkeypatch.setattr(brace, "beta_parity", beta_without_leading_slot_term)
    check = CHECKS["brace-axiom"]
    for seed in range(40):
        inst = check.gen(SplitMix64(seed), CAPS)
        outcome = check.run(inst)
        if not outcome.passed:
            cx = outcome.counterexample
            assert set(cx) >= {"workspace", "args", "lhs", "rhs"}
            assert cx["lhs"] != cx["rhs"]
            Workspace.from_obj(cx["workspace"])
            return
    pytest.fail("no failing instance found under the flipped convention")


def test_fuzz_outcomes_deterministic_and_ordered():
    names = ("lemma44", "lemma42")
    run1 = [
        (case, name, outcome.passed, outcome.params)
        for case, name, outcome in fuzz_outcomes(77, 4, names, CAPS)
    ]
    run2 = [
        (case, name, outcome.passed, outcome.params)
        for case, name, outcome in fuzz_outcomes(77, 4, names, CAPS)
    ]
    assert run1 == run2
    assert [(c, n) for c, n, _, _ in run1] == [
        (case, name) for case in range(4) for name in names
    ]


def test_fuzz_outcomes_draws_each_subseed_as_it_reaches_its_case(monkeypatch):
    """The master stream yields one subseed per (case, check) when the run
    reaches it, so the first outcome of a long run waits on one draw."""
    draws = []

    class CountingStream(SplitMix64):
        def next_u64(self):
            draws.append(1)
            return super().next_u64()

    streams = iter([CountingStream])  # the first stream made is the master
    monkeypatch.setattr(
        checks_module, "SplitMix64", lambda seed: next(streams, SplitMix64)(seed)
    )
    outcomes = fuzz_outcomes(7, 1000, CHECK_NAMES, CAPS)
    assert next(outcomes)[:2] == (0, CHECK_NAMES[0])
    assert len(draws) == 1
    assert next(outcomes)[:2] == (0, CHECK_NAMES[1])
    assert len(draws) == 2


def test_passing_cases_serialize_nothing(monkeypatch):
    """A case builds its counterexample context only when it fails."""
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module, name in (
        (checks_module, "_maps_context"),
        (checks_module, "map_to_obj"),
        (workspace_module, "map_to_obj"),
    ):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    outcomes = list(fuzz_outcomes(7, 20, CHECK_NAMES, CAPS))
    assert len(outcomes) == 20 * len(CHECK_NAMES)
    assert all(outcome.passed for _, _, outcome in outcomes)
    assert calls == []


def test_fuzz_outcomes_zero_cases():
    assert list(fuzz_outcomes(1, 0, CHECK_NAMES, CAPS)) == []


def test_fuzz_outcomes_rejects_unknown_check():
    with pytest.raises(InputError, match="unknown check"):
        list(fuzz_outcomes(1, 1, ("nope",), CAPS))
    with pytest.raises(InputError, match="nonnegative"):
        list(fuzz_outcomes(1, -1, ("lemma44",), CAPS))


def test_refused_instance_fails_its_case_and_the_run_goes_on(monkeypatch):
    # with beta and delta wrong on every second call, some corollary cases
    # draw families that fail ainfty, which the corollary verdict refuses
    for module, name in ((brace, "beta_parity"), (symbrace, "delta_parity")):
        parity, calls = getattr(module, name), itertools.count()
        monkeypatch.setattr(
            module, name, lambda *a, p=parity, c=calls: p(*a) ^ (next(c) & 1)
        )
    outcomes = list(fuzz_outcomes(11, 6, CHECK_NAMES, CAPS))
    assert len(outcomes) == 6 * len(CHECK_NAMES)
    refused = [o for _, name, o in outcomes if name == "corollary" and not o.passed]
    assert refused
    for outcome in refused:
        cx = outcome.counterexample
        assert "does not satisfy the associativity relations" in cx["error"]
        assert set(cx) == {"workspace", "args", "error"}
        Workspace.from_obj(cx["workspace"])


def test_generator_error_fails_its_case_and_the_run_goes_on(monkeypatch, capsys):
    """An InputError from a generator fails that case alone, with no params
    and the message as its counterexample: the subseeds, and so every other
    case, are unchanged, and the CLI exits 1, not 2."""
    names, calls = ("lemma44", "linfty", "lemma42"), itertools.count()
    want = list(fuzz_outcomes(5, 3, names, CAPS))
    gen = CHECKS["linfty"].gen

    def failing(rng, caps):
        if next(calls) == 1:
            raise InputError("arity-2 component must be antisymmetric")
        return gen(rng, caps)

    monkeypatch.setitem(CHECKS, "linfty", dataclasses.replace(CHECKS["linfty"], gen=failing))
    got = list(fuzz_outcomes(5, 3, names, CAPS))
    failed = CheckOutcome(
        "linfty", False, (), {"error": "arity-2 component must be antisymmetric"}
    )
    assert got == [(1, "linfty", failed) if w[:2] == (1, "linfty") else w for w in want]
    calls = itertools.count()
    assert main(["fuzz", "--seed", "5", "--cases", "3", "--checks", ",".join(names)]) == 1
    out = capsys.readouterr().out
    assert "FAIL linfty seed=5 case=1\n" in out
    assert '"error": "arity-2 component must be antisymmetric"' in out


def test_instances_respect_caps():
    tight = FuzzCaps(max_dim=1, max_arity=2, max_n=1, max_out_arity=4)
    for seed in range(10):
        inst = CHECKS["brace-axiom"].gen(SplitMix64(seed), tight)
        params = dict(inst.params)
        assert params["dim"] == 1
        assert params["N"] <= 2
        assert params["n"] <= 1
        assert inst.kwargs["x"].arity <= 2
        outcome = CHECKS["brace-axiom"].run(inst)
        assert outcome.passed


def test_lemma41_arity_fits_the_antisymmetrization_budget():
    """lemma41 does (k + 1) * k! * dim**k work on an arity-k map in the
    worst case, a map whose orbits cover every tuple; k is redrawn over the
    budget, with k = 1 as the fallback.  Only the instances are drawn, none
    is verified."""
    budget = checks_module._ANTISYM_BUDGET
    caps = FuzzCaps(max_dim=12)
    drawn = set()
    for seed in range(40):
        params = dict(CHECKS["lemma41"].gen(SplitMix64(seed), caps).params)
        dim, k = params["dim"], params["k"]
        assert (k + 1) * math.factorial(k) * dim**k <= budget, (seed, dim, k)
        drawn.add((dim >= 10, k))
    assert {(False, 4), (True, 3)} <= drawn
    # at dim = budget even k = 1 is over it
    sample = checks_module._sample_lemma41
    assert sample(SplitMix64(0), caps, budget) == (1, [])


MAPS = (("f", 3), ("g", 1), ("h", 1))


def _cli_instance(argv):
    ns = build_parser().parse_args(["check", *argv, "--workspace", "unused.json"])
    space = GradedSpace([("a", 0), ("b", 1)])
    rng = SplitMix64(3)
    maps = [(name, random_map(rng, space, arity)) for name, arity in MAPS]
    return CHECKS[ns.check_name].from_cli(Workspace(space, maps), ns)


@pytest.mark.parametrize(
    "argv, args, stored",
    [
        (
            ["brace-axiom", "--x", "f", "--xs", "g,g", "--ys", "h"],
            {"x": "f", "xs": ["g", "g"], "ys": ["h"]},
            ["f", "g", "h"],
        ),
        (
            ["brace-axiom", "--x", "f", "--xs", "g", "--ys", "g"],
            {"x": "f", "xs": ["g"], "ys": ["g"]},
            ["f", "g"],
        ),
        (
            ["thm1", "--f", "f", "--gs", "f", "--xs", "g,h"],
            {"f": "f", "gs": ["f"], "xs": ["g", "h"]},
            ["f", "g", "h"],
        ),
        (["thm2", "--f", "f", "--gs", "f"], {"f": "f", "gs": ["f"]}, ["f"]),
        (
            ["lemma51", "--f", "f", "--ys", "h", "--zs", "h,g"],
            {"f": "f", "ys": ["h"], "zs": ["h", "g"]},
            ["f", "g", "h"],
        ),
    ],
)
def test_cli_args_keep_each_role_when_names_repeat(argv, args, stored):
    """args name each role's own maps; the workspace holds each map once."""
    inst = _cli_instance(argv)
    assert inst.context()["args"] == args
    assert [m["name"] for m in inst.context()["workspace"]["maps"]] == stored


def _comparable(value):
    if isinstance(value, StructureFamily):
        return value.flavor, value.components, value.max_component_arity
    return value


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_every_record_replays_through_its_own_flags(name, tmp_path):
    """A failure record holds exactly the flags that rebuild its case: its
    args (or, for lemmas 4.2-4.4, the record itself) parse as `check` flags
    and give the same verifier keywords and params (fuzz's family tag
    aside)."""
    master = SplitMix64(7)
    for case in range(10):
        inst = CHECKS[name].gen(SplitMix64(master.next_u64()), CAPS)
        record = inst.context()
        flags, ws = replay_flags(record.get("args", record)), None
        if "workspace" in record:
            path = tmp_path / f"case{case}.json"
            path.write_text(json.dumps(record["workspace"]), encoding="utf-8")
            flags = ["--workspace", str(path), *flags]
            ws = Workspace.load(path)
        ns = build_parser().parse_args(["check", name, *flags])
        rebuilt = CHECKS[name].from_cli(ws, ns)
        assert rebuilt.kwargs.keys() == inst.kwargs.keys()
        for key, value in inst.kwargs.items():
            assert _comparable(rebuilt.kwargs[key]) == _comparable(value), (case, key)
        assert rebuilt.params == tuple(p for p in inst.params if p[0] != "family")


@pytest.mark.parametrize(
    "name, phase, target",
    [
        ("brace-axiom", "run", "brace_axiom_sides"),
        ("thm1", "run", "symbrace_axiom_sides"),
        ("ainfty", "run", "a_infinity_defects"),
        ("brace-axiom", "gen", "random_map"),
        ("symbrace-axiom-ex33", "gen", "antisymmetrize"),
        ("linfty", "gen", "random_l_infinity_family"),
    ],
)
def test_checks_call_module_globals_when_they_run(name, phase, target, monkeypatch):
    """A tracer rebinds bracekit.checks globals; every check must see that."""
    original = getattr(checks_module, target)
    calls = []

    def spy(*args, **kwargs):
        calls.append(target)
        return original(*args, **kwargs)

    inst = CHECKS[name].gen(SplitMix64(4), CAPS)
    monkeypatch.setattr(checks_module, target, spy)
    if phase == "gen":
        inst = CHECKS[name].gen(SplitMix64(4), CAPS)
    assert CHECKS[name].run(inst).passed
    assert calls
