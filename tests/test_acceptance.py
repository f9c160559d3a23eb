"""End-to-end acceptance suite.

Every contract item runs here at its stated size with exact (zero
tolerance) equality.  Each test prints one PASS/FAIL line so the suite
reads as an acceptance report under ``pytest -v -s``; the assertion
carries the same label.
"""

import json

from bracekit import brace
from bracekit.brace import braced_symmetrization_sides, decomposition_first_defect
from bracekit.checks import CHECKS, fuzz_outcomes, outcome_line
from bracekit.cli import main as cli_main
from bracekit.fuzz import FuzzCaps, SplitMix64, random_map
from bracekit.graded import (
    Permutation,
    block_permutation_sign_check,
    enumerate_permutations,
    inversion_parity_check,
    unshuffle_decomposition_check,
)
from bracekit.homotopy import (
    A_INFINITY,
    StructureFamily,
    a_infinity_check,
    antisymmetrize_structure,
    l_infinity_check,
)
from bracekit.multimap import (
    GradedSpace,
    MultiMap,
    antisymmetrize,
)
from helpers import beta_without_leading_slot_term, run_cli

SEED = 20260815
CAPS = FuzzCaps()  # dim <= 3, arities <= 3, n <= 2, degrees in [-2, 2]


def _report(label: str, ok: bool, detail: str = ""):
    print(("PASS " if ok else "FAIL ") + label + (f" [{detail}]" if detail else ""))
    assert ok, f"{label}: {detail}"


def _fuzz_all_pass(name: str, cases: int, caps: FuzzCaps = CAPS):
    failures = []
    count = 0
    for case, _, outcome in fuzz_outcomes(SEED, cases, (name,), caps):
        count += 1
        if not outcome.passed:
            failures.append(outcome_line(outcome, seed=SEED, case=case))
    assert count == cases
    return failures


def test_brace_nesting_axiom_200_random_instances():
    failures = _fuzz_all_pass("brace-axiom", 200)
    _report(
        "brace nesting axiom: 200 seeded instances, dim<=3, degrees in "
        "[-2,2], arities<=3, n<=2, r<=3, exact equality",
        not failures,
        "; ".join(failures[:3]),
    )


def test_symmetric_brace_axiom_100_antisymmetric_instances():
    failures = _fuzz_all_pass("symbrace-axiom-ex33", 100)
    _report(
        "symmetric brace axiom (unshuffle bracket): 100 seeded antisymmetric "
        "instances, exact equality",
        not failures,
        "; ".join(failures[:3]),
    )


def test_symmetrized_brace_satisfies_symmetric_axiom_100_instances():
    failures = _fuzz_all_pass("thm1", 100)
    _report(
        "symmetrized insertion brace satisfies the symmetric-brace axiom: "
        "100 seeded instances",
        not failures,
        "; ".join(failures[:3]),
    )


def test_antisymmetrization_intertwines_braces_100_instances():
    failures = _fuzz_all_pass("thm2", 100)
    _report(
        "eps-symmetrized antisymmetrization of braces equals the unshuffle "
        "bracket of antisymmetrizations: 100 seeded instances, n<=2, arities<=3",
        not failures,
        "; ".join(failures[:3]),
    )


def test_antisymmetrization_riffle_decomposition_all_splits():
    rng = SplitMix64(SEED)
    bad = []
    for arity in range(1, 5):
        for _ in range(50):
            space = GradedSpace(
                [("a", rng.randint(-2, 2)), ("b", rng.randint(-2, 2))]
            )
            f = random_map(rng, space, arity)
            if decomposition_first_defect(f) is not None:
                bad.append((arity, f))
    _report(
        "antisymmetrization factors through tail perms, head perms and "
        "riffles: 50 random maps per arity k<=4 over dim-2 spaces, every "
        "head/tail split",
        not bad,
        f"{len(bad)} failing maps" if bad else "",
    )


def _positive_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_unshuffle_block_decomposition_all_specs_to_five():
    rng = SplitMix64(SEED)
    specs = [
        spec
        for total in range(1, 6)
        for parts in range(1, total + 1)
        for spec in _positive_compositions(total, parts)
    ]
    specs += [(0, 2), (2, 0), (0, 0, 3)]  # empty hands are legal
    bad = []
    for spec in specs:
        n = sum(spec)
        degree_draws = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(3)]
        degree_draws += [[0] * n, [1] * n]
        for degrees in degree_draws:
            if not unshuffle_decomposition_check(spec, degrees):
                bad.append((spec, degrees))
    _report(
        "unshuffles times within-hand permutations reproduce the symmetric "
        "group as a signed multiset, both sign conventions, all block specs "
        "with total<=5",
        not bad,
        f"{len(bad)} failing specs" if bad else "",
    )


def _random_block_config(rng: SplitMix64, n: int, r: int):
    content = rng.randint(n, r)
    blocks = [1] * n
    for _ in range(content - n):
        blocks[rng.randint(0, n - 1)] += 1
    slots = [0] * (n + 1)
    for _ in range(r - content):
        slots[rng.randint(0, n)] += 1
    return tuple(blocks), tuple(slots)


def test_block_interleave_signs_all_permutations_to_five():
    rng = SplitMix64(SEED)
    bad = 0
    for n in range(1, 4):
        sigmas = list(enumerate_permutations(n))
        for r in range(n, 6):
            pis = list(enumerate_permutations(r))
            for _ in range(20):
                blocks, slots = _random_block_config(rng, n, r)
                degrees = [rng.randint(-2, 2) for _ in range(r)]
                for sigma in sigmas:
                    for pi in pis:
                        if not block_permutation_sign_check(
                            pi, sigma, blocks, slots, degrees
                        ):
                            bad += 1
    _report(
        "flattened block permutations carry the stated eps and chi "
        "corrections: all pi in S_r (r<=5), all sigma in S_n (n<=3), 20 "
        "random degree/block configurations each",
        bad == 0,
        f"{bad} sign mismatches" if bad else "",
    )


def test_inversion_parity_identities_exhaustive_permutations():
    rng = SplitMix64(SEED)
    bad = 0
    for n in range(1, 5):
        draws = [
            (
                [rng.randint(-9, 9) for _ in range(n)],
                [rng.randint(-9, 9) for _ in range(n)],
            )
            for _ in range(1000)
        ]
        for sigma in enumerate_permutations(n):
            for v, w in draws:
                if not inversion_parity_check(sigma, v, w):
                    bad += 1
    _report(
        "inversion-sum parity identities: exhaustive over permutations of "
        "n<=4 with 1000 random integer weight vectors each",
        bad == 0,
        f"{bad} violations" if bad else "",
    )


def test_staged_brace_symmetrization_matches_direct():
    caps = FuzzCaps(max_arity=4)
    failures = _fuzz_all_pass("lemma51", 40, caps)
    # pin the full split range n+m=4 explicitly with arity-1 inserts
    rng = SplitMix64(SEED + 1)
    space = GradedSpace([("a", 0), ("b", 1)])
    for n in range(5):
        f = random_map(rng, space, 4)
        ys = [random_map(rng, space, 1) for _ in range(n)]
        zs = [random_map(rng, space, 1) for _ in range(4 - n)]
        staged, direct = braced_symmetrization_sides(f, ys, zs)
        if staged != direct:
            failures.append(f"explicit split {n}+{4 - n}")
    _report(
        "two-stage eps-symmetrization of brace insertions equals the direct "
        "full symmetrization: 40 seeded instances plus every split of n+m=4",
        not failures,
        "; ".join(failures[:3]),
    )


def _pipeline_workspace(tmp_path):
    obj = {
        "space": {
            "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0}]
        },
        "maps": [
            {
                "name": "mu",
                "arity": 2,
                "degree": 0,
                "entries": [
                    {"in": ["a", "a"], "out": [{"basis": "a", "coeff": "1"}]},
                    {"in": ["a", "b"], "out": [{"basis": "b", "coeff": "1"}]},
                ],
            },
            {
                "name": "bad",
                "arity": 2,
                "degree": 0,
                "entries": [
                    {"in": ["a", "a"], "out": [{"basis": "a", "coeff": "1"}]},
                    {"in": ["b", "b"], "out": [{"basis": "a", "coeff": "1"}]},
                ],
            },
        ],
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_associativity_to_jacobi_pipeline_with_failing_witness(tmp_path, capsys):
    # the 2-dim non-commutative associative algebra aa=a, ab=b, ba=bb=0
    space = GradedSpace([("a", 0), ("b", 0)])
    a, b = 0, 1
    mu = MultiMap(space, 2, 0, {(a, a): {a: 1}, (a, b): {b: 1}})
    fam = StructureFamily(space, [mu], A_INFINITY)
    associative = a_infinity_check(fam, 3)

    shadow = antisymmetrize_structure(fam)
    jacobi = l_infinity_check(shadow, 3)
    ell = shadow.component(2)
    commutator_ok = (
        ell.value((a, b)).coeffs == {b: 1} and ell.value((b, a)).coeffs == {b: -1}
    )

    ws_path = _pipeline_workspace(tmp_path)
    code = cli_main(
        ["check", "ainfty", "--workspace", str(ws_path), "--maps", "bad"]
    )
    out = capsys.readouterr().out
    first, _, rest = out.partition("\n")
    witness_ok = code == 1 and first.startswith("FAIL ainfty")
    if witness_ok:
        record = json.loads(rest)
        witness_ok = bool(record["defect"]["entries"])

    ok = associative and jacobi and commutator_ok and witness_ok
    _report(
        "homotopy pipeline: the aa=a, ab=b algebra passes the associativity "
        "relations (arity<=3), its antisymmetrization passes the Jacobi "
        "relations, and a non-associative product fails with a printed "
        "counterexample",
        ok,
        f"associative={associative} jacobi={jacobi} "
        f"commutator={commutator_ok} witness={witness_ok}",
    )


def test_leading_slot_sign_convention_is_pinned(monkeypatch):
    monkeypatch.setattr(brace, "beta_parity", beta_without_leading_slot_term)
    check = CHECKS["brace-axiom"]
    # roughly one instance in twelve is sensitive to the leading-slot term,
    # so fix a seed whose 20-case window is known to contain sensitive ones
    master = SplitMix64(SEED + 1)
    subseeds = [master.next_u64() for _ in range(20)]
    flipped_failures = 0
    for subseed in subseeds:
        inst = check.gen(SplitMix64(subseed), CAPS)
        if not check.run(inst).passed:
            flipped_failures += 1
    _report(
        "sign convention sensitivity: dropping the leading-slot term from "
        "the insertion sign breaks the nesting axiom within 20 fuzz cases",
        flipped_failures >= 1,
        f"{flipped_failures}/20 flipped cases fail",
    )


def test_cli_reports_byte_deterministic_and_fmt_stable(tmp_path):
    args = ("fuzz", "--seed", "424242", "--cases", "2")
    first = run_cli(*args, cwd=tmp_path)
    second = run_cli(*args, cwd=tmp_path)
    deterministic = (
        first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.count("\n") == 24
    )

    ws_path = _pipeline_workspace(tmp_path)
    fmt1 = run_cli("fmt", "--workspace", str(ws_path), cwd=tmp_path)
    once = ws_path.read_bytes()
    fmt2 = run_cli("fmt", "--workspace", str(ws_path), cwd=tmp_path)
    stable = (
        fmt1.returncode == 0 and fmt2.returncode == 0
        and ws_path.read_bytes() == once
    )
    _report(
        "CLI determinism: identical seeds give byte-identical fuzz reports "
        "and workspace formatting is a byte-stable round trip",
        deterministic and stable,
        f"deterministic={deterministic} fmt_stable={stable}",
    )
