"""Command-line interface: verbs, exit codes, byte determinism."""

import json
import subprocess
import sys

import pytest

from bracekit.multimap import is_antisymmetric
from bracekit.workspace import Workspace
from helpers import cli_env

WS = {
    "space": {"basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0}]},
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


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "bracekit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=300,
    )


@pytest.fixture
def ws_path(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(WS), encoding="utf-8")
    return path


class TestCheckVerb:
    def test_pass_line_and_exit_zero(self, tmp_path, ws_path):
        result = run_cli(
            "check", "ainfty", "--workspace", str(ws_path), "--maps", "mu",
            "--max-arity", "3", cwd=tmp_path,
        )
        assert result.returncode == 0
        assert result.stdout == "PASS ainfty dim=2 arities=2 max_arity=3\n"

    def test_fail_prints_counterexample_and_exit_one(self, tmp_path, ws_path):
        result = run_cli(
            "check", "ainfty", "--workspace", str(ws_path), "--maps", "bad",
            cwd=tmp_path,
        )
        assert result.returncode == 1
        first, _, rest = result.stdout.partition("\n")
        assert first.startswith("FAIL ainfty ")
        record = json.loads(rest)
        assert record["defect_arity"] == 3
        assert record["defect"]["entries"]
        Workspace.from_obj(record["workspace"])

    def test_brace_axiom_on_named_maps(self, tmp_path, ws_path):
        result = run_cli(
            "check", "brace-axiom", "--workspace", str(ws_path),
            "--x", "mu", "--xs", "mu", "--ys", "mu,bad", cwd=tmp_path,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("PASS brace-axiom dim=2 N=2 n=1 r=2")

    def test_thm2_on_named_maps(self, tmp_path, ws_path):
        result = run_cli(
            "check", "thm2", "--workspace", str(ws_path), "--f", "mu",
            "--gs", "mu", cwd=tmp_path,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("PASS thm2 ")

    def test_combinatorial_checks_need_no_workspace(self, tmp_path):
        result = run_cli(
            "check", "lemma44", "--sigma", "2,1", "--v", "1,1", "--w", "1,0",
            cwd=tmp_path,
        )
        assert result.returncode == 0
        result = run_cli(
            "check", "lemma42", "--blocks", "2,1", "--degrees", "0,1,1",
            cwd=tmp_path,
        )
        assert result.returncode == 0
        result = run_cli(
            "check", "lemma43", "--sigma", "2,1", "--pi", "4,1,3,2,5",
            "--blocks", "2,1", "--slots", "1,0,1", "--degrees", "0,1,0,1,1",
            cwd=tmp_path,
        )
        assert result.returncode == 0

    def test_corollary_refuses_a_non_associative_family(self, tmp_path, ws_path):
        result = run_cli(
            "check", "corollary", "--workspace", str(ws_path), "--maps", "bad",
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "associativity relations" in result.stderr
        assert result.stdout == ""

    def test_unknown_map_is_input_error(self, tmp_path, ws_path):
        result = run_cli(
            "check", "thm2", "--workspace", str(ws_path), "--f", "nope",
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "unknown map 'nope'" in result.stderr
        assert result.stdout == ""

    def test_unknown_check_name_is_input_error(self, tmp_path, ws_path):
        result = run_cli(
            "check", "nonsense", "--workspace", str(ws_path), cwd=tmp_path
        )
        assert result.returncode == 2

    def test_malformed_workspace_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        result = run_cli(
            "check", "thm2", "--workspace", str(path), "--f", "f", cwd=tmp_path
        )
        assert result.returncode == 2
        assert "invalid JSON" in result.stderr

    def test_homogeneity_violation_names_entry(self, tmp_path):
        broken = {
            "space": {
                "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 1}]
            },
            "maps": [
                {
                    "name": "f",
                    "arity": 1,
                    "degree": 0,
                    "entries": [{"in": ["a"], "out": [{"basis": "b", "coeff": "1"}]}],
                }
            ],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        result = run_cli(
            "check", "lemma41", "--workspace", str(path), "--f", "f", cwd=tmp_path
        )
        assert result.returncode == 2
        assert "map 'f'" in result.stderr and "homogeneity" in result.stderr


class TestFuzzVerb:
    def test_identical_seeds_are_byte_identical(self, tmp_path):
        args = ("fuzz", "--seed", "99", "--cases", "3")
        first = run_cli(*args, cwd=tmp_path)
        second = run_cli(*args, cwd=tmp_path)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.count("\n") == 3 * 12

    def test_different_seeds_differ(self, tmp_path):
        a = run_cli("fuzz", "--seed", "1", "--cases", "2", cwd=tmp_path)
        b = run_cli("fuzz", "--seed", "2", "--cases", "2", cwd=tmp_path)
        assert a.stdout != b.stdout

    def test_report_line_shape(self, tmp_path):
        result = run_cli(
            "fuzz", "--seed", "5", "--cases", "1", "--checks", "lemma42",
            cwd=tmp_path,
        )
        line = result.stdout.strip()
        tokens = line.split()
        assert tokens[0] == "PASS"
        assert tokens[1] == "lemma42"
        assert tokens[2] == "seed=5"
        assert tokens[3] == "case=0"
        assert all("=" in t for t in tokens[2:])

    def test_zero_cases_empty_report(self, tmp_path):
        result = run_cli("fuzz", "--cases", "0", cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout == ""

    def test_selected_checks_only(self, tmp_path):
        result = run_cli(
            "fuzz", "--seed", "3", "--cases", "2", "--checks", "lemma44,lemma42",
            cwd=tmp_path,
        )
        names = [line.split()[1] for line in result.stdout.splitlines()]
        assert names == ["lemma44", "lemma42", "lemma44", "lemma42"]

    def test_unknown_check_is_input_error(self, tmp_path):
        result = run_cli("fuzz", "--checks", "mystery", cwd=tmp_path)
        assert result.returncode == 2
        assert "unknown check" in result.stderr

    def test_bad_degree_range_is_input_error(self, tmp_path):
        result = run_cli("fuzz", "--degree-range", "2", cwd=tmp_path)
        assert result.returncode == 2

    def test_invalid_caps_are_input_error(self, tmp_path):
        result = run_cli("fuzz", "--max-dim", "0", "--cases", "1", cwd=tmp_path)
        assert result.returncode == 2

    def test_closed_pipe_exits_141_without_traceback(self, tmp_path):
        # far more output than a pipe buffers, so the writer is still
        # running when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "bracekit", "fuzz", "--seed", "7",
             "--cases", "3000", "--checks", "lemma44"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=tmp_path,
            env=cli_env(),
        )
        assert proc.stdout.readline().startswith(b"PASS lemma44 seed=7 case=0 ")
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 141
        assert stderr == b""

    def test_caps_flags_reach_generators(self, tmp_path):
        result = run_cli(
            "fuzz", "--seed", "8", "--cases", "3", "--checks", "brace-axiom",
            "--max-dim", "1", cwd=tmp_path,
        )
        assert result.returncode == 0
        for line in result.stdout.splitlines():
            assert "dim=1" in line


class TestAntisymmetrizeVerb:
    def test_writes_antisymmetric_map(self, tmp_path, ws_path):
        out = tmp_path / "as.json"
        result = run_cli(
            "antisymmetrize", "--workspace", str(ws_path), "--map", "mu",
            "--out", str(out), cwd=tmp_path,
        )
        assert result.returncode == 0
        ws = Workspace.load(out)
        m = ws.get_map("mu_as")
        assert is_antisymmetric(m)
        # commutator of mu: [a,b] = ab - ba = b
        a, b = ws.space.index("a"), ws.space.index("b")
        assert m.value((a, b)).coeffs == {b: 1}
        assert m.value((b, a)).coeffs == {b: -1}

    def test_custom_name(self, tmp_path, ws_path):
        out = tmp_path / "as.json"
        run_cli(
            "antisymmetrize", "--workspace", str(ws_path), "--map", "mu",
            "--out", str(out), "--name", "ell", cwd=tmp_path,
        )
        assert "ell" in Workspace.load(out).maps

    def test_missing_map_is_input_error(self, tmp_path, ws_path):
        result = run_cli(
            "antisymmetrize", "--workspace", str(ws_path), "--map", "zz",
            "--out", str(tmp_path / "x.json"), cwd=tmp_path,
        )
        assert result.returncode == 2

    def test_arity_over_the_limit_is_refused(self, tmp_path):
        ws = json.loads(json.dumps(WS))
        ws["maps"].append({
            "name": "big",
            "arity": 9,
            "degree": 0,
            "entries": [{"in": ["a"] * 9, "out": [{"basis": "a", "coeff": "1"}]}],
        })
        path = tmp_path / "big.json"
        path.write_text(json.dumps(ws), encoding="utf-8")
        out = tmp_path / "x.json"
        result = run_cli(
            "antisymmetrize", "--workspace", str(path), "--map", "big",
            "--out", str(out), cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "exceeds cap 8" in result.stderr
        assert not out.exists()


class TestFmtVerb:
    def test_round_trip_is_byte_stable(self, tmp_path, ws_path):
        result = run_cli("fmt", "--workspace", str(ws_path), cwd=tmp_path)
        assert result.returncode == 0
        once = ws_path.read_bytes()
        run_cli("fmt", "--workspace", str(ws_path), cwd=tmp_path)
        assert ws_path.read_bytes() == once

    def test_fmt_to_out_path(self, tmp_path, ws_path):
        out = tmp_path / "canon.json"
        run_cli(
            "fmt", "--workspace", str(ws_path), "--out", str(out), cwd=tmp_path
        )
        assert Workspace.load(out) == Workspace.load(ws_path)
        # canonical order puts map 'bad' before 'mu'
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert [m["name"] for m in obj["maps"]] == ["bad", "mu"]

    def test_fmt_rejects_bad_file(self, tmp_path):
        path = tmp_path / "nope.json"
        result = run_cli("fmt", "--workspace", str(path), cwd=tmp_path)
        assert result.returncode == 2


def test_main_is_importable_and_returns_int(tmp_path, capsys):
    from bracekit.cli import main

    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(WS), encoding="utf-8")
    code = main(
        ["check", "thm2", "--workspace", str(ws), "--f", "mu", "--gs", "bad"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS thm2 ")
