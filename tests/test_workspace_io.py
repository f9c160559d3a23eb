"""Workspace save and load: canonical bytes against the json.dumps oracle,
atomic replacement of the target, and fmt on a large workspace."""

import builtins
import errno
import io
import itertools
import json
import os
import random
import stat
from fractions import Fraction

import pytest

from bracekit.errors import WorkspaceError
from bracekit.multimap import GradedSpace, MultiMap
from bracekit.workspace import Workspace
from helpers import run_cli

# names a writer has to escape: quotes, backslashes, control characters,
# non-ASCII letters in and beyond the BMP, and JSON-looking text
ODD_NAMES = ('q"t', "b\\s", "nl\n", "tab\t", "nul\x00", "é", "ü2", "𝔤", "\u2028", "[]")
PLAIN_NAMES = ("a", "b", "x1", "E00", "mu", "Z")


def oracle(ws: Workspace) -> str:
    return json.dumps(ws.to_obj(), indent=2) + "\n"


def random_coeff(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((-3, -1, 1, 2, 7))
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randrange(10**20, 10**40)
    num = rng.choice((-1, 1)) * rng.randrange(1, 10**6)
    return Fraction(num, rng.randrange(2, 10**6 if kind == 2 else 10))


def random_workspace(rng) -> Workspace:
    dim = rng.randint(1, 4)
    pool = list(PLAIN_NAMES + ODD_NAMES)
    rng.shuffle(pool)
    space = GradedSpace((name, rng.randint(-3, 3)) for name in pool[:dim])
    maps = []
    for name in rng.sample(pool, rng.randint(0, 3)):
        arity = rng.randint(1, 3)
        degree = rng.randint(-4, 4)
        entries = {}
        for key in itertools.product(range(dim), repeat=arity):
            target = degree + sum(space.degrees[i] for i in key)
            outs = [j for j in range(dim) if space.degrees[j] == target]
            if outs and rng.random() < 0.5:
                table = {j: random_coeff(rng) for j in outs if rng.random() < 0.7}
                entries[key] = table
        maps.append((name, MultiMap(space, arity, degree, entries)))
    return Workspace(space, maps)


class TestCanonicalBytes:
    def test_seeded_workspaces_match_the_oracle(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(300):
            ws = random_workspace(rng)
            text = ws.canonical_text()
            assert text == oracle(ws)
            assert Workspace.loads(text) == ws
            names = [n for n, _ in ws.space.basis] + list(ws.maps)
            tables = [t for m in ws.maps.values() for t in m.entries.values()]
            coeffs = [c for t in tables for c in t.values()]
            seen.update(
                {
                    "non-ascii": any(not n.isascii() for n in names),
                    "quote": any('"' in n for n in names),
                    "backslash": any("\\" in n for n in names),
                    "no maps": not ws.maps,
                    "map without entries": any(m.is_zero() for m in ws.maps.values()),
                    "negative degree": min(ws.space.degrees) < 0
                    or any(m.degree < 0 for m in ws.maps.values()),
                    "fraction": any(isinstance(c, Fraction) for c in coeffs),
                    "negative": any(c < 0 for c in coeffs),
                    "large int": any(type(c) is int and c > 10**18 for c in coeffs),
                }.items()
            )
        assert {k for k, v in seen if v} == {k for k, _ in seen}

    def test_edge_workspaces_match_the_oracle(self):
        space = GradedSpace([("a", 0)])
        for ws in (
            Workspace(space),
            Workspace(space, [("f", MultiMap(space, 2, 0, {}))]),
            Workspace(space, [("f", MultiMap(space, 1, 0, {(0,): {0: True}}))]),
        ):
            assert ws.canonical_text() == oracle(ws)


# ------------------------------------------------------------ atomic save


class FailingFile:
    """A file whose first write stores half of the text, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def ws():
    space = GradedSpace([("a", 0), ("b", 1)])
    entries = {(0, 1): {0: Fraction(3, 2)}, (1, 1): {1: -2}}
    return Workspace(space, [("f", MultiMap(space, 2, -1, entries))])


def test_failed_write_keeps_the_target_and_no_temporary(tmp_path, monkeypatch, ws):
    path = tmp_path / "ws.json"
    original = json.dumps(ws.to_obj()).encode()  # valid, not canonical
    path.write_bytes(original)
    before = sorted(os.listdir(tmp_path))
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return FailingFile(f) if set(mode) & set("wxa") else f

    with monkeypatch.context() as patch:
        patch.setattr(io, "open", failing_open)
        patch.setattr(builtins, "open", failing_open)
        with pytest.raises(WorkspaceError) as exc:
            ws.save(path)
    assert str(exc.value).startswith(f"cannot write {path}: ")
    assert "No space left on device" in str(exc.value)
    assert path.read_bytes() == original
    assert sorted(os.listdir(tmp_path)) == before


def test_failed_rename_leaves_no_temporary(tmp_path, monkeypatch, ws):
    path = tmp_path / "ws.json"
    path.write_bytes(b"{}")

    def failing_replace(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(WorkspaceError, match=f"cannot write {path}: "):
        ws.save(path)
    assert os.listdir(tmp_path) == ["ws.json"]
    assert path.read_bytes() == b"{}"


def test_save_keeps_the_permission_bits(tmp_path, ws):
    path = tmp_path / "ws.json"
    path.write_text("{}", encoding="utf-8")
    path.chmod(0o640)
    ws.save(path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text(encoding="utf-8") == oracle(ws)


def test_new_file_gets_the_default_mode(tmp_path, ws):
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    ws.save(tmp_path / "ws.json")
    assert (tmp_path / "ws.json").stat().st_mode == plain.stat().st_mode


def test_save_through_a_symlink_rewrites_its_target(tmp_path, ws):
    real = tmp_path / "real.json"
    real.write_text("{}", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    ws.save(link)
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == oracle(ws)
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


def test_fmt_to_dev_stdout_prints_the_canonical_text(tmp_path, ws):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws.to_obj()), encoding="utf-8")
    result = run_cli(
        "fmt", "--workspace", str(path), "--out", "/dev/stdout", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == oracle(ws)


def test_fmt_of_a_large_workspace_is_the_oracle_and_idempotent(tmp_path):
    rng = random.Random(5)
    basis = [("E00", 0), ("E01", 1), ("E10", -1), ("E11", 0), ('é"\\', 2)]
    space = GradedSpace(basis)
    maps = []
    for n, arity in enumerate((2, 3, 4, 5)):
        entries = {}
        for key in itertools.product(range(space.dim), repeat=arity):
            target = sum(space.degrees[i] for i in key)
            outs = [j for j in range(space.dim) if space.degrees[j] == target]
            if outs and rng.random() < 0.8:
                entries[key] = {j: random_coeff(rng) for j in outs}
        maps.append((f"m{n}", MultiMap(space, arity, 0, entries)))
    ws = Workspace(space, maps)
    obj = ws.to_obj()
    rng.shuffle(obj["maps"])
    for m in obj["maps"]:
        rng.shuffle(m["entries"])
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert path.stat().st_size >= 150_000

    assert run_cli("fmt", "--workspace", str(path), cwd=tmp_path).returncode == 0
    once = path.read_bytes()
    assert once == oracle(ws).encode()
    assert run_cli("fmt", "--workspace", str(path), cwd=tmp_path).returncode == 0
    assert path.read_bytes() == once
    assert os.listdir(tmp_path) == ["big.json"]
