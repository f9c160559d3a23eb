"""Workspace files: a graded space plus named maps, stored as JSON.

Schema::

    {
      "space": {"basis": [{"name": "a", "degree": 0}, ...]},
      "maps": [
        {"name": "f", "arity": 2, "degree": 0,
         "entries": [{"in": ["a", "b"],
                      "out": [{"basis": "a", "coeff": "3/2"}]}]}
      ]
    }

Coefficients are rationals written as ``"p"`` or ``"p/q"``; unlisted
entries are zero.  Canonical form (what :meth:`Workspace.canonical_text`
emits) sorts maps by name, entries lexicographically by their "in" name
lists, output terms by basis name, and reduces every coefficient to
lowest terms with a positive denominator.  Duplicate "in" lists are
merged by summing their outputs, so formatting is idempotent.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InputError, WorkspaceError
from .multimap import GradedSpace, MultiMap, Scalar

_COEFF_RE = re.compile(r"[+-]?\d+(/\d+)?")


def parse_coeff(text) -> Scalar:
    """Parse a "p" or "p/q" coefficient string into an int or Fraction."""
    if not isinstance(text, str) or not _COEFF_RE.fullmatch(text):
        raise WorkspaceError(f"bad coefficient {text!r} (expected 'p' or 'p/q')")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise WorkspaceError(f"bad coefficient {text!r} (zero denominator)") from None
    except ValueError as exc:  # more digits than int() will convert
        raise WorkspaceError(f"bad coefficient: {exc}") from None
    return int(value) if value.denominator == 1 else value


def format_coeff(c: Scalar) -> str:
    value = Fraction(c)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _expect_keys(obj: Mapping, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise WorkspaceError(f"{where}: unknown keys {sorted(extra)}")


def _expect_int(value, where: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkspaceError(f"{where}: expected an integer, got {value!r}")
    return value


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise WorkspaceError(f"{where}: expected a nonempty string, got {value!r}")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise WorkspaceError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _expect_obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise WorkspaceError(f"{where}: expected an object, got {type(value).__name__}")
    return value


class Workspace:
    """A graded space together with an ordered collection of named maps."""

    __slots__ = ("space", "maps")

    def __init__(self, space: GradedSpace, maps: Iterable[tuple] = ()):
        self.space = space
        named = {}
        for name, m in dict(maps).items() if isinstance(maps, Mapping) else maps:
            if not isinstance(name, str) or not name:
                raise WorkspaceError(f"bad map name {name!r}")
            if name in named:
                raise WorkspaceError(f"duplicate map name {name!r}")
            if not isinstance(m, MultiMap) or m.space != space:
                raise WorkspaceError(
                    f"map {name!r} is not a MultiMap over the workspace space"
                )
            named[name] = m
        self.maps = named

    def get_map(self, name: str) -> MultiMap:
        try:
            return self.maps[name]
        except KeyError:
            known = ", ".join(sorted(self.maps)) or "(none)"
            raise WorkspaceError(
                f"unknown map {name!r} (workspace has: {known})"
            ) from None

    # ---------------------------------------------------------------- load

    @classmethod
    def from_obj(cls, obj) -> "Workspace":
        top = _expect_obj(obj, "workspace")
        _expect_keys(top, {"space", "maps"}, "workspace")
        if "space" not in top:
            raise WorkspaceError("workspace: missing 'space'")

        space_obj = _expect_obj(top["space"], "space")
        _expect_keys(space_obj, {"basis"}, "space")
        basis_list = _expect_list(space_obj.get("basis"), "space.basis")
        basis = []
        for i, item in enumerate(basis_list):
            where = f"space.basis[{i}]"
            entry = _expect_obj(item, where)
            _expect_keys(entry, {"name", "degree"}, where)
            basis.append(
                (
                    _expect_str(entry.get("name"), f"{where}.name"),
                    _expect_int(entry.get("degree"), f"{where}.degree"),
                )
            )
        try:
            space = GradedSpace(basis)
        except InputError as exc:
            raise WorkspaceError(f"space: {exc}") from None

        maps = []
        for j, item in enumerate(_expect_list(top.get("maps", []), "maps")):
            where = f"maps[{j}]"
            map_obj = _expect_obj(item, where)
            _expect_keys(map_obj, {"name", "arity", "degree", "entries"}, where)
            name = _expect_str(map_obj.get("name"), f"{where}.name")
            maps.append((name, _parse_map(space, map_obj, f"map {name!r}")))
        return cls(space, maps)

    @classmethod
    def loads(cls, text: str) -> "Workspace":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # besides JSONDecodeError: an integer with more digits than int()
            # will convert, or nesting deeper than the parser can follow
            raise WorkspaceError(f"invalid JSON: {exc}") from None
        return cls.from_obj(obj)

    @classmethod
    def load(cls, path) -> "Workspace":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise WorkspaceError(f"cannot read {path}: {exc}") from None
        try:
            return cls.loads(text)
        except WorkspaceError as exc:
            raise WorkspaceError(f"{path}: {exc}") from None

    # ---------------------------------------------------------------- dump

    def to_obj(self) -> dict:
        return {
            "space": {
                "basis": [
                    {"name": name, "degree": degree}
                    for name, degree in self.space.basis
                ]
            },
            "maps": [
                map_to_obj(self.maps[name], name=name) for name in sorted(self.maps)
            ],
        }

    def canonical_text(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"

    def save(self, path) -> None:
        try:
            Path(path).write_text(self.canonical_text(), encoding="utf-8")
        except OSError as exc:
            raise WorkspaceError(f"cannot write {path}: {exc}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Workspace):
            return NotImplemented
        return self.space == other.space and self.maps == other.maps

    __hash__ = None

    def __repr__(self) -> str:
        return f"Workspace(dim={self.space.dim}, maps={sorted(self.maps)})"


def _parse_map(space: GradedSpace, obj: Mapping, where: str) -> MultiMap:
    arity = _expect_int(obj.get("arity"), f"{where}.arity")
    degree = _expect_int(obj.get("degree"), f"{where}.degree")
    entries: dict = {}
    for i, item in enumerate(_expect_list(obj.get("entries"), f"{where}.entries")):
        ewhere = f"{where}.entries[{i}]"
        entry = _expect_obj(item, ewhere)
        _expect_keys(entry, {"in", "out"}, ewhere)
        in_names = [
            _expect_str(nm, f"{ewhere}.in")
            for nm in _expect_list(entry.get("in"), f"{ewhere}.in")
        ]
        if len(in_names) != arity:
            raise WorkspaceError(
                f"{ewhere}: 'in' lists {len(in_names)} names, arity is {arity}"
            )
        ewhere = f"{where}: entry {in_names}"
        try:
            key = tuple(space.index(nm) for nm in in_names)
        except InputError as exc:
            raise WorkspaceError(f"{ewhere}: {exc}") from None
        out: dict = {}
        for term in _expect_list(entry.get("out"), f"{ewhere}: out"):
            term_obj = _expect_obj(term, f"{ewhere}: out term")
            _expect_keys(term_obj, {"basis", "coeff"}, f"{ewhere}: out term")
            basis_name = _expect_str(term_obj.get("basis"), f"{ewhere}: out basis")
            try:
                idx = space.index(basis_name)
            except InputError as exc:
                raise WorkspaceError(f"{ewhere}: {exc}") from None
            out[idx] = out.get(idx, 0) + parse_coeff(term_obj.get("coeff"))
        if key in entries:
            merged = dict(entries[key])
            for idx, c in out.items():
                merged[idx] = merged.get(idx, 0) + c
            entries[key] = merged
        else:
            entries[key] = out
    try:
        return MultiMap(space, arity, degree, entries)
    except InputError as exc:
        raise WorkspaceError(f"{where}: {exc}") from None


def map_to_obj(m: MultiMap, name: str | None = None) -> dict:
    """Serialize one map in canonical order (entries sorted by "in" names)."""
    names = m.space.names
    entry_items = sorted(
        m.entries.items(), key=lambda kv: tuple(names[i] for i in kv[0])
    )
    entries = []
    for key, table in entry_items:
        out = [
            {"basis": names[i], "coeff": format_coeff(c)}
            for i, c in sorted(table.items(), key=lambda ic: names[ic[0]])
        ]
        entries.append({"in": [names[i] for i in key], "out": out})
    obj: dict = {} if name is None else {"name": name}
    obj.update({"arity": m.arity, "degree": m.degree, "entries": entries})
    return obj
