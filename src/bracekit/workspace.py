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
merged by summing their outputs, so formatting is idempotent.  The
canonical text is exactly ``json.dumps(ws.to_obj(), indent=2)`` plus a
newline, and :meth:`Workspace.save` replaces its target atomically.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InputError, WorkspaceError
from .multimap import GradedSpace, MultiMap, Scalar

_COEFF_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_ENTRY_KEYS, _TERM_KEYS = frozenset({"in", "out"}), frozenset({"basis", "coeff"})
_PADS = tuple("\n" + "  " * d for d in range(8))  # newline, indent of depth d


def parse_coeff(text) -> Scalar:
    """Parse a "p" or "p/q" coefficient string into an int or Fraction;
    "p" is read by ``int()``, and only "p/q" builds a Fraction.

    >>> parse_coeff("-12"), parse_coeff("4/6"), parse_coeff("6/3")
    (-12, Fraction(2, 3), 2)
    """
    if not isinstance(text, str) or not _COEFF_RE.fullmatch(text):
        raise WorkspaceError(f"bad coefficient {text!r} (expected 'p' or 'p/q')")
    num, _, den = text.partition("/")
    try:
        value = Fraction(int(num), int(den)) if den else int(num)
    except ZeroDivisionError:
        raise WorkspaceError(f"bad coefficient {text!r} (zero denominator)") from None
    except ValueError as exc:  # more digits than int() will convert
        raise WorkspaceError(f"bad coefficient: {exc}") from None
    return int(value) if value.denominator == 1 else value


def format_coeff(c: Scalar) -> str:
    """A coefficient as "p" or "p/q" in lowest terms; an int is its str().

    >>> format_coeff(-12), format_coeff(Fraction(4, 6)), format_coeff(Fraction(6, 3))
    ('-12', '2/3', '2')
    """
    value = c if type(c) is int else Fraction(c)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _expect_int(value, where: str) -> int:
    if type(value) is not int:  # graded._ints' rule: a bool is not an int
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


def _expect_obj(value, where: str, allowed: set) -> dict:
    if not isinstance(value, dict):
        raise WorkspaceError(f"{where}: expected an object, got {type(value).__name__}")
    extra = set(value) - allowed
    if extra:
        raise WorkspaceError(f"{where}: unknown keys {sorted(extra)}")
    return value


def _indices(space: GradedSpace, names, where: str) -> tuple:
    try:
        return tuple(map(space.index, names))
    except InputError as exc:
        raise WorkspaceError(f"{where}: {exc}") from None


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
        top = _expect_obj(obj, "workspace", {"space", "maps"})
        if "space" not in top:
            raise WorkspaceError("workspace: missing 'space'")

        space_obj = _expect_obj(top["space"], "space", {"basis"})
        basis_list = _expect_list(space_obj.get("basis"), "space.basis")
        basis = []
        for i, item in enumerate(basis_list):
            where = f"space.basis[{i}]"
            entry = _expect_obj(item, where, {"name", "degree"})
            name = _expect_str(entry.get("name"), f"{where}.name")
            basis.append((name, _expect_int(entry.get("degree"), f"{where}.degree")))
        try:
            space = GradedSpace(basis)
        except InputError as exc:
            raise WorkspaceError(f"space: {exc}") from None

        maps = []
        for j, item in enumerate(_expect_list(top.get("maps", []), "maps")):
            where = f"maps[{j}]"
            map_obj = _expect_obj(item, where, {"name", "arity", "degree", "entries"})
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
        basis = [{"name": name, "degree": degree} for name, degree in self.space.basis]
        maps = [map_to_obj(self.maps[name], name=name) for name in sorted(self.maps)]
        return {"space": {"basis": basis}, "maps": maps}

    def canonical_text(self) -> str:
        """``json.dumps(self.to_obj(), indent=2)`` plus a newline, byte for
        byte, written for the fixed schema of :meth:`to_obj`."""
        obj, q = self.to_obj(), encode_basestring_ascii
        n1, n2, n3, n4, n5, n6, n7 = _PADS[1:]
        maps = []
        for m in obj["maps"]:
            entries = []
            for e in m["entries"]:
                ins = _array([q(name) for name in e["in"]], 5)
                out = _array([f'{{{n7}"basis": {q(t["basis"])},{n7}"coeff": '
                               f'{q(t["coeff"])}{n6}}}' for t in e["out"]], 5)
                entries.append(f'{{{n5}"in": {ins},{n5}"out": {out}{n4}}}')
            maps.append(f'{{{n3}"name": {q(m["name"])},{n3}"arity": {m["arity"]},'
                        f'{n3}"degree": {m["degree"]},'
                        f'{n3}"entries": {_array(entries, 3)}{n2}}}')
        basis = [f'{{{n4}"name": {q(b["name"])},{n4}"degree": {b["degree"]}{n3}}}'
                 for b in obj["space"]["basis"]]
        return (f'{{{n1}"space": {{{n2}"basis": {_array(basis, 2)}{n1}}},'
                f'{n1}"maps": {_array(maps, 1)}\n}}\n')

    def save(self, path) -> None:
        """Write a temporary file beside ``path``, then rename it over it with
        the same permission bits; a device, as /dev/stdout, is written in place."""
        text = self.canonical_text()
        try:
            if os.path.exists(path) and not os.path.isfile(path):
                Path(path).write_text(text, encoding="utf-8")
                return
            target = os.path.realpath(path)
            tmp = f"{target}.{os.getpid()}.tmp"
            try:
                Path(tmp).write_text(text, encoding="utf-8")
                if os.path.exists(target):
                    os.chmod(tmp, os.stat(target).st_mode & 0o7777)
                os.replace(tmp, target)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
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
    """One pass over the entries; context strings are built only to raise."""
    arity = _expect_int(obj.get("arity"), f"{where}.arity")
    degree = _expect_int(obj.get("degree"), f"{where}.degree")
    index = space._index
    entries: dict = {}
    for i, entry in enumerate(_expect_list(obj.get("entries"), f"{where}.entries")):
        if not isinstance(entry, dict) or not entry.keys() <= _ENTRY_KEYS:
            _expect_obj(entry, f"{where}.entries[{i}]", _ENTRY_KEYS)
        names = entry.get("in")
        try:
            key = tuple([index[nm] for nm in names])
        except (KeyError, TypeError):  # an unknown or unhashable name, or no list
            key = None
        if not isinstance(names, list) or key is None or len(key) != arity:  # raises
            ewhere = f"{where}.entries[{i}]"
            for nm in _expect_list(names, f"{ewhere}.in"):
                _expect_str(nm, f"{ewhere}.in")
            if len(names) != arity:
                raise WorkspaceError(
                    f"{ewhere}: 'in' lists {len(names)} names, arity is {arity}"
                )
            _indices(space, names, f"{where}: entry {names}")
        out = entries.setdefault(key, {})
        terms = entry.get("out")
        if not isinstance(terms, list):
            _expect_list(terms, f"{where}: entry {names}: out")
        for term in terms:
            if not isinstance(term, dict) or not term.keys() <= _TERM_KEYS:
                _expect_obj(term, f"{where}: entry {names}: out term", _TERM_KEYS)
            name = term.get("basis")
            if not isinstance(name, str) or name not in index:  # raises
                _expect_str(name, f"{where}: entry {names}: out basis")
                _indices(space, [name], f"{where}: entry {names}")
            idx = index[name]
            out[idx] = out.get(idx, 0) + parse_coeff(term.get("coeff"))
    try:
        return MultiMap(space, arity, degree, entries)
    except InputError as exc:
        raise WorkspaceError(f"{where}: {exc}") from None


def _array(items: list, depth: int) -> str:
    """Written items laid out as json.dumps(..., indent=2) does at ``depth``."""
    if not items:
        return "[]"
    pad = _PADS[depth + 1]
    return f"[{pad}" + f",{pad}".join(items) + f"{_PADS[depth]}]"


def map_to_obj(m: MultiMap, name: str | None = None) -> dict:
    """Serialize one map in canonical order: entries sorted by their "in"
    names, output terms by basis name."""
    names, tables = m.space.names, m.entries
    if list(names) == sorted(names):  # index order is name order
        keys, rank = sorted(tables), None
    else:  # rank[i] is the place of names[i] in name order
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = sorted(range(len(names)), key=order.__getitem__).__getitem__
        keys = [key for _, key in sorted((tuple(map(rank, k)), k) for k in tables)]
    entries = []
    for key in keys:
        table = tables[key]
        out = [{"basis": names[i], "coeff": format_coeff(table[i])}
               for i in sorted(table, key=rank)]
        entries.append({"in": [names[i] for i in key], "out": out})
    head = {} if name is None else {"name": name}
    return {**head, "arity": m.arity, "degree": m.degree, "entries": entries}
