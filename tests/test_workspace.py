"""Workspace JSON loading, validation, and canonical serialization."""

import copy
import json
from fractions import Fraction

import pytest

from bracekit.errors import WorkspaceError
from bracekit.multimap import GradedSpace, MultiMap
from bracekit.workspace import Workspace, format_coeff, map_to_obj, parse_coeff

MINIMAL = {"space": {"basis": [{"name": "e", "degree": 0}]}}

TWO_MAPS = {
    "space": {"basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 1}]},
    "maps": [
        {
            "name": "mu",
            "arity": 2,
            "degree": 0,
            "entries": [
                {"in": ["a", "a"], "out": [{"basis": "a", "coeff": "1"}]},
                {"in": ["a", "b"], "out": [{"basis": "b", "coeff": "3/2"}]},
            ],
        },
        {
            "name": "d",
            "arity": 1,
            "degree": -1,
            "entries": [{"in": ["b"], "out": [{"basis": "a", "coeff": "-2"}]}],
        },
    ],
}


class TestParseCoeff:
    def test_integers_and_fractions(self):
        assert parse_coeff("3") == 3
        assert isinstance(parse_coeff("3"), int)
        assert parse_coeff("-7") == -7
        assert parse_coeff("+2") == 2
        assert parse_coeff("3/2") == Fraction(3, 2)
        # not in lowest terms is accepted on input, canonicalized on output
        assert parse_coeff("4/6") == Fraction(2, 3)
        assert parse_coeff("6/3") == 2
        assert isinstance(parse_coeff("6/3"), int)

    @pytest.mark.parametrize("bad", ["", "1.5", "a", "3/-2", "1/0", "2 / 3", None, 3])
    def test_rejects_garbage(self, bad):
        with pytest.raises(WorkspaceError):
            parse_coeff(bad)

    def test_format_lowest_terms(self):
        assert format_coeff(Fraction(4, 6)) == "2/3"
        assert format_coeff(Fraction(-4, 6)) == "-2/3"
        assert format_coeff(5) == "5"
        assert format_coeff(Fraction(8, 4)) == "2"


class TestLoad:
    def test_minimal_workspace(self):
        ws = Workspace.from_obj(MINIMAL)
        assert ws.space.dim == 1
        assert ws.maps == {}

    def test_maps_parsed(self):
        ws = Workspace.from_obj(TWO_MAPS)
        mu = ws.get_map("mu")
        assert mu.arity == 2 and mu.degree == 0
        assert mu.value((0, 1)).coeffs == {1: Fraction(3, 2)}
        d = ws.get_map("d")
        assert d.value((1,)).coeffs == {0: -2}

    def test_unknown_map_name(self):
        ws = Workspace.from_obj(TWO_MAPS)
        with pytest.raises(WorkspaceError, match="unknown map 'nope'"):
            ws.get_map("nope")

    def test_homogeneity_violation_names_entry(self):
        bad = {
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
        with pytest.raises(WorkspaceError) as exc:
            Workspace.from_obj(bad)
        message = str(exc.value)
        assert "map 'f'" in message
        assert "homogeneity" in message

    def test_unknown_basis_name_in_entry(self):
        bad = {
            "space": {"basis": [{"name": "a", "degree": 0}]},
            "maps": [
                {
                    "name": "f",
                    "arity": 1,
                    "degree": 0,
                    "entries": [{"in": ["q"], "out": []}],
                }
            ],
        }
        with pytest.raises(WorkspaceError, match=r"entry \['q'\].*unknown basis"):
            Workspace.from_obj(bad)

    def test_in_length_must_match_arity(self):
        bad = {
            "space": {"basis": [{"name": "a", "degree": 0}]},
            "maps": [
                {
                    "name": "f",
                    "arity": 2,
                    "degree": 0,
                    "entries": [{"in": ["a"], "out": []}],
                }
            ],
        }
        with pytest.raises(WorkspaceError, match="arity is 2"):
            Workspace.from_obj(bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(WorkspaceError, match="unknown keys"):
            Workspace.from_obj({**MINIMAL, "extra": 1})
        bad_map = {
            **TWO_MAPS,
            "maps": [{**TWO_MAPS["maps"][0], "color": "red"}],
        }
        with pytest.raises(WorkspaceError, match="unknown keys"):
            Workspace.from_obj(bad_map)

    def test_bool_is_not_a_degree(self):
        bad = {"space": {"basis": [{"name": "a", "degree": True}]}}
        with pytest.raises(WorkspaceError, match="expected an integer"):
            Workspace.from_obj(bad)

    def test_duplicate_map_names(self):
        dup = {
            "space": {"basis": [{"name": "a", "degree": 0}]},
            "maps": [
                {"name": "f", "arity": 1, "degree": 0, "entries": []},
                {"name": "f", "arity": 2, "degree": 0, "entries": []},
            ],
        }
        with pytest.raises(WorkspaceError, match="duplicate map name"):
            Workspace.from_obj(dup)

    def test_duplicate_space_names(self):
        dup = {
            "space": {
                "basis": [{"name": "a", "degree": 0}, {"name": "a", "degree": 1}]
            }
        }
        with pytest.raises(WorkspaceError, match="space:"):
            Workspace.from_obj(dup)

    def test_invalid_json_text(self):
        with pytest.raises(WorkspaceError, match="invalid JSON"):
            Workspace.loads("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkspaceError, match="cannot read"):
            Workspace.load(tmp_path / "absent.json")


class TestCanonicalForm:
    def test_round_trip_identity(self):
        ws = Workspace.from_obj(TWO_MAPS)
        again = Workspace.loads(ws.canonical_text())
        assert again == ws

    def test_canonical_text_is_idempotent(self):
        text = Workspace.from_obj(TWO_MAPS).canonical_text()
        assert Workspace.loads(text).canonical_text() == text

    def test_maps_sorted_by_name(self):
        obj = Workspace.from_obj(TWO_MAPS).to_obj()
        assert [m["name"] for m in obj["maps"]] == ["d", "mu"]

    def test_entries_sorted_by_input_names(self):
        scrambled = {
            "space": {
                "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0}]
            },
            "maps": [
                {
                    "name": "f",
                    "arity": 1,
                    "degree": 0,
                    "entries": [
                        {"in": ["b"], "out": [{"basis": "a", "coeff": "1"}]},
                        {"in": ["a"], "out": [{"basis": "b", "coeff": "1"}]},
                    ],
                }
            ],
        }
        obj = Workspace.from_obj(scrambled).to_obj()
        assert [e["in"] for e in obj["maps"][0]["entries"]] == [["a"], ["b"]]

    def test_duplicate_entries_merge_and_cancel(self):
        doubled = {
            "space": {"basis": [{"name": "a", "degree": 0}]},
            "maps": [
                {
                    "name": "f",
                    "arity": 1,
                    "degree": 0,
                    "entries": [
                        {"in": ["a"], "out": [{"basis": "a", "coeff": "2"}]},
                        {"in": ["a"], "out": [{"basis": "a", "coeff": "-2"}]},
                    ],
                }
            ],
        }
        ws = Workspace.from_obj(doubled)
        assert ws.get_map("f").is_zero()
        assert ws.to_obj()["maps"][0]["entries"] == []

    def test_coefficients_canonicalized(self):
        raw = {
            "space": {"basis": [{"name": "a", "degree": 0}]},
            "maps": [
                {
                    "name": "f",
                    "arity": 1,
                    "degree": 0,
                    "entries": [{"in": ["a"], "out": [{"basis": "a", "coeff": "4/6"}]}],
                }
            ],
        }
        text = Workspace.from_obj(raw).canonical_text()
        assert '"coeff": "2/3"' in text

    def test_save_load_round_trip(self, tmp_path):
        ws = Workspace.from_obj(TWO_MAPS)
        path = tmp_path / "ws.json"
        ws.save(path)
        assert Workspace.load(path) == ws
        # a second save writes identical bytes
        first = path.read_bytes()
        Workspace.load(path).save(path)
        assert path.read_bytes() == first

    def test_canonical_text_parses_as_json(self):
        obj = json.loads(Workspace.from_obj(TWO_MAPS).canonical_text())
        assert set(obj) == {"space", "maps"}


class TestMapToObj:
    def test_anonymous_map(self):
        space = GradedSpace([("a", 0)])
        m = MultiMap(space, 1, 0, {(0,): {0: Fraction(1, 2)}})
        obj = map_to_obj(m)
        assert "name" not in obj
        assert obj["entries"] == [
            {"in": ["a"], "out": [{"basis": "a", "coeff": "1/2"}]}
        ]

    def test_names_out_of_index_order_sort_by_name(self):
        # index order b, a, B, 10, 9; name order 10, 9, B, a, b
        space = GradedSpace([(n, 0) for n in ("b", "a", "B", "10", "9")])
        rows = {(a, b): {a: 1, (a + 1 + b % 4) % 5: b - 2} for a, b in space.tuples(2)}
        m = MultiMap(space, 2, 0, rows)
        ws = Workspace(space, [("f", m), ("F", m.scale(2))])
        names = space.names
        by_name = sorted(m.entries.items(), key=lambda kv: [names[i] for i in kv[0]])
        entries = ws.to_obj()["maps"][1]["entries"]
        assert [e["in"] for e in entries] == [[names[i] for i in k] for k, _ in by_name]
        assert entries[0]["in"] == ["10", "10"] and entries[-1]["in"] == ["b", "b"]
        for e, (_, table) in zip(entries, by_name):
            terms = sorted((names[i], format_coeff(c)) for i, c in table.items())
            assert [(t["basis"], t["coeff"]) for t in e["out"]] == terms
        assert ws.canonical_text() == json.dumps(ws.to_obj(), indent=2) + "\n"

    def test_workspace_constructor_rejects_foreign_maps(self):
        space = GradedSpace([("a", 0)])
        other = GradedSpace([("z", 0)])
        m = MultiMap(other, 1, 0, {})
        with pytest.raises(WorkspaceError, match="workspace space"):
            Workspace(space, [("f", m)])


# ------------------------------------------------------------ error texts

# One malformed workspace per WorkspaceError branch of from_obj, _parse_map
# and parse_coeff, with the exact message each raises.  The messages were
# recorded from the validator before the single-pass parser replaced it.
BASE = {
    "space": {"basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 1}]},
    "maps": [
        {
            "name": "f",
            "arity": 2,
            "degree": 0,
            "entries": [{"in": ["a", "b"], "out": [{"basis": "b", "coeff": "3/2"}]}],
        }
    ],
}
DROP = object()  # an edit value that deletes the key
E = ("maps", 0, "entries", 0)
T = E + ("out", 0)
DIGIT_LIMIT = (
    "bad coefficient: Exceeds the limit (4300 digits) for integer string "
    "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
    "increase the limit"
)
HOMOGENEITY = (
    "map 'f': entry ('a', 'b') -> a violates homogeneity: output degree 0, expected 1"
)

# (id, edits of BASE as (path, value) pairs, message or None when it loads)
ERROR_TEXTS = [
    ("workspace-not-object", [((), [])],
     'workspace: expected an object, got list'),
    ("workspace-unknown-key", [(("extra",), 1)],
     "workspace: unknown keys ['extra']"),
    ("space-missing", [(("space",), DROP)],
     "workspace: missing 'space'"),
    ("space-not-object", [(("space",), [])],
     'space: expected an object, got list'),
    ("space-unknown-key", [(("space", "dims"), 2)],
     "space: unknown keys ['dims']"),
    ("basis-missing", [(("space", "basis"), DROP)],
     'space.basis: expected a list, got NoneType'),
    ("basis-not-list", [(("space", "basis"), "a")],
     'space.basis: expected a list, got str'),
    ("basis-empty", [(("space", "basis"), [])],
     'space: a graded space needs at least one basis element'),
    ("basis-item-not-object", [(("space", "basis", 0), "a")],
     'space.basis[0]: expected an object, got str'),
    ("basis-item-unknown-key", [(("space", "basis", 0, "weight"), 1)],
     "space.basis[0]: unknown keys ['weight']"),
    ("basis-name-not-string", [(("space", "basis", 0, "name"), 7)],
     'space.basis[0].name: expected a nonempty string, got 7'),
    ("basis-name-empty", [(("space", "basis", 0, "name"), "")],
     "space.basis[0].name: expected a nonempty string, got ''"),
    ("basis-degree-bool", [(("space", "basis", 0, "degree"), True)],
     'space.basis[0].degree: expected an integer, got True'),
    ("basis-degree-float", [(("space", "basis", 1, "degree"), 1.0)],
     'space.basis[1].degree: expected an integer, got 1.0'),
    ("basis-duplicate-name", [(("space", "basis", 1, "name"), "a")],
     'space: basis names must be distinct'),
    ("maps-not-list", [(("maps",), {"f": {}})],
     'maps: expected a list, got dict'),
    ("map-not-object", [(("maps", 0), "f")],
     'maps[0]: expected an object, got str'),
    ("map-unknown-key", [(("maps", 0, "color"), "red")],
     "maps[0]: unknown keys ['color']"),
    ("map-name-missing", [(("maps", 0, "name"), DROP)],
     'maps[0].name: expected a nonempty string, got None'),
    ("map-name-empty", [(("maps", 0, "name"), "")],
     "maps[0].name: expected a nonempty string, got ''"),
    ("map-duplicate-name",
     [(("maps", 1), {"name": "f", "arity": 1, "degree": 0, "entries": []})],
     "duplicate map name 'f'"),
    ("map-arity-bool", [(("maps", 0, "arity"), True)],
     "map 'f'.arity: expected an integer, got True"),
    ("map-arity-missing", [(("maps", 0, "arity"), DROP)],
     "map 'f'.arity: expected an integer, got None"),
    ("map-degree-string", [(("maps", 0, "degree"), "0")],
     "map 'f'.degree: expected an integer, got '0'"),
    ("map-arity-zero", [(("maps", 0, "arity"), 0), (("maps", 0, "entries"), [])],
     "map 'f': map arity must be at least 1, got 0"),
    ("map-arity-zero-with-entry", [(("maps", 0, "arity"), 0), (E + ("in",), [])],
     "map 'f': map arity must be at least 1, got 0"),
    ("map-arity-negative", [(("maps", 0, "arity"), -1), (E + ("in",), [])],
     "map 'f'.entries[0]: 'in' lists 0 names, arity is -1"),
    ("entries-empty", [(("maps", 0, "entries"), [])],
     None),
    ("out-empty", [(E + ("out",), [])],
     None),
    ("entries-missing", [(("maps", 0, "entries"), DROP)],
     "map 'f'.entries: expected a list, got NoneType"),
    ("entries-not-list", [(("maps", 0, "entries"), {})],
     "map 'f'.entries: expected a list, got dict"),
    ("entry-not-object", [(E, ["a", "b"])],
     "map 'f'.entries[0]: expected an object, got list"),
    ("entry-unknown-key", [(E + ("weight",), 1)],
     "map 'f'.entries[0]: unknown keys ['weight']"),
    ("in-missing", [(E + ("in",), DROP)],
     "map 'f'.entries[0].in: expected a list, got NoneType"),
    ("in-not-list", [(E + ("in",), "ab")],
     "map 'f'.entries[0].in: expected a list, got str"),
    ("in-name-not-string", [(E + ("in", 1), 1)],
     "map 'f'.entries[0].in: expected a nonempty string, got 1"),
    ("in-name-empty", [(E + ("in", 0), "")],
     "map 'f'.entries[0].in: expected a nonempty string, got ''"),
    ("in-name-unhashable", [(E + ("in", 0), ["a"])],
     "map 'f'.entries[0].in: expected a nonempty string, got ['a']"),
    ("in-too-short", [(E + ("in",), ["a"])],
     "map 'f'.entries[0]: 'in' lists 1 names, arity is 2"),
    ("in-too-long", [(E + ("in",), ["a", "b", "a"])],
     "map 'f'.entries[0]: 'in' lists 3 names, arity is 2"),
    ("in-unknown-name", [(E + ("in", 1), "q")],
     "map 'f': entry ['a', 'q']: unknown basis element 'q'"),
    ("in-unknown-before-bad-name", [(E + ("in",), ["q", 3])],
     "map 'f'.entries[0].in: expected a nonempty string, got 3"),
    ("out-missing", [(E + ("out",), DROP)],
     "map 'f': entry ['a', 'b']: out: expected a list, got NoneType"),
    ("out-not-list", [(E + ("out",), {"b": "1"})],
     "map 'f': entry ['a', 'b']: out: expected a list, got dict"),
    ("out-term-not-object", [(T, "b")],
     "map 'f': entry ['a', 'b']: out term: expected an object, got str"),
    ("out-term-unknown-key", [(T + ("weight",), 1)],
     "map 'f': entry ['a', 'b']: out term: unknown keys ['weight']"),
    ("out-basis-missing", [(T + ("basis",), DROP)],
     "map 'f': entry ['a', 'b']: out basis: expected a nonempty string, got None"),
    ("out-basis-not-string", [(T + ("basis",), 1)],
     "map 'f': entry ['a', 'b']: out basis: expected a nonempty string, got 1"),
    ("out-basis-unhashable", [(T + ("basis",), ["b"])],
     "map 'f': entry ['a', 'b']: out basis: expected a nonempty string, got ['b']"),
    ("out-basis-unknown", [(T + ("basis",), "q")],
     "map 'f': entry ['a', 'b']: unknown basis element 'q'"),
    ("coeff-missing", [(T + ("coeff",), DROP)],
     "bad coefficient None (expected 'p' or 'p/q')"),
    ("coeff-not-string", [(T + ("coeff",), 3)],
     "bad coefficient 3 (expected 'p' or 'p/q')"),
    ("coeff-decimal", [(T + ("coeff",), "1.5")],
     "bad coefficient '1.5' (expected 'p' or 'p/q')"),
    ("coeff-underscore", [(T + ("coeff",), "1_000")],
     "bad coefficient '1_000' (expected 'p' or 'p/q')"),
    ("coeff-spaces", [(T + ("coeff",), " 2")],
     "bad coefficient ' 2' (expected 'p' or 'p/q')"),
    ("coeff-negative-denominator", [(T + ("coeff",), "3/-2")],
     "bad coefficient '3/-2' (expected 'p' or 'p/q')"),
    ("coeff-zero-denominator", [(T + ("coeff",), "1/0")],
     "bad coefficient '1/0' (zero denominator)"),
    ("coeff-over-digit-limit", [(T + ("coeff",), "-" + "1" * 5000)],
     DIGIT_LIMIT),
    ("coeff-denominator-over-digit-limit", [(T + ("coeff",), "1/" + "1" * 5000)],
     DIGIT_LIMIT),
    ("second-entry-not-object", [(("maps", 0, "entries", 1), 5)],
     "map 'f'.entries[1]: expected an object, got int"),
    ("second-term-basis-unknown", [(E + ("out", 1), {"basis": "q", "coeff": "1"})],
     "map 'f': entry ['a', 'b']: unknown basis element 'q'"),
    ("second-map-in-unknown",
     [(("maps", 1), {"name": "g", "arity": 1, "degree": 0,
                     "entries": [{"in": ["z"], "out": []}]})],
     "map 'g': entry ['z']: unknown basis element 'z'"),
    ("homogeneity", [(T + ("basis",), "a")],
     HOMOGENEITY),
    ("duplicate-entries-leave-a-violation",
     [(("maps", 0, "entries", 1),
       {"in": ["a", "b"], "out": [{"basis": "a", "coeff": "1"}]})],
     HOMOGENEITY),
    ("duplicate-entries-cancel",
     [(T + ("basis",), "a"),
      (("maps", 0, "entries", 1),
       {"in": ["a", "b"], "out": [{"basis": "a", "coeff": "-3/2"}]})],
     None),
]


def edited(edits):
    obj = copy.deepcopy(BASE)
    for path, value in edits:
        if not path:
            obj = value
            continue
        *head, last = path
        target = obj
        for step in head:
            target = target[step]
        if value is DROP:
            del target[last]
        elif isinstance(target, list) and last == len(target):
            target.append(value)
        else:
            target[last] = value
    return obj


class TestErrorTexts:
    @pytest.mark.parametrize(
        "edits, message", [c[1:] for c in ERROR_TEXTS], ids=[c[0] for c in ERROR_TEXTS]
    )
    def test_message_is_exact(self, edits, message):
        obj = edited(edits)
        if message is None:
            Workspace.from_obj(obj)
            return
        with pytest.raises(WorkspaceError) as exc:
            Workspace.from_obj(obj)
        assert str(exc.value) == message

    def test_table_covers_each_branch_once(self):
        ids = [c[0] for c in ERROR_TEXTS]
        assert len(ids) == len(set(ids))
        assert len({c[2] for c in ERROR_TEXTS}) >= 50

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "{not json",
                "invalid JSON: Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)",
            ),
            (
                '{"space": {"basis": [{"name": "a", "degree": ' + "1" * 5000 + "}]}}",
                "invalid JSON: " + DIGIT_LIMIT.removeprefix("bad coefficient: "),
            ),
            (
                '{"space": {"basis": [{"name": "a", "degree": 0}]}, "maps": 3}',
                "maps: expected a list, got int",
            ),
            *(
                (
                    json.dumps(TWO_MAPS).replace('"1"', f'"{digits}"', 1),
                    f"bad coefficient {digits!r} (expected 'p' or 'p/q')",
                )
                for digits in ("٣", "３", "1/٤")
            ),
        ],
        ids=[
            "syntax",
            "digit-limit",
            "schema",
            "arabic-indic-digit",
            "fullwidth-digit",
            "arabic-indic-denominator",
        ],
    )
    def test_loads_message_is_exact(self, text, message):
        with pytest.raises(WorkspaceError) as exc:
            Workspace.loads(text)
        assert str(exc.value) == message

    def test_load_prefixes_the_path(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(edited(ERROR_TEXTS[0][1])), encoding="utf-8")
        with pytest.raises(WorkspaceError) as exc:
            Workspace.load(path)
        assert str(exc.value) == f"{path}: {ERROR_TEXTS[0][2]}"
