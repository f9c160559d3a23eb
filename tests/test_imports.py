"""No bracekit module imports a name it never uses, and the package
defines nothing it never uses.

A name bound by an import counts as used when the module reads it as a
bare name or as the root of an attribute chain anywhere in its code,
annotations included.  Deliberate re-exports are listed in REEXPORTS.

A module-level function or class counts as used when some module of the
package reads its name, as a bare name or as an attribute, or when
``__init__`` imports it as public API.  So does a method, other than a
dunder, of a class ``__init__`` does not export.  Code only the tests call
belongs in the tests.

Only graded and the API edge use Permutations, only brace.bracket_sum
accumulates the sums of the identity sides and homotopy relations, only
brace._sum_braces builds a table in brace, only brace._signature refuses a
bracket's shape, only checks._outcome makes a CheckOutcome, both
antisymmetric kernels fold their rows through multimap.fold_onto_sorted
and return through multimap.orbit_map, which alone writes orbits, only
brace._sum_braces and multimap.orbit_map build a map unchecked
(multimap._derived), so no module that reads input names it, only
brace reads graded.staged_rearrangements, which signs with word_parity
only the permutations it enumerates, only graded imports itemgetter, to
build graded.riffles, the one riffle table, no module lists inverted pairs
for graded.word_parity to sign, and no module keeps a sign table of bytes:
multimap.orbit_words signs its orbits with word_parity too.  Only
fuzz.random_map walks every input tuple of a space, and only the text
parsers checks.parse_int and workspace.parse_coeff convert with int().
"""

import ast
from pathlib import Path

import pytest

import bracekit

PACKAGE = Path(bracekit.__file__).resolve().parent

# __init__ is the public API: every name it imports is a re-export
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
# module stem -> names it imports only so that callers can import them from it
REEXPORTS = {"symbrace": {"brace_eval", "symmetrize_brace"}}


def unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_finds_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence, Iterator\nx: Sequence = os")
    assert unused_imports(tree) == [(2, "Iterator")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_an_unused_name(path):
    allowed = REEXPORTS.get(path.stem, set())
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stale = [(line, name) for line, name in unused_imports(tree) if name not in allowed]
    assert not stale, f"{path.name} imports names it never uses: {stale}"


def _reads(tree: ast.Module) -> set:
    """Every name the module reads as a bare name or an attribute, except a
    top-level definition's reads of its own name."""
    names = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
        names |= found - {getattr(stmt, "name", None)}
    return names


def dead_definitions(modules: dict) -> list:
    """Qualified names of the unused definitions among the parsed modules
    (stem -> tree); the module "__init__" lists the exports.

    Reads are matched by name alone: a method counts as used when any
    attribute of that name is read anywhere, so a dead method named like a
    live attribute (``get``, ``items``) goes unreported.
    """
    read = set().union(*map(_reads, modules.values()))
    init = modules.get("__init__")
    exported = {
        alias.asname or alias.name
        for node in (init.body if init else [])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = (*functions, ast.ClassDef)
    dead = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, defs) or node.name in exported:
                continue
            if node.name not in read:
                dead.append(f"{stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [
                    f"{stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, functions)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in read
                ]
    return sorted(dead)


def test_finds_a_dead_definition():
    modules = {
        "__init__": ast.parse("from .a import Public, api"),
        "a": ast.parse(
            "def api(): return helper() + Box().used\n"
            "def helper(): return 1\n"
            "def orphan(): return orphan\n"
            "class Box:\n"
            "    def __init__(self): self.unread = 0\n"
            "    used = 1\n"
            "    def unread(self): pass\n"
            "class Public:\n"
            "    def api_method(self): pass\n"
        ),
    }
    assert dead_definitions(modules) == ["a.Box.unread", "a.orphan"]
    del modules["__init__"]
    assert dead_definitions(modules) == [
        "a.Box.unread",
        "a.Public",
        "a.Public.api_method",
        "a.api",
        "a.orphan",
    ]


def test_package_defines_nothing_it_never_uses():
    modules = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    dead = dead_definitions(modules)
    assert not dead, f"defined but never used in src/bracekit: {dead}"


# graded alone enumerates and signs rearrangements, on plain 0-based words;
# these names hold or take the 1-based Permutation of the public API
PERMUTATION_API = {
    "Permutation",
    "enumerate_permutations",
    "enumerate_unshuffles",
    "koszul_sign",
    "antisym_koszul_sign",
}
# __init__ exports them; checks parses the Permutation inputs of Lemmas 4.3
# and 4.4 from the command line
PERMUTATION_EDGE = {"graded", "checks", "__init__"}


def imports_or_reads(tree: ast.Module) -> set:
    """The names the module imports, or reads as a bare name or as an
    attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def permutation_api_reads(tree: ast.Module) -> set:
    """The names of PERMUTATION_API the module imports or reads."""
    return imports_or_reads(tree) & PERMUTATION_API


def test_finds_a_permutation_api_read():
    tree = ast.parse(
        "from .graded import koszul_sign as ks, word_parity\n"
        "from . import graded\n"
        "x = graded.enumerate_unshuffles((1, 1))\n"
    )
    assert permutation_api_reads(tree) == {"koszul_sign", "enumerate_unshuffles"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_the_api_edge_uses_permutations(path):
    if path.stem in PERMUTATION_EDGE:
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = permutation_api_reads(tree)
    assert not used, f"{path.name} uses the Permutation API: {sorted(used)}"


def test_only_brace_reads_the_staged_rearrangements():
    """graded defines staged_rearrangements, and brace alone imports it:
    its checks of Lemmas 4.1 and 5.1 are the only readers of the riffle sign
    eta, so a mutant of eta has one patch site."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    name = "staged_rearrangements"
    readers = {stem for stem, tree in trees.items() if name in imports_or_reads(tree)}
    assert readers - {"graded"} == {"brace"}


def test_finds_an_itemgetter():
    for code in (
        "from operator import itemgetter as get",
        "import operator\ndeal = operator.itemgetter(1, 0)",
    ):
        assert "itemgetter" in imports_or_reads(ast.parse(code))
    assert "itemgetter" not in imports_or_reads(ast.parse("from .graded import riffles"))


def test_only_graded_imports_itemgetter():
    """graded.riffles is the one riffle builder: staged_rearrangements and
    multimap.orbit_words deal through its cached table, and no other module
    builds an itemgetter of its own."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    readers = {stem for stem, tree in trees.items() if "itemgetter" in imports_or_reads(tree)}
    assert readers == {"graded"}


def _signed_word(node) -> str | None:
    """The name a word_parity call signs, if node is such a call on a bare
    name; "" for a call on anything else."""
    if not isinstance(node, ast.Call):
        return None
    if getattr(node.func, "id", getattr(node.func, "attr", None)) != "word_parity":
        return None
    word = node.args[0] if node.args else None
    return word.id if isinstance(word, ast.Name) else ""


def signs_off_the_enumeration(func: ast.FunctionDef) -> list:
    """The lines where func calls word_parity on anything but the variable
    of an enclosing for loop or comprehension over permutation_words(...)."""
    enumerated = set()
    for node in ast.walk(func):
        loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
        for loop in loops:
            over_words = "permutation_words" in called_names(loop.iter)
            if over_words and isinstance(loop.target, ast.Name):
                word = loop.target.id
                enumerated |= {id(c) for c in ast.walk(node) if _signed_word(c) == word}
    return sorted(
        node.lineno
        for node in ast.walk(func)
        if _signed_word(node) is not None and id(node) not in enumerated
    )


def test_finds_a_word_parity_call_off_the_enumeration():
    tree = ast.parse(
        "def staged(items, parities, n, chi):\n"
        "    heads = [word_parity(w, parities, chi) for w in permutation_words(n)]\n"
        "    for w in permutation_words(len(items) - n):\n"
        "        word = w + w\n"
        "        yield word_parity(word, parities, chi), word\n"
        "        yield graded.word_parity(tuple(w), parities, chi), w\n"
        "    for w in itertools.permutations(items):\n"
        "        yield word_parity(w, parities, chi), w\n"
    )
    assert signs_off_the_enumeration(tree.body[0]) == [5, 6, 8]


def test_staged_rearrangements_signs_only_enumerated_words():
    """Each sign staged_rearrangements computes with word_parity is that of
    a permutation it enumerates, S_n or S_m, never of a word it dealt: the
    sign of a dealt word is chi itself, and the checks of Lemmas 4.1 and 5.1
    would then compare chi with chi."""
    func = _function("graded", "staged_rearrangements")
    assert "word_parity" in called_names(func)
    assert signs_off_the_enumeration(func) == []


# the identity sides and homotopy relations only generate signed bracket
# terms; brace.bracket_sum alone accumulates and validates their sums
GENERATORS = {
    "brace": ("brace_axiom_sides", "braced_symmetrization_sides"),
    "symbrace": ("symbrace_axiom_sides",),
    "homotopy": ("_relation_defects",),
}
ACCUMULATORS = {"add_into", "_sum_braces", "compose_into", "MultiMap", "_derived"}


def called_names(tree: ast.AST) -> set:
    """The names the code calls, as a bare name or as the last attribute of
    a chain."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = node.func
            if isinstance(target, ast.Name):
                called.add(target.id)
            elif isinstance(target, ast.Attribute):
                called.add(target.attr)
    return called


def accumulator_calls(func: ast.FunctionDef) -> set:
    """The names of ACCUMULATORS the function calls."""
    return called_names(func) & ACCUMULATORS


def test_finds_an_accumulator_call():
    tree = ast.parse(
        "def sides(f, gs):\n"
        "    acc = {}\n"
        "    multimap.add_into(acc, 1, f)\n"
        "    return MultiMap(f.space, 1, 0, acc), MultiMap.zero(f.space, 1, 0)\n"
    )
    assert accumulator_calls(tree.body[0]) == {"add_into", "MultiMap"}


def _function(stem: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    assert len(funcs) == 1, f"{stem}.{name} not found"
    return funcs[0]


@pytest.mark.parametrize(
    "stem, name",
    [(stem, name) for stem, names in GENERATORS.items() for name in names],
)
def test_only_the_evaluator_accumulates(stem, name):
    calls = accumulator_calls(_function(stem, name))
    assert not calls, f"{stem}.{name} accumulates itself: {sorted(calls)}"


@pytest.mark.parametrize(
    "stem, name", [("multimap", "antisymmetrize"), ("symbrace", "symbrace_eval")]
)
def test_antisymmetric_kernels_fold_onto_sorted_words_in_one_place(stem, name):
    """Both chi-signed sums over unshuffles sum their rows onto sorted words
    through multimap.fold_onto_sorted and return through orbit_map, which
    builds its map with _derived and lists each orbit with orbit_words;
    the unshuffle bracket lists no unshuffles."""
    calls = called_names(_function(stem, name))
    assert {"fold_onto_sorted", "orbit_map"} <= calls
    assert "unshuffle_words" not in calls
    assert {"_derived", "orbit_words"} <= called_names(_function("multimap", "orbit_map"))


def makers_in(modules: dict, test) -> set:
    """stem.name of each top-level statement of the parsed modules (stem ->
    tree) for which test(node) holds; a nested function counts as its
    top-level one."""
    return {
        f"{stem}.{getattr(node, 'name', '<module>')}"
        for stem, tree in modules.items()
        for node in tree.body
        if test(node)
    }


def _makers(paths, test) -> set:
    """makers_in the modules at paths."""
    return makers_in({p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}, test)


def _calls_orbit_words(node) -> bool:
    return "orbit_words" in called_names(node)


def test_finds_the_callers_of_a_name():
    modules = {
        "a": ast.parse("def f(w):\n    return orbit_words(w)\ndef g():\n    return f(1)\n"),
        "b": ast.parse(
            "x = multimap.orbit_words((0,), (1,))\n"
            "class C:\n"
            "    def m(self):\n"
            "        return orbit_words\n"
        ),
    }
    assert makers_in(modules, _calls_orbit_words) == {"a.f", "b.<module>"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_expanded_table_is_checked_again(path):
    """An orbit's keys are rearrangements of a checked sorted word, and
    multimap.orbit_map alone lists them with orbit_words: no expanded table
    exists outside it for MultiMap to check every rearrangement again."""
    found = _makers([path], _calls_orbit_words)
    assert found <= {"multimap.orbit_map"}, f"{path.name} writes orbits in {sorted(found)}"


# the builder of kernel outputs, which checks nothing
BUILDER = "_derived"


def test_finds_the_builder_called_and_named():
    modules = {
        "a": ast.parse(
            "def f(t):\n    return multimap._derived(V, 1, 0, t)\n"
            "def g(t):\n    return MultiMap(V, 1, 0, t)\n"
        ),
        "b": ast.parse("from .multimap import _derived as build\n"),
    }
    assert makers_in(modules, lambda node: BUILDER in called_names(node)) == {"a.f"}
    assert BUILDER in imports_or_reads(modules["b"])
    assert BUILDER not in imports_or_reads(modules["a"].body[1])


def test_only_the_kernels_build_maps_unchecked():
    """Only brace._sum_braces and multimap.orbit_map call the builder, and
    no module but theirs names it: fuzz, workspace, homotopy, checks and
    cli, which read input from outside the kernels, always meet the
    constructor's checks."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    named = {stem for stem, tree in trees.items() if BUILDER in imports_or_reads(tree)}
    assert named == {"brace", "multimap"}
    callers = makers_in(trees, lambda node: BUILDER in called_names(node))
    assert callers == {"brace._sum_braces", "multimap.orbit_map"}


def _walks_every_tuple(node) -> bool:
    """Whether the code calls a .tuples(...) method: a loop over all dim**k
    input tuples of a space."""
    return any(
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "tuples"
        for call in ast.walk(node)
    )


def test_finds_a_walk_over_every_tuple():
    modules = {
        "a": ast.parse(
            "def f(space, k):\n"
            "    for t in space.tuples(k):\n"
            "        pass\n"
            "def g(tuples, f):\n"
            "    return tuples(2), f.tuples\n"
        ),
        "b": ast.parse("class C:\n    def m(self, f):\n        return list(f.space.tuples(2))\n"),
    }
    assert makers_in(modules, _walks_every_tuple) == {"a.f", "b.C"}


def test_only_the_random_map_walks_every_tuple():
    """brace.decomposition_first_defect visits only the rearrangements of
    its map's keys and of as(f)'s keys; drawing a random map is the one
    place in the package that visits every input tuple."""
    assert _makers(MODULES, _walks_every_tuple) == {"fuzz.random_map"}


def _converts_with_int(node) -> bool:
    """Whether the code calls int(...) or map(int, ...)."""
    return any(
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and (
            call.func.id == "int"
            or call.func.id == "map" and getattr(call.args[0], "id", None) == "int"
        )
        for call in ast.walk(node)
    )


def test_finds_an_int_conversion():
    modules = {
        "a": ast.parse(
            "def f(x):\n"
            "    return int(x)\n"
            "def g(key):\n"
            "    return tuple(map(int, key))\n"
            "def h(x):\n"
            "    return type(x) is int, {*map(type, x)} <= {int}, map(str, x)\n"
        ),
        "b": ast.parse("class C:\n    def m(self, v):\n        self.v = int(v)\n"),
    }
    assert makers_in(modules, _converts_with_int) == {"a.f", "a.g", "b.C"}


def test_only_the_text_parsers_convert_with_int():
    """graded._ints is the one integer rule: a constructor refuses what is
    not an int instead of converting it.  int() reads only text that a
    regex has checked, an integer flag's or a workspace coefficient's."""
    converters = _makers(MODULES, _converts_with_int)
    assert converters == {"checks.parse_int", "workspace.parse_coeff"}


def test_only_outcome_makes_check_outcomes():
    """Every verdict, a refused fuzz case's included, is built by
    checks._outcome."""
    makers = _makers(MODULES, lambda node: "CheckOutcome" in called_names(node))
    assert makers == {"checks._outcome"}


def test_only_the_sum_loop_builds_tables_in_brace():
    """brace_eval, symmetrize_brace and bracket_sum sum their braces
    through brace._sum_braces, the one function that fills a table."""
    builders = {"add_into", "compose_into", "MultiMap", "_derived"}
    makers = _makers([PACKAGE / "brace.py"], lambda node: called_names(node) & builders)
    assert makers == {"brace._sum_braces"}


# the texts of the two shape rules every bracket obeys
SHAPE_ERRORS = ("cannot insert", "must share one space")


def raised_texts(tree: ast.AST) -> set:
    """The string constants, f-string parts included, of the raise
    statements in the code."""
    return {
        node.value
        for stmt in ast.walk(tree)
        if isinstance(stmt, ast.Raise)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def raises_shape_error(tree: ast.AST) -> bool:
    return any(rule in text for text in raised_texts(tree) for rule in SHAPE_ERRORS)


def test_finds_a_shape_error():
    tree = ast.parse(
        "def check(f, gs):\n"
        "    if len(gs) > f.arity:\n"
        "        raise InputError(f'cannot insert {len(gs)} maps')\n"
        "    message = 'all maps must share one space'\n"
    )
    assert raised_texts(tree) == {"cannot insert ", " maps"}
    assert raises_shape_error(tree)
    assert not raises_shape_error(ast.parse("message = 'must share one space'"))


def test_only_signature_refuses_a_bracket_shape():
    assert _makers(MODULES, raises_shape_error) == {"brace._signature"}


def inverted_pairs_uses(tree: ast.AST) -> set:
    """The lines that define, import or read a name inverted_pairs: a def,
    an import alias, a bare name or an attribute."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if "inverted_pairs" in (getattr(node, a, None) for a in ("name", "id", "attr"))
    }


def test_finds_an_inverted_pairs_use():
    tree = ast.parse(
        "from .graded import inverted_pairs as pairs\n"
        "def inverted_pairs(w): return []\n"
        "x = graded.inverted_pairs((1, 0))\n"
        "y = word_parity((1, 0), (1, 1), True)\n"
    )
    assert inverted_pairs_uses(tree) == {1, 2, 3}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_signs_read_words_not_inverted_pairs(path):
    """graded.word_parity reads each word itself; the pair list is the
    tests' oracle (helpers.inverted_pairs) only."""
    lines = inverted_pairs_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} uses inverted_pairs on lines {sorted(lines)}"


# str and bytes methods that build or apply a translation table
TABLE_CALLS = {"maketrans", "translate"}


def test_finds_a_byte_table_call():
    tree = ast.parse(
        "FLIP = bytes.maketrans(b'\\0\\1', b'\\1\\0')\n"
        "signs = b'\\0'.translate(FLIP)\n"
    )
    assert called_names(tree) & TABLE_CALLS == TABLE_CALLS


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_sign_table_of_bytes(path):
    """No module keeps signs as bytes flipped through a translation table:
    orbit_words signs each order of its even letters with word_parity."""
    calls = called_names(ast.parse(path.read_text(encoding="utf-8"))) & TABLE_CALLS
    assert not calls, f"{path.name} calls {sorted(calls)}"


def test_orbit_words_signs_with_word_parity():
    assert "word_parity" in called_names(_function("multimap", "orbit_words"))
