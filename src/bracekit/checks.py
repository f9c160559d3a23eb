"""Named verification checks, shared by the CLI and the fuzzer.

A check is a :class:`Check` of four callables:

* ``gen(rng, caps)`` draws a random instance within the caps,
* ``from_cli(workspace, namespace)`` builds an instance from CLI flags,
* ``run(instance)`` executes the verification and returns an outcome,
* ``add_cli_args(parser)`` declares every flag the check reads; a map or
  family check's first flag is ``--workspace``.

No check writes these by hand.  Each declares its input roles and one
verifier, and one builder per kind of input derives from them the flags,
the instance read from a workspace or drawn at random, the report
``params`` and the counterexample ``args``:

* map checks (``_map_check``) take one outer map and lists of inserted
  maps.  A role is ``(keyword, report key of its size, help)``, for example
  ``("x", "N", "outer map name")`` or ``("xs", "n", ...)``: the verifier's
  keyword, the ``--x``/``--xs`` flag, the key in ``args``, and the
  parameter reporting the outer arity or the list's length;
* integer-list checks (``_int_check``, lemmas 4.2-4.4) take one list of
  integers per role, declared in report order;
* family checks (``_family_check``) take the components of a homotopy
  structure family.

A verifier is called on the instance's keywords and returns None on a
pass, or else the keys its counterexample adds: ``lhs`` and ``rhs`` for an
identity, ``defect_arity`` and ``defect`` for a family (and
``antisymmetrized`` for corollary), ``split`` and ``inputs`` for lemma41,
none for lemmas 4.2-4.4.  ``_outcome`` turns that into the outcome.  A
failure report starts with the instance context, which holds exactly the
flags that replay the case (the workspace and args, or the integer lists)
and is built only when the case fails: a passing case serializes nothing.

Random map shapes come from a staged sampler: after an outer arity, stage
s inserts at most ``max_n + s`` maps into the previous result, so a second
stage may insert one more than ``max_n``.  lemma41 (k <= min(4, max_arity
+ 1)) and lemma51 (up to min(4, N) maps, whatever ``max_n``) have samplers
of their own; FuzzCaps lists what each cap bounds.  A cost predicate per
check redraws shapes that would blow its work budget, so the most
expensive corner of the caps need not be drawn.

Verifiers and random builders are called through lambdas, so they are
looked up as module globals when a check runs; rebinding a global (as a
tracer does) reaches every check that uses it.
"""

from __future__ import annotations

import argparse
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .brace import (
    brace_axiom_sides, braced_symmetrization_sides, decomposition_first_defect
)
from .errors import InputError
from .fuzz import (
    FuzzCaps,
    SplitMix64,
    random_a_infinity_family,
    random_antisym_map,
    random_l_infinity_family,
    random_map,
    random_permutation_images,
    random_space,
)
from .graded import (
    ENUMERATION_CAP,
    Permutation,
    block_permutation_sign_check,
    inversion_parity_check,
    unshuffle_decomposition_check,
)
from .homotopy import (
    A_INFINITY,
    L_INFINITY,
    StructureFamily,
    a_infinity_check,
    a_infinity_defects,
    antisymmetrize_structure,
    l_infinity_defects,
)
from .symbrace import (
    FLAVOR_SYMMETRIZED,
    FLAVOR_UNSHUFFLE,
    antisymmetrized_brace_sides,
    symbrace_axiom_sides,
)
from .workspace import Workspace, map_to_obj

# dim**out_arity cap for plain brace evaluations
_POINT_BUDGET = 800
# k! * dim**k cap on antisymmetrizing arity k (lemma41: times its k + 1 splits
# in the worst case, a map whose orbits cover every tuple)
_ANTISYM_BUDGET = 250_000
# dim**out_arity * unshuffle-count cap for symmetric brackets
_UNSHUFFLE_BUDGET = 100_000
# inserted! * dim**out_arity cap for lemma51's permuted braces
_PERMUTED_BUDGET = 25_000

_SHAPE_TRIES = 200
_DEFAULT_MAX_ARITY = 4


@dataclass
class CheckInstance:
    params: tuple
    kwargs: dict
    context: Callable[[], dict]


@dataclass
class CheckOutcome:
    check: str
    passed: bool
    params: tuple
    counterexample: dict | None = None


@dataclass(frozen=True)
class Check:
    name: str
    gen: Callable
    run: Callable
    add_cli_args: Callable
    from_cli: Callable


def outcome_line(
    outcome: CheckOutcome, seed: int | None = None, case: int | None = None
) -> str:
    bits = ["PASS" if outcome.passed else "FAIL", outcome.check]
    if seed is not None:
        bits.append(f"seed={seed}")
    if case is not None:
        bits.append(f"case={case}")
    bits.extend(f"{k}={v}" for k, v in outcome.params)
    return " ".join(bits)


# ------------------------------------------------------------------ helpers


def _csv(text: str) -> list:
    return [part for part in (text or "").split(",") if part]


def parse_int(text: str) -> int:
    """int() of ASCII [+-]digits only: not Unicode digits, '_' or spaces."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        return int(text)
    raise ValueError(f"not an ASCII integer: {text!r}")


def int_flag(text: str) -> int:
    """The argparse type of an integer flag: ASCII digits only (parse_int)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _int_csv(text: str, flag: str) -> list:
    try:
        return [parse_int(part) for part in _csv(text)]
    except ValueError:
        raise InputError(f"{flag}: expected comma-separated integers, got {text!r}")


def _fmt_seq(xs: Sequence) -> str:
    return ",".join(str(x) for x in xs)


def _maps_context(space, pairs, args: dict) -> dict:
    """The counterexample context: a workspace holding each named map once,
    and the arguments naming them."""
    named: dict = {}
    for name, m in pairs:
        named.setdefault(name, m)
    return {"workspace": Workspace(space, named).to_obj(), "args": args}


def _multinomial(total: int, parts: Sequence[int]) -> int:
    count = math.factorial(total)
    for p in parts:
        count //= math.factorial(p)
    count //= math.factorial(total - sum(parts))
    return count


def _random_arities(rng, caps, count: int) -> list:
    return [rng.randint(1, caps.max_arity) for _ in range(count)]


# ---------------------------------------------------------------- verifiers


def _outcome(name, inst, failure) -> CheckOutcome:
    """The outcome of a verifier's result; a failure's record is the
    instance context, built now, followed by the failure's keys."""
    if failure is None:
        return CheckOutcome(name, True, inst.params)
    return CheckOutcome(name, False, inst.params, {**inst.context(), **failure})


def _runner(name, verify):
    """``Check.run``: the outcome of ``verify`` on an instance's keywords."""
    return lambda inst: _outcome(name, inst, verify(**inst.kwargs))


def _unequal(lhs, rhs) -> dict | None:
    """An identity's failure: both sides, unless they agree."""
    return None if lhs == rhs else {"lhs": map_to_obj(lhs), "rhs": map_to_obj(rhs)}


def _lowest_defect(defects: dict) -> dict | None:
    """A family's failure: the lowest arity whose relation does not vanish."""
    for arity, defect in sorted(defects.items()):
        if not defect.is_zero():
            return {"defect_arity": arity, "defect": map_to_obj(defect)}
    return None


def _shadow_defect(family, max_arity) -> dict | None:
    """corollary's failure: the antisymmetrized family's lowest defect, and
    its components.  A family failing ainfty is refused."""
    if not a_infinity_check(family, max_arity):
        raise InputError(
            "corollary: the given family does not satisfy the associativity "
            "relations; run ainfty on it first"
        )
    shadow = antisymmetrize_structure(family)
    failure = _lowest_defect(l_infinity_defects(shadow, max_arity))
    if failure is not None:
        failure["antisymmetrized"] = [
            map_to_obj(m, name=f"l{m.arity}") for m in shadow.components
        ]
    return failure


# --------------------------------------------------------------- map checks
#
# roles[0] is one map, reported by its arity; every later role is a list of
# maps, reported by its length.  Generated names are the keyword for the
# first role and x1, x2, ... for a list role "xs".


def _map_instance(roles, maps: dict, names: dict) -> CheckInstance:
    """``maps`` and ``names`` hold a map and its name for the first role and
    lists for the others: the verifier's keywords and the ``args``."""
    head = roles[0][0]
    space = maps[head].space
    params = [("dim", space.dim), (roles[0][1], maps[head].arity)]
    pairs = [(names[head], maps[head])]
    for key, size, _ in roles[1:]:
        params.append((size, len(maps[key])))
        pairs.extend(zip(names[key], maps[key]))
    return CheckInstance(tuple(params), maps, lambda: _maps_context(space, pairs, names))


def _staged(stages: int, fits):
    """Shape sampler: an outer arity N, then per stage the arities of the
    maps inserted into the previous result.  Shapes over the output cap, or
    failing ``fits(dim, arities after each stage, shape)``, are redrawn; the
    fallback is N = 1 with one unary map in the second stage."""

    def sample(rng, caps, dim):
        for _ in range(_SHAPE_TRIES):
            outer = arity = rng.randint(1, caps.max_arity)
            shape, after = [], []
            for s in range(stages):
                n = rng.randint(0, min(caps.max_n + s, arity))
                shape.append(_random_arities(rng, caps, n))
                arity += sum(shape[-1]) - n
                after.append(arity)
            if arity <= caps.max_out_arity and fits(dim, after, shape):
                return outer, shape
        return 1, [[1] if s == 1 else [] for s in range(stages)]

    return sample


def _point_cost(dim, after, shape) -> bool:
    return dim ** after[-1] <= _POINT_BUDGET


def _unshuffle_cost(dim, after, shape) -> bool:
    # unshuffles run over each bracket's output arguments, up to graded's cap
    unshuffles = sum(_multinomial(a, ars) for a, ars in zip(after, shape))
    fits = dim ** after[-1] * unshuffles <= _UNSHUFFLE_BUDGET
    return fits and after[-1] <= ENUMERATION_CAP


def _antisym_cost(dim, after, shape) -> bool:
    return math.factorial(after[-1]) * dim ** after[-1] <= _ANTISYM_BUDGET


def _sample_lemma51(rng, caps, dim):
    """At most four maps in all, split between ys and zs."""
    for _ in range(_SHAPE_TRIES):
        outer = rng.randint(1, caps.max_arity)
        total = rng.randint(0, min(4, outer))
        n = rng.randint(0, total)
        shape = [_random_arities(rng, caps, n), _random_arities(rng, caps, total - n)]
        out_arity = outer - total + sum(map(sum, shape))
        if (
            out_arity <= caps.max_out_arity
            and math.factorial(total) * dim**out_arity <= _PERMUTED_BUDGET
        ):
            return outer, shape
    return 1, [[], [1]]


def _sample_lemma41(rng, caps, dim):
    for _ in range(_SHAPE_TRIES):
        k = rng.randint(1, min(4, caps.max_arity + 1))
        if (k + 1) * math.factorial(k) * dim**k <= _ANTISYM_BUDGET:
            return k, []
    return 1, []


def _map_check(name, roles, sample, verify, make=None):
    """A check on workspace maps, whose ``args`` name them, one entry per
    flag; ``make(rng, space, arity)`` draws one map (random_map by default)."""
    head = roles[0][0]
    lists = [key for key, _, _ in roles[1:]]

    def gen(rng: SplitMix64, caps: FuzzCaps) -> CheckInstance:
        draw = make or (lambda *a: random_map(*a))
        space = random_space(rng, caps)
        outer, shape = sample(rng, caps, space.dim)
        maps, names = {head: draw(rng, space, outer)}, {head: head}
        for key, arities in zip(lists, shape):
            maps[key] = [draw(rng, space, a) for a in arities]
            names[key] = [f"{key[:-1]}{i + 1}" for i in range(len(arities))]
        return _map_instance(roles, maps, names)

    def add_cli_args(parser) -> None:
        parser.add_argument("--workspace", required=True, help="workspace JSON file")
        parser.add_argument(f"--{head}", required=True, help=roles[0][2])
        for key, _, text in roles[1:]:
            parser.add_argument(f"--{key}", default="", help=text)

    def from_cli(ws: Workspace, ns) -> CheckInstance:
        names = {head: getattr(ns, head)}
        names.update((key, _csv(getattr(ns, key))) for key in lists)
        maps = {head: ws.get_map(names[head])}
        maps.update((key, [ws.get_map(nm) for nm in names[key]]) for key in lists)
        return _map_instance(roles, maps, names)

    return Check(name, gen, _runner(name, verify), add_cli_args, from_cli)


# --------------------------------------------------------- integer checks


def _int_check(name, roles, draw, verify):
    """A check on integer lists.  A role is ``(keyword, help, convert)``, in
    flag order, which is also the order of the params and the failure
    record; ``draw(rng, caps)`` returns {keyword: integers}."""
    keys = [key for key, _, _ in roles]

    def instance(values: dict) -> CheckInstance:
        params = tuple((key, _fmt_seq(values[key])) for key in keys)
        kwargs = {key: fn(values[key]) for key, _, fn in roles}
        return CheckInstance(params, kwargs, lambda: {k: list(values[k]) for k in keys})

    def add_cli_args(parser) -> None:
        for key, text, _ in roles:
            parser.add_argument(f"--{key}", required=True, help=text)

    def from_cli(ws, ns) -> CheckInstance:
        return instance(
            {key: _int_csv(getattr(ns, key), f"--{key}") for key, _, _ in roles}
        )

    return Check(
        name,
        lambda rng, caps: instance(draw(rng, caps)),
        _runner(name, verify),
        add_cli_args,
        from_cli,
    )


def _draw_lemma42(rng: SplitMix64, caps: FuzzCaps) -> dict:
    for _ in range(_SHAPE_TRIES):
        blocks = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        if 1 <= sum(blocks) <= 5:
            break
    else:
        blocks = (1,)
    degrees = [
        rng.randint(caps.degree_lo, caps.degree_hi) for _ in range(sum(blocks))
    ]
    return {"blocks": blocks, "degrees": degrees}


def _draw_lemma43(rng: SplitMix64, caps: FuzzCaps) -> dict:
    for _ in range(_SHAPE_TRIES):
        n = rng.randint(1, 3)
        blocks = tuple(rng.randint(1, 2) for _ in range(n))
        slots = tuple(rng.randint(0, 1) for _ in range(n + 1))
        r = sum(blocks) + sum(slots)
        if r <= 5:
            break
    else:
        n, blocks, slots, r = 1, (1,), (0, 0), 1
    sigma = random_permutation_images(rng, n)
    pi = random_permutation_images(rng, r)
    degrees = [rng.randint(caps.degree_lo, caps.degree_hi) for _ in range(r)]
    return {
        "sigma": sigma,
        "blocks": blocks,
        "slots": slots,
        "pi": pi,
        "degrees": degrees,
    }


def _draw_lemma44(rng: SplitMix64, caps: FuzzCaps) -> dict:
    n = rng.randint(1, 4)
    sigma = random_permutation_images(rng, n)
    v = [rng.randint(-9, 9) for _ in range(n)]
    w = [rng.randint(-9, 9) for _ in range(n)]
    return {"sigma": sigma, "v": v, "w": w}


# ---------------------------------------------------------- family checks


def _family_instance(family, max_arity, tag=None, names=None) -> CheckInstance:
    prefix = "mu" if family.flavor == A_INFINITY else "l"
    if names is None:
        names = [f"{prefix}{m.arity}" for m in family.components]
    params = [("dim", family.space.dim)]
    if tag is not None:
        params.append(("family", tag))
    params.append(("arities", _fmt_seq(m.arity for m in family.components)))
    params.append(("max_arity", max_arity))
    kwargs = {"family": family, "max_arity": max_arity}
    args = {"maps": names, "max_arity": max_arity}
    return CheckInstance(
        tuple(params),
        kwargs,
        lambda: _maps_context(family.space, zip(names, family.components), args),
    )


def _family_check(name, flavor, draw, verify):
    """A check on a structure family; ``draw(rng, caps)`` returns
    (tag, family)."""

    def gen(rng: SplitMix64, caps: FuzzCaps) -> CheckInstance:
        tag, family = draw(rng, caps)
        return _family_instance(family, _DEFAULT_MAX_ARITY, tag=tag)

    def add_cli_args(parser) -> None:
        parser.add_argument("--workspace", required=True, help="workspace JSON file")
        parser.add_argument(
            "--maps", required=True, help="component map names, comma-separated"
        )
        parser.add_argument(
            "--max-arity",
            type=int_flag,
            default=_DEFAULT_MAX_ARITY,
            help="largest output arity whose relation is checked",
        )

    def from_cli(ws: Workspace, ns) -> CheckInstance:
        names = _csv(ns.maps)
        maps = [ws.get_map(nm) for nm in names]
        if not names:
            raise InputError("--maps must name at least one map")
        if ns.max_arity < 1:
            raise InputError("--max-arity must be at least 1")
        family = StructureFamily(ws.space, maps, flavor)
        return _family_instance(family, ns.max_arity, names=names)

    return Check(name, gen, _runner(name, verify), add_cli_args, from_cli)


# ---------------------------------------------------------------- registry

_OUTER = "outer map name"
_FIRST = "first-stage map names, comma-separated"
_SECOND = "second-stage map names, comma-separated"
_SYMBRACE_ROLES = (("f", "N", _OUTER), ("gs", "n", _FIRST), ("xs", "r", _SECOND))
_BLOCKS = ("blocks", "block sizes, comma-separated", tuple)
_DEGREES = ("degrees", "degrees, comma-separated", list)

CHECKS: dict = {
    check.name: check
    for check in (
        _map_check(
            "brace-axiom",
            (("x", "N", _OUTER), ("xs", "n", _FIRST), ("ys", "r", _SECOND)),
            _staged(2, _point_cost),
            lambda **kw: _unequal(*brace_axiom_sides(**kw)),
        ),
        _map_check(
            "symbrace-axiom-ex33",
            _SYMBRACE_ROLES,
            _staged(2, _unshuffle_cost),
            lambda **kw: _unequal(*symbrace_axiom_sides(flavor=FLAVOR_UNSHUFFLE, **kw)),
            make=lambda *a: random_antisym_map(*a),
        ),
        _map_check(
            "thm1",
            _SYMBRACE_ROLES,
            _staged(2, _unshuffle_cost),
            lambda **kw: _unequal(*symbrace_axiom_sides(flavor=FLAVOR_SYMMETRIZED, **kw)),
        ),
        _map_check(
            "thm2",
            (
                ("f", "N", "map to antisymmetrize"),
                ("gs", "n", "inserted map names, comma-separated"),
            ),
            _staged(1, _antisym_cost),
            lambda **kw: _unequal(*antisymmetrized_brace_sides(**kw)),
        ),
        _map_check(
            "lemma41",
            (("f", "k", "map whose splits to verify"),),
            _sample_lemma41,
            lambda **kw: decomposition_first_defect(**kw),
        ),
        _int_check(
            "lemma42",
            (_BLOCKS, _DEGREES),
            _draw_lemma42,
            lambda **kw: None if unshuffle_decomposition_check(**kw) else {},
        ),
        _int_check(
            "lemma43",
            (
                ("sigma", "block permutation images", Permutation),
                _BLOCKS,
                ("slots", "free slot sizes, comma-separated", tuple),
                ("pi", "full permutation images", Permutation),
                _DEGREES,
            ),
            _draw_lemma43,
            lambda **kw: None if block_permutation_sign_check(**kw) else {},
        ),
        _int_check(
            "lemma44",
            (
                ("sigma", "permutation images", Permutation),
                ("v", "first weight vector", list),
                ("w", "second weight vector", list),
            ),
            _draw_lemma44,
            lambda **kw: None if inversion_parity_check(**kw) else {},
        ),
        _map_check(
            "lemma51",
            (
                ("f", "N", _OUTER),
                ("ys", "n", "kept-in-order map names"),
                ("zs", "m", "pre-symmetrized map names"),
            ),
            _sample_lemma51,
            lambda **kw: _unequal(*braced_symmetrization_sides(**kw)),
        ),
        _family_check(
            "ainfty",
            A_INFINITY,
            lambda rng, caps: random_a_infinity_family(rng, caps),
            lambda **kw: _lowest_defect(a_infinity_defects(**kw)),
        ),
        _family_check(
            "linfty",
            L_INFINITY,
            lambda rng, caps: random_l_infinity_family(rng, caps),
            lambda **kw: _lowest_defect(l_infinity_defects(**kw)),
        ),
        _family_check(
            "corollary",
            A_INFINITY,
            lambda rng, caps: random_a_infinity_family(rng, caps),
            _shadow_defect,
        ),
    )
}

CHECK_NAMES = tuple(CHECKS)


# -------------------------------------------------------------- fuzz driver


def fuzz_outcomes(seed: int, cases: int, names: Sequence[str], caps: FuzzCaps):
    """Yield (case, name, outcome) deterministically from the seed.

    Per-(case, check) subseeds are drawn from the master stream in report
    order, as the run reaches each case, so each instance depends only on
    (seed, cases-index, check list) and never on how much entropy an earlier
    case consumed.  An InputError from a verifier yields a FAIL whose
    counterexample is the instance context plus the error message; one from
    a generator, a FAIL with no params whose counterexample is the message
    alone.  A case builds its context only when it fails.
    """
    if cases < 0:
        raise InputError("cases must be nonnegative")
    for name in names:
        if name not in CHECKS:
            known = ", ".join(CHECK_NAMES)
            raise InputError(f"unknown check {name!r} (known: {known})")
    master = SplitMix64(seed)
    for case in range(cases):
        for name in names:
            check = CHECKS[name]
            rng, instance = SplitMix64(master.next_u64()), CheckInstance((), {}, dict)
            try:
                instance = check.gen(rng, caps)
                outcome = check.run(instance)
            except InputError as exc:
                # a generator failing to build an instance, or a verifier
                # refusing one (corollary on a family failing ainfty), fails
                # that case, not the whole run
                outcome = _outcome(name, instance, {"error": str(exc)})
            yield case, name, outcome
