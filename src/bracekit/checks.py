"""Named verification checks, shared by the CLI and the fuzzer.

A check is a :class:`Check` of four callables:

* ``gen(rng, caps)`` draws a random instance within the caps,
* ``from_cli(workspace, namespace)`` builds an instance from CLI flags,
* ``run(instance)`` executes the verification and returns an outcome,
* ``add_cli_args(parser)`` declares the check's flags.

No check writes these by hand.  Each declares its input roles, and one
builder per kind of input derives from them the flags, the instance read
from a workspace or drawn at random, the report ``params`` and the
counterexample ``args``:

* map checks (``_map_check``) take one outer map and lists of inserted
  maps.  A role is ``(keyword, report key of its size, help)``, for example
  ``("x", "N", "outer map name")`` or ``("xs", "n", ...)``: the verifier's
  keyword, the ``--x``/``--xs`` flag, the key in ``args``, and the
  parameter reporting the outer arity or the list's length;
* integer-list checks (``_int_check``, lemmas 4.2-4.4) take one list of
  integers per role;
* family checks (``_family_check``) take the components of a homotopy
  structure family.

Random map shapes come from a staged sampler: after an outer arity, stage
s inserts at most ``max_n + s`` maps into the previous result.  A cost
predicate per check redraws shapes that would blow its work budget; the
caps are honest upper bounds, not a promise that the most expensive corner
of the cap box is sampled.

Verifiers and random builders are called through lambdas, so they are
looked up as module globals when a check runs; rebinding a global (as a
tracer does) reaches every check that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .brace import brace_axiom_sides, braced_symmetrization_sides
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
    Permutation,
    block_permutation_sign_check,
    inversion_parity_check,
    unshuffle_decomposition_check,
)
from .homotopy import (
    A_INFINITY,
    L_INFINITY,
    StructureFamily,
    a_infinity_defects,
    antisymmetrize_structure,
    l_infinity_defects,
)
from .multimap import _decomposition_first_defect
from .symbrace import (
    FLAVOR_SYMMETRIZED,
    FLAVOR_UNSHUFFLE,
    antisymmetrized_brace_sides,
    symbrace_axiom_sides,
)
from .workspace import Workspace, map_to_obj

# dim**out_arity cap for plain brace evaluations
_POINT_BUDGET = 800
# out_arity! * dim**out_arity cap when outputs get antisymmetrized
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
    context: dict


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
    needs_workspace: bool


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


def _int_csv(text: str, flag: str) -> list:
    try:
        return [int(part) for part in _csv(text)]
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


# ----------------------------------------------------------------- verdicts
#
# A verdict maker takes (check name, instance) and returns the outcome.


def _sides(sides):
    """Verdict of an identity whose verifier returns both sides."""

    def verdict(name, inst) -> CheckOutcome:
        lhs, rhs = sides(**inst.kwargs)
        if lhs == rhs:
            return CheckOutcome(name, True, inst.params)
        counterexample = dict(inst.context)
        counterexample["lhs"] = map_to_obj(lhs)
        counterexample["rhs"] = map_to_obj(rhs)
        return CheckOutcome(name, False, inst.params, counterexample)

    return verdict


def _holds(test):
    """Verdict of a predicate; a failure reports the instance data."""

    def verdict(name, inst) -> CheckOutcome:
        passed = test(**inst.kwargs)
        return CheckOutcome(
            name, passed, inst.params, None if passed else dict(inst.context)
        )

    return verdict


def _defect_outcome(check, inst, defects) -> CheckOutcome:
    bad = {r: d for r, d in defects.items() if not d.is_zero()}
    if not bad:
        return CheckOutcome(check, True, inst.params)
    worst = min(bad)
    counterexample = dict(inst.context)
    counterexample["defect_arity"] = worst
    counterexample["defect"] = map_to_obj(bad[worst])
    return CheckOutcome(check, False, inst.params, counterexample)


def _defects(defects):
    """Verdict of a family's relations up to the instance's max arity."""

    def verdict(name, inst) -> CheckOutcome:
        found = defects(inst.kwargs["family"], inst.kwargs["max_arity"])
        return _defect_outcome(name, inst, found)

    return verdict


def _lemma41_verdict(name, inst) -> CheckOutcome:
    defect = _decomposition_first_defect(inst.kwargs["f"])
    if defect is None:
        return CheckOutcome(name, True, inst.params)
    counterexample = dict(inst.context)
    names = inst.kwargs["f"].space.names
    counterexample["split"] = list(defect["split"])
    counterexample["inputs"] = [names[i] for i in defect["inputs"]]
    return CheckOutcome(name, False, inst.params, counterexample)


def _corollary_verdict(name, inst) -> CheckOutcome:
    family = inst.kwargs["family"]
    max_arity = inst.kwargs["max_arity"]
    source = a_infinity_defects(family, max_arity)
    if any(not d.is_zero() for d in source.values()):
        raise InputError(
            "corollary: the given family does not satisfy the associativity "
            "relations; run ainfty on it first"
        )
    shadow = antisymmetrize_structure(family)
    outcome = _defect_outcome(name, inst, l_infinity_defects(shadow, max_arity))
    if outcome.counterexample is not None:
        outcome.counterexample["antisymmetrized"] = [
            map_to_obj(m, name=f"l{m.arity}") for m in shadow.components
        ]
    return outcome


# --------------------------------------------------------------- map checks
#
# roles[0] is one map, reported by its arity; every later role is a list of
# maps, reported by its length.  Generated names are the keyword for the
# first role and x1, x2, ... for a list role "xs".


def _map_instance(roles, maps: dict, names: dict, fixed: dict) -> CheckInstance:
    """``maps`` and ``names`` hold a map and its name for the first role and
    lists for the others; ``fixed`` verifier keywords are reported too."""
    head = roles[0][0]
    space = maps[head].space
    params = [("dim", space.dim), (roles[0][1], maps[head].arity)]
    pairs = [(names[head], maps[head])]
    for key, size, _ in roles[1:]:
        params.append((size, len(maps[key])))
        pairs.extend(zip(names[key], maps[key]))
    context = _maps_context(space, pairs, {**names, **fixed})
    return CheckInstance(tuple(params), {**maps, **fixed}, context)


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
    # unshuffles run over each bracket's output arguments
    unshuffles = sum(_multinomial(a, ars) for a, ars in zip(after, shape))
    return dim ** after[-1] * unshuffles <= _UNSHUFFLE_BUDGET


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
    return rng.randint(1, min(4, caps.max_arity + 1)), []


def _map_check(name, roles, sample, verdict, make=None, fixed=None, switch=None):
    """A check on workspace maps.  ``make(rng, space, arity)`` draws one map
    (random_map by default); ``switch`` is an optional
    ``(flag, verifier keyword the flag sets to False, help)``."""
    fixed = fixed or {}
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
        return _map_instance(roles, maps, names, fixed)

    def add_cli_args(parser) -> None:
        parser.add_argument(f"--{head}", required=True, help=roles[0][2])
        for key, _, text in roles[1:]:
            parser.add_argument(f"--{key}", default="", help=text)
        if switch:
            flag, keyword, text = switch
            parser.add_argument(flag, dest=keyword, action="store_false", help=text)

    def from_cli(ws: Workspace, ns) -> CheckInstance:
        names = {head: getattr(ns, head)}
        names.update((key, _csv(getattr(ns, key))) for key in lists)
        maps = {head: ws.get_map(names[head])}
        maps.update((key, [ws.get_map(nm) for nm in names[key]]) for key in lists)
        options = dict(fixed)
        if switch and not getattr(ns, switch[1]):
            options[switch[1]] = False
        return _map_instance(roles, maps, names, options)

    return Check(
        name, gen, lambda inst: verdict(name, inst), add_cli_args, from_cli, True
    )


# --------------------------------------------------------- integer checks


def _int_check(name, roles, draw, verdict, order=None):
    """A check on integer lists.  A role is ``(keyword, help, convert)``;
    ``draw(rng, caps)`` returns {keyword: integers}, and ``order`` gives the
    report order when it differs from the flag order."""
    keys = order or [key for key, _, _ in roles]
    convert = {key: fn for key, _, fn in roles}

    def instance(values: dict) -> CheckInstance:
        params = tuple((key, _fmt_seq(values[key])) for key in keys)
        kwargs = {key: convert[key](values[key]) for key in keys}
        return CheckInstance(params, kwargs, {k: list(values[k]) for k in keys})

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
        lambda inst: verdict(name, inst),
        add_cli_args,
        from_cli,
        False,
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
    context = _maps_context(family.space, zip(names, family.components), args)
    return CheckInstance(tuple(params), kwargs, context)


def _family_check(name, flavor, draw, verdict):
    """A check on a structure family; ``draw(rng, caps)`` returns
    (tag, family)."""

    def gen(rng: SplitMix64, caps: FuzzCaps) -> CheckInstance:
        tag, family = draw(rng, caps)
        return _family_instance(family, _DEFAULT_MAX_ARITY, tag=tag)

    def add_cli_args(parser) -> None:
        parser.add_argument(
            "--maps", required=True, help="component map names, comma-separated"
        )
        parser.add_argument(
            "--max-arity",
            type=int,
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

    return Check(
        name, gen, lambda inst: verdict(name, inst), add_cli_args, from_cli, True
    )


# ---------------------------------------------------------------- registry

_OUTER = "outer map name"
_FIRST = "first-stage map names, comma-separated"
_SECOND = "second-stage map names, comma-separated"
_SYMBRACE_ROLES = (("f", "N", _OUTER), ("gs", "n", _FIRST), ("xs", "r", _SECOND))
_BLOCKS = ("blocks", "block sizes, comma-separated", tuple)
_DEGREES = ("degrees", "degrees, comma-separated", list)
_SYMBRACE_SIDES = _sides(lambda **kw: symbrace_axiom_sides(**kw))

CHECKS: dict = {
    check.name: check
    for check in (
        _map_check(
            "brace-axiom",
            (("x", "N", _OUTER), ("xs", "n", _FIRST), ("ys", "r", _SECOND)),
            _staged(2, _point_cost),
            _sides(lambda **kw: brace_axiom_sides(**kw)),
            switch=(
                "--no-leading-slot-term",
                "include_leading_slot_term",
                "flip the sign convention for the slots before the first insertion",
            ),
        ),
        _map_check(
            "symbrace-axiom-ex33",
            _SYMBRACE_ROLES,
            _staged(2, _unshuffle_cost),
            _SYMBRACE_SIDES,
            make=lambda *a: random_antisym_map(*a),
            fixed={"flavor": FLAVOR_UNSHUFFLE},
        ),
        _map_check(
            "thm1",
            _SYMBRACE_ROLES,
            _staged(2, _unshuffle_cost),
            _SYMBRACE_SIDES,
            fixed={"flavor": FLAVOR_SYMMETRIZED},
        ),
        _map_check(
            "thm2",
            (
                ("f", "N", "map to antisymmetrize"),
                ("gs", "n", "inserted map names, comma-separated"),
            ),
            _staged(1, _antisym_cost),
            _sides(lambda **kw: antisymmetrized_brace_sides(**kw)),
        ),
        _map_check(
            "lemma41",
            (("f", "k", "map whose splits to verify"),),
            _sample_lemma41,
            _lemma41_verdict,
        ),
        _int_check(
            "lemma42",
            (_BLOCKS, _DEGREES),
            _draw_lemma42,
            _holds(lambda **kw: unshuffle_decomposition_check(**kw)),
        ),
        _int_check(
            "lemma43",
            (
                ("sigma", "block permutation images", Permutation),
                ("pi", "full permutation images", Permutation),
                _BLOCKS,
                ("slots", "free slot sizes, comma-separated", tuple),
                _DEGREES,
            ),
            _draw_lemma43,
            _holds(lambda **kw: block_permutation_sign_check(**kw)),
            order=("sigma", "blocks", "slots", "pi", "degrees"),
        ),
        _int_check(
            "lemma44",
            (
                ("sigma", "permutation images", Permutation),
                ("v", "first weight vector", list),
                ("w", "second weight vector", list),
            ),
            _draw_lemma44,
            _holds(lambda **kw: inversion_parity_check(**kw)),
        ),
        _map_check(
            "lemma51",
            (
                ("f", "N", _OUTER),
                ("ys", "n", "kept-in-order map names"),
                ("zs", "m", "pre-symmetrized map names"),
            ),
            _sample_lemma51,
            _sides(lambda **kw: braced_symmetrization_sides(**kw)),
        ),
        _family_check(
            "ainfty",
            A_INFINITY,
            lambda rng, caps: random_a_infinity_family(rng, caps),
            _defects(lambda fam, k: a_infinity_defects(fam, k)),
        ),
        _family_check(
            "linfty",
            L_INFINITY,
            lambda rng, caps: random_l_infinity_family(rng, caps),
            _defects(lambda fam, k: l_infinity_defects(fam, k)),
        ),
        _family_check(
            "corollary",
            A_INFINITY,
            lambda rng, caps: random_a_infinity_family(rng, caps),
            _corollary_verdict,
        ),
    )
}

CHECK_NAMES = tuple(CHECKS)


# -------------------------------------------------------------- fuzz driver


def fuzz_outcomes(seed: int, cases: int, names: Sequence[str], caps: FuzzCaps):
    """Yield (case, name, outcome) deterministically from the seed.

    Per-(case, check) subseeds are drawn up front from the master stream
    in report order, so each instance depends only on (seed, cases-index,
    check list) and never on how much entropy an earlier case consumed.
    An InputError from a verifier yields a FAIL whose counterexample is the
    instance context plus the error message.
    """
    if cases < 0:
        raise InputError("cases must be nonnegative")
    for name in names:
        if name not in CHECKS:
            known = ", ".join(CHECK_NAMES)
            raise InputError(f"unknown check {name!r} (known: {known})")
    master = SplitMix64(seed)
    plan = [
        (case, name, master.next_u64())
        for case in range(cases)
        for name in names
    ]
    for case, name, subseed in plan:
        check = CHECKS[name]
        instance = check.gen(SplitMix64(subseed), caps)
        try:
            outcome = check.run(instance)
        except InputError as exc:
            # a verifier refusing a generated instance (corollary on a family
            # failing ainfty) fails that case, not the whole run
            context = {**instance.context, "error": str(exc)}
            outcome = CheckOutcome(name, False, instance.params, context)
        yield case, name, outcome
