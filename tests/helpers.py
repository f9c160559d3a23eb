"""Shared test helpers: small homogeneous random tables, point-by-point
reference evaluators, and the environment of a CLI subprocess."""

import os
from pathlib import Path

import bracekit
from bracekit.brace import beta_parity
from bracekit.graded import (
    antisym_koszul_sign,
    enumerate_permutations,
    insertion_patterns,
)
from bracekit.multimap import MultiMap, antisymmetrize, tensor_block_eval


def random_map(rng, space, arity, density=0.6):
    """Homogeneous-by-construction random table over a small space.

    The internal degree is anchored so at least one entry is admissible,
    then each admissible (input tuple, output) pair is kept with the given
    density and a small nonzero integer coefficient.
    """
    anchor = tuple(rng.randrange(space.dim) for _ in range(arity))
    out = rng.randrange(space.dim)
    degree = space.degrees[out] - sum(space.degrees[i] for i in anchor)
    entries = {}
    for key in space.tuples(arity):
        target = degree + sum(space.degrees[i] for i in key)
        hits = {
            j: rng.choice((-2, -1, 1, 2))
            for j in range(space.dim)
            if space.degrees[j] == target and rng.random() < density
        }
        if hits:
            entries[key] = hits
    return MultiMap(space, arity, degree, entries)


def random_antisym_map(rng, space, arity, density=0.6):
    return antisymmetrize(random_map(rng, space, arity, density))


def pointwise_compose(f, gs, slots):
    """f o (1^{k_0} (x) g_1 (x) ... (x) g_n (x) 1^{k_n}) as a table, from
    tensor_block_eval on every basis tuple."""
    space = f.space
    out_arity = sum(g.arity for g in gs) + sum(slots)
    entries = {}
    for t in space.tuples(out_arity):
        v = tensor_block_eval(f, gs, slots, [space.basis_vector(i) for i in t])
        if not v.is_zero():
            entries[t] = v.coeffs
    return MultiMap(space, out_arity, f.degree + sum(g.degree for g in gs), entries)


def pointwise_brace(f, gs, include_leading_slot_term=True):
    """The brace f{gs} as the beta-signed sum of pointwise_compose over the
    insertion patterns: the reference for brace_eval."""
    gs = tuple(gs)
    if not gs:
        return f
    n, N = len(gs), f.arity
    arities = tuple(g.arity for g in gs)
    degrees = tuple(g.degree for g in gs)
    total = MultiMap.zero(f.space, sum(arities) + N - n, f.degree + sum(degrees))
    for pattern in insertion_patterns(N - n, n + 1):
        parity = beta_parity(N, arities, degrees, pattern.slots, include_leading_slot_term)
        sign = -1 if parity else 1
        total = total + pointwise_compose(f, gs, pattern.slots).scale(sign)
    return total


def pointwise_antisymmetrize(f):
    """as(f) on every basis tuple: the chi-signed sum of f over all
    rearrangements of the argument vectors."""
    space = f.space
    entries = {}
    for t in space.tuples(f.arity):
        args = [space.basis_vector(i) for i in t]
        degrees = [space.degrees[i] for i in t]
        total = space.zero_vector()
        for p in enumerate_permutations(f.arity):
            total = total + f(list(p.apply(args))).scale(antisym_koszul_sign(p, degrees))
        if not total.is_zero():
            entries[t] = total.coeffs
    return MultiMap(space, f.arity, f.degree, entries)


def cli_env():
    """Environment for a `python -m bracekit` subprocess: PYTHONPATH starts
    with the directory this test run imported bracekit from, so the child
    finds the same package from any working directory."""
    src = str(Path(bracekit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
