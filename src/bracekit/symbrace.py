"""Symmetric braces: the unshuffle bracket on antisymmetric maps and the
symmetrized insertion brace, plus the checks tying the two together.

Two brackets satisfy the symmetric-brace axiom here:

  * symbrace_eval: defined only on antisymmetric maps; deals the arguments
    to the inserted maps through unshuffles with chi signs and a global
    (-1)^delta,

        delta = sum_i (N - i) q_i + sum_{j<i} q_i a_j
              + sum_{j<i} a_i a_j + sum_i (n - i) a_i.

    Its output is antisymmetric: only terms on sorted words that can be
    nonzero are evaluated, and multimap.expand_orbits writes each nonzero
    one to its orbit.  Each term, one of graded.unshuffle_words, reads each
    g_i's value from its table row and evaluates f once, signed by the chi
    of graded.word_parity and multimap's Koszul sign on the dealt blocks.

  * symmetrize_brace (defined in brace, re-exported here): the eps-signed
    sum of plain braces f{g_sigma} over all orderings of the inserted maps,
    defined for any maps.

Both check their shape in brace._signature.  symbrace_axiom_sides reads
each dealt block off a size composition's cuts and skips a composition
giving some map more inputs than its arity.  Its right side is one
brace.bracket_sum: each g_i<block> is one shared node, and a top-level
symmetrized brace is summed in place, like a brace.  The bridge,
antisymmetrized_brace_sides: antisymmetrizing the symmetrized brace of f
equals the unshuffle bracket of the antisymmetrizations.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import InputError
from .graded import insertion_patterns, unshuffle_words, word_parity
from .multimap import (
    MultiMap,
    antisymmetrize,
    expand_orbits,
    is_antisymmetric,
)
# brace_eval and symmetrize_brace stay importable from this module
from .brace import _signature, brace_eval, bracket_sum, symmetrize_brace

FLAVOR_UNSHUFFLE = "example33"
FLAVOR_SYMMETRIZED = "symmetrized"
_FLAVORS = (FLAVOR_UNSHUFFLE, FLAVOR_SYMMETRIZED)


def delta_parity(N: int, a: Sequence[int], q: Sequence[int]) -> int:
    """Global sign parity of the unshuffle bracket: f's arity N and the
    inserted maps' arities a and degrees q."""
    n = len(a)
    total = 0
    for i in range(1, n + 1):
        total += (N - i) * q[i - 1] + (n - i) * a[i - 1]
        for j in range(1, i):
            total += q[i - 1] * a[j - 1] + a[i - 1] * a[j - 1]
    return total & 1


def symbrace_eval(f: MultiMap, gs: Sequence[MultiMap]) -> MultiMap:
    """The unshuffle bracket f<g_1, ..., g_n> on antisymmetric maps.

    Arguments are dealt to g_1, ..., g_n and then to f's remaining inputs
    by every unshuffle, each term signed by chi of the unshuffle and by the
    Koszul sign of each g_i moving past the letters dealt to the g's before
    it; the whole sum is scaled by (-1)^delta.  Inputs must be
    antisymmetric, and so is the output: it is summed only on sorted words
    without a repeated even letter whose degree an output can have, over
    unshuffles dealing each g_i one of its rows (other terms vanish), by
    evaluating f on those rows' values and the free letters; expand_orbits
    fills the orbits.
    """
    gs = tuple(gs)
    n, N = len(gs), f.arity
    out_arity, out_degree = _signature(f, gs)
    if not all(map(is_antisymmetric, (f, *gs))):
        raise InputError("the unshuffle bracket needs antisymmetric maps")
    if n == 0:
        return f
    arities = tuple(g.arity for g in gs)
    degrees = tuple(g.degree for g in gs)
    base_neg = delta_parity(N, arities, degrees)
    gammas = list(unshuffle_words(arities + (N - n,)))
    cuts = list(itertools.accumulate((0,) + arities))

    space = f.space
    par = space.parities
    basis = [space.basis_vector(i) for i in range(space.dim)]
    # g_i's value on each of its rows, and the row's degree parity
    values = [
        {
            block: (space.vector(row), sum(par[x] for x in block) & 1)
            for block, row in g.entries.items()
        }
        for g in gs
    ]
    reps = {}
    for t in itertools.combinations_with_replacement(range(space.dim), out_arity):
        if any(a == b and not par[a] for a, b in zip(t, t[1:])):
            continue
        if out_degree + sum(space.degrees[i] for i in t) not in space.degrees:
            continue
        tpar = [par[i] for i in t]
        acc: dict = {}
        for idx, inv in gammas:
            dealt = tuple([t[i] for i in idx])
            hits = [v.get(dealt[a:b]) for v, a, b in zip(values, cuts, cuts[1:])]
            if None in hits:
                continue
            # chi of gamma, then each g_i crossing the letters dealt before it
            neg = word_parity(inv, tpar, True)
            prefix = 0
            for q, (_, p) in zip(degrees, hits):
                neg += q & prefix
                prefix ^= p
            outer = [v for v, _ in hits] + [basis[i] for i in dealt[cuts[-1] :]]
            for j, c in f(outer).coeffs.items():
                c = -c if neg & 1 else c
                acc[j] = acc[j] + c if j in acc else c
        reps[t] = {j: -c if base_neg else c for j, c in acc.items() if c}
    return MultiMap(space, out_arity, out_degree, expand_orbits(reps, out_arity, par))


def symbrace_axiom_sides(
    f: MultiMap,
    gs: Sequence[MultiMap],
    xs: Sequence[MultiMap],
    flavor: str = FLAVOR_UNSHUFFLE,
):
    """Both sides of the symmetric-brace axiom f<gs><xs> = sum of dealt
    brackets, for either bracket flavor.

    The right side runs over all ordered splits of the x's into n+1 blocks
    (by size compositions and unshuffles): each g_i swallows a block, the
    last block feeds the outer bracket directly.  Signs: eps of the
    unshuffle on x brace parities, times each g_i crossing the x's dealt to
    earlier blocks.  A size composition with a block longer than its g_i's
    arity, or n + (last block) above f's arity, has no term and is skipped
    before its unshuffles are enumerated.
    """
    if flavor not in _FLAVORS:
        raise InputError(f"unknown bracket flavor {flavor!r}")
    bracket = symbrace_eval if flavor == FLAVOR_UNSHUFFLE else symmetrize_brace
    gs, xs = tuple(gs), tuple(xs)
    n, r = len(gs), len(xs)
    lhs = bracket(bracket(f, gs), xs)
    bg = [g.brace_parity for g in gs]
    bx = [x.brace_parity for x in xs]
    dealt = {
        (b, block): (bracket, g, [xs[i] for i in block])
        for b, g in enumerate(gs) for size in range(min(g.arity, r) + 1)
        for block in itertools.combinations(range(r), size)
    }
    terms = []
    for sizes in insertion_patterns(r, n + 1):
        if n + sizes[-1] > f.arity or any(s > g.arity for s, g in zip(sizes, gs)):
            continue
        cuts = list(itertools.accumulate((0,) + sizes))
        for idx, inv in unshuffle_words(sizes):
            # eps of the unshuffle, then each g_i crossing earlier blocks
            neg = word_parity(inv, bx, False)
            prefix, outer_args = 0, []
            for b, lo, hi in zip(range(n), cuts, cuts[1:]):
                outer_args.append(dealt[b, idx[lo:hi]])
                neg += bg[b] & prefix
                for i in idx[lo:hi]:
                    prefix ^= bx[i]
            outer_args.extend(xs[i] for i in idx[cuts[n] :])
            terms.append((-1 if neg & 1 else 1, (bracket, f, outer_args)))
    return lhs, bracket_sum(f.space, (lhs.arity, lhs.degree), terms)


def symbrace_axiom_check(
    f: MultiMap,
    gs: Sequence[MultiMap],
    xs: Sequence[MultiMap],
    flavor: str = FLAVOR_UNSHUFFLE,
) -> bool:
    lhs, rhs = symbrace_axiom_sides(f, gs, xs, flavor)
    return lhs == rhs


def antisymmetrized_brace_sides(f: MultiMap, gs: Sequence[MultiMap]):
    """as distributes over the symmetrized brace, against the unshuffle
    bracket of the antisymmetrizations.

    Left: as(sum over orderings sigma of eps(sigma) f{g_sigma}), which by
    linearity is the sum of the eps-signed as(f{g_sigma}).
    Right: as(f)<as(g_1), ..., as(g_n)>.  The left side is evaluated first,
    so symmetrize_brace refuses too many maps before any antisymmetrization.
    """
    gs = tuple(gs)
    lhs = antisymmetrize(symmetrize_brace(f, gs))
    return lhs, symbrace_eval(antisymmetrize(f), [antisymmetrize(g) for g in gs])
