"""Symmetric braces: the unshuffle bracket on antisymmetric maps and the
symmetrized insertion brace, plus the checks tying the two together.

Two brackets satisfy the symmetric-brace axiom here:

  * symbrace_eval: defined only on antisymmetric maps; deals the arguments
    to the inserted maps through unshuffles with chi signs and a global
    (-1)^delta,

        delta = sum_i (N - i) q_i + sum_{j<i} q_i a_j
              + sum_{j<i} a_i a_j + sum_i (n - i) a_i.

    Its output is antisymmetric: multimap.fold_onto_sorted sums it on
    sorted words from one evaluation of f per choice of the g_i's sorted
    rows and a sorted tail of f's keys that reaches a key of f and repeats
    no even letter; multimap.orbit_map copies each to its orbit.

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
from .graded import _check_cap, insertion_patterns, unshuffle_words, word_parity
from .multimap import (
    MultiMap, antisymmetrize, fold_onto_sorted, is_antisymmetric, orbit_map
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
    antisymmetric, and so is the output.  A nonzero term deals each g_i a
    rearrangement of one of its sorted rows and f a rearrangement of a
    sorted tail of its keys, so f is evaluated once per such choice where
    some key of f on the tail takes an output of each chosen row and no
    even letter repeats; fold_onto_sorted weighs each by its unshuffles.
    """
    gs = tuple(gs)
    n, N = len(gs), f.arity
    out_arity, out_degree = _signature(f, gs)
    if not all(map(is_antisymmetric, (f, *gs))):
        raise InputError("the unshuffle bracket needs antisymmetric maps")
    if n == 0:
        return f
    _check_cap(out_arity, "unshuffle enumeration")
    arities = tuple(g.arity for g in gs)
    base_neg = delta_parity(N, arities, tuple(g.degree for g in gs))
    space = f.space
    degree = space.degrees.__getitem__
    heads: dict = {}  # each sorted tail of f's keys -> the heads before it
    for key in f.entries:
        if list(key[n:]) == sorted(key[n:]):
            heads.setdefault(key[n:], []).append(key[:n])
    tails = sorted(heads)
    # (block, f's arguments from it, its degree, |g_i| mod 2) for the rows of
    # each g_i on sorted blocks, then for the sorted tails of f's keys
    choices = [
        [(b, [space.vector(row)], sum(map(degree, b)), g.degree & 1)
         for b, row in g.entries.items() if list(b) == sorted(b)]
        for g in gs
    ]
    basis = space.basis_vector
    choices.append([(t, [*map(basis, t)], sum(map(degree, t)), 0) for t in tails])
    # a choice is live if a head of f on its tail takes an output of each
    # chosen row; its indexes, in product order, from each g_i's rows by output
    reach = [{} for _ in gs]
    for rows, index in zip(choices, reach):
        for r, (_, [value], _, _) in enumerate(rows):
            for j in value.coeffs:
                index.setdefault(j, []).append(r)
    live = sorted({
        (*picks, i) for i, t in enumerate(tails) for head in heads[t]
        for picks in itertools.product(*map(dict.get, reach, head, itertools.repeat(())))
    })

    def terms():
        for picks in live:
            # delta, then each g_i crossing the letters dealt before it
            word, args, neg, prefix = (), [], base_neg, 0
            for block, values, d, q in map(list.__getitem__, choices, picks):
                word += block
                args += values
                neg += q & prefix
                prefix ^= d & 1
            # a word repeating an even letter folds to zero: f is not called
            evens = [x for x in word if not par[x]]
            if len(set(evens)) == len(evens):
                yield word, neg, f(args).coeffs

    par = space.parities
    reps = fold_onto_sorted(terms(), arities + (N - n,), par)
    return orbit_map(space, out_arity, out_degree, reps)


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
        for idx in unshuffle_words(sizes):
            # eps of the unshuffle, then each g_i crossing earlier blocks
            neg = word_parity(idx, bx, False)
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
