"""The insertion brace f{g_1, ..., g_n} on graded multilinear maps.

The brace sums, over all ways of keeping free slots between the inserted
maps, the signed tensor-block evaluations

    f{g_1,...,g_n} = sum over patterns (k_0,...,k_n) of
        (-1)^beta  f after (1^{k_0} (x) g_1 (x) ... (x) g_n (x) 1^{k_n})

with beta depending only on the shape data:

    beta = sum_{0 <= j < i} (a_i - 1)(k_j + a_j)      (a_0 = 0)
         + sum_i (N - i) q_i
         + sum_{j < i} q_i a_j

where N is f's arity and a_i, q_i are the arities and degrees of the g's.
The j = 0 term of the first sum is a convention choice; the keyword
include_leading_slot_term exists so its effect on the nesting identity can
be demonstrated, not because both conventions are supported downstream.

Viewed as algebra elements, maps are graded by brace parity
(p + k + 1 mod 2); the Koszul signs in the nesting identity and in the
symmetrization below are taken over those parities.  symmetrize_brace is
the one eps-signed sum of braces over orderings of the inserted maps; the
two-stage symmetrization of Lemma 5.1 is checked against it.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import InputError
from .graded import enumerate_permutations, insertion_patterns, koszul_sign
from .multimap import MultiMap, add_into, compose_into


def beta_parity(
    N: int,
    a: Sequence[int],
    q: Sequence[int],
    k: Sequence[int],
    include_leading_slot_term: bool = True,
) -> int:
    """Parity of the brace sign on one insertion pattern: f's arity N, the
    inserted maps' arities a and degrees q, and the free slot counts k."""
    n = len(a)
    total = 0
    for i in range(1, n + 1):
        lo = 0 if include_leading_slot_term else 1
        for j in range(lo, i):
            aj = a[j - 1] if j >= 1 else 0
            total += (a[i - 1] - 1) * (k[j] + aj)
    for i in range(1, n + 1):
        total += (N - i) * q[i - 1]
        for j in range(1, i):
            total += q[i - 1] * a[j - 1]
    return total & 1


def brace_eval(
    f: MultiMap,
    gs: Sequence[MultiMap],
    include_leading_slot_term: bool = True,
) -> MultiMap:
    """Insert the maps gs into f, summing all patterns with beta signs.

    Each pattern's term is one sparse composition of tables (compose_into),
    differential-tested against the point-by-point tensor_block_eval.
    The result has arity sum(a_i) + N - n and degree p + sum(q_i).
    With no gs the brace is f itself.
    """
    gs = tuple(gs)
    n = len(gs)
    N = f.arity
    if n > N:
        raise InputError(f"cannot insert {n} maps into a map of arity {N}")
    for g in gs:
        if g.space != f.space:
            raise InputError("all maps in a brace must share one space")
    if n == 0:
        return f
    arities = tuple(g.arity for g in gs)
    degrees = tuple(g.degree for g in gs)
    entries: dict = {}
    for pattern in insertion_patterns(N - n, n + 1):
        slots = pattern.slots
        parity = beta_parity(N, arities, degrees, slots, include_leading_slot_term)
        compose_into(entries, -1 if parity else 1, f, gs, slots)
    return MultiMap(f.space, sum(arities) + N - n, f.degree + sum(degrees), entries)


def symmetrize_brace(f: MultiMap, gs: Sequence[MultiMap]) -> MultiMap:
    """eps-signed sum of plain braces f{g_sigma} over all orderings of the
    g's, in brace parities."""
    gs = tuple(gs)
    n = len(gs)
    if n > f.arity:
        raise InputError(f"cannot insert {n} maps into a map of arity {f.arity}")
    if n == 0:
        return f
    parities = [g.brace_parity for g in gs]
    entries: dict = {}
    for sigma in enumerate_permutations(n):
        sign = koszul_sign(sigma, parities)
        add_into(entries, sign, brace_eval(f, sigma.apply(gs)))
    out_arity = sum(g.arity for g in gs) + f.arity - n
    return MultiMap(f.space, out_arity, f.degree + sum(g.degree for g in gs), entries)


def _bracket_or_zero(bracket, f: MultiMap, args: Sequence[MultiMap], *options):
    """Apply a bracket; arity overflow leaves no insertion pattern, so the
    term is the zero map of the signature the shapes dictate, which keeps
    sums over nestings well typed."""
    args = tuple(args)
    if len(args) <= f.arity:
        return bracket(f, args, *options)
    out_arity = sum(m.arity for m in args) + f.arity - len(args)
    out_degree = f.degree + sum(m.degree for m in args)
    return MultiMap.zero(f.space, out_arity, out_degree)


def _nestings(n: int, r: int):
    """All ways to hand the maps y_1..y_r to x_1..x_n in order: sequences
    0 <= i_1 <= j_1 <= ... <= i_n <= j_n <= r, as ((i_t, j_t)) pairs."""
    for seq in itertools.combinations_with_replacement(range(r + 1), 2 * n):
        yield tuple((seq[2 * t], seq[2 * t + 1]) for t in range(n))


def brace_axiom_sides(
    x: MultiMap,
    xs: Sequence[MultiMap],
    ys: Sequence[MultiMap],
    include_leading_slot_term: bool = True,
):
    """Both sides of the nesting identity for x{x_1..x_n}{y_1..y_r}.

    The right side redistributes the y's: each x_t swallows a consecutive
    run y_{i_t+1..j_t}, the rest feed the outer brace directly, and the
    term carries the Koszul sign of moving each x_t past the y's standing
    before its run, in brace parities.
    """
    xs = tuple(xs)
    ys = tuple(ys)
    n, r = len(xs), len(ys)
    if n > x.arity:
        raise InputError(f"cannot insert {n} maps into arity {x.arity}")
    inner = brace_eval(x, xs, include_leading_slot_term)
    if r > inner.arity:
        raise InputError(
            f"cannot insert {r} maps into the arity-{inner.arity} first brace"
        )
    lhs = brace_eval(inner, ys, include_leading_slot_term)

    bx = [m.brace_parity for m in xs]
    by = [m.brace_parity for m in ys]
    by_prefix = [0] * (r + 1)
    for i, p in enumerate(by):
        by_prefix[i + 1] = by_prefix[i] ^ p

    rhs: dict = {}
    for pairs in _nestings(n, r):
        outer_args = []
        sign = 0
        prev = 0
        for t, (i, j) in enumerate(pairs):
            outer_args.extend(ys[prev:i])
            outer_args.append(
                _bracket_or_zero(brace_eval, xs[t], ys[i:j], include_leading_slot_term)
            )
            sign ^= bx[t] & by_prefix[i]
            prev = j
        outer_args.extend(ys[prev:])
        term = _bracket_or_zero(brace_eval, x, outer_args, include_leading_slot_term)
        add_into(rhs, -1 if sign else 1, term)
    return lhs, MultiMap(x.space, lhs.arity, lhs.degree, rhs)


def brace_axiom_check(
    x: MultiMap,
    xs: Sequence[MultiMap],
    ys: Sequence[MultiMap],
    include_leading_slot_term: bool = True,
) -> bool:
    lhs, rhs = brace_axiom_sides(x, xs, ys, include_leading_slot_term)
    return lhs == rhs


def braced_interleave_terms(
    f: MultiMap, ys: Sequence[MultiMap], zs: Sequence[MultiMap]
) -> list:
    """eps-signed head permutations and rifflings at the brace level.

    Returns (sign, argument maps) pairs: for each permutation of the y's
    and each insertion pattern of the z's into the gaps, the sign is the
    Koszul sign of the permutation times (-1)^{sum |y| * (z's placed
    earlier)}, all in brace parities.  Feeding each term to f's brace and
    summing yields the partially symmetrized brace.
    """
    ys = tuple(ys)
    zs = tuple(zs)
    n, m = len(ys), len(zs)
    by = [g.brace_parity for g in ys]
    bz = [g.brace_parity for g in zs]
    terms = []
    for sigma in enumerate_permutations(n):
        base = koszul_sign(sigma, by)
        ys_s = sigma.apply(ys)
        by_s = sigma.apply(by)
        for pattern in insertion_patterns(m, n + 1):
            k = pattern.slots
            eta = 0
            seq = list(zs[: k[0]])
            zprefix = sum(bz[: k[0]]) & 1
            zpos = k[0]
            for i in range(1, n + 1):
                eta ^= by_s[i - 1] & zprefix
                seq.append(ys_s[i - 1])
                for idx in range(zpos, zpos + k[i]):
                    seq.append(zs[idx])
                    zprefix ^= bz[idx]
                zpos += k[i]
            terms.append((base * (-1 if eta else 1), tuple(seq)))
    return terms


def braced_symmetrization_sides(
    f: MultiMap, ys: Sequence[MultiMap], zs: Sequence[MultiMap]
):
    """Symmetrizing in two stages versus all at once.

    Left: permute the z's by eps, riffle them through the permuted y's
    (braced_interleave_terms), brace f with each term.  Right: the
    symmetrized brace of f with all n+m maps.
    """
    ys = tuple(ys)
    zs = tuple(zs)
    n, m = len(ys), len(zs)
    if n + m > f.arity:
        raise InputError(f"cannot insert {n + m} maps into arity {f.arity}")
    direct = symmetrize_brace(f, ys + zs)

    bz = [g.brace_parity for g in zs]
    staged: dict = {}
    for pi in enumerate_permutations(m):
        zsign = koszul_sign(pi, bz)
        zs_p = pi.apply(zs)
        for sign, seq in braced_interleave_terms(f, ys, zs_p):
            add_into(staged, zsign * sign, brace_eval(f, seq))
    return MultiMap(f.space, direct.arity, direct.degree, staged), direct


def braced_symmetrization_check(
    f: MultiMap, ys: Sequence[MultiMap], zs: Sequence[MultiMap]
) -> bool:
    staged, direct = braced_symmetrization_sides(f, ys, zs)
    return staged == direct
