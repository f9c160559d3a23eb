"""Symmetric braces: the unshuffle bracket on antisymmetric maps and the
symmetrized insertion brace, plus the checks tying the two together.

Two brackets satisfy the symmetric-brace axiom here:

  * symbrace_eval: defined only on antisymmetric maps; deals the arguments
    to the inserted maps through unshuffles with chi signs and a global
    (-1)^delta,

        delta = sum_i (N - i) q_i + sum_{j<i} q_i a_j
              + sum_{j<i} a_i a_j + sum_i (n - i) a_i.

  * symmetrize_brace (defined in brace, re-exported here): the eps-signed
    sum of plain braces f{g_sigma} over all orderings of the inserted maps,
    defined for any maps.

antisymmetrized_brace_check verifies the bridge: antisymmetrizing the
symmetrized brace of f equals the unshuffle bracket of the
antisymmetrizations.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .graded import (
    UnshuffleSpec,
    antisym_koszul_sign,
    enumerate_unshuffles,
    insertion_patterns,
    koszul_sign,
)
from .multimap import (
    MultiMap,
    _tensor_core,
    add_into,
    antisymmetrize,
    is_antisymmetric,
)
# brace_eval and symmetrize_brace stay importable from this module
from .brace import _bracket_or_zero, brace_eval, symmetrize_brace

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
    by every unshuffle, each term signed by chi of the unshuffle; the whole
    sum is scaled by (-1)^delta.  Inputs must all be antisymmetric.
    """
    gs = tuple(gs)
    n = len(gs)
    N = f.arity
    if n > N:
        raise InputError(f"cannot insert {n} maps into a map of arity {N}")
    for m in (f, *gs):
        if m.space != f.space:
            raise InputError("all maps in a bracket must share one space")
        if not is_antisymmetric(m):
            raise InputError("the unshuffle bracket needs antisymmetric maps")
    if n == 0:
        return f
    arities = tuple(g.arity for g in gs)
    degrees = tuple(g.degree for g in gs)
    free = N - n
    out_arity = sum(arities) + free
    out_degree = f.degree + sum(degrees)
    base = -1 if delta_parity(N, arities, degrees) else 1
    gammas = list(enumerate_unshuffles(UnshuffleSpec(arities + (free,))))
    slots = (0,) * n + (free,)

    space = f.space
    basis = [space.basis_vector(i) for i in range(space.dim)]
    entries = {}
    for t in space.tuples(out_arity):
        degs = [space.degrees[i] for i in t]
        args = [basis[i] for i in t]
        acc: dict = {}
        for gamma in gammas:
            sign = antisym_koszul_sign(gamma, degs)
            v = _tensor_core(f, gs, slots, gamma.apply(args))
            for j, c in v.coeffs.items():
                acc[j] = acc.get(j, 0) + sign * c
        if acc:
            entries[t] = {j: base * c for j, c in acc.items() if c}
    return MultiMap(space, out_arity, out_degree, entries)


def graded_symmetry_check(f: MultiMap, gs: Sequence[MultiMap]) -> bool:
    """Swapping adjacent inserted maps costs (-1)^{|g_i||g_{i+1}|} in brace
    parities; checks every adjacent swap against the base bracket."""
    gs = tuple(gs)
    n = len(gs)
    if n <= 1:
        return True
    base = symbrace_eval(f, gs)
    parities = [g.brace_parity for g in gs]
    for i in range(n - 1):
        swapped = gs[:i] + (gs[i + 1], gs[i]) + gs[i + 2 :]
        sign = -1 if parities[i] & parities[i + 1] else 1
        if symbrace_eval(f, swapped) != base.scale(sign):
            return False
    return True


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
    earlier blocks.
    """
    if flavor not in _FLAVORS:
        raise InputError(f"unknown bracket flavor {flavor!r}")
    bracket = symbrace_eval if flavor == FLAVOR_UNSHUFFLE else symmetrize_brace
    gs = tuple(gs)
    xs = tuple(xs)
    n, r = len(gs), len(xs)
    if n > f.arity:
        raise InputError(f"cannot insert {n} maps into arity {f.arity}")
    inner = bracket(f, gs)
    if r > inner.arity:
        raise InputError(
            f"cannot insert {r} maps into the arity-{inner.arity} first bracket"
        )
    lhs = bracket(inner, xs)

    bg = [g.brace_parity for g in gs]
    bx = [x.brace_parity for x in xs]
    rhs: dict = {}
    block_cache: dict = {}
    for parts in insertion_patterns(r, n + 1):
        sizes = parts.slots
        for gamma in enumerate_unshuffles(UnshuffleSpec(sizes)):
            dealt = gamma.apply(xs)
            sign_exp = 0
            prefix = 0
            pos = 0
            outer_args = []
            for b in range(n):
                size = sizes[b]
                block = dealt[pos : pos + size]
                key = (b, gamma.images[pos : pos + size])
                if key not in block_cache:
                    block_cache[key] = _bracket_or_zero(bracket, gs[b], block)
                outer_args.append(block_cache[key])
                sign_exp ^= bg[b] & prefix
                for x in block:
                    prefix ^= x.brace_parity
                pos += size
            outer_args.extend(dealt[pos:])
            term = _bracket_or_zero(bracket, f, outer_args)
            sign = koszul_sign(gamma, bx) * (-1 if sign_exp else 1)
            add_into(rhs, sign, term)
    return lhs, MultiMap(f.space, lhs.arity, lhs.degree, rhs)


def symbrace_axiom_check(
    f: MultiMap,
    gs: Sequence[MultiMap],
    xs: Sequence[MultiMap],
    flavor: str = FLAVOR_UNSHUFFLE,
) -> bool:
    lhs, rhs = symbrace_axiom_sides(f, gs, xs, flavor)
    return lhs == rhs


def symmetrized_axiom_check(
    f: MultiMap, gs: Sequence[MultiMap], xs: Sequence[MultiMap]
) -> bool:
    """The symmetrized insertion brace satisfies the symmetric-brace axiom."""
    return symbrace_axiom_check(f, gs, xs, FLAVOR_SYMMETRIZED)


def antisymmetrized_brace_sides(f: MultiMap, gs: Sequence[MultiMap]):
    """as distributes over the symmetrized brace, against the unshuffle
    bracket of the antisymmetrizations.

    Left: as(sum over orderings sigma of eps(sigma) f{g_sigma}), which by
    linearity is the sum of the eps-signed as(f{g_sigma}).
    Right: as(f)<as(g_1), ..., as(g_n)>.
    """
    gs = tuple(gs)
    n = len(gs)
    if n > f.arity:
        raise InputError(f"cannot insert {n} maps into arity {f.arity}")
    rhs = symbrace_eval(antisymmetrize(f), [antisymmetrize(g) for g in gs])
    return antisymmetrize(symmetrize_brace(f, gs)), rhs


def antisymmetrized_brace_check(f: MultiMap, gs: Sequence[MultiMap]) -> bool:
    lhs, rhs = antisymmetrized_brace_sides(f, gs)
    return lhs == rhs
