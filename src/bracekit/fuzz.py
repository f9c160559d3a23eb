"""Deterministic random instances for the verification checks.

All randomness flows through :class:`SplitMix64`, a self-contained 64-bit
generator, so a seed fully determines every generated space, map, and
report byte; stdlib ``random`` is avoided on purpose to keep the stream
independent of interpreter version.

Structure families for the homotopy checks are not sampled from raw
random tables (a random bilinear map is essentially never associative);
instead they are drawn from a curated pool of associative/Lie algebras
closed under the twists applied to them (diagonal conjugation, scalar
rescaling, direct sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graded import _ints
from .homotopy import A_INFINITY, L_INFINITY, StructureFamily, antisymmetrize_structure
from .multimap import GradedSpace, MultiMap, antisymmetrize

_MASK = (1 << 64) - 1

COEFFS = (-2, -1, 1, 2)


class SplitMix64:
    """SplitMix64 stream: tiny, fast, and stable across platforms."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive on both ends."""
        if lo > hi:
            raise InputError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise InputError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]

    def chance(self, percent: int) -> bool:
        return self.next_u64() % 100 < percent

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class FuzzCaps:
    """Caps on generated instances, not all of them bounds on every check.

    max_dim and degree_lo..degree_hi bound random spaces; the curated
    families of ainfty, linfty and corollary keep their own dimensions (up
    to 3) and some fixed degrees.  max_arity bounds map arities, except
    lemma41's k <= min(4, max_arity + 1).  Stage s of a staged sampler
    inserts up to max_n + s maps, so the second stage of brace-axiom, ex33
    and thm1 takes up to max_n + 1; lemma51 ignores max_n and inserts up to
    min(4, N) maps in all.  max_out_arity bounds the output arity of every
    map check but lemma41.  Every field is an int, never a bool (_ints).
    """

    max_dim: int = 3
    max_arity: int = 3
    max_n: int = 2
    degree_lo: int = -2
    degree_hi: int = 2
    max_out_arity: int = 6

    def __post_init__(self):
        _ints(vars(self).values(), "FuzzCaps fields")
        if self.max_dim < 1:
            raise InputError("max_dim must be at least 1")
        if self.max_arity < 1:
            raise InputError("max_arity must be at least 1")
        if self.max_n < 0:
            raise InputError("max_n must be nonnegative")
        if self.degree_lo > self.degree_hi:
            raise InputError(
                f"empty degree range [{self.degree_lo}, {self.degree_hi}]"
            )
        if self.max_out_arity < 1:
            raise InputError("max_out_arity must be at least 1")


def random_space(rng: SplitMix64, caps: FuzzCaps) -> GradedSpace:
    dim = rng.randint(1, caps.max_dim)
    return GradedSpace(
        (f"e{i + 1}", rng.randint(caps.degree_lo, caps.degree_hi))
        for i in range(dim)
    )


def random_map(
    rng: SplitMix64, space: GradedSpace, arity: int, density: int = 60
) -> MultiMap:
    """A homogeneous map, nonzero by construction.

    The degree is anchored on a random (inputs, output) pair, which is
    always included; every other degree-admissible cell is filled with
    probability ``density`` percent using small nonzero coefficients.
    """
    keys = list(space.tuples(arity))
    anchor_key = rng.choice(keys)
    anchor_out = rng.randint(0, space.dim - 1)
    degree = space.degrees[anchor_out] - sum(space.degrees[i] for i in anchor_key)
    entries: dict = {}
    for key in keys:
        target = degree + sum(space.degrees[i] for i in key)
        out = {
            j: rng.choice(COEFFS)
            for j in range(space.dim)
            if space.degrees[j] == target and rng.chance(density)
        }
        if out:
            entries[key] = out
    entries.setdefault(anchor_key, {})[anchor_out] = rng.choice(COEFFS)
    return MultiMap(space, arity, degree, entries)


def random_antisym_map(
    rng: SplitMix64, space: GradedSpace, arity: int, density: int = 60
) -> MultiMap:
    """Antisymmetrization of a random map (may be zero by cancellation)."""
    return antisymmetrize(random_map(rng, space, arity, density))


def random_permutation_images(rng: SplitMix64, n: int) -> tuple:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


# ------------------------------------------------------------------ families
#
# Curated structure families.  Each associative builder returns
# (tag, StructureFamily with flavor a_infinity); tables are associative by
# construction, so the homotopy checks are expected to pass on them.


def _table_family(basis, tables, flavor=A_INFINITY) -> StructureFamily:
    """Assemble a family from {arity: {key: {out_name: coeff}}} tables."""
    space = GradedSpace(basis)
    components = []
    for arity, table in sorted(tables.items()):
        entries = {
            tuple(space.index(nm) for nm in key): {
                space.index(out): c for out, c in val.items()
            }
            for key, val in table.items()
        }
        components.append(MultiMap(space, arity, arity - 2, entries))
    return StructureFamily(space, components, flavor)


def _assoc_zero(rng: SplitMix64, caps: FuzzCaps):
    space = random_space(rng, caps)
    return "zero", StructureFamily(space, [MultiMap.zero(space, 2, 0)], A_INFINITY)


def _assoc_idempotent(rng: SplitMix64, caps: FuzzCaps):
    return "idempotent", _table_family([("e", 0)], {2: {("e", "e"): {"e": 1}}})


def _assoc_affine(rng: SplitMix64, caps: FuzzCaps):
    # a acts as a left unit on everything it does not kill: aa=a, ab=b
    return "affine", _table_family(
        [("a", 0), ("b", 0)],
        {2: {("a", "a"): {"a": 1}, ("a", "b"): {"b": 1}}},
    )


def _assoc_dual(rng: SplitMix64, caps: FuzzCaps):
    # unital part e plus a square-zero element x of arbitrary degree
    d = rng.randint(caps.degree_lo, caps.degree_hi)
    return "dual", _table_family(
        [("e", 0), ("x", d)],
        {
            2: {
                ("e", "e"): {"e": 1},
                ("e", "x"): {"x": 1},
                ("x", "e"): {"x": 1},
            }
        },
    )


def _shifted_degree(rng: SplitMix64, caps: FuzzCaps, shift: int) -> int:
    """A degree d with both d and d + shift inside the cap range.

    Curated algebras carry a few structurally fixed degrees (an idempotent
    must sit in degree 0); when the cap range cannot accommodate the
    variation this falls back to the range's low end.
    """
    lo, hi = caps.degree_lo, caps.degree_hi - max(shift, 0)
    lo = lo - min(shift, 0)
    if lo > hi:
        return caps.degree_lo
    return rng.randint(lo, hi)


def _assoc_truncated(rng: SplitMix64, caps: FuzzCaps):
    # x, x^2 with x^3 = 0; any generator degree keeps the table homogeneous
    candidates = [
        d
        for d in (-1, 0, 1)
        if caps.degree_lo <= d <= caps.degree_hi
        and caps.degree_lo <= 2 * d <= caps.degree_hi
    ] or [0]
    d = rng.choice(candidates)
    return "truncated", _table_family(
        [("x", d), ("y", 2 * d)], {2: {("x", "x"): {"y": 1}}}
    )


def _assoc_differential(rng: SplitMix64, caps: FuzzCaps):
    # two-term complex: d(b) = c*a, d(a) = 0, so d^2 = 0 on the nose
    d = _shifted_degree(rng, caps, 1)
    return "differential", _table_family(
        [("a", d), ("b", d + 1)],
        {1: {("b",): {"a": rng.choice(COEFFS)}}},
    )


def _assoc_sum(rng: SplitMix64, caps: FuzzCaps):
    # direct sum of a two-term complex and an idempotent point: the product
    # lives on e only, the differential on (a, b) only, so they commute
    d = _shifted_degree(rng, caps, 1)
    return "sum", _table_family(
        [("a", d), ("b", d + 1), ("e", 0)],
        {
            1: {("b",): {"a": rng.choice(COEFFS)}},
            2: {("e", "e"): {"e": 1}},
        },
    )


_ASSOC_BUILDERS = (
    _assoc_zero,
    _assoc_idempotent,
    _assoc_affine,
    _assoc_dual,
    _assoc_truncated,
    _assoc_differential,
    _assoc_sum,
)

_TWIST_SCALARS = (1, -1, 2, Fraction(1, 2))


def _conjugate_component(m: MultiMap, weights) -> MultiMap:
    """Rescale basis vectors e_i -> w_i e_i and transport the map."""
    entries = {}
    for key, out in m.entries.items():
        w = 1
        for i in key:
            w = w * weights[i]
        entries[key] = {j: Fraction(w, weights[j]) * c for j, c in out.items()}
    return MultiMap(m.space, m.arity, m.degree, entries)


def _twist_family(rng: SplitMix64, fam: StructureFamily) -> StructureFamily:
    """Apply structure-preserving twists: conjugation, then maybe rescale mu2.

    Diagonal conjugation preserves any identity; rescaling the arity-2
    component alone stays associative because mu2{mu2} is quadratic in it
    (only sound while no cross-arity relation mixes mu2 with others, which
    holds for the curated pool where mu1 and mu2 never interact).
    """
    weights = [rng.choice((1, 2, 3)) for _ in range(fam.space.dim)]
    components = [_conjugate_component(m, weights) for m in fam.components]
    if not any(
        m.arity == 1 and not m.is_zero() for m in components
    ) or not any(m.arity == 2 and not m.is_zero() for m in components):
        scale = rng.choice(_TWIST_SCALARS)
        components = [
            m.scale(scale) if m.arity == 2 else m for m in components
        ]
    return StructureFamily(fam.space, components, fam.flavor)


def random_a_infinity_family(rng: SplitMix64, caps: FuzzCaps):
    """(tag, family) from the curated associative pool, randomly twisted."""
    tag, fam = rng.choice(_ASSOC_BUILDERS)(rng, caps)
    if rng.chance(70):
        fam = _twist_family(rng, fam)
        tag += "+twist"
    return tag, fam


def _lie_sl2(rng: SplitMix64, caps: FuzzCaps):
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return "sl2", _table_family(
        [("e", 0), ("f", 0), ("h", 0)],
        {
            2: {
                ("h", "e"): {"e": 2},
                ("e", "h"): {"e": -2},
                ("h", "f"): {"f": -2},
                ("f", "h"): {"f": 2},
                ("e", "f"): {"h": 1},
                ("f", "e"): {"h": -1},
            }
        },
        flavor=L_INFINITY,
    )


def _lie_heisenberg(rng: SplitMix64, caps: FuzzCaps):
    c = rng.choice(COEFFS)
    return "heisenberg", _table_family(
        [("x", 0), ("y", 0), ("z", 0)],
        {2: {("x", "y"): {"z": c}, ("y", "x"): {"z": -c}}},
        flavor=L_INFINITY,
    )


def _lie_abelian(rng: SplitMix64, caps: FuzzCaps):
    space = random_space(rng, caps)
    return "abelian", StructureFamily(space, [MultiMap.zero(space, 2, 0)], L_INFINITY)


def _lie_from_associative(rng: SplitMix64, caps: FuzzCaps):
    tag, fam = random_a_infinity_family(rng, caps)
    return f"as({tag})", antisymmetrize_structure(fam)


_LIE_BUILDERS = (
    _lie_sl2,
    _lie_heisenberg,
    _lie_abelian,
    _lie_from_associative,
)


def random_l_infinity_family(rng: SplitMix64, caps: FuzzCaps):
    """(tag, family) with flavor l_infinity from the curated Lie pool."""
    return rng.choice(_LIE_BUILDERS)(rng, caps)
