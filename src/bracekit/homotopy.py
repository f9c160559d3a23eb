"""Families of structure maps and their defining relations.

A StructureFamily collects components m_k of arity k and internal degree
k - 2.  The associative flavor requires the braced squares to vanish:
for every output arity r, the sum of m_i{m_j} over i + j = r + 1 is zero.
The antisymmetric flavor requires the same with the unshuffle bracket
m_i<m_j> and antisymmetric components.

Checks are truncations: arities above max_arity are not inspected, so a
pass certifies the relations only up to that arity.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .multimap import (
    GradedSpace,
    MultiMap,
    add_into,
    antisymmetrize,
    is_antisymmetric,
)
from .brace import brace_eval
from .symbrace import symbrace_eval

A_INFINITY = "a_infinity"
L_INFINITY = "l_infinity"
_FLAVORS = (A_INFINITY, L_INFINITY)


class StructureFamily:
    """Components of a homotopy structure, indexed by arity."""

    __slots__ = ("space", "components", "flavor", "_by_arity")

    def __init__(
        self, space: GradedSpace, components: Sequence[MultiMap], flavor: str
    ):
        if flavor not in _FLAVORS:
            raise InputError(f"unknown structure flavor {flavor!r}")
        components = tuple(components)
        by_arity = {}
        for m in components:
            if m.space != space:
                raise InputError("all components must live on the family's space")
            if m.arity in by_arity:
                raise InputError(f"duplicate component of arity {m.arity}")
            if m.degree != m.arity - 2:
                raise InputError(
                    f"arity-{m.arity} component must have degree {m.arity - 2}, "
                    f"got {m.degree}"
                )
            if flavor == L_INFINITY and not is_antisymmetric(m):
                raise InputError(
                    f"arity-{m.arity} component must be antisymmetric"
                )
            by_arity[m.arity] = m
        self.space = space
        self.components = components
        self.flavor = flavor
        self._by_arity = by_arity

    def component(self, arity: int) -> MultiMap | None:
        return self._by_arity.get(arity)

    @property
    def max_component_arity(self) -> int:
        return max(self._by_arity, default=0)

    def __repr__(self) -> str:
        arities = sorted(self._by_arity)
        return f"StructureFamily({self.flavor}, arities={arities})"


def _relation_defects(fam: StructureFamily, max_arity: int, bracket) -> dict:
    if max_arity < 1:
        raise InputError("max_arity must be at least 1")
    defects = {}
    for r in range(1, max_arity + 1):
        total: dict = {}
        for i in range(1, r + 1):
            j = r + 1 - i
            mi = fam.component(i)
            mj = fam.component(j)
            if mi is not None and mj is not None:
                add_into(total, 1, bracket(mi, [mj]))
        defects[r] = MultiMap(fam.space, r, r - 3, total)
    return defects


def a_infinity_defects(fam: StructureFamily, max_arity: int) -> dict:
    """Output arity -> sum of m_i{m_j} with i + j - 1 = that arity."""
    if fam.flavor != A_INFINITY:
        raise InputError(f"expected an {A_INFINITY} family, got {fam.flavor}")
    return _relation_defects(fam, max_arity, brace_eval)


def a_infinity_check(fam: StructureFamily, max_arity: int) -> bool:
    return all(d.is_zero() for d in a_infinity_defects(fam, max_arity).values())


def l_infinity_defects(fam: StructureFamily, max_arity: int) -> dict:
    """Output arity -> sum of m_i<m_j> with i + j - 1 = that arity."""
    if fam.flavor != L_INFINITY:
        raise InputError(f"expected an {L_INFINITY} family, got {fam.flavor}")
    return _relation_defects(fam, max_arity, symbrace_eval)


def l_infinity_check(fam: StructureFamily, max_arity: int) -> bool:
    return all(d.is_zero() for d in l_infinity_defects(fam, max_arity).values())


def antisymmetrize_structure(fam: StructureFamily) -> StructureFamily:
    """Antisymmetrize every component, reflavoring the family."""
    if fam.flavor != A_INFINITY:
        raise InputError(f"expected an {A_INFINITY} family, got {fam.flavor}")
    return StructureFamily(
        fam.space,
        [antisymmetrize(m) for m in fam.components],
        L_INFINITY,
    )


def antisymmetrized_structure_check(fam: StructureFamily, max_arity: int) -> bool:
    """Does antisymmetrizing a valid associative-flavor family yield a
    valid antisymmetric-flavor family, up to max_arity?

    Feeding this an invalid family is an input error: the claim being
    checked presupposes the source relations hold.
    """
    if not a_infinity_check(fam, max_arity):
        raise InputError(
            "the source family fails its own defining relations; "
            "antisymmetrization has nothing to preserve"
        )
    return l_infinity_check(antisymmetrize_structure(fam), max_arity)
