"""Families of structure maps and their defining relations.

A StructureFamily collects components m_k of arity k and internal degree
k - 2.  The associative flavor requires the braced squares to vanish:
for every output arity r, the sum of m_i{m_j} over i + j = r + 1 is zero.
The antisymmetric flavor requires the same with the unshuffle bracket
m_i<m_j> and antisymmetric components.  Each relation is one
brace.bracket_sum of its terms m_i{m_j} or m_i<m_j>.

Checks are truncations: arities above max_arity are not inspected, so a
pass certifies the relations only up to that arity.  A max_arity above
both graded.ENUMERATION_CAP and 2k - 1, for k the family's top component
arity, is refused before any bracket is evaluated: no relation above 2k - 1
has a term, and the work of a check grows with the square of max_arity.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, ResourceLimitError
from .graded import ENUMERATION_CAP
from .multimap import GradedSpace, MultiMap, antisymmetrize, is_antisymmetric
from .brace import brace_eval, bracket_sum
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


def _relation_defects(family: StructureFamily, max_arity: int, bracket) -> dict:
    if max_arity < 1:
        raise InputError("max_arity must be at least 1")
    cap = max(ENUMERATION_CAP, 2 * family.max_component_arity - 1)
    if max_arity > cap:
        raise ResourceLimitError(f"max_arity {max_arity} exceeds cap {cap}")
    by_arity = family._by_arity
    defects = {}
    for r in range(1, max_arity + 1):
        pairs = [(i, r + 1 - i) for i in sorted(by_arity) if r + 1 - i in by_arity]
        terms = [(1, (bracket, by_arity[i], [by_arity[j]])) for i, j in pairs]
        defects[r] = bracket_sum(family.space, (r, r - 3), terms)
    return defects


def a_infinity_defects(family: StructureFamily, max_arity: int) -> dict:
    """Output arity -> sum of m_i{m_j} with i + j - 1 = that arity."""
    if family.flavor != A_INFINITY:
        raise InputError(f"expected an {A_INFINITY} family, got {family.flavor}")
    return _relation_defects(family, max_arity, brace_eval)


def a_infinity_check(family: StructureFamily, max_arity: int) -> bool:
    return all(d.is_zero() for d in a_infinity_defects(family, max_arity).values())


def l_infinity_defects(family: StructureFamily, max_arity: int) -> dict:
    """Output arity -> sum of m_i<m_j> with i + j - 1 = that arity."""
    if family.flavor != L_INFINITY:
        raise InputError(f"expected an {L_INFINITY} family, got {family.flavor}")
    return _relation_defects(family, max_arity, symbrace_eval)


def l_infinity_check(family: StructureFamily, max_arity: int) -> bool:
    return all(d.is_zero() for d in l_infinity_defects(family, max_arity).values())


def antisymmetrize_structure(family: StructureFamily) -> StructureFamily:
    """Antisymmetrize every component, reflavoring the family."""
    if family.flavor != A_INFINITY:
        raise InputError(f"expected an {A_INFINITY} family, got {family.flavor}")
    return StructureFamily(
        family.space,
        [antisymmetrize(m) for m in family.components],
        L_INFINITY,
    )
