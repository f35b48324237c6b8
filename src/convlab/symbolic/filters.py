"""Cofinite-centered filters over the representable set classes.

A generator pair (wide, core) with core <= wide stands for the filter of
all sets F with core <= F and wide - F finite (the cofinite filter of
``wide`` centered at ``core``).  Finite meets of such generators normalize
to a single generator,

    (B1/A1) meet (B2/A2)  =  (B1 | B2 / A1 | A2),

because a set is in both filters exactly when it contains both cores and
misses only finitely much of either wide part; dually finite joins give
(B1 & B2 / A1 & A2), possibly degenerate.  Every SymbolicFilter is
therefore stored in canonical single-generator form, and the degenerate
filter is the canonical (empty/empty) value.

Decision procedures (membership, mesh, order) reduce to emptiness and
infiniteness of boolean combinations of the generator parts; the
truncation harness cross-checks those primitives on finite windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sets import UnrepresentableSet


@dataclass(frozen=True, slots=True)
class SymbolicFilter:
    """Canonical single-generator cofinite-centered filter."""

    wide: object
    core: object

    @property
    def degenerate(self) -> bool:
        """Contains every set (including the empty one)."""
        return self.core.is_empty and self.wide.is_finite

    @property
    def free(self) -> bool:
        return self.core.is_empty and not self.degenerate

    @property
    def principal(self) -> bool:
        """Up-set of the core; canonical form has wide == core then."""
        return (not self.degenerate) and (self.wide - self.core).is_finite

    def member(self, s) -> bool:
        return self.core.subset_of(s) and (self.wide - s).is_finite

    def __repr__(self):
        if self.degenerate:
            return "SymbolicFilter<degenerate>"
        return f"SymbolicFilter({self.wide!r} / {self.core!r})"


def cofinite_filter(wide, core=None) -> SymbolicFilter:
    """The cofinite filter of ``wide`` centered at ``core``; canonicalized."""
    if core is None:
        core = wide - wide  # the empty set of the right carrier class
    if not core.subset_of(wide):
        raise UnrepresentableSet("the center must sit inside the wide part")
    if core.is_empty and wide.is_finite:
        empty = wide - wide
        return SymbolicFilter(empty, empty)
    if (wide - core).is_finite:
        return SymbolicFilter(core, core)
    return SymbolicFilter(wide, core)


def principal_filter(core) -> SymbolicFilter:
    return cofinite_filter(core, core)


def symbolic_meet(f1: SymbolicFilter, f2: SymbolicFilter) -> SymbolicFilter:
    """Infimum: the intersection of the two member families."""
    return cofinite_filter(f1.wide | f2.wide, f1.core | f2.core)


def symbolic_join(f1: SymbolicFilter, f2: SymbolicFilter) -> SymbolicFilter:
    """Supremum: generated by pairwise member intersections; degenerate
    when the two filters have eventually disjoint members."""
    return cofinite_filter(f1.wide & f2.wide, f1.core & f2.core)


def symbolic_mesh(f1: SymbolicFilter, f2: SymbolicFilter) -> bool:
    """Every member of one meets every member of the other.

    Members are core + (wide minus finite), so the filters mesh iff the
    cores meet or the wide parts meet infinitely.  A core meeting the other
    wide part infinitely is the second clause again, as ``cofinite_filter``
    keeps every core inside its wide part.
    """
    if f1.degenerate or f2.degenerate:
        return False
    return f1.core.meets(f2.core) or f1.wide.infinitely_meets(f2.wide)


def symbolic_leq(f1: SymbolicFilter, f2: SymbolicFilter) -> bool:
    """f1 coarser-or-equal f2: every member of f1 is a member of f2.

    Holds iff core2 <= core1 and wide2 - (core1 | wide1) is finite.
    """
    return (f2.core.subset_of(f1.core)
            and (f2.wide - (f1.core | f1.wide)).is_finite)


def symbolic_equal(f1: SymbolicFilter, f2: SymbolicFilter) -> bool:
    return symbolic_leq(f1, f2) and symbolic_leq(f2, f1)


def decompose(f: SymbolicFilter) -> tuple[SymbolicFilter, SymbolicFilter]:
    """(free part, principal part): the free part is the cofinite filter of
    wide - core, the principal part the up-set of the core; either may be
    degenerate.  Their meet recovers the filter and their join is
    degenerate (checked by the caller's tests, not assumed here)."""
    free_part = cofinite_filter(f.wide - f.core)
    principal_part = principal_filter(f.core)
    return free_part, principal_part


def is_sequential(f: SymbolicFilter) -> bool:
    """Expressible as one cofinite-centered generator on a countable
    carrier: true for every non-degenerate canonical filter here (the
    carriers are countable, and canonicalization always lands on a single
    generator)."""
    return not f.degenerate


def mesh_disjoint_members(f1: SymbolicFilter, f2: SymbolicFilter):
    """When the filters do not mesh, two disjoint witness members."""
    if symbolic_mesh(f1, f2):
        raise ValueError("filters mesh; no disjoint members exist")
    e1 = f1.wide & (f2.core | f2.wide)
    e2 = f2.wide & (f1.core | f1.wide)
    m1 = f1.core | (f1.wide - e1)
    m2 = f2.core | (f2.wide - e2)
    return m1, m2
