"""Compactness of families at families, compact relations, the
characteristic convergence, and the finite fragment of completeness.

A family A is compact at a family B (for a filter class) when every class
filter meshing A has an adherence meshing B.  Compactoid means compact at
the whole space.  A relation R from (W, theta) to (Z, sigma) is compact
when for every filter converging to w, every class filter on Z meshing the
image filter has an adherence meeting R(w); the class is read at sigma
(so the closed-class selector means sigma-closed principal filters).

Compactness has a closed form.  Adherence is the union of the singleton
limits, so adh ^c misses a member b of B exactly when c misses
P_b = {x : lim ^{x} meets b}.  Call P_b the hull of b for the principal
classes; for the closed class call the least open set containing P_b (the
union of the least opens of its points) the hull.  The largest class set
whose adherence misses b is then full - hull (closed sets are closed under
finite unions), and meshing is upward closed, so A is compact at B exactly
when, for every b in B, the hull is the whole carrier or some member of A
lies inside the hull (hull_holds).  compact_at_masks reads one hull per
member of B, in O(|B| * (n + |A|)) instead of a scan over up to 2^n class
filters, and is_relation_compact reads one hull per row R(w); neither
builds a table over the 2^n masks.  hull_table holds the hull of every
mask, one table for the principal selectors and one for the closed class;
it reads only the singleton limits, and for the closed class the least
opens, so a caller that asks many questions of small spaces builds it
once per distinct value of those, as the compactness suite of laws does,
and image_of_compact takes its hypothesis as a verdict and reads its
conclusion off the target's table.  The scan, is_compact_at_scan, is the
oracle the compactness suite compares with.  That suite keeps, for one
call, a record per distinct value each question reads (its docstring
lists the keys), so hull_table, the scan, is_relation_compact and
image_of_compact run once per distinct input rather than once per space
or instance.

On a finite carrier every filter has adherent points, so every space is
compact and the completeness number is 0; completeness_number_finite
verifies the premise rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import (
    CarrierMismatch,
    FiniteFilter,
    FiniteRelation,
    InvariantViolation,
    SetFamily,
    Subset,
    bits_of,
)
from .functors import Selector, class_filter_masks
from .spaces import Convergence, adherence_table, min_open_table


@dataclass(frozen=True, slots=True)
class CompactnessQuery:
    conv: Convergence
    at_family: SetFamily      # the family tested for compactness
    relative_to: SetFamily    # the family it should be compact at
    selector: Selector

    def __post_init__(self):
        if (self.at_family.carrier != self.conv.carrier
                or self.relative_to.carrier != self.conv.carrier):
            raise CarrierMismatch("compactness query parts on one carrier")


def is_compact_at_scan(q: CompactnessQuery) -> bool:
    """Oracle of is_compact_at: every class filter meshing the first family
    has adherence meshing the second, one class filter at a time."""
    adh = adherence_table(q.conv)
    for c in class_filter_masks(q.selector, q.conv):
        if (all(c & a for a in q.at_family.masks)
                and not all(adh[c] & b for b in q.relative_to.masks)):
            return False
    return True


def _hulls(conv: Convergence, b_masks, sel: Selector) -> list[int]:
    """Per member b, the points whose singleton filter has a limit in b,
    each opened up to its least open set for the closed class."""
    least = min_open_table(conv) if sel is Selector.F0_CLOSED else None
    singles = [(x, conv.table[1 << x]) for x in conv.carrier.points()]
    hulls = []
    for b in b_masks:
        hull = 0
        for x, lim in singles:
            if lim & b:
                hull |= 1 << x if least is None else least[x]
        hulls.append(hull)
    return hulls


def hull_table(conv: Convergence, sel: Selector) -> list[int]:
    """The hull of every mask, indexed by mask: one table serves the
    principal selectors F0, F1 and F_ALL, another the closed class.  A
    caller that asks many compactness questions of one space builds it
    once; compact_at_masks builds only the hulls it reads."""
    return _hulls(conv, range(conv.carrier.full + 1), sel)


def hull_holds(hull: int, a_masks, full: int) -> bool:
    """Compactness at one member b, read off its hull: the hull is the
    whole carrier or holds some member of the first family."""
    return hull == full or any(a & ~hull == 0 for a in a_masks)


def compact_at_masks(conv: Convergence, a_masks, b_masks,
                     sel: Selector) -> bool:
    """The family of a_masks is compact at the family of b_masks: for
    every b, the hull is full or holds some member of the first family."""
    full = conv.carrier.full
    return all(hull_holds(hull, a_masks, full)
               for hull in _hulls(conv, b_masks, sel))


def is_compact_at(q: CompactnessQuery) -> bool:
    """Every class filter meshing the first family has adherence meshing
    the second."""
    return compact_at_masks(q.conv, q.at_family.masks, q.relative_to.masks,
                            q.selector)


def compact_at_sets(conv: Convergence, a: Subset, b: Subset,
                    sel: Selector = Selector.F_ALL) -> bool:
    """Set-level compactness: the singleton families."""
    if a.carrier != conv.carrier or b.carrier != conv.carrier:
        raise CarrierMismatch("compactness query parts on one carrier")
    return compact_at_masks(conv, (a.bits,), (b.bits,), sel)


def is_compactoid_filter(conv: Convergence, f: FiniteFilter,
                         sel: Selector = Selector.F_ALL) -> bool:
    """Compact at the whole space."""
    if f.carrier != conv.carrier:
        raise CarrierMismatch("compactness query parts on one carrier")
    return compact_at_masks(conv, (f.base,), (conv.carrier.full,), sel)


def is_relation_compact(rel: FiniteRelation, theta: Convergence,
                        sigma: Convergence, sel: Selector) -> bool:
    """{R(a)} is compact at {R(w)} in sigma whenever w is a limit of ^a:
    R(a) lies inside the hull of R(w) (an empty image meshes nothing)."""
    if rel.source != theta.carrier or rel.target != sigma.carrier:
        raise CarrierMismatch("relation endpoints do not match the spaces")
    hull = _hulls(sigma, rel.rows, sel)
    for a in range(1, theta.carrier.full + 1):
        img = rel.image_mask(a)
        for w in bits_of(theta.table[a]):
            if img & ~hull[w]:
                return False
    return True


def characteristic(conv: Convergence) -> Convergence:
    """All-or-nothing limits: the whole space when the original filter
    converges somewhere, empty otherwise.  Centeredness is inherited from
    the original space (singleton filters always converge)."""
    full = conv.carrier.full
    table = [0] * (full + 1)
    for a in range(1, full + 1):
        table[a] = full if conv.table[a] else 0
    return Convergence(conv.carrier, tuple(table))


@dataclass(frozen=True, slots=True)
class CheckedProposition:
    holds: bool
    witness: dict | None


def image_of_compact(rel: FiniteRelation, theta: Convergence,
                     sigma: Convergence, fam: SetFamily, at: Subset,
                     rel_compact: bool, fam_compact: bool,
                     sigma_hulls: list[int]) -> CheckedProposition:
    """If the relation is class-compact (rel_compact: is_relation_compact)
    and the family is class-compact at the set (fam_compact), the image
    family must be class-compact at the relational image, read on
    sigma_hulls (sigma's hull_table for the class).  Returns the hypothesis
    record; a witness signals a failed implication (none is expected)."""
    if fam.carrier != theta.carrier or at.carrier != theta.carrier:
        raise CarrierMismatch("family and base set live on the source")
    if not (rel_compact and fam_compact):
        return CheckedProposition(True, None)  # hypothesis empty
    images = [rel.image_mask(m) for m in fam.masks]
    if hull_holds(sigma_hulls[rel.image_mask(at.bits)], images,
                  sigma.carrier.full):
        return CheckedProposition(True, None)
    return CheckedProposition(False, {
        "family": [list(s.labels()) for s in fam],
        "at": list(at.labels()),
    })


def completeness_number_finite(conv: Convergence) -> int:
    """0, after verifying the space is compact (every filter adherent)."""
    if not all(adherence_table(conv)[1:]):
        raise InvariantViolation(
            "finite carrier with a non-adherent filter cannot happen")
    return 0
