"""Finite convergence spaces.

A convergence on a carrier X assigns to each nonempty subset A (standing
for the principal filter of A) the set lim ^A of its limit points, subject
to two axioms:

  centered:  x in lim ^{x}
  antitone:  B <= A  ==>  lim ^A <= lim ^B

(the second is the principal face of isotony: ^A is a subfamily of ^B
exactly when B <= A).  The table is a dense tuple indexed by subset mask,
so limits, adherences and the lattice operations are O(1)-ish bit work.

The antitone axiom collapses the quantifiers over pairs of masks that the
definitions mention, so the query path runs in O(n * 2^n), not O(4^n):

  validate_table   antitony checked on covering pairs (b = a minus a point)
  adherence_table  adh ^H = union of lim ^{x} over the points x of H
  open_masks       O is open iff it contains the vicinity of each point of O
  closure_mask     cl A is the least fixed point of set adherence above A

Both are families.union_table of per-point masks, and so is every
pretopology: pretopology_table gives lim ^A = {x : A <= V(x)} as the
families.meet_table of the transposed vicinities, for
pretopology_from_vicinities, topology_from_opens and (in functors) the
topologizer alike.

The literal quantifications stay once each, as oracles that the law sweep
and the property tests compare against: adherence_scan, open_masks_scan
and antitone_scan.  The last also lists the violations of a failing
table; it walks only the submasks of each mask, so a malformed table is
rejected in O(3^n).

The empty set is excluded from the table domain: filters here are
non-degenerate, and nothing in the calculus ever asks for lim ^0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .families import (
    Carrier,
    CarrierMismatch,
    CapExceeded,
    DegenerateFilter,
    FiniteFilter,
    InvariantViolation,
    SetFamily,
    Subset,
    ValidationError,
    bits_of,
    complement_family,
    meet_table,
    transpose,
    union_table,
)

MAX_PRODUCT = 16


@dataclass(frozen=True, slots=True)
class Convergence:
    """carrier + total limit table over nonempty subset masks."""

    carrier: Carrier
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != (1 << self.carrier.size):
            raise ValidationError(["limit table must cover every subset mask"])

    @classmethod
    def make(cls, carrier: Carrier, table: Iterable[int]) -> "Convergence":
        """Validate and build; raises ValidationError listing every violation."""
        table = tuple(table)
        violations = validate_table(carrier, table)
        if violations:
            raise ValidationError(violations)
        return cls(carrier, table)

    def limit(self, f: FiniteFilter) -> Subset:
        if f.carrier != self.carrier:
            raise CarrierMismatch("filter lives on a different carrier")
        if f.degenerate:
            raise DegenerateFilter("the degenerate filter has no limit")
        return Subset(self.carrier, self.table[f.base])

    def __repr__(self):
        cells = ", ".join(
            f"{_label_set(self.carrier, m)}->"
            f"{_label_set(self.carrier, self.table[m])}"
            for m in range(1, self.carrier.full + 1))
        return f"Convergence[{cells}]"


def _label_set(carrier: Carrier, mask: int) -> str:
    """The mask's labels as a set literal, in carrier order, not hash order."""
    return "{%s}" % ", ".join(map(repr, carrier.labels_of(mask)))


def validate_table(carrier: Carrier, table: tuple[int, ...]) -> list[str]:
    """Report every violated axiom instance; empty list means valid.

    Antitony is checked on covering pairs only, which yields it on all pairs
    by transitivity; the full pair scan runs only when a covering pair
    fails, so that every violated instance is listed."""
    out = []
    full = carrier.full
    if len(table) != full + 1:
        return [f"table has {len(table)} entries, expected {full + 1}"]
    for m in range(1, full + 1):
        if not 0 <= table[m] <= full:
            out.append(
                f"limit of {_label_set(carrier, m)} is not a subset")
    if out:
        return out
    for i in carrier.points():
        if not table[1 << i] >> i & 1:
            out.append(f"centered axiom violated at point {carrier.labels[i]}")
    if not _antitone_on_covers(table):
        out += antitone_scan(carrier, table)
    return out


def _antitone_on_covers(table: tuple[int, ...]) -> bool:
    """lim^a <= lim^b for every pair with b = a minus one point."""
    for a in range(1, len(table)):
        la = table[a]
        if not la or not a & (a - 1):
            continue
        rest = a
        while rest:
            low = rest & -rest
            if la & ~table[a ^ low]:
                return False
            rest ^= low
    return True


def antitone_scan(carrier: Carrier, table: tuple[int, ...]) -> list[str]:
    """Oracle: every violated antitone instance, over all pairs b < a.

    For each a with a nonempty limit, b walks the proper nonempty submasks
    of a in ascending order (b = (b - a) & a is the next one): the pairs
    of a double loop over all masks, in its order, in O(3^n) steps."""
    out = []
    for a in range(1, carrier.full + 1):
        la = table[a]
        if not la:
            continue
        b = a & -a
        while b != a:
            if la & ~table[b]:
                out.append(
                    "antitone axiom violated: "
                    f"lim^{_label_set(carrier, a)} exceeds "
                    f"lim^{_label_set(carrier, b)}")
            b = (b - a) & a
    return out


# ---------------------------------------------------------------------------
# adherence / openness, mask level
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def adherence_table(conv: Convergence) -> tuple[int, ...]:
    """adh[H] for every mask H: the union of limits over masks meeting H.

    Each mask K meeting H holds a point x of H, and lim^K <= lim^{x} by
    antitony, so adh[H] is the union of the singleton limits over the
    points of H."""
    return union_table([conv.table[1 << i] for i in conv.carrier.points()])


def adherence_scan(conv: Convergence) -> tuple[int, ...]:
    """Oracle for adherence_table: the union over every mask meeting H."""
    full = conv.carrier.full
    table = conv.table
    out = [0] * (full + 1)
    for h in range(1, full + 1):
        acc = 0
        for k in range(1, full + 1):
            if k & h:
                acc |= table[k]
        out[h] = acc
    return tuple(out)


def adherence_mask(conv: Convergence, fam_masks: Iterable[int]) -> int:
    """Adherence of an arbitrary family: union of lim^H over H meshing it."""
    fam = list(fam_masks)
    if len(fam) == 1:
        return adherence_table(conv)[fam[0]] if fam[0] else 0
    full = conv.carrier.full
    acc = 0
    for h in range(1, full + 1):
        if all(h & a for a in fam):
            acc |= conv.table[h]
    return acc


def vicinity_masks(conv: Convergence) -> tuple[int, ...]:
    """Per point x, the vicinity V(x): the union of the A with x in lim^A."""
    vic = [0] * conv.carrier.size
    for a, lim in enumerate(conv.table):
        while lim:
            low = lim & -lim
            vic[low.bit_length() - 1] |= a
            lim ^= low
    return tuple(vic)


@lru_cache(maxsize=None)
def open_masks(conv: Convergence) -> tuple[int, ...]:
    """All open masks: O is open iff it contains the vicinity of each of its
    points.  The union of the vicinities over every mask is one table;
    openness is then tested per mask, because a subset of an open set need
    not be open."""
    reach = union_table(vicinity_masks(conv))
    return tuple(o for o, r in enumerate(reach) if r & ~o == 0)


def open_masks_scan(conv: Convergence) -> tuple[int, ...]:
    """Oracle for open_masks: O meeting lim^A forces A <= O, for every A."""
    full = conv.carrier.full
    table = conv.table
    out = []
    for o in range(full + 1):
        if all(not (o & table[a]) or a & ~o == 0 for a in range(1, full + 1)):
            out.append(o)
    return tuple(out)


@lru_cache(maxsize=None)
def closed_masks(conv: Convergence) -> tuple[int, ...]:
    full = conv.carrier.full
    return tuple(sorted(full & ~o for o in open_masks(conv)))


def _least_opens(carrier: Carrier, opens: Iterable[int]) -> tuple[int, ...]:
    """Per point, the intersection of the given opens that contain it."""
    out = [carrier.full] * carrier.size
    for o in opens:
        for i in bits_of(o):
            out[i] &= o
    return tuple(out)


def min_open_table(conv: Convergence) -> tuple[int, ...]:
    """Per point, the smallest open set containing it (opens are cap-closed)."""
    return _least_opens(conv.carrier, open_masks(conv))


def closure_mask(conv: Convergence, mask: int) -> int:
    """Least closed superset: the least fixed point of set adherence above
    the mask (a set C is closed iff adh ^C lies in C)."""
    adh, cur = adherence_table(conv), mask
    while adh[cur] & ~cur:
        cur |= adh[cur]
    return cur


# ---------------------------------------------------------------------------
# public, Subset/SetFamily level
# ---------------------------------------------------------------------------

def is_open(conv: Convergence, subset: Subset) -> bool:
    return subset.bits in open_masks(conv)


def open_sets(conv: Convergence) -> SetFamily:
    return SetFamily(conv.carrier, frozenset(open_masks(conv)))


def interior_mask(conv: Convergence, mask: int) -> int:
    acc = 0
    for o in open_masks(conv):
        if o & ~mask == 0:
            acc |= o
    return acc


def closure(conv: Convergence, subset: Subset) -> Subset:
    return Subset(conv.carrier, closure_mask(conv, subset.bits))


def adherence(conv: Convergence, fam: SetFamily | Subset) -> Subset:
    """Adherence of a family; a bare subset A means the family {A}."""
    if isinstance(fam, Subset):
        fam = SetFamily(conv.carrier, frozenset({fam.bits}))
    if fam.carrier != conv.carrier:
        raise CarrierMismatch("family lives on a different carrier")
    return Subset(conv.carrier, adherence_mask(conv, fam.masks))


def inherence(conv: Convergence, fam: SetFamily) -> Subset:
    """Complement-dual of adherence: inh P = (adh P_c)^c.  cover_clauses
    reads it off one adherence pass."""
    return ~adherence(conv, complement_family(fam))


def cover_clauses(conv: Convergence, fam: SetFamily) -> tuple[int, int]:
    """The two sets a target of the family must miss to be covered, one per
    clause of is_cover; neither depends on the target, so a caller that
    asks about many targets of one (space, family) builds them once.  The
    filter clause: the union U of lim ^H over the H that lie inside no
    member of the family (every filter converging into the target holds a
    member exactly when the target misses U).  The adherence clause, one
    adherence pass over the complement family P_c: adh P_c, the complement
    of inh P."""
    outside = 0
    for h in range(1, conv.carrier.full + 1):
        if not any(h & ~p == 0 for p in fam.masks):
            outside |= conv.table[h]
    return outside, adherence_mask(conv, complement_family(fam).masks)


def is_cover(conv: Convergence, fam: SetFamily, target: Subset,
             clauses: tuple[int, int] | None = None) -> bool:
    """Cover test, by two clauses that must agree, each a set the target
    must miss (cover_clauses, built here unless the caller passes them).
    A disagreement raises InvariantViolation; the duality
    inh P = (adh P_c)^c is pinned separately, as the round trip of
    inherence and adherence."""
    if fam.carrier != conv.carrier or target.carrier != conv.carrier:
        raise CarrierMismatch("cover query parts on different carriers")
    outside, adh_c = cover_clauses(conv, fam) if clauses is None else clauses
    by_filters = outside & target.bits == 0
    by_adherence = adh_c & target.bits == 0
    if by_filters != by_adherence:
        raise InvariantViolation(
            f"cover clauses disagree: filters={by_filters} "
            f"adherence={by_adherence}")
    return by_filters


def neighborhood_filter(conv: Convergence, label: str) -> FiniteFilter:
    """Up-set of the intersection of all open sets containing the point."""
    i = conv.carrier.index(label)
    return FiniteFilter(conv.carrier, min_open_table(conv)[i])


def vicinity_filter(conv: Convergence, label: str) -> FiniteFilter:
    """The infimum of all principal filters converging to the point: the
    up-set of the union of the sets A with x in lim ^A.  It converges to x
    exactly when the convergence is pretopological at x."""
    i = conv.carrier.index(label)
    return FiniteFilter(conv.carrier, vicinity_masks(conv)[i])


# ---------------------------------------------------------------------------
# lattice of convergences
# ---------------------------------------------------------------------------

def _common_carrier(convs: list[Convergence]) -> Carrier:
    if not convs:
        raise ValidationError(["sup/inf need at least one convergence"])
    carrier = convs[0].carrier
    for c in convs[1:]:
        if c.carrier != carrier:
            raise CarrierMismatch("lattice operands on different carriers")
    return carrier


def sup(convs: Iterable[Convergence]) -> Convergence:
    """Pointwise intersection of limit tables (the finest lower bound of
    limits = the supremum in the finer-than order)."""
    convs = list(convs)
    carrier = _common_carrier(convs)
    table = [0] * (carrier.full + 1)
    for m in range(1, carrier.full + 1):
        acc = carrier.full
        for c in convs:
            acc &= c.table[m]
        table[m] = acc
    return Convergence(carrier, tuple(table))


def inf(convs: Iterable[Convergence]) -> Convergence:
    """Pointwise union of limit tables."""
    convs = list(convs)
    carrier = _common_carrier(convs)
    table = [0] * (carrier.full + 1)
    for m in range(1, carrier.full + 1):
        acc = 0
        for c in convs:
            acc |= c.table[m]
        table[m] = acc
    return Convergence(carrier, tuple(table))


def finer(c1: Convergence, c2: Convergence) -> bool:
    """c1 >= c2: every limit set of c1 is inside the matching one of c2."""
    if c1.carrier != c2.carrier:
        raise CarrierMismatch("comparing convergences on different carriers")
    return all(c1.table[m] & ~c2.table[m] == 0
               for m in range(1, c1.carrier.full + 1))


def product(c1: Convergence, c2: Convergence) -> Convergence:
    """Product convergence: componentwise limits of the projected filters."""
    n1, n2 = c1.carrier.size, c2.carrier.size
    if n1 * n2 > MAX_PRODUCT:
        raise CapExceeded(f"product carrier {n1 * n2} exceeds {MAX_PRODUCT}")
    labels = tuple(f"({a},{b})" for a in c1.carrier.labels
                   for b in c2.carrier.labels)
    carrier = Carrier(labels)
    # pair (i, j) sits at bit i*n2 + j
    full = carrier.full
    table = [0] * (full + 1)
    for m in range(1, full + 1):
        p1 = p2 = 0
        for bit in bits_of(m):
            p1 |= 1 << bit // n2
            p2 |= 1 << bit % n2
        l1, l2 = c1.table[p1], c2.table[p2]
        acc = 0
        for i in bits_of(l1):
            for j in bits_of(l2):
                acc |= 1 << (i * n2 + j)
        table[m] = acc
    return Convergence(carrier, tuple(table))


def project_mask(m: int, n2: int, which: int) -> int:
    """Projection of a product mask to factor 0 or 1."""
    out = 0
    for bit in bits_of(m):
        out |= 1 << (bit // n2 if which == 0 else bit % n2)
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def discrete(carrier: Carrier) -> Convergence:
    """lim ^{x} = {x}; bigger sets converge nowhere."""
    table = [0] * (carrier.full + 1)
    for i in carrier.points():
        table[1 << i] = 1 << i
    return Convergence(carrier, tuple(table))


def indiscrete(carrier: Carrier) -> Convergence:
    """Every filter converges to every point."""
    table = [carrier.full] * (carrier.full + 1)
    table[0] = 0
    return Convergence(carrier, tuple(table))


def pretopology_table(vmasks: Sequence[int]) -> tuple[int, ...]:
    """The limit table lim ^A = {x : A <= V(x)} of per-point vicinities:
    the points y of A each allow the x with y in V(x), and lim ^A is the
    intersection of those allowances."""
    n = len(vmasks)
    return meet_table(transpose(vmasks, n), (1 << n) - 1)


def pretopology_from_vicinities(carrier: Carrier,
                                vicinity: Mapping[str, int | Iterable[str]]
                                ) -> Convergence:
    """lim ^A = {x : A <= V(x)}, each vicinity a mask or its labels.
    Requires a vicinity for every point, and x in V(x)."""
    vmasks = [0] * carrier.size
    for label, vs in vicinity.items():
        vmasks[carrier.index(label)] = (
            vs if isinstance(vs, int) else carrier.mask_of(vs))
    violations = [
        f"centered axiom violated at point {label}"
        for i, label in enumerate(carrier.labels)
        if label in vicinity and not vmasks[i] >> i & 1]
    missing = set(carrier.labels) - set(vicinity)
    violations += [f"vicinity map misses point {m}" for m in sorted(missing)]
    if violations:
        raise ValidationError(violations)
    return Convergence(carrier, pretopology_table(vmasks))


def topology_from_opens(carrier: Carrier,
                        opens: Iterable[int | Iterable[str]]) -> Convergence:
    """Build the convergence of a topology given its open-set system, each
    open set a mask or an iterable of labels."""
    masks = {o if isinstance(o, int) else carrier.mask_of(o) for o in opens}
    violations = []
    if 0 not in masks or carrier.full not in masks:
        violations.append("open system must contain the empty set and the carrier")
    for a in masks:
        for b in masks:
            if a | b not in masks or a & b not in masks:
                violations.append("open system not closed under union/intersection")
                break
        else:
            continue
        break
    if violations:
        raise ValidationError(violations)
    return Convergence(carrier, pretopology_table(_least_opens(carrier, masks)))
