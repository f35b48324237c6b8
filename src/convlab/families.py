"""Finite-carrier algebra of subsets, set families, filters, and relations.

A carrier is a labelled finite set of at most 16 points; every subset is a
bit mask over it, so family operations reduce to integer arithmetic.  A
filter on a finite carrier always has a minimum member, hence is stored in
canonical principal form as that base set.  The degenerate filter (base =
empty set, i.e. the filter containing every subset) is a representable,
flagged value: the join of two filters escapes the non-degenerate lattice
exactly when the bases are disjoint, and consumers that need
non-degeneracy must check.

Families are explicit finite sets of subsets; they are NOT kept upward
closed.  Operations that need an isotone family isotonize internally and
say so in their docstring.

Every table built from per-point data comes from one of two recursions:
union_table (entry H is the union of the point masks over the points of
H) and meet_table (the intersection), with transpose to swap which side of
a bit matrix the points index.  Images and preimages of a map, adherence
tables, vicinity reaches, pretopology limit tables and the ultrafilter
reflection are all instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

MAX_CARRIER = 16


class CarrierMismatch(ValueError):
    """Operands live on different carriers."""


class DegenerateFilter(ValueError):
    """Operation requires a non-degenerate filter."""


class CapExceeded(ValueError):
    """Requested size exceeds a hard cap."""


class NotSurjective(ValueError):
    """Operation is defined for surjective maps only."""


class ValidationError(ValueError):
    """Carries the full list of violated constraints."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class InvariantViolation(RuntimeError):
    """Two implementations that must agree disagreed (internal bug)."""


@dataclass(frozen=True, slots=True)
class Carrier:
    """A labelled ground set.  Points are indexed 0..size-1.

    Beside the labels it stores the mask of the whole carrier and a
    label -> index dict, through which index and mask_of resolve a label
    in O(1); an unknown or unhashable label raises KeyError."""

    labels: tuple[str, ...]
    # mask of the whole carrier
    full: int = field(init=False, compare=False, repr=False)
    # label -> point index
    positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= len(self.labels) <= MAX_CARRIER:
            raise CapExceeded(
                f"carrier size {len(self.labels)} outside 1..{MAX_CARRIER}")
        positions = {lab: i for i, lab in enumerate(self.labels)}
        if len(positions) != len(self.labels):
            raise ValidationError(["carrier labels are not distinct"])
        object.__setattr__(self, "full", (1 << len(self.labels)) - 1)
        object.__setattr__(self, "positions", positions)

    @classmethod
    def of(cls, *labels: str) -> "Carrier":
        return cls(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(len(self.labels))

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise KeyError(f"no point labelled {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        positions, mask = self.positions, 0
        for lab in labels:
            try:
                mask |= 1 << positions[lab]
            except (KeyError, TypeError):
                raise KeyError(f"no point labelled {lab!r}") from None
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.points() if mask >> i & 1)

    def subset(self, *labels: str) -> "Subset":
        return Subset(self, self.mask_of(labels))


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _same_carrier(a, b) -> None:
    if a.carrier != b.carrier:
        raise CarrierMismatch(f"{a.carrier.labels} vs {b.carrier.labels}")


@dataclass(frozen=True, slots=True)
class Subset:
    carrier: Carrier
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.carrier.full:
            raise ValidationError(
                [f"bit vector {self.bits:#x} wider than carrier"])

    def labels(self) -> tuple[str, ...]:
        return self.carrier.labels_of(self.bits)

    def __invert__(self) -> "Subset":
        return Subset(self.carrier, self.carrier.full & ~self.bits)

    def __le__(self, other: "Subset") -> bool:
        _same_carrier(self, other)
        return self.bits & ~other.bits == 0

    def __repr__(self):
        return "{%s}" % ",".join(self.labels())


@dataclass(frozen=True, slots=True)
class SetFamily:
    """A finite set of subsets of one carrier (duplicates collapsed)."""

    carrier: Carrier
    masks: frozenset[int]

    def __post_init__(self):
        full = self.carrier.full
        if any(not 0 <= m <= full for m in self.masks):
            raise ValidationError(["family member outside the carrier"])

    @classmethod
    def of(cls, carrier: Carrier, *members: Iterable[str]) -> "SetFamily":
        """Build from iterables of labels, one per member."""
        return cls(carrier, frozenset(carrier.mask_of(m) for m in members))

    def members(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.carrier, m) for m in sorted(self.masks))

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.members())

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self):
        return "Family{%s}" % ", ".join(repr(s) for s in self.members())


@dataclass(frozen=True, slots=True)
class FiniteFilter:
    """A filter in canonical principal form: the up-set of ``base``.

    base = 0 encodes the degenerate filter (all subsets, including the
    empty one); every other value encodes the non-degenerate filter of
    supersets of ``base``.
    """

    carrier: Carrier
    base: int

    def __post_init__(self):
        if not 0 <= self.base <= self.carrier.full:
            raise ValidationError(["filter base outside the carrier"])

    @classmethod
    def point(cls, carrier: Carrier, label: str) -> "FiniteFilter":
        return cls(carrier, 1 << carrier.index(label))

    @property
    def degenerate(self) -> bool:
        return self.base == 0

    def base_subset(self) -> Subset:
        return Subset(self.carrier, self.base)

    def contains(self, subset: Subset) -> bool:
        _same_carrier(self, subset)
        return self.base & ~subset.bits == 0

    def members(self) -> tuple[Subset, ...]:
        """All members, smallest first.  Exponential; small carriers only."""
        full = self.carrier.full
        out = [m for m in range(full + 1) if self.base & ~m == 0]
        out.sort(key=lambda m: (popcount(m), m))
        return tuple(Subset(self.carrier, m) for m in out)

    def leq(self, other: "FiniteFilter") -> bool:
        """Coarser-or-equal in the filter order (family inclusion)."""
        _same_carrier(self, other)
        return other.base & ~self.base == 0

    def as_family(self) -> SetFamily:
        """The one-member base family; same grill and mesh behaviour."""
        return SetFamily(self.carrier, frozenset({self.base}))

    def __repr__(self):
        if self.degenerate:
            return "Filter<degenerate>"
        return "Filter^%r" % self.base_subset()


def filter_from_members(carrier: Carrier, members: Iterable[Subset | int]) -> FiniteFilter:
    """Canonicalize a member list back to principal form (base = meet)."""
    base = carrier.full
    seen = False
    for m in members:
        base &= m.bits if isinstance(m, Subset) else m
        seen = True
    if not seen:
        raise ValidationError(["a filter has at least one member"])
    return FiniteFilter(carrier, base)


# ---------------------------------------------------------------------------
# family operations
# ---------------------------------------------------------------------------

def isotonize(fam: SetFamily) -> SetFamily:
    """Upward closure: all supersets of members.  Empty family stays empty."""
    full = fam.carrier.full
    out = {h for h in range(full + 1) for a in fam.masks if a & ~h == 0}
    return SetFamily(fam.carrier, frozenset(out))


def grill(fam: SetFamily) -> SetFamily:
    """All sets meeting every member; everything (incl. the empty set) when
    the family is empty."""
    full = fam.carrier.full
    out = {h for h in range(full + 1) if all(h & a for a in fam.masks)}
    return SetFamily(fam.carrier, frozenset(out))


def mesh(fam1: SetFamily, fam2: SetFamily) -> bool:
    """True iff every member of one meets every member of the other."""
    _same_carrier(fam1, fam2)
    return all(a & b for a in fam1.masks for b in fam2.masks)


def coarser(fam1: SetFamily, fam2: SetFamily) -> bool:
    """fam1 <= fam2: every member of fam1 has a member of fam2 inside it."""
    _same_carrier(fam1, fam2)
    return all(any(d & ~a == 0 for d in fam2.masks) for a in fam1.masks)


def complement_family(fam: SetFamily) -> SetFamily:
    full = fam.carrier.full
    return SetFamily(fam.carrier, frozenset(full & ~m for m in fam.masks))


@dataclass(frozen=True, slots=True)
class FiniteRelation:
    """R <= source x target as one target-mask row per source point."""

    source: Carrier
    target: Carrier
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.source.size:
            raise ValidationError(["relation row count != source size"])
        if any(not 0 <= r <= self.target.full for r in self.rows):
            raise ValidationError(["relation row outside the target carrier"])

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in bits_of(mask):
            out |= self.rows[i]
        return out

    def inverse(self) -> "FiniteRelation":
        return FiniteRelation(self.target, self.source,
                              transpose(self.rows, self.target.size))

    def is_injective(self) -> bool:
        """No two distinct source points have meeting images."""
        return all(
            not (self.rows[i] & self.rows[j])
            for i, j in combinations(self.source.points(), 2))

    def is_surjective(self) -> bool:
        return self.image_mask(self.source.full) == self.target.full

    def is_total_single_valued(self) -> bool:
        return all(popcount(r) == 1 for r in self.rows)

    def validates_as_map(self) -> bool:
        """A relation is a map iff its inverse is injective and surjective."""
        inv = self.inverse()
        return inv.is_injective() and inv.is_surjective()


def rel_image_family(rel: FiniteRelation, fam: SetFamily) -> SetFamily:
    if fam.carrier != rel.source:
        raise CarrierMismatch("family is not on the relation source")
    return SetFamily(rel.target, frozenset(rel.image_mask(m) for m in fam.masks))


def rel_preimage_family(rel: FiniteRelation, fam: SetFamily) -> SetFamily:
    if fam.carrier != rel.target:
        raise CarrierMismatch("family is not on the relation target")
    inv = rel.inverse()
    return SetFamily(rel.source, frozenset(inv.image_mask(m) for m in fam.masks))


@dataclass(frozen=True, slots=True)
class CarrierMap:
    """A total single-valued surjection candidate; mapping[i] = target index."""

    source: Carrier
    target: Carrier
    mapping: tuple[int, ...]
    # image_mask for every source mask, preimage_mask for every target mask,
    # and the fiber of every target point
    image_table: tuple[int, ...] = field(
        init=False, compare=False, repr=False)
    preimage_table: tuple[int, ...] = field(
        init=False, compare=False, repr=False)
    fibers: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.mapping) != self.source.size:
            raise ValidationError(["map must be total"])
        if any(not 0 <= j < self.target.size for j in self.mapping):
            raise ValidationError(["map value outside the target carrier"])
        points = [1 << j for j in self.mapping]
        fibers = transpose(points, self.target.size)
        object.__setattr__(self, "image_table", union_table(points))
        object.__setattr__(self, "preimage_table", union_table(fibers))
        object.__setattr__(self, "fibers", fibers)

    @classmethod
    def of(cls, source: Carrier, target: Carrier,
           assignment: Mapping[str, str]) -> "CarrierMap":
        """Build from labels; raises ValidationError with one entry per
        unknown source point, value that is not a target label, and the
        missing points."""
        points, images = set(source.labels), set(target.labels)
        problems = [f"map names unknown source point {p!r}"
                    for p in assignment if p not in points]
        problems += [f"map value for {p!r} must be a target label, got {v!r}"
                     for p, v in assignment.items()
                     if not (isinstance(v, str) and v in images)]
        missing = points - set(assignment)
        if missing:
            problems.append(f"map must be total; missing {sorted(missing)}")
        if problems:
            raise ValidationError(problems)
        mapping = tuple(
            target.index(assignment[lab]) for lab in source.labels)
        return cls(source, target, mapping)

    @classmethod
    def from_relation(cls, rel: FiniteRelation) -> "CarrierMap":
        if not rel.validates_as_map():
            raise ValidationError(
                ["relation is not a map (inverse not injective+surjective)"])
        mapping = tuple(r.bit_length() - 1 for r in rel.rows)
        return cls(rel.source, rel.target, mapping)

    def as_relation(self) -> FiniteRelation:
        rows = tuple(1 << j for j in self.mapping)
        return FiniteRelation(self.source, self.target, rows)

    def __call__(self, label: str) -> str:
        return self.target.labels[self.mapping[self.source.index(label)]]

    def image_mask(self, mask: int) -> int:
        return self.image_table[mask]

    def preimage_mask(self, mask: int) -> int:
        return self.preimage_table[mask]

    def is_surjective(self) -> bool:
        return self.image_mask(self.source.full) == self.target.full

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_bijective(self) -> bool:
        return self.is_surjective() and self.is_injective()


# ---------------------------------------------------------------------------
# tables built from per-point data
# ---------------------------------------------------------------------------

def union_table(point_masks: Sequence[int]) -> tuple[int, ...]:
    """For every mask over the points, the union of their point masks.

    The table over the first i points doubles into the table over i + 1:
    a mask holding point i is the same mask without it, joined with
    point i's mask."""
    table = [0]
    for m in point_masks:
        table += [t | m for t in table]
    return tuple(table)


def meet_table(point_masks: Sequence[int], full: int) -> tuple[int, ...]:
    """For every nonempty mask over the points, the intersection of their
    point masks (within ``full``), by the doubling of union_table.  Entry 0
    is 0: the empty set lies outside the table domain."""
    table = [full]
    for m in point_masks:
        table += [t & m for t in table]
    table[0] = 0
    return tuple(table)


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The bit matrix with rows and columns swapped: column j of the result
    holds bit i exactly when rows[i] holds bit j (j below ``width``)."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


# ---------------------------------------------------------------------------
# filter lattice
# ---------------------------------------------------------------------------

def filter_meet(f1: FiniteFilter, f2: FiniteFilter) -> FiniteFilter:
    """Infimum: the intersection of the two families (base union)."""
    _same_carrier(f1, f2)
    return FiniteFilter(f1.carrier, f1.base | f2.base)


def filter_join(f1: FiniteFilter, f2: FiniteFilter) -> FiniteFilter:
    """Supremum: generated by pairwise intersections (base intersection).

    Degenerate exactly when the bases are disjoint; the degenerate value is
    returned, not raised.
    """
    _same_carrier(f1, f2)
    return FiniteFilter(f1.carrier, f1.base & f2.base)


def ultrafilters_of(f: FiniteFilter) -> tuple[FiniteFilter, ...]:
    """The point filters at the base points; their meet recovers ``f``."""
    if f.degenerate:
        raise DegenerateFilter("the degenerate filter has no ultrafilters")
    return tuple(FiniteFilter(f.carrier, 1 << i) for i in bits_of(f.base))


def check_ultrafilter_selection(
        f: FiniteFilter,
        selection: Mapping[FiniteFilter, Subset]) -> list[tuple[FiniteFilter, Subset]]:
    """Given one member per ultrafilter of ``f``, return a smallest
    sub-selection whose union is a member of ``f``.

    On a finite carrier the union over all of beta(f) always works; the
    returned witness is minimal in (cardinality, bit order).
    """
    if f.degenerate:
        raise DegenerateFilter("selection needs a non-degenerate filter")
    ultras = ultrafilters_of(f)
    chosen = []
    for u in ultras:
        try:
            fu = selection[u]
        except KeyError:
            raise ValidationError(
                [f"selection misses the ultrafilter {u!r}"]) from None
        if not u.contains(fu):
            raise ValidationError(
                [f"selected set {fu!r} is not a member of {u!r}"])
        chosen.append(fu.bits)
    k = len(ultras)
    candidates = sorted(range(1, 1 << k), key=lambda s: (popcount(s), s))
    for sub in candidates:
        union = 0
        for i in bits_of(sub):
            union |= chosen[i]
        if f.base & ~union == 0:
            return [(ultras[i], Subset(f.carrier, chosen[i]))
                    for i in bits_of(sub)]
    raise InvariantViolation("full union of a valid selection must witness")
