"""Representable sets on the two countable exemplar carriers.

One small decidable set algebra on N:

  PeriodicSet   subsets of N that are eventually periodic with period 2,
                stored as (even-tail flag, odd-tail flag, finite symmetric
                difference).  Contains every finite and every cofinite set
                (equal tail flags) and, crucially, the even/odd halves used
                to witness that a cofinite filter is not an ultrafilter.

The spoke carrier ("prime") is N itself, its apex the point 0 and its
spokes 1, 2, ..., so its representable sets are PeriodicSets.  The fan
carrier is {APEX} + rows x positions; a representable set (FanSet) fixes
a PeriodicSet slice for finitely many rows and one uniform PeriodicSet
slice for all remaining rows.  Every set the fan exemplar builds has
finite-or-cofinite slices.

Each class states only its primitives: membership, emptiness,
infiniteness, a stability bound beyond which the finite-truncation harness
can confirm its verdicts inside a window, intersection, complement, the
window of carrier points and the set of finitely many points.
``RepresentableSet`` derives finiteness, inclusion, meeting, union,
difference and truncation from those, once for both classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

APEX = -1  # the fan's apex x_infinity, outside every row


class UnrepresentableSet(ValueError):
    """A construction left the representable class."""


class RepresentableSet:
    """The queries every class derives from its primitives.

    A subclass defines its fields and constructors, ``contains``,
    ``is_empty``, ``is_infinite``, ``stability_bound``, ``&``, ``~`` and
    ``of_points``, and ``window`` when its carrier is not N.
    """

    __slots__ = ()

    @staticmethod
    def window(k: int) -> Iterable:
        """The carrier points inspected at window size k: 0..k on N."""
        return range(k + 1)

    @property
    def is_finite(self) -> bool:
        return not self.is_infinite

    def subset_of(self, other) -> bool:
        return (self - other).is_empty

    def meets(self, other) -> bool:
        return not (self & other).is_empty

    def infinitely_meets(self, other) -> bool:
        return (self & other).is_infinite

    def truncate(self, k: int) -> frozenset:
        return frozenset(p for p in self.window(k) if self.contains(p))

    def __or__(self, other):
        return ~(~self & ~other)

    def __sub__(self, other):
        return self & ~other


@dataclass(frozen=True, slots=True)
class PeriodicSet(RepresentableSet):
    """Eventually period-2 subset of N: beyond the finite ``diff``,
    membership of x depends only on the parity tail flags."""

    even_tail: bool
    odd_tail: bool
    diff: frozenset[int]

    def __post_init__(self):
        if any(x < 0 for x in self.diff):
            raise UnrepresentableSet("negative positions are not points")

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls) -> "PeriodicSet":
        return cls(False, False, frozenset())

    @classmethod
    def full(cls) -> "PeriodicSet":
        return cls(True, True, frozenset())

    @classmethod
    def of(cls, *xs: int) -> "PeriodicSet":
        return cls(False, False, frozenset(xs))

    of_points = of

    @classmethod
    def cofinite_without(cls, *xs: int) -> "PeriodicSet":
        return cls(True, True, frozenset(xs))

    @classmethod
    def evens(cls) -> "PeriodicSet":
        return cls(True, False, frozenset())

    @classmethod
    def odds(cls) -> "PeriodicSet":
        return cls(False, True, frozenset())

    # -- queries -----------------------------------------------------------
    def _tail_contains(self, x: int) -> bool:
        return self.even_tail if x % 2 == 0 else self.odd_tail

    def contains(self, x: int) -> bool:
        return self._tail_contains(x) != (x in self.diff)

    @property
    def is_infinite(self) -> bool:
        return self.even_tail or self.odd_tail

    @property
    def is_empty(self) -> bool:
        return self.is_finite and not self.diff

    def stability_bound(self) -> int:
        return max(self.diff, default=-1) + 1

    # -- algebra -----------------------------------------------------------
    def __and__(self, other: "PeriodicSet") -> "PeriodicSet":
        et = self.even_tail and other.even_tail
        ot = self.odd_tail and other.odd_tail
        # off both diffs each operand follows its tail, and so does this
        diff = frozenset(
            x for x in self.diff | other.diff
            if (self.contains(x) and other.contains(x))
            != (et if x % 2 == 0 else ot))
        return PeriodicSet(et, ot, diff)

    def __invert__(self) -> "PeriodicSet":
        return PeriodicSet(not self.even_tail, not self.odd_tail, self.diff)


@dataclass(frozen=True, slots=True)
class FanSet(RepresentableSet):
    """Representable subset of the fan carrier {apex} + rows x positions.

    ``overrides`` pins a PeriodicSet slice for finitely many rows; every
    other row carries the uniform ``default`` slice.  It is given as a dict
    or as (row, slice) pairs and stored canonically: sorted by row, without
    the slices equal to ``default``.
    """

    apex: bool
    default: PeriodicSet
    overrides: tuple[tuple[int, PeriodicSet], ...]

    def __post_init__(self):
        rows = dict(self.overrides)
        if len(rows) != len(self.overrides) or any(r < 0 for r in rows):
            raise UnrepresentableSet(
                "override rows must be unique and non-negative")
        object.__setattr__(self, "overrides", tuple(
            (r, s) for r, s in sorted(rows.items()) if s != self.default))

    @classmethod
    def empty(cls) -> "FanSet":
        return cls(False, PeriodicSet.empty(), {})

    @classmethod
    def full(cls) -> "FanSet":
        return cls(True, PeriodicSet.full(), {})

    @classmethod
    def of_points(cls, *points) -> "FanSet":
        rows: dict[int, set[int]] = {}
        for p in points:
            if p != APEX:
                rows.setdefault(p[0], set()).add(p[1])
        return cls(APEX in points, PeriodicSet.empty(),
                   {r: PeriodicSet.of(*ps) for r, ps in rows.items()})

    @staticmethod
    def window(k: int) -> Iterator:
        yield APEX
        for n in range(k + 1):
            for j in range(k + 1):
                yield (n, j)

    def slice_of(self, row: int) -> PeriodicSet:
        for r, s in self.overrides:
            if r == row:
                return s
        return self.default

    def override_rows(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.overrides)

    def contains(self, p) -> bool:
        if p == APEX:
            return self.apex
        row, pos = p
        return self.slice_of(row).contains(pos)

    @property
    def is_empty(self) -> bool:
        return (not self.apex and self.default.is_empty
                and all(s.is_empty for _, s in self.overrides))

    @property
    def is_infinite(self) -> bool:
        return (not self.default.is_empty
                or any(s.is_infinite for _, s in self.overrides))

    def stability_bound(self) -> int:
        bound = self.default.stability_bound()
        for r, s in self.overrides:
            bound = max(bound, r + 1, s.stability_bound())
        return bound

    def __and__(self, other: "FanSet") -> "FanSet":
        rows = set(self.override_rows()) | set(other.override_rows())
        return FanSet(
            self.apex and other.apex, self.default & other.default,
            {r: self.slice_of(r) & other.slice_of(r) for r in rows})

    def __invert__(self) -> "FanSet":
        return FanSet(
            not self.apex, ~self.default,
            {r: ~s for r, s in self.overrides})


fan_points = FanSet.of_points


def fan_row(n: int) -> FanSet:
    """The full row X_n = {(n, j) : j in N}."""
    return FanSet(False, PeriodicSet.empty(), {n: PeriodicSet.full()})


def fan_anchor(n: int) -> FanSet:
    """The singleton of the row anchor x_n = (n, 0)."""
    return FanSet(False, PeriodicSet.empty(), {n: PeriodicSet.of(0)})


def fan_apex() -> FanSet:
    return FanSet(True, PeriodicSet.empty(), {})


def fan_spine() -> FanSet:
    """X_infinity = {apex} + all anchors: the uniform slice {0}."""
    return FanSet(True, PeriodicSet.of(0), {})
