"""Finite-truncation harness: the anti-hallucination backstop.

Every symbolic decision reduces to emptiness/infiniteness of boolean
combinations of representable sets and to the definitional member test.
This module re-checks those primitives inside finite windows:

  set algebra      pointwise agreement of the operators with membership
                   on every window point (exact, all k up to the limit);
  emptiness        beyond the set's stability bound, a nonempty set shows
                   a point inside the window;
  infiniteness     beyond the bound, the window count strictly grows with
                   the window (in steps of 2, for the period-2 class);
  mesh/leq/meet/join  re-derived from member tests against window-sized
                   generator exception sets, and for negative mesh the
                   explicit disjoint members are verified pointwise.

Each check declares the window range it is valid on via the operands'
stability bounds; every window reaches MAX_WINDOW = 6.
"""

from __future__ import annotations

from itertools import combinations

from .filters import SymbolicFilter, mesh_disjoint_members, symbolic_leq, symbolic_mesh
from .sets import APEX

MAX_WINDOW = 6


def _window_members(s) -> list:
    """The points of the set inside the window, in window order."""
    return [p for p in s.window(MAX_WINDOW) if s.contains(p)]


def check_set_ops(s1, s2) -> bool:
    """Union/intersection/difference/complement agree with pointwise
    membership on every window point."""
    u, i, d, c = s1 | s2, s1 & s2, s1 - s2, ~s1
    for p in s1.window(MAX_WINDOW):
        a, b = s1.contains(p), s2.contains(p)
        if u.contains(p) != (a or b):
            return False
        if i.contains(p) != (a and b):
            return False
        if d.contains(p) != (a and not b):
            return False
        if c.contains(p) != (not a):
            return False
    return True


def check_emptiness(s) -> bool:
    """Symbolic emptiness matches window occupancy beyond the stability
    bound (plus one period, so both parities are visible)."""
    start = s.stability_bound() + 2
    for k in range(start, max(start, MAX_WINDOW) + 1):
        occupied = bool(s.truncate(k))
        if s.is_empty == occupied:
            return False
    return True


def check_infiniteness(s) -> bool:
    """An infinite set strictly grows with the window beyond its bound; a
    finite set stops growing.  Step 2 covers the period-2 sets."""
    bound = s.stability_bound()
    k2 = max(bound, MAX_WINDOW)
    n0 = len(s.truncate(k2))
    n1 = len(s.truncate(k2 + 2))
    return (n1 > n0) == s.is_infinite


def _sample_members(f: SymbolicFilter):
    """Members of the form core + (wide minus E) for small window E."""
    singles = _window_members(f.wide)[:4]
    out = [f.core | f.wide]
    for r in range(1, min(3, len(singles)) + 1):
        for combo in combinations(singles, r):
            e = type(f.wide).of_points(*combo)
            out.append(f.core | (f.wide - e))
    return out


def check_member_semantics(f: SymbolicFilter) -> bool:
    """Every sampled generator member passes the member test, and removing
    the core from a principal filter's member fails it."""
    for m in _sample_members(f):
        if not f.member(m):
            return False
    if not f.core.is_empty:
        # dropping a core point must leave the filter
        pts = _window_members(f.core)
        if pts:
            gone = type(f.core).of_points(pts[0])
            if f.member((f.core | f.wide) - gone):
                return False
    return True


def check_mesh(f1: SymbolicFilter, f2: SymbolicFilter) -> bool:
    """Cross-check the mesh decision member-wise on the window."""
    verdict = symbolic_mesh(f1, f2)
    if not verdict:
        if f1.degenerate or f2.degenerate:
            return True
        m1, m2 = mesh_disjoint_members(f1, f2)
        if not f1.member(m1) or not f2.member(m2):
            return False
        if not (m1 & m2).is_empty:
            return False
        return not any(m1.contains(p) and m2.contains(p)
                       for p in m1.window(MAX_WINDOW))
    # meshing: every sampled member pair intersects
    members2 = _sample_members(f2)
    return all(m1.meets(m2)
               for m1 in _sample_members(f1) for m2 in members2)


def _some_point(s):
    """A concrete point of a nonempty representable set."""
    pts = s.truncate(s.stability_bound() + 2)
    if not pts:
        return None
    if APEX in pts:
        return APEX
    return min(p for p in pts)


def check_leq(f1: SymbolicFilter, f2: SymbolicFilter) -> bool:
    """Cross-check the order decision member-wise on the window."""
    verdict = symbolic_leq(f1, f2)
    if verdict:
        return all(f2.member(m) for m in _sample_members(f1))
    # otherwise construct a member of f1 outside f2
    if not f2.core.subset_of(f1.core):
        point = _some_point(f2.core - f1.core)
        if point is None:
            return False
        witness = (f1.core | f1.wide) - type(f1.wide).of_points(point)
    else:
        witness = f1.core | f1.wide
    return f1.member(witness) and not f2.member(witness)
