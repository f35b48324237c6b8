"""Theorem suites: every law of the calculus verified exhaustively at desk
scale, in one fused pass per map domain.

The fused sweep classifies every (map, source, target) context through the
classification kernel of maps, the same code classify() runs, transposed
over the targets: the targets of a domain form one maps.TargetUniverse, a
MapFacts record holds each (map, source) pair's parts, each built once per
distinct value of what it reads, and map_flags decides all targets of the
pair at once, each flag a bitset over the targets.  A route
disagreement inside the kernel raises InvariantViolation at the first
failing context, the one a scan of one context at a time would meet.  The
flag searches of enumerate, which suite_strictness_witnesses and
emit_tables run, read the same kernel the same way: one chunk per (map,
source) pair, its witnesses a bitset over the targets.

What the sweep adds are the laws about the flags, decided the same way, as
bitsets: the implication ladder and bijections are masks over the flag
bitsets; preservation compares the T and S0 flags with the targets whose
reflection equals that of the final convergence, read on the universe's T
and S0 tables; the final/initial adjunction and the continuity
equivalences are "need inside table[k]" lookups on the universe's
complement tables; the relation-compactness characterizations are (k, bad)
constraints on the limit tables, built from one bad-points mask per filter
base; between topologies, the closure forms and open images of open sets
are constraints on the adherence tables, which are the closure tables of
topologies.  The forms that read the source only through
its adherence table, whose singleton limits fix its S0 table and its closed
sets, only through its final convergence, or only through its pushed
limits f(lim ^A) share the per-map memo of map_flags, keyed by that table,
and so do the law gaps, one record per (adherence, lift table) and one
per pushed-limit table (sweep_domain lists each record with its key);
each pair looks up its two law records and reports their gaps at
itself.  The ladder check also counts, per arrow, the contexts that breach
it (a popcount per pair), and emit_tables reads its implication rows'
violations from those counts.  On the contexts whose number is a multiple
of CROSSCHECK_STRIDE, the kernel's graph-closedness flag and the
relation-compactness verdicts are compared with the relation-level
implementations in maps and compactness.

run_laws sweeps the enumerate domains named in LAW_DOMAINS, in that order
(a smoke run, max_size 2, only the first); the preservation grid and
emit_tables read the surjections onto 2 points.  Sample sizes and the seed
are fixed, so a run is determined by max_size alone.

No suite reads another's result, so run_laws splits its fixed list of
jobs, the thirteen standalone suites and then one job of the sweeps and
the preservation grid, into two shards (shards.run_jobs).  Where os.fork
exists, two CPUs are usable and the process runs one thread, a forked
worker runs twelve of the suites and sends their results back through a
pipe, while this process runs reflector ordering and the sweep job;
otherwise the worker's shard is empty and every job runs here, through
the same loop (taskset -c 0 asks for that).  The report lists the results
in job order either way, and SweepStats comes from one process, so only
the wall times differ.  Of the jobs that raise, the earliest in job order
has its exception raised, the one a run in one process raises.

The standalone suites build each per-space fact once, in the loop that
reads it, and keep no table or record past the call.  Where the inputs of
a question repeat across spaces, a suite decides it once per distinct
value of what it reads, in a dict per question that lives for one call;
every instance is still counted and reported at its space, in the order
of a loop that asks every question at every space.  The oracles that read
a whole table (reflect_by_steps, adherence_scan, open_masks_scan,
antitone_scan, seq_coreflect, locally_compactoid_coreflect) still run
once per space: a key narrower than the table would miss an input, and
the whole table repeats nowhere.
- suite_reflector_ordering decides "class-filter adherence moved" per
  (reflection table, class filter masks, source adherence table).
- suite_compactness_extras keeps its hull tables, per singleton limits
  (and least opens, for the closed class), and each of its questions, in
  one dict each: the scan comparison, the characteristic detection, the
  S-limit check, is_relation_compact and image_of_compact (its docstring
  lists the keys); a space with a failing record formats its messages on
  replay.
- suite_cover_duality builds one cover_clauses pair per (space, family)
  whose targets run innermost, and the open-cover remark one interior per
  (topology, mask).
- suite_functor_laws decides continuous(MapContext(f, c1, c2)) once per
  context within the call: at n=2 one verdict per (map, source, target)
  serves all eight handles; at n=3 one enumerate.SpaceUniverse holds each
  reflector's and coreflector's image of every space by number, and each
  reflector's idempotence and contractivity as bitsets over the spaces,
  the contractivity shared where two reflectors send a space to the same
  image; a sample reads those by number, decides its own continuity,
  reads it again where a handle fixes both of its spaces, and reads
  isotony per image pair and every other image pair's continuity from a
  dict per (map index, source number, target number).
- suite_preservation_grid goes straight to its sampled contexts, builds
  one MapFacts record per continuous one, from which each reflector's
  quotient verdict is read, and decides is_JE once per (space, reflector,
  coreflector image) within the call.

LawResult keeps the first MAX_REPORTED_FAILURES messages of a suite and
counts every failure in failures_total; run_laws records each standalone
suite's wall time in its seconds, and each named domain's pairs, contexts,
law records and wall time in SweepStats.domains.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from operator import or_

from .compactness import (
    CompactnessQuery,
    characteristic,
    compact_at_masks,
    compact_at_sets,
    completeness_number_finite,
    hull_holds,
    hull_table,
    image_of_compact,
    is_compact_at_scan,
    is_relation_compact,
)
from .enumerate import (
    PREDICATES,
    SearchTask,
    SpaceUniverse,
    all_convergences,
    all_maps,
    all_pretopologies,
    all_topologies,
    default_carrier,
    domain,
    search,
    surjections,
    target_carrier,
)
from .families import (
    CapExceeded,
    FiniteFilter,
    FiniteRelation,
    InvariantViolation,
    SetFamily,
    Subset,
    filter_meet,
    grill,
    isotonize,
    mesh,
    popcount,
    rel_image_family,
    rel_preimage_family,
    ultrafilters_of,
    union_table,
)
from .functors import (
    COREFLECTORS,
    HANDLES,
    REFLECTORS,
    I,
    Selector,
    class_filter_masks,
    is_pretopology,
    is_pseudotopology,
    is_topology,
    locally_compactoid_coreflect,
    pretopologize,
    pseudotopologize,
    reflect,
    reflect_by_steps,
    seq_coreflect,
    topologize,
)
from .maps import (
    _LADDER,
    MapContext,
    MapFacts,
    TargetUniverse,
    _forbidden,
    classify,
    closed_in_product,
    continuous,
    final_convergence_scan,
    graph_closed,
    identity_map,
    initial_convergence,
    is_hausdorff,
    is_JE,
    lift_keys,
    lift_record,
    map_flags,
    quotient_decider,
)
from .spaces import (
    _antitone_on_covers,
    adherence_scan,
    adherence_table,
    antitone_scan,
    closed_masks,
    cover_clauses,
    finer,
    inf,
    interior_mask,
    is_cover,
    min_open_table,
    open_masks,
    open_masks_scan,
    sup,
    validate_table,
)
from .zoo import chain_pretopology, sierpinski

MAX_REPORTED_FAILURES = 5
# the sampled cross-check visits the contexts numbered by a multiple of this
CROSSCHECK_STRIDE = 997
# the sweep domains of run_laws, in sweep order; a smoke run sweeps the first
LAW_DOMAINS = ("2to2", "3to2", "3to3 pretopologies", "3to3 sampled")


@dataclass(slots=True)
class LawResult:
    """Instances checked, the true failure total, the first
    MAX_REPORTED_FAILURES failure messages, and the wall time run_laws
    measured for a standalone suite (None for the results the sweep fills
    across domains)."""

    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    failures_total: int = 0
    seconds: float | None = None

    @property
    def ok(self) -> bool:
        return not self.failures_total

    def fail(self, msg: str) -> None:
        self.failures_total += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(msg)


@dataclass(slots=True)
class LawSuiteReport:
    results: list[LawResult]
    elapsed: float
    domains: list[dict] = field(default_factory=list)  # SweepStats.domains

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def result(self, name: str) -> LawResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
            "suites": [
                {"name": r.name, "instances": r.instances,
                 "ok": r.ok, "failures_total": r.failures_total,
                 "failures": r.failures,
                 "seconds": (None if r.seconds is None
                             else round(r.seconds, 4))}
                for r in self.results],
            "domains": [{**d, "seconds": round(d["seconds"], 4)}
                        for d in self.domains],
        }


# ---------------------------------------------------------------------------
# fused sweep over (map, source, target) domains
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SweepStats:
    pairs: int = 0
    contexts: int = 0
    # law records built (sweep_domain lists the two kinds)
    records: int = 0
    # per named domain of run_laws: its name, (map, source) pairs,
    # contexts, law records built and wall time in seconds
    domains: list[dict] = field(default_factory=list)
    agreement: LawResult = field(
        default_factory=lambda: LawResult("route agreement (quotient x3, perfect x2)"))
    continuity_eq: LawResult = field(
        default_factory=lambda: LawResult("continuity equivalences (adherence forms)"))
    adjunction: LawResult = field(
        default_factory=lambda: LawResult("final/initial adjunction + adherence transport"))
    implications: LawResult = field(
        default_factory=lambda: LawResult("implication ladder on classified instances"))
    compact_thms: LawResult = field(
        default_factory=lambda: LawResult("perfect<->compact fiber relation, quotient<->compact"))
    topo_props: LawResult = field(
        default_factory=lambda: LawResult("topological pairs: closure forms + perfect collapse"))
    preservation: LawResult = field(
        default_factory=lambda: LawResult("mixed-property preservation grid"))
    bijections: LawResult = field(
        default_factory=lambda: LawResult("bijections: quotient <-> perfect per class"))
    crosscheck: LawResult = field(
        default_factory=lambda: LawResult("fused sweep vs reference implementations"))
    # contexts breaching each arrow (stronger, weaker) of the ladder
    breaches: dict[tuple[str, str], int] = field(default_factory=dict)

    def merged(self) -> list[LawResult]:
        return [self.agreement, self.continuity_eq, self.adjunction,
                self.implications, self.compact_thms, self.topo_props,
                self.preservation, self.bijections, self.crosscheck]


def _fail_at(result: LawResult, n: int, checks) -> None:
    """For each (bad, message) check, one failure per target in the bitset
    bad, recorded in target order as a scan of one target at a time would
    record them; message(i) describes target i.  Once the result keeps
    MAX_REPORTED_FAILURES messages, the failures left are counted, not
    formatted."""
    for i in range(n):
        if len(result.failures) >= MAX_REPORTED_FAILURES:
            rest = (1 << n) - (1 << i)
            result.failures_total += sum(
                popcount(bad & rest) for bad, _ in checks)
            return
        for bad, message in checks:
            if bad >> i & 1:
                result.fail(message(i))


def _at(bits: int, i: int) -> bool:
    return bool(bits >> i & 1)


def _rc_constraints(bad_of, within, meet_of, full: int) -> tuple:
    """(k, the OR of bad_of[j] over the j in within with meet_of[j] meeting
    k) for every k up to full, empty ones dropped: a limit point of ^K in
    that mask violates relation compactness: the union_table of the ORs
    cols[y] over the j whose meet_of[j] holds the point y."""
    cols = [reduce(or_, (bad_of[j] for j in within if meet_of[j] >> y & 1), 0)
            for y in range(full.bit_length())]
    return tuple((k, bad) for k, bad in enumerate(union_table(cols)) if bad)


def _source_forms(facts: MapFacts, universe: TargetUniverse) -> tuple:
    """The continuity forms, f(S0 lim ^A) in S0 lim ^f(A) and
    f(adh ^(f^-H)) in adh ^H, and the relation compactness of the fibers
    from (Y, tau) to (X, xi): a limit point y of ^B is bad when some class
    filter ^J meeting f^-B has no adherent point in its fiber.  They read xi
    through its adherence table alone: its singleton limits fix S0 (their
    meet table) and the closed sets.  f(adh ^G) in adh ^f(G) is incl2
    again: grouped by H = f(G), its constraints OR to incl2's."""
    img_a, pre_adh = facts.img, facts.pre_adh
    s0_s = pretopologize(facts.xi).table
    src_sets = range(1, facts.full_s + 1)
    cont_refl = universe.holding("co_s0", (
        (img_a[a], img_a[s0_s[a]]) for a in src_sets))
    incl2 = universe.holding("co_adh", (
        (h, pre_adh[h]) for h in range(1, facts.full_t + 1)))
    rc_perf_gen = universe.holding("lim", _rc_constraints(
        facts.misses, src_sets, img_a, facts.full_t))
    rc_perf_closed = universe.holding("lim", _rc_constraints(
        facts.misses, class_filter_masks(Selector.F0_CLOSED, facts.xi),
        img_a, facts.full_t))
    return cont_refl, incl2, rc_perf_gen, rc_perf_closed


def _final_forms(facts: MapFacts, universe: TargetUniverse) -> tuple:
    """The relation compactness of f from (X, initial) to (Y, final): a
    limit point z of ^f(A) is bad when some class filter ^J meeting f(A)
    does not adhere to z there; and the targets tau with T tau = T(fxi)
    and with S0 tau = S0(fxi), each an entrywise inclusion both ways."""
    fxi, adh_fxi, full_t = facts.fxi, facts.adh_fxi, facts.full_t
    limit_misses = [full_t & ~adh_fxi[j] for j in range(full_t + 1)]
    rc_quot_gen = universe.holding("lim", _rc_constraints(
        limit_misses, range(1, full_t + 1), range(full_t + 1), full_t))
    rc_quot_closed = universe.holding("lim", _rc_constraints(
        limit_misses, class_filter_masks(Selector.F0_CLOSED, fxi),
        range(full_t + 1), full_t))

    def equal(kind, table):  # entry b of J tau within table[b] and back
        return (universe.holding(kind, _forbidden(enumerate(table), full_t))
                & universe.holding("co_" + kind, enumerate(table)))
    return (rc_quot_gen, rc_quot_closed,
            equal("t", topologize(fxi).table),
            equal("s0", pretopologize(fxi).table))


def _topological_gaps(facts: MapFacts, flags: dict, universe: TargetUniverse,
                      cont_pre: int) -> tuple:
    """(what, the targets where it differs from its flag) for each form that
    characterizes a flag between topologies, read on topologies only.  On a
    topology the adherence of ^A is the closure of A, so the adherence
    tables are the closure tables here, and the closure form of continuity,
    f(cl f^-B) in cl B, is the source form incl2, passed in as cont_pre.
    Three classical forms are left out, because on a topological source
    they are kernel routes constraint for constraint: cl B in f(cl f^-B)
    (hereditarily quotient) and closedness reflection (quotient) are the
    quotient adherence routes of the principal and the closed class, and
    cl f(A) in f(cl A) (closed maps) is the perfect adherence route of the
    principal class, which the closed/adherent/perfect split compares."""
    img, pre, cl_s, full_t = facts.img, facts.pre, facts.adh_s, facts.full_t
    tgt_sets = range(1, full_t + 1)

    # continuity: no closed set with a preimage that is not closed
    cont = flags["continuous"]
    closed_cont = universe.full
    for h in tgt_sets:
        if cl_s[pre[h]] & ~pre[h]:
            closed_cont &= universe.meets("adh", h, full_t & ~h)
    # f(O) is open iff the closure of its complement stays off it
    shut = (full_t & ~img[o] for o in open_masks(facts.xi))
    open_form = universe.holding("adh", ((c, full_t & ~c) for c in shut))
    return (
        ("closed/adherent/perfect split", flags["closed"] ^ flags["perfect"]),
        ("open-set form of openness", flags["open"] ^ open_form),
        ("closure continuity forms", cont_pre ^ cont),
        ("closed-class continuity form", closed_cont ^ cont))


class _Pair:
    """The (map, source) pair a sweep is at: one per map, which at() moves
    from source to source with the pair's keys (adh_s, lifts, lims).
    decided() builds the pair's MapFacts record, from those keys, and its
    flags on the first call at the pair; source_laws and limit_laws, bound
    once per map, build the pair's two law records on a memo miss, so a
    pair whose records hit builds nothing.  A law record is () when every
    gap in it is empty; else it holds what reporting the gaps at a pair
    needs, and each (result, gaps) entry of its checks is what _fail_at
    reads, its messages naming the map alone."""

    __slots__ = ("f", "universe", "stats", "xi", "keys", "_decided")

    def __init__(self, f, universe: TargetUniverse, stats: SweepStats):
        self.f, self.universe, self.stats = f, universe, stats

    def at(self, xi, keys: tuple) -> None:
        self.xi, self.keys, self._decided = xi, keys, None

    def decided(self) -> tuple:
        if self._decided is None:
            facts = MapFacts(self.f, self.xi, self.universe, self.keys)
            self._decided = facts, map_flags(facts, self.universe)
        return self._decided

    def source_laws(self) -> tuple:
        """The record of one (adh_s, lifts) key: the laws that read the pair
        through its source adherence and lift table alone (fxi is the
        image of the lift table), as (transport, breaches, checks):
        whether adh_fxi differs from pre_adh, (arrow, the targets breaching
        it) per breached arrow of the ladder, and the bijection,
        continuity-form, compactness and preservation gaps."""
        facts, flags = self.decided()
        f, universe = self.f, self.universe
        self.stats.records += 1
        cont_refl, incl2, rc_perf_gen, rc_perf_closed = universe.memoized(
            f, ("source", facts.adh_s), partial(_source_forms, facts, universe))
        rc_quot_gen, rc_quot_closed, t_eq, s0_eq = universe.memoized(
            f, ("final", facts.fxi.table),
            partial(_final_forms, facts, universe))
        cont = flags["continuous"]
        q_gen, q_closed = flags["biquotient"], flags["quotient"]
        p_gen, p_closed = flags["perfect"], flags["closed"]
        # adherence transport: adh in the final convergence equals the
        # pushed source adherence of the preimage filter
        transport = facts.adh_fxi != facts.pre_adh
        breaches = tuple((arrow, bad) for arrow in _LADDER
                         if (bad := flags[arrow[0]] & ~flags[arrow[1]]))
        checks = []

        # bijections: quotient <-> perfect per class
        gap = (q_gen ^ p_gen) | (q_closed ^ p_closed)
        if gap and f.is_bijective():
            checks.append(("bijections", [(gap, lambda i: (
                f"bijection gap at {f.mapping}: "
                f"q={_at(q_gen, i)}/{_at(q_closed, i)} "
                f"p={_at(p_gen, i)}/{_at(p_closed, i)}"))]))

        gap = cont_refl ^ incl2
        if gap:
            checks.append(("continuity_eq", [(gap, lambda i: (
                f"cont-in-conv forms disagree at {f.mapping}: "
                f"{_at(cont_refl, i)}/{_at(incl2, i)}"))]))

        # relation compactness
        perf_gap = (rc_perf_gen ^ p_gen) | (rc_perf_closed ^ p_closed)
        quot_gap = (rc_quot_gen ^ q_gen) | (rc_quot_closed ^ q_closed)
        if perf_gap or quot_gap:
            checks.append(("compact_thms", [
                (perf_gap, lambda i: (
                    f"perfect/compact-fiber gap at {f.mapping}: "
                    f"rc={_at(rc_perf_gen, i)}/{_at(rc_perf_closed, i)} "
                    f"p={_at(p_gen, i)}/{_at(p_closed, i)}")),
                (quot_gap, lambda i: (
                    f"quotient/compact gap at {f.mapping}: "
                    f"rc={_at(rc_quot_gen, i)}/{_at(rc_quot_closed, i)} "
                    f"q={_at(q_gen, i)}/{_at(q_closed, i)}"))]))

        # the quotient variants are the quotient maps of the reflective
        # subcategories: for continuous f (f xi >= tau), tau >= J(f xi) iff
        # J tau = J(f xi), by isotony, idempotence and contractivity of J.
        # S0, S1 and S share the reflection table.
        gap = cont & ((q_closed ^ t_eq) | (q_gen ^ s0_eq))
        if gap:
            checks.append(("preservation", [(gap, lambda i: (
                f"T/S0-quotient {_at(q_closed, i)}/{_at(q_gen, i)} but "
                f"J tau = J(f xi) {_at(t_eq, i)}/{_at(s0_eq, i)} at "
                f"{f.mapping}"))]))
        if transport or breaches or checks:
            return transport, breaches, tuple(checks)
        return ()

    def limit_laws(self) -> tuple:
        """The record of one pushed-limit table lims: the laws that read the
        pair through f(lim ^A) alone, as (differs, checks): whether fxi
        differs from the final_convergence_scan oracle, and the adjunction
        gap.  The adjunction: f xi >= tau (the kernel's continuity flag,
        read on the final convergence) <=> xi >= f- tau, read one A at a
        time: f(lim ^A) inside lim ^f(A).  fxi and the flag are functions of
        lims, as fxi.table[B], the image of lifts[B], is the union of
        lims[A] over the A with f(A) = B; so it reads them off the pair's
        lift record and builds no MapFacts."""
        f, universe = self.f, self.universe
        _, lifts, lims = self.keys
        self.stats.records += 1
        img_a = f.image_table
        fxi, _, _, _, cont, _, _ = lift_record(f, lifts, universe)
        init_ok = universe.holding("co_lim", (
            (img_a[a], lims[a]) for a in range(1, f.source.full + 1)))
        differs = fxi != final_convergence_scan(f, self.xi)
        gap = cont ^ init_ok
        checks = ((("adjunction", [(gap, lambda i: (
            f"adjunction broken at {f.mapping}: "
            f"{_at(cont, i)}/{_at(init_ok, i)}"))]),) if gap else ())
        return (differs, checks) if differs or checks else ()


def _report(stats: SweepStats, n: int, pair: _Pair, source_laws: tuple,
            limit_laws: tuple) -> None:
    """The failures of one pair, read off its two law records, as a run
    that decides every law at the pair records them; the ladder message
    lists the pair's own flags."""
    f, xi = pair.f, pair.xi
    transport, breaches, checks = source_laws or (False, (), ())
    differs, limit_checks = limit_laws or (False, ())
    if transport or differs:
        stats.adjunction.fail(
            f"final convergence or its adherence transport failed: "
            f"{f.mapping} {xi!r}")
    if breaches:
        breached = 0
        for arrow, bad in breaches:
            breached |= bad
            stats.breaches[arrow] = stats.breaches.get(arrow, 0) + popcount(bad)
        flags = pair.decided()[1]
        _fail_at(stats.implications, n, [(breached, lambda i: (
            f"ladder breached at {f.mapping}: "
            f"{ {name: _at(bits, i) for name, bits in flags.items()} }"))])
    for name, gaps in checks + limit_checks:
        _fail_at(getattr(stats, name), n, gaps)


def sweep_domain(maps, sources, targets, stats: SweepStats) -> None:
    """One fused pass, transposed over the targets: they form one
    maps.TargetUniverse, and each (map, source) pair decides every target
    at once.  map_flags returns each flag as a bitset over the targets and
    raises InvariantViolation at the first target where two routes
    disagree; each law about the flags is a few bitset operations or "need
    inside table[k]" lookups.

    Within one map every law reads its pair through three tables: the
    source adherence adh_s, read once per source, and the lift table lifts
    and pushed limits lims, which maps.lift_keys builds once per map, for
    every source, after checking the map and the sources' carrier.  So the
    laws are decided once per record; beside the kernel's records
    (maps.MapFacts), the sweep keeps these in the per-map memo of the
    universe, one per key:

      ("source", adh_s):       the continuity forms and fiber relation
                               compactness (_source_forms);
      ("final", fxi):          the quotient relation compactness and the
                               targets with J tau = J(fxi) (_final_forms);
      ("source_laws", adh_s, lifts):
                               the ladder, bijection, continuity-form,
                               adherence-transport, compactness and
                               preservation gaps (_Pair.source_laws);
      ("limit_laws", lims):    the adjunction gap and fxi against the
                               final_convergence_scan oracle, which reads
                               xi only through f(lim ^A) (_Pair.limit_laws).

    Per pair the sweep looks up the two law records and reports each
    nonzero gap at the pair in hand, naming it, with the true total; the
    ladder check counts, per arrow, the contexts that breach it.  The
    pair's MapFacts record, from the keys in hand, and flags are built only
    where its source_laws record misses, where a ladder breach lists the
    pair's flags, at a topological source (the closure forms; is_topology
    runs once per source, on the pretopologies) and at the contexts whose
    number is a multiple of CROSSCHECK_STRIDE (the sampled cross-check
    against the reference implementations).  The first pair with a
    class-route fault is the first with its (adh_s, fxi) key, and the lift
    table fixes fxi, so it misses its source_laws record and map_flags
    raises there, as in a pair-by-pair run."""
    universe = TargetUniverse(targets)
    targets, n = universe.targets, len(universe.targets)
    sources = tuple(sources)
    # per source, once per domain: its adherence table, and whether it is a
    # topology, decided on the pretopologies alone, as every topology is one
    per_source = [(adherence_table(xi), is_pretopology(xi) and is_topology(xi))
                  for xi in sources]
    tau_top = sum(1 << i for i, t in enumerate(targets) if is_topology(t))
    top_sources = sum(xi_is_top for _, xi_is_top in per_source)
    memoized = universe.memoized
    node = 0
    for f in maps:
        pair = _Pair(f, universe, stats)
        source_laws_of, limit_laws_of = pair.source_laws, pair.limit_laws
        for xi, (adh_s, xi_is_top), (lifts, lims) in zip(
                sources, per_source, lift_keys(f, sources)):
            pair.at(xi, (adh_s, lifts, lims))
            source_laws = memoized(f, ("source_laws", adh_s, lifts),
                                   source_laws_of)
            limit_laws = memoized(f, ("limit_laws", lims), limit_laws_of)
            if source_laws or limit_laws:
                _report(stats, n, pair, source_laws, limit_laws)

            # topological pairs: one failure per context, naming its gaps
            if xi_is_top and tau_top:
                facts, flags = pair.decided()
                incl2 = memoized(f, ("source", adh_s), partial(
                    _source_forms, facts, universe))[1]
                gaps = _topological_gaps(facts, flags, universe, incl2)
                bad = reduce(or_, (gap for _, gap in gaps))
                _fail_at(stats.topo_props, n, [(bad & tau_top, lambda i: (
                    f"{[what for what, gap in gaps if gap >> i & 1]} at "
                    f"{f.mapping} xi={xi!r} tau={targets[i]!r}"))])

            # sampled cross-check against reference implementations, at
            # the contexts numbered by a multiple of the stride
            first = (-node - 1) % CROSSCHECK_STRIDE
            if first < n:
                _crosscheck(stats, pair, range(first, n, CROSSCHECK_STRIDE))
            node += n
        pairs = len(sources)
        stats.pairs += pairs
        stats.contexts += pairs * n
        stats.agreement.instances += 5 * pairs * n
        stats.adjunction.instances += pairs * (1 + n)
        stats.implications.instances += pairs * n
        if f.is_bijective():
            stats.bijections.instances += pairs * n
        stats.continuity_eq.instances += pairs * n
        stats.compact_thms.instances += 2 * pairs * n
        stats.topo_props.instances += top_sources * popcount(tau_top)
        stats.preservation.instances += pairs * n


def _crosscheck(stats: SweepStats, pair: _Pair, positions) -> None:
    """The kernel's graph-closedness flag and the relation-compactness
    verdicts against the relation-level implementations in maps and
    compactness, at the given targets of one pair."""
    facts, flags = pair.decided()
    f, xi, universe = pair.f, pair.xi, pair.universe
    fxi = facts.fxi
    rc_perf_gen, rc_perf_closed = universe.memoized(
        f, ("source", facts.adh_s),
        partial(_source_forms, facts, universe))[2:]
    rc_quot_gen, rc_quot_closed = universe.memoized(
        f, ("final", fxi.table), partial(_final_forms, facts, universe))[:2]
    for i in positions:
        tau = universe.targets[i]
        stats.crosscheck.instances += 1
        if (graph_closed(f.as_relation(), xi, tau)
                != _at(flags["graph_closed"], i)):
            stats.crosscheck.fail(
                f"graph-closedness diverges at {f.mapping}")
        for sel, fast in ((Selector.F_ALL, rc_perf_gen),
                          (Selector.F0_CLOSED, rc_perf_closed)):
            slow = is_relation_compact(
                f.as_relation().inverse(), tau, xi, sel)
            if slow != _at(fast, i):
                stats.crosscheck.fail(
                    f"relation compactness diverges at {f.mapping}")
        itau = initial_convergence(f, tau)
        for sel, fast in ((Selector.F_ALL, rc_quot_gen),
                          (Selector.F0_CLOSED, rc_quot_closed)):
            slow = is_relation_compact(f.as_relation(), itau, fxi, sel)
            if slow != _at(fast, i):
                stats.crosscheck.fail(
                    f"quotient compactness diverges at {f.mapping}")


# ---------------------------------------------------------------------------
# standalone suites
# ---------------------------------------------------------------------------

def suite_axioms_and_lattice() -> LawResult:
    """Every enumerated 2-point convergence is valid; sup/inf are the join
    and meet of the finer-than order and satisfy the lattice laws."""
    r = LawResult("axioms + convergence lattice (n=2 exhaustive)")
    universe = all_convergences(default_carrier(2))
    if len(universe) != 9:
        r.fail(f"expected 9 convergences on 2 points, got {len(universe)}")
    for c in universe:
        r.instances += 1
        if validate_table(c.carrier, c.table):
            r.fail(f"invalid table enumerated: {c!r}")
    for c1 in universe:
        for c2 in universe:
            r.instances += 1
            s, i = sup([c1, c2]), inf([c1, c2])
            if not (finer(s, c1) and finer(s, c2)
                    and finer(c1, i) and finer(c2, i)):
                r.fail("sup/inf not bounds")
            if any(finer(z, s) is False and finer(z, c1) and finer(z, c2)
                   for z in universe):
                r.fail("sup not least upper bound")
            if any(finer(i, z) is False and finer(c1, z) and finer(c2, z)
                   for z in universe):
                r.fail("inf not greatest lower bound")
            if validate_table(s.carrier, s.table) or validate_table(i.carrier, i.table):
                r.fail("lattice operation left the axioms")
            if sup([c1, c2]).table != sup([c2, c1]).table:
                r.fail("sup not commutative")
            if sup([c1, sup([c1, c2])]).table != sup([c1, c2]).table:
                r.fail("absorption failed")
    for c1 in universe:
        r.instances += 1
        if sup([c1]).table != c1.table or inf([c1]).table != c1.table:
            r.fail("singleton sup/inf must be identity")
    return r


def check_functor_laws(r: LawResult, h, convs, maps,
                       verdicts: dict | None = None) -> None:
    """Idempotent, contractive (reflectors) or expansive (coreflectors),
    isotone on every pair, and functorial along every map, for the handle h
    on convergences of one carrier and self-maps of it; the identity is
    both contractive and expansive.  verdicts holds
    continuous(MapContext(f, c1, c2)) per (f, c1, c2), each decided once;
    calls for several handles over the same spaces and maps may share it."""
    verdicts = {} if verdicts is None else verdicts

    def continuous_at(f, c1, c2) -> bool:
        key = (f, c1, c2)
        got = verdicts.get(key)
        if got is None:
            got = verdicts[key] = continuous(MapContext(f, c1, c2))
        return got
    for c in convs:
        hc = h(c)
        r.instances += 1
        if h(hc).table != hc.table:
            r.fail(f"{h.tag} not idempotent on {c!r}")
        if h.kind in ("reflector", "identity") and not finer(c, hc):
            r.fail(f"{h.tag} not contractive on {c!r}")
        if h.kind in ("coreflector", "identity") and not finer(hc, c):
            r.fail(f"{h.tag} not expansive on {c!r}")
    for c1 in convs:
        for c2 in convs:
            r.instances += 1
            if finer(c1, c2) and not finer(h(c1), h(c2)):
                r.fail(
                    f"{h.tag} not isotone on a pair over {c1.carrier.labels}")
    for c1 in convs:
        hc1 = h(c1)
        for c2 in convs:
            hc2 = h(c2)
            for f in maps:
                r.instances += 1
                if continuous_at(f, c1, c2) and not continuous_at(f, hc1,
                                                                  hc2):
                    r.fail(f"{h.tag} not functorial on a map "
                           f"{c1.carrier.labels}->{c2.carrier.labels}")


def reflector_bits(universe: SpaceUniverse, h, earlier=()) -> tuple:
    """The reflector h's numbers over the universe, and the spaces at which
    h is idempotent (of[of[i]] == of[i]) and contractive, as bitsets.
    earlier holds (of, contractive) pairs of other handles on the universe:
    a space that one of them sends where h does reads its contractivity
    bit, which is finer(spaces[i], spaces[of[i]]) too."""
    of = universe.reflections(h)
    spaces = universe.spaces
    idempotent = sum(1 << i for i, j in enumerate(of) if of[j] == j)
    contractive = 0
    for i, j in enumerate(of):
        for of_k, contractive_k in earlier:
            if of_k[i] == j:
                contractive |= contractive_k & 1 << i
                break
        else:
            if finer(spaces[i], spaces[j]):
                contractive |= 1 << i
    return of, idempotent, contractive


def suite_functor_laws(sample_pairs: int) -> LawResult:
    """Contractive/expansive, idempotent, isotone, functorial for the four
    reflectors, three coreflectors and the identity; exhaustive at n=2 and
    sampled at n=3.  At n=3 the convergences form one SpaceUniverse, built
    per call, and each reflector's idempotence and contractivity are decided
    once per space (reflector_bits), the contractivity once per (space,
    image) across the reflectors; a sample reads those bits and every
    handle's images by number, and decides "zeta finer than xi", isotony and
    functoriality.  Isotony reads finer once per (image number, image
    number) in the call.  Each continuity verdict of an image pair is
    decided once per call: at n=2 per (map, source, target) for all
    handles, at n=3 per (map index, source number, target number); an image
    pair that is the sample's own reads the sample's verdict."""
    r = LawResult("functor laws (n=2 exhaustive, n=3 sampled)")
    c2 = default_carrier(2)
    universe2 = list(all_convergences(c2))
    maps2 = all_maps(c2, c2)
    verdicts2 = {}
    for h in HANDLES.values():
        check_functor_laws(r, h, universe2, maps2, verdicts2)
    c3 = default_carrier(3)
    rng = random.Random(0)
    universe = SpaceUniverse(c3)
    spaces = universe.spaces
    maps3 = all_maps(c3, c3)
    reflectors = []
    for h in REFLECTORS:
        reflectors.append((h, *reflector_bits(
            universe, h, [(of, bits) for _, of, _, bits in reflectors])))
    images = [(h, of) for h, of, _, _ in reflectors]
    images += [(h, universe.reflections(h)) for h in COREFLECTORS]
    # the image pairs' verdicts, per (map index, source number, target
    # number) numbered as one int, which takes less memory than a tuple;
    # a draw's own context is decided where it is drawn and not kept, as
    # the draws almost never meet it again
    verdicts = {}
    # "h zeta finer than h xi", per (image number, image number) as one int
    finer_of = {}

    def finer_at(a: int, b: int) -> bool:
        key = a * len(spaces) + b
        got = finer_of.get(key)
        if got is None:
            got = finer_of[key] = finer(spaces[a], spaces[b])
        return got

    def continuous_at(i: int, x: int, z: int) -> bool:
        key = (i * len(spaces) + x) * len(spaces) + z
        got = verdicts.get(key)
        if got is None:
            got = verdicts[key] = continuous(
                MapContext(maps3[i], spaces[x], spaces[z]))
        return got
    for _ in range(sample_pairs):
        x = rng.randrange(len(spaces))
        z = rng.randrange(len(spaces))
        xi, zeta = spaces[x], spaces[z]
        zeta_finer = finer(zeta, xi)
        for h, of, idempotent, contractive in reflectors:
            r.instances += 1
            if not idempotent >> x & 1:
                r.fail(f"{h.tag} not idempotent at n=3")
            if not contractive >> x & 1:
                r.fail(f"{h.tag} not contractive at n=3")
            if zeta_finer and not finer_at(of[z], of[x]):
                r.fail(f"{h.tag} not isotone at n=3")
        i = rng.randrange(len(maps3))
        if continuous(MapContext(maps3[i], xi, zeta)):
            for h, of in images:
                r.instances += 1
                hx, hz = of[x], of[z]
                # an image pair that is (x, z) is the draw's own context
                if (hx != x or hz != z) and not continuous_at(i, hx, hz):
                    r.fail(f"{h.tag} not functorial at n=3")
    return r


def suite_finite_collapse(max_size: int) -> LawResult:
    """The shared S0 = S1 = S reflection (the ultrafilter formula) equals the
    literal adherence-determined operator iterated over the principal class,
    and the definitions of Seq = I1 and K give the identity, on every
    enumerated convergence up to the cap."""
    r = LawResult("finite collapse (selector classes + coreflectors)")
    for n in range(1, max_size + 1):
        for conv in all_convergences(default_carrier(n)):
            r.instances += 1
            if (pseudotopologize(conv).table
                    != reflect_by_steps(Selector.F_ALL, conv).table):
                r.fail(f"selector collapse failed on {conv!r}")
            if (seq_coreflect(conv).table != conv.table
                    or locally_compactoid_coreflect(conv).table != conv.table):
                r.fail(f"coreflector collapse failed on {conv!r}")
    return r


def suite_reflector_ordering(max_size: int) -> LawResult:
    """T <= S0 (= S1 = S) pointwise; the open-set topologizer agrees
    bit-exactly with the iterated closed-class operator; reflection leaves
    the adherence of class filters (and the open sets) unchanged; the closed
    forms for adherence, open sets and antitone validation agree with their
    literal scans.

    Whether a reflection moves the class-filter adherence is decided once
    per (reflection table, class filter masks, source adherence table) in a
    dict that lives for one call; reflect and class_filter_masks are still
    asked per (space, selector), and the oracles once per space."""
    r = LawResult("reflector ordering + topologizer agreement")
    moved_of = {}
    for n in range(1, max_size + 1):
        for conv in all_convergences(default_carrier(n)):
            r.instances += 1
            t = topologize(conv)
            s0 = pretopologize(conv)
            if not (finer(s0, t) and finer(conv, s0)):
                r.fail(f"ordering broken on {conv!r}")
            if reflect_by_steps(Selector.F0_CLOSED, conv).table != t.table:
                r.fail(f"closed-class reflection != topologizer on {conv!r}")
            if is_topology(conv) and not (
                    is_pretopology(conv) and is_pseudotopology(conv)):
                r.fail(f"class predicates inconsistent on {conv!r}")
            adh = adherence_table(conv)
            if adh != adherence_scan(conv):
                r.fail(f"closed-form adherence != scan on {conv!r}")
            if open_masks(conv) != open_masks_scan(conv):
                r.fail(f"closed-form open sets != scan on {conv!r}")
            # raising the limit of the whole carrier keeps the table centered,
            # so validation reports antitone_scan's list unless the covering
            # pairs pass, and then it reports nothing
            raised = conv.table[:-1] + (conv.carrier.full,)
            if (validate_table(conv.carrier, conv.table)
                    != antitone_scan(conv.carrier, conv.table)
                    or _antitone_on_covers(raised)
                    and antitone_scan(conv.carrier, raised)):
                r.fail(f"covering-pair validation != full scan on {conv!r}")
            if not _antitone_on_covers(conv.table):
                r.fail(f"covering pairs fail the valid table of {conv!r}")
            for sel in Selector:
                refl = reflect(sel, conv)
                key = (refl.table, class_filter_masks(sel, conv), adh)
                moved = moved_of.get(key)
                if moved is None:
                    refl_adh = adherence_table(refl)
                    moved = moved_of[key] = any(refl_adh[h] != adh[h]
                                                for h in key[1])
                if moved:
                    r.fail(f"class-filter adherence moved under {sel} "
                           f"on {conv!r}")
            if set(open_masks(t)) != set(open_masks(conv)):
                r.fail(f"open sets changed under topologization on {conv!r}")
    return r


def suite_cover_duality(samples: int) -> LawResult:
    """The filter clause of a cover against its adherence clause, one
    adherence pass over the complement family (the target lies in the
    inherence of the family exactly where it misses that adherence);
    exhaustive at n<=2, sampled at n=3; open-cover comparison on
    topologies.  Every instance is one is_cover call; where the targets of
    one (space, family) run innermost, its cover_clauses are built once,
    before them, and the targets once per carrier.  The open-cover remark
    takes each interior once per (topology, mask).  The sampled half draws
    almost every (space, family) once, so it keeps no record."""
    r = LawResult("cover duality (three clauses) + open-cover remark")
    for n in (1, 2):
        carrier = default_carrier(n)
        targets = [Subset(carrier, a) for a in range(carrier.full + 1)]
        for conv in all_convergences(carrier):
            for fam_pick in range(1 << (carrier.full + 1)):
                masks = frozenset(
                    m for m in range(carrier.full + 1) if fam_pick >> m & 1)
                fam = SetFamily(carrier, masks)
                clauses = cover_clauses(conv, fam)
                for target in targets:
                    r.instances += 1
                    try:
                        is_cover(conv, fam, target, clauses)
                    except InvariantViolation as exc:
                        r.fail(f"duality broke: {exc}")
    carrier = default_carrier(3)
    universe = all_convergences(carrier)
    rng = random.Random(0)
    for _ in range(samples):
        conv = universe[rng.randrange(len(universe))]
        masks = frozenset(rng.sample(range(carrier.full + 1),
                                     rng.randrange(1, 5)))
        fam = SetFamily(carrier, masks)
        a = Subset(carrier, rng.randrange(carrier.full + 1))
        r.instances += 1
        try:
            is_cover(conv, fam, a)
        except InvariantViolation as exc:
            r.fail(f"duality broke: {exc}")
    # open-cover comparison: for topologies the covers of A are exactly the
    # families whose interiors cover A
    for cr in (default_carrier(2), carrier):
        targets = [Subset(cr, a) for a in range(cr.full + 1)]
        for conv in all_topologies(cr):
            interiors = [interior_mask(conv, m) for m in range(cr.full + 1)]
            for fam_pick in range(0, 1 << (cr.full + 1), 3):  # coarse stride
                masks = frozenset(
                    m for m in range(cr.full + 1) if fam_pick >> m & 1)
                fam = SetFamily(cr, masks)
                clauses = cover_clauses(conv, fam)
                union_int = reduce(or_, map(interiors.__getitem__, masks), 0)
                for a, target in enumerate(targets):
                    r.instances += 1
                    if (is_cover(conv, fam, target, clauses)
                            != (a & ~union_int == 0)):
                        r.fail(f"open-cover remark fails on {conv!r}")
    return r


def suite_enumeration_counts() -> LawResult:
    """Pinned universe sizes with independent counting oracles."""
    r = LawResult("enumeration counts (9 / 64 / 29) + determinism")
    c2, c3 = default_carrier(2), default_carrier(3)
    checks = [
        (len(all_convergences(c2)), 9, "convergences on 2 points"),
        (len(all_pretopologies(c3)), 64, "pretopologies on 3 points"),
        (len(all_pretopologies(c2)), 4, "pretopologies on 2 points"),
        (len(all_topologies(c3)), 29, "topologies on 3 labeled points"),
    ]
    for got, want, what in checks:
        r.instances += 1
        if got != want:
            r.fail(f"{what}: got {got}, want {want}")
    # vicinity-parameterization formula 2^(n(n-1))
    for n in (2, 3):
        r.instances += 1
        if len(all_pretopologies(default_carrier(n))) != 2 ** (n * (n - 1)):
            r.fail(f"pretopology count formula fails at n={n}")
    # topologies as T-fixed pretopologies: independent route
    r.instances += 1
    t_fixed = [p for p in all_pretopologies(c3) if is_topology(p)]
    if len(t_fixed) != 29:
        r.fail(f"T-fixed pretopologies: got {len(t_fixed)}, want 29")
    r.instances += 1
    if set(t_fixed) != set(all_topologies(c3)):
        r.fail("open-system route and T-fixed route disagree")
    # duplicate-freeness and determinism
    for stream in (all_convergences(c2), all_pretopologies(c3),
                   all_topologies(c3)):
        r.instances += 1
        if len(set(stream)) != len(stream):
            r.fail("enumeration stream has duplicates")
    return r


def _closed_form_gap(conv, odd: SetFamily, singletons: SetFamily,
                     sel: Selector) -> bool:
    """The closed form and the class-filter scan disagree on whether the
    sets holding the first point are compact at the singletons."""
    scan = is_compact_at_scan(CompactnessQuery(conv, odd, singletons, sel))
    return compact_at_masks(conv, odd.masks, singletons.masks, sel) != scan


def _detection_record(nonempty, chi, wholes, full: int) -> tuple | None:
    """For a table whose entries are nonempty where nonempty is, its
    characteristic chi and the hulls of the whole carrier (wholes: closed
    class, principal): per selector, the masks at which the whole hull
    holds the mask while the reflected chi gives it no limit, or back; per
    mask, whether it converges without being compactoid.  None when
    nothing fails."""
    closed, principal = wholes
    masks = range(1, full + 1)
    detections = tuple(
        sum(hull_holds(closed if sel is Selector.F0_CLOSED else principal,
                       (h,), full) != bool(reflect(sel, chi).table[h])
            for h in masks)
        for sel in Selector)
    convergent = tuple(bool(nonempty[h]) and not hull_holds(
        principal, (h,), full) for h in masks)
    if any(detections) or any(convergent):
        return detections, convergent
    return None


def _s_limit_record(s_table, point_hulls, full: int) -> tuple | None:
    """Per mask, the points at which "the hull of the point holds the
    mask" and "the point is an S-limit of the mask" differ; None when they
    never do."""
    gaps = tuple(
        sum(hull_holds(hull, (h,), full) != bool(s_table[h] >> x & 1)
            for x, hull in enumerate(point_hulls))
        for h in range(1, full + 1))
    return gaps if any(gaps) else None


def _replay_compactness(r: LawResult, conv, invalid: bool, gaps: tuple,
                        detection, s_gaps) -> None:
    """One space's failures from its records, in the order of a loop that
    asks every question at the space; gaps holds the scan comparisons of
    F0_CLOSED and F_ALL."""
    text, full = repr(conv), conv.carrier.full
    detections, convergent = detection or ((0,) * len(Selector),
                                           (False,) * full)
    s_gaps = s_gaps or (0,) * full
    if invalid:
        r.fail(f"characteristic table invalid for {text}")
    closed_gap, all_gap = gaps
    for sel, gap, count in zip(Selector, (closed_gap, False, False, all_gap),
                               detections):
        if gap:
            r.fail(f"compactness closed form and scan disagree ({sel}) "
                   f"on {text}")
        for _ in range(count):
            r.fail(f"characteristic detection fails ({sel}) on {text}")
    for count, diverges in zip(s_gaps, convergent):
        for _ in range(count):
            r.fail(f"S-limit/compact-at gap on {text}")
        if diverges:
            r.fail(f"convergent filter not compactoid on {text}")


def suite_compactness_extras(max_size: int) -> LawResult:
    """Pseudotopology limits = compactness at points; convergent filters
    are compactoid; compactoid <=> reflected characteristic limit nonempty;
    image of compact under compact relation; completeness number 0.  On
    every space the closed form is compared with the class-filter scan for
    each distinct class, on the sets holding the first point at all
    singletons, inside the characteristic-detection instances.

    Each question is decided once per distinct value of what its two sides
    read, in a dict that lives for one call, and every instance is counted
    and reported at its space as before:
    - the two hull tables, the principal one per singleton limits and the
      closed one per (singleton limits, least opens);
    - the closed form against the scan, per (selector, adherence table,
      class filter masks, singleton limits, least opens for the closed
      class);
    - characteristic detection and "convergent filter is compactoid", per
      (nonempty entries of the table, characteristic table, the hulls of
      the whole carrier);
    - the S-limit check, per (S-reflection table, hulls of the
      singletons);
    - the validity of the characteristic table, per table, and the
      completeness number, per adherence table;
    - in the 2x2 relation block, is_relation_compact per (relation rows,
      source table, class, the target's hull table for the class), and
      image_of_compact per (relation rows, family, set, both hypothesis
      verdicts, that hull table).
    A record holds a verdict or failure counts; a space with a failing
    record formats its messages on replay, in the order of a loop that
    asks every question at every space.  The relation block builds its hull
    tables per space and class, and the hypothesis "fam is compact at the
    set" per source and class.  The two selectors of each part are held
    by position, so no record key hashes a Selector."""
    r = LawResult("compactness: characteristic, images, completeness")
    scans, detections, s_limits, invalid_of, complete_of = {}, {}, {}, {}, {}
    principal_of, closed_of = {}, {}
    for n in range(1, max_size + 1):
        carrier = default_carrier(n)
        full = carrier.full
        points = [1 << x for x in carrier.points()]
        # the odd masks: the sets holding the first point
        odd = SetFamily(carrier, frozenset(range(1, full + 1, 2)))
        singletons = SetFamily(carrier, frozenset(points))
        # 4 selectors + S-limits and compactoid per mask, + completeness
        per_space = (len(Selector) + 1) * full + 1
        for conv in all_convergences(carrier):
            r.instances += per_space
            table = conv.table
            s = pseudotopologize(conv)
            chi = characteristic(conv)
            invalid = invalid_of.get(chi.table)
            if invalid is None:
                invalid = invalid_of[chi.table] = bool(
                    validate_table(carrier, chi.table))
            adh = adherence_table(conv)
            singles = tuple(table[p] for p in points)
            least = min_open_table(conv)
            principal = principal_of.get(singles)
            if principal is None:
                principal = principal_of[singles] = hull_table(
                    conv, Selector.F_ALL)
            closed = closed_of.get((singles, least))
            if closed is None:
                closed = closed_of[singles, least] = hull_table(
                    conv, Selector.F0_CLOSED)
            gaps = []
            # the selectors by position: 0 is F0_CLOSED, 1 is F_ALL
            for k, sel, opens in ((0, Selector.F0_CLOSED, least),
                                  (1, Selector.F_ALL, None)):
                key = (k, adh, class_filter_masks(sel, conv), singles, opens)
                gap = scans.get(key)
                if gap is None:
                    gap = scans[key] = _closed_form_gap(conv, odd,
                                                        singletons, sel)
                gaps.append(gap)
            wholes = closed[full], principal[full]
            key = (tuple(map(bool, table)), chi.table, wholes)
            if key in detections:
                detection = detections[key]
            else:
                detection = detections[key] = _detection_record(
                    key[0], chi, wholes, full)
            key = (s.table, tuple(principal[p] for p in points))
            if key in s_limits:
                s_gaps = s_limits[key]
            else:
                s_gaps = s_limits[key] = _s_limit_record(*key, full)
            if invalid or any(gaps) or detection or s_gaps:
                _replay_compactness(r, conv, invalid, gaps, detection,
                                    s_gaps)
            complete = complete_of.get(adh)
            if complete is None:
                complete = complete_of[adh] = (
                    completeness_number_finite(conv) == 0)
            if not complete:
                r.fail("finite completeness number must be 0")
    # image of compact at 2x2, all relations, all spaces, all selectors
    c2 = default_carrier(2)
    d2 = target_carrier(2)
    fams = [SetFamily(c2, frozenset(m)) for m in ({1}, {2}, {3}, {1, 2})]
    ats = [Subset(c2, at) for at in range(1, 4)]
    sels = (Selector.F0, Selector.F_ALL)  # each class keyed by position

    def hypotheses(theta):  # per family and set, per class
        tables = [hull_table(theta, sel) for sel in sels]
        return [[tuple(hull_holds(hulls[at.bits], fam.masks, c2.full)
                       for hulls in tables) for at in ats] for fam in fams]
    sources = [(theta, hypotheses(theta)) for theta in all_convergences(c2)]
    targets = [(sigma, [tuple(hull_table(sigma, sel)) for sel in sels])
               for sigma in all_convergences(d2)]
    images, rel_compact_of = {}, {}  # fams[i] and ats[j] keyed by i and j
    per_context = len(fams) * len(ats) * len(sels)
    for rows in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2),
                 (3, 0), (0, 3), (1, 2), (2, 1), (3, 3), (1, 1), (1, 3),
                 (3, 1), (2, 3), (3, 2)):
        rel = FiniteRelation(c2, d2, rows)
        for theta, fam_compact in sources:
            for sigma, sigma_hulls in targets:
                r.instances += per_context
                rel_compact = []
                for k, sel in enumerate(sels):
                    key = (rows, theta.table, k, sigma_hulls[k])
                    compact = rel_compact_of.get(key)
                    if compact is None:
                        compact = rel_compact_of[key] = is_relation_compact(
                            rel, theta, sigma, sel)
                    rel_compact.append(compact)
                for i, fam_row in enumerate(fam_compact):
                    for j, at_compact in enumerate(fam_row):
                        for k, compact in enumerate(rel_compact):
                            key = (rows, i, j, compact, at_compact[k],
                                   sigma_hulls[k])
                            holds = images.get(key)
                            if holds is None:
                                holds = images[key] = image_of_compact(
                                    rel, theta, sigma, fams[i], ats[j],
                                    *key[3:]).holds
                            if not holds:
                                r.fail(f"compact image failed: rel={rows} "
                                       f"fam={sorted(fams[i].masks)} "
                                       f"at={ats[j].bits}")
    return r


def suite_graph_closedness() -> LawResult:
    """Everywhere graph-closed <=> closed in the product; symmetry under
    inversion; continuous maps into Hausdorff targets are graph-closed."""
    r = LawResult("graph-closedness (product, symmetry, Hausdorff)")
    c2 = default_carrier(2)
    d2 = target_carrier(2)
    universe2 = all_convergences(c2)
    targets2 = all_convergences(d2)
    for rows in [(a, b) for a in range(4) for b in range(4)]:
        rel = FiniteRelation(c2, d2, rows)
        inv = rel.inverse()
        for theta in universe2:
            for sigma in targets2:
                r.instances += 1
                g = graph_closed(rel, theta, sigma)
                if g != closed_in_product(rel, theta, sigma):
                    r.fail(f"product characterization fails: {rows}")
                if g != graph_closed(inv, sigma, theta):
                    r.fail(f"inversion symmetry fails: {rows}")
    for f in surjections(c2, d2):
        for theta in universe2:
            for sigma in targets2:
                if is_hausdorff(sigma) and continuous(
                        MapContext(f, theta, sigma)):
                    r.instances += 1
                    if not graph_closed(f.as_relation(), theta, sigma):
                        r.fail(
                            f"continuous into Hausdorff not graph-closed: "
                            f"{f.mapping}")
    return r


def suite_chain_identity_example() -> LawResult:
    """The identity from the three-point chain pretopology to its
    topologization: continuous, quotient, closed; not hereditarily
    quotient, not adherent, not open."""
    r = LawResult("chain-pretopology identity classification")
    xi = chain_pretopology()
    tau = topologize(xi)
    ctx = MapContext(identity_map(xi.carrier), xi, tau)
    report = classify(ctx)
    want = {
        "continuous": True, "quotient": True, "closed": True,
        "hereditarily_quotient": False, "adherent": False, "open": False,
    }
    for k, v in want.items():
        r.instances += 1
        if getattr(report, k) != v:
            r.fail(f"{k} = {getattr(report, k)}, want {v}")
    return r


def suite_sierpinski() -> LawResult:
    """{0} is compact at itself but not closed; lim ^{0} is the whole
    space."""
    r = LawResult("Sierpinski fixture")
    s = sierpinski()
    zero = s.carrier.subset("0")
    r.instances += 3
    if not compact_at_sets(s, zero, zero, Selector.F_ALL):
        r.fail("{0} must be compact at itself")
    if zero.bits in closed_masks(s):
        r.fail("{0} must not be closed")
    if s.table[zero.bits] != s.carrier.full:
        r.fail("lim ^{0} must be the whole space")
    return r


def suite_preservation_grid(maps, sources, targets) -> LawResult:
    """Thm-preserv instances through the genuine is_JE machinery for every
    (reflector, coreflector) pair on a thinned deterministic sample: the
    contexts numbered by a multiple of 211, counting from 1 in (map,
    source, target) order, reached by their numbers.  A continuous one is
    evaluated once (maps.quotient_decider) and decides each reflector's
    quotient verdict through that reflector's selector routes; is_JE is
    decided once per (space, reflector, coreflector image) within the
    call."""
    r = LawResult("JE preservation via is_JE (sampled grid)")
    je: dict = {}

    def is_je(conv, j, e) -> bool:
        key = conv.table, j, e(conv).table
        if key not in je:
            je[key] = is_JE(conv, j, e)
        return je[key]

    n_s, n_t = len(sources), len(targets)
    for node in range(211, len(maps) * n_s * n_t + 1, 211):
        m, s = divmod((node - 1) // n_t, n_s)
        f, xi, tau = maps[m], sources[s], targets[(node - 1) % n_t]
        ctx = MapContext(f, xi, tau)
        if not continuous(ctx):
            continue
        quotient_like = quotient_decider(ctx)
        for j in REFLECTORS:
            if not quotient_like(j.selector):
                continue
            for e in COREFLECTORS:
                r.instances += 1
                if is_je(xi, j, e) and not is_je(tau, j, e):
                    r.fail(
                        f"({j.tag},{e.tag}) preservation fails at "
                        f"{f.mapping}")
    return r


def suite_prop_JE() -> LawResult:
    """is_JE's two routes agree for every convergence on up to 2 points
    and every (reflector-or-identity, coreflector) pair."""
    r = LawResult("JE two-route agreement (exhaustive)")
    for n in (1, 2):
        for conv in all_convergences(default_carrier(n)):
            for j in REFLECTORS + (I,):
                for e in COREFLECTORS:
                    r.instances += 1
                    try:
                        is_JE(conv, j, e)
                    except InvariantViolation as exc:
                        r.fail(f"JE routes disagree: {exc}")
    return r


def suite_strictness_witnesses() -> LawResult:
    """Every non-reversible arrow that survives the finite collapse has a
    search witness; collapsing or impossible arrows exhaust, as each search
    entry states."""
    r = LawResult("strictness witnesses via search")
    for name, entry in PREDICATES.items():
        r.instances += 1
        res = search(SearchTask(name))
        if entry.exhausts and res.witness is not None:
            r.fail(f"{name}: expected exhaustion, found {res.witness}")
        elif not entry.exhausts and res.witness is None:
            r.fail(f"{name}: expected a witness")
    return r


def suite_family_algebra() -> LawResult:
    """Image/preimage transport of filters under surjections, the
    image-mesh duality for relations, and the map characterization of
    relations, exhaustively on small carriers."""
    r = LawResult("family algebra: transport, duality, rel-map")
    for n, m in ((2, 2), (3, 2), (3, 3), (2, 3)):
        src, dst = default_carrier(n), target_carrier(m)
        for f in surjections(src, dst):
            for g in range(1, src.full + 1):
                r.instances += 1
                gg = FiniteFilter(src, g)
                back = f.preimage_mask(f.image_mask(g))
                if not FiniteFilter(src, back).leq(gg):
                    r.fail("preimage-of-image not coarser")
            for h in range(1, dst.full + 1):
                r.instances += 1
                if f.image_mask(f.preimage_mask(h)) != h:
                    r.fail("image-of-preimage not identity (surjection)")
    c2 = default_carrier(2)
    d2 = target_carrier(2)
    fams2 = [SetFamily(c2, frozenset(ms))
             for pick in range(16)
             for ms in [tuple(m for m in range(4) if pick >> m & 1)]]
    famsd = [SetFamily(d2, frozenset(ms))
             for pick in range(16)
             for ms in [tuple(m for m in range(4) if pick >> m & 1)]]
    for rows in [(a, b) for a in range(4) for b in range(4)]:
        rel = FiniteRelation(c2, d2, rows)
        r.instances += 1
        if rel.validates_as_map() != rel.is_total_single_valued():
            r.fail(f"rel-map characterization fails on {rows}")
        for fa in fams2:
            for fb in famsd:
                r.instances += 1
                if mesh(rel_image_family(rel, fa), fb) != mesh(
                        fa, rel_preimage_family(rel, fb)):
                    r.fail(f"image-mesh duality fails on {rows}")
    # ultrafilter decomposition and lattice round trips at n=3
    c3 = default_carrier(3)
    for base in range(1, 8):
        r.instances += 1
        ff = FiniteFilter(c3, base)
        ultras = ultrafilters_of(ff)
        meet = ultras[0]
        for u in ultras[1:]:
            meet = filter_meet(meet, u)
        if meet.base != ff.base:
            r.fail("meet of ultrafilters does not recover the filter")
    # grill involution on isotone families without the empty member, n<=3
    for pick in range(1, 1 << 7):
        masks = frozenset(m + 1 for m in range(7) if pick >> m & 1)
        fam = SetFamily(c3, masks)
        iso = isotonize(fam)
        r.instances += 1
        if grill(grill(iso)).masks != iso.masks:
            r.fail("grill involution fails on an isotone family")
    return r


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _maps_domain(max_size: int) -> str:
    """The surjections onto 2 points that the preservation grid and the
    tables read: from 3 points for the full surface, from 2 for a smoke
    run; any other size raises CapExceeded."""
    if max_size not in (2, 3):
        raise CapExceeded(f"law suites run at size 2 or 3, not {max_size}")
    return "3to2" if max_size == 3 else "2to2"


def _timed(suite, *args, **kwargs) -> LawResult:
    """Run one standalone suite and record its wall time on its result."""
    t0 = time.perf_counter()
    result = suite(*args, **kwargs)
    result.seconds = time.perf_counter() - t0
    return result


def _sweeps(full: bool, grid_domain: str) -> tuple:
    """The results the sweep fills across the domains of run_laws, then
    the preservation grid's, and SweepStats.domains."""
    stats = SweepStats()
    for name in LAW_DOMAINS if full else LAW_DOMAINS[:1]:
        before = stats.pairs, stats.contexts, stats.records
        t1 = time.perf_counter()
        sweep_domain(*domain(name), stats)
        stats.domains.append({
            "name": name, "pairs": stats.pairs - before[0],
            "contexts": stats.contexts - before[1],
            "records": stats.records - before[2],
            "seconds": time.perf_counter() - t1})
    grid = _timed(suite_preservation_grid, *domain(grid_domain))
    return [*stats.merged(), grid], stats.domains


def run_laws(max_size: int = 3) -> LawSuiteReport:
    """Run every suite; max_size trims the universes and the samples (2 for
    a smoke run, 3 for the full acceptance surface; any other size raises
    CapExceeded).  Each standalone suite reports its wall time; the results
    the sweep fills across domains report none.

    The jobs run in a fixed order: the thirteen standalone suites, then
    the sweeps with the preservation grid.  shards.run_jobs runs reflector
    ordering and the sweeps here and the other twelve suites in a forked
    worker where two CPUs are usable (at size 3 the two shards take about
    the same CPU time), else every job here; the report lists the results
    in job order either way, and the exception raised is that of the
    earliest job in that order that raised, as in a run of one process."""
    # loaded here, so that importing laws, as tables does, costs no more
    from .shards import run_jobs

    t0 = time.perf_counter()
    grid_domain = _maps_domain(max_size)
    full = max_size == 3
    jobs = [
        partial(_timed, suite_axioms_and_lattice),
        partial(_timed, suite_family_algebra),
        partial(_timed, suite_finite_collapse, max_size),
        partial(_timed, suite_reflector_ordering, max_size),
        partial(_timed, suite_functor_laws, 10_000 if full else 200),
        partial(_timed, suite_cover_duality, 10_000 if full else 500),
        partial(_timed, suite_enumeration_counts),
        partial(_timed, suite_compactness_extras, max_size),
        partial(_timed, suite_graph_closedness),
        partial(_timed, suite_chain_identity_example),
        partial(_timed, suite_sierpinski),
        partial(_timed, suite_prop_JE),
        partial(_timed, suite_strictness_witnesses),
        partial(_sweeps, full, grid_domain),
    ]
    *results, (swept, domains) = run_jobs(jobs, set(range(13)) - {3})
    return LawSuiteReport(results + swept, time.perf_counter() - t0, domains)


# ---------------------------------------------------------------------------
# machine-checked analogues of the implication / preservation tables
# ---------------------------------------------------------------------------

# (perfect-like, quotient-like, non-reversal witness: a map with the
# right-hand class only).  At finite scale hereditarily quotient =
# biquotient and adherent = perfect, so the middle rows share the
# biquotient-not-perfect witness.
PERFECT_TO_QUOTIENT_ROWS = [
    (None, "open", None),
    (None, "almost_open", None),
    ("perfect", "biquotient", "biquotient_not_perfect"),
    ("countably_perfect", "countably_biquotient", "biquotient_not_perfect"),
    ("adherent", "hereditarily_quotient", "biquotient_not_perfect"),
    ("closed", "quotient", "quotient_not_closed"),
]

PRESERVATION_ROWS = [
    ("almost open", "I", "countable character"),
    ("biquotient", "S", "bisequential"),
    ("countably biquotient", "S1", "countably bisequential"),
    ("hereditarily quotient", "S0", "Frechet"),
    ("quotient", "T", "sequential"),
]

# strictness of the quotient ladder itself
_LADDER_WITNESSES = {
    "open vs almost open": "almost_open_not_open",
    "almost open vs biquotient": "biquotient_not_almost_open",
    "hereditarily quotient vs quotient": "quotient_not_hereditarily_quotient",
}


def emit_tables(max_size: int = 3) -> dict:
    """Re-derive the implication and preservation tables from sweeps; each
    arrow cell carries its verification count, and each non-reversal either
    a stored witness or a finite-collapse annotation.  max_size is 2 or 3,
    as for run_laws."""
    # several rows share a predicate: run each search once
    witness = cache(lambda pred: search(SearchTask(pred)).witness)

    stats = SweepStats()
    sweep_domain(*domain(_maps_domain(max_size)), stats)
    impl_rows = []
    for left, right, pred in PERFECT_TO_QUOTIENT_ROWS:
        row = {"perfect_like": left, "quotient_like": right,
               "verified_instances": stats.contexts}
        if left is not None:
            row["violations"] = stats.breaches.get((left, right), 0)
            row["non_reversal_witness"] = witness(pred)
        impl_rows.append(row)
    collapse_note = ("biquotient = countably biquotient = hereditarily "
                     "quotient and perfect = countably perfect = adherent "
                     "collapse at finite scale")
    preservation_rows = []
    for quotient_type, refl, prop in PRESERVATION_ROWS:
        preservation_rows.append({
            "quotient_type": quotient_type,
            "reflector": refl,
            "mixed_property": prop,
            "coreflector_type": f"{refl}I1",
            "verified": "no violation over the swept surjections "
                        "(coreflectors are the identity at finite scale)",
        })
    adherent_witness = witness("closed_not_adherent")
    ladder = {label: witness(pred)
              for label, pred in _LADDER_WITNESSES.items()}
    ladder["biquotient vs countably biquotient"] = \
        "collapses at finite scale"
    ladder["countably biquotient vs hereditarily quotient"] = \
        "collapses at finite scale"
    return {
        "implication_table": impl_rows,
        "quotient_ladder_strictness": ladder,
        "finite_collapse_note": collapse_note,
        "adherent_differs_from_closed_witness": adherent_witness,
        "preservation_table": preservation_rows,
        "contexts_checked": stats.contexts,
        "all_sweep_suites_ok": all(r.ok for r in stats.merged()),
    }
