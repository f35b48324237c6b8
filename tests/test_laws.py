import os
import random
import threading
import time
from itertools import islice, product

import pytest

from convlab import compactness, functors, laws, maps, shards, spaces
from convlab.compactness import CompactnessQuery
from convlab.enumerate import (
    SpaceUniverse,
    all_convergences,
    all_maps,
    all_pretopologies,
    all_topologies,
    default_carrier,
    domain,
    surjections,
    target_carrier,
)
from convlab.families import (
    CapExceeded,
    Carrier,
    CarrierMap,
    CarrierMismatch,
    FiniteRelation,
    InvariantViolation,
    NotSurjective,
    SetFamily,
    Subset,
    popcount,
)
from convlab.functors import (
    HANDLES,
    REFLECTORS,
    Selector,
    class_filter_masks,
    is_pretopology,
    is_topology,
    pretopologize,
    topologize,
)
from convlab.laws import LawResult, emit_tables, run_laws
from convlab.maps import (
    MapContext,
    classify,
    continuous,
    is_JE,
    is_quotient_like,
)
from convlab.spaces import (
    Convergence,
    adherence_table,
    closed_masks,
    discrete,
    finer,
    indiscrete,
    min_open_table,
    topology_from_opens,
)


@pytest.fixture(scope="module")
def small_report():
    return run_laws(max_size=2)


class TestRunner:
    def test_small_run_is_green_with_many_suites(self, small_report):
        report = small_report
        assert report.ok
        assert len(report.results) >= 12
        assert sum(r.instances for r in report.results) > 1000

    def test_report_accessors(self, small_report):
        report = small_report
        r = report.result("Sierpinski fixture")
        assert r.ok and r.instances == 3
        doc = report.as_dict()
        assert doc["ok"] is True
        assert {"name", "instances", "ok", "failures_total",
                "failures"} <= set(doc["suites"][0])

    @pytest.mark.parametrize("size", [1, 4])
    def test_sizes_other_than_two_or_three_are_refused(self, size,
                                                       monkeypatch):
        """run_laws and emit_tables raise CapExceeded before any suite or
        sweep runs, instead of running another size's surface."""
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran")
        monkeypatch.setattr(laws, "sweep_domain", refuse)
        monkeypatch.setattr(laws, "suite_axioms_and_lattice", refuse)
        for run in (run_laws, emit_tables):
            with pytest.raises(CapExceeded):
                run(max_size=size)

    def test_standalone_suites_report_their_seconds(self, small_report):
        swept = {r.name for r in laws.SweepStats().merged()}
        for suite in small_report.as_dict()["suites"]:
            if suite["name"] in swept:
                assert suite["seconds"] is None
            else:
                assert isinstance(suite["seconds"], float)

    def test_failure_capping(self):
        r = LawResult("x")
        for i in range(20):
            r.fail(f"boom {i}")
        # the first messages are kept as they were, and the total is true
        assert r.failures == [f"boom {i}" for i in range(5)]
        assert r.failures_total == 20
        assert not r.ok
        doc = laws.LawSuiteReport([r], 0.0).as_dict()
        assert doc["suites"][0]["failures_total"] == 20


class TestErrorsPropagate:
    """Only route disagreement (InvariantViolation) counts as a law
    failure; any other exception is a fault of the program and escapes
    from the first call, instead of being recorded and swept past."""

    @staticmethod
    def _failing(monkeypatch, name):
        calls = []

        def boom(*args):
            calls.append(args)
            raise TypeError("programming error")
        monkeypatch.setattr(laws, name, boom)
        return calls

    def test_cover_duality(self, monkeypatch):
        calls = self._failing(monkeypatch, "is_cover")
        with pytest.raises(TypeError):
            laws.suite_cover_duality(samples=1)
        assert len(calls) == 1

    def test_prop_JE(self, monkeypatch):
        calls = self._failing(monkeypatch, "is_JE")
        with pytest.raises(TypeError):
            laws.suite_prop_JE()
        assert len(calls) == 1

    def test_preservation_grid(self, monkeypatch):
        calls = self._failing(monkeypatch, "is_JE")
        with pytest.raises(TypeError):
            laws.suite_preservation_grid(*domain("3to2"))
        assert len(calls) == 1


def _first_fault_by_scan(maps_, sources, targets) -> str:
    """The message classify raises first, one context at a time."""
    for f in maps_:
        for xi in sources:
            for tau in targets:
                try:
                    classify(MapContext(f, xi, tau))
                except InvariantViolation as exc:
                    return str(exc)
    raise AssertionError("no route disagreement")


class TestRouteDisagreement:
    def test_propagates_out_of_the_sweep(self, monkeypatch):
        # without triggers the cover routes hold wherever the others fail
        monkeypatch.setattr(maps.MapFacts, "_cover_triggers",
                            lambda self, pairs: ())
        with pytest.raises(InvariantViolation, match="routes disagree"):
            laws.sweep_domain(*domain("2to2"), laws.SweepStats())

    @staticmethod
    def _broken_covers(self, sel, build=maps.MapFacts._build_routes):
        # the closed quotient cover route always holds and the principal
        # perfect cover route never does (entry {p} of an adherence table
        # is never empty): on the first faulty pair the later perfect route
        # disagrees at an earlier target than the quotient route
        routes = build(self, sel)
        if sel is Selector.F0_CLOSED:
            return routes._replace(quotient_cover=())
        return routes._replace(perfect_cover=((1, self.full_t),))

    @pytest.mark.parametrize("broken", ["no triggers", "crossed covers"])
    @pytest.mark.parametrize("order", [1, -1])
    def test_first_fault_is_the_one_a_scan_meets(self, monkeypatch, broken,
                                                 order):
        if broken == "no triggers":
            monkeypatch.setattr(maps.MapFacts, "_cover_triggers",
                                lambda self, pairs: ())
        else:
            monkeypatch.setattr(maps.MapFacts, "_build_routes",
                                self._broken_covers)
        maps_, sources, targets = domain("2to2")
        targets = targets[::order]
        with pytest.raises(InvariantViolation) as swept:
            laws.sweep_domain(maps_, sources, targets, laws.SweepStats())
        assert str(swept.value) == _first_fault_by_scan(maps_, sources,
                                                        targets)


class TestTables:
    def test_emitted_tables_are_complete(self):
        doc = emit_tables(max_size=2)
        assert doc["all_sweep_suites_ok"]
        lefts = [r["perfect_like"] for r in doc["implication_table"]]
        assert lefts == [None, None, "perfect", "countably_perfect",
                         "adherent", "closed"]
        for row in doc["implication_table"]:
            if row["perfect_like"] is not None:
                assert row["violations"] == 0
                if "non_reversal_witness" in row:
                    assert row["non_reversal_witness"] is not None
        assert len(doc["preservation_table"]) == 5
        refl = [r["reflector"] for r in doc["preservation_table"]]
        assert refl == ["I", "S", "S1", "S0", "T"]
        ladder = doc["quotient_ladder_strictness"]
        assert ladder["open vs almost open"] is not None
        assert ladder["biquotient vs countably biquotient"] == \
            "collapses at finite scale"

    def test_violations_count_the_breaching_contexts(self, monkeypatch):
        """With closed set on every target only the arrow closed ->
        quotient breaks: its row counts the 2to2 contexts that are not
        quotient, as many as the implication suite fails, and the other
        rows stay 0."""
        kernel = maps.map_flags

        def closed_everywhere(facts, universe):
            flags = kernel(facts, universe)
            flags["closed"] = universe.full
            return flags

        maps_, sources, targets = domain("2to2")
        breaching = sum(not classify(MapContext(f, xi, tau)).quotient
                        for f in maps_ for xi in sources for tau in targets)
        assert breaching
        monkeypatch.setattr(laws, "map_flags", closed_everywhere)
        rows = {r["perfect_like"]: r["violations"]
                for r in emit_tables(max_size=2)["implication_table"]
                if r["perfect_like"]}
        assert rows == {"perfect": 0, "countably_perfect": 0,
                        "adherent": 0, "closed": breaching}
        stats = laws.SweepStats()
        laws.sweep_domain(maps_, sources, targets, stats)
        assert stats.implications.failures_total == breaching


# contexts and per-suite instance counts of whole sweep domains; a drift
# fails here, not only against the benchmark's instance record
PINNED_SWEEPS = {
    "2to2": (162, {
        "route agreement (quotient x3, perfect x2)": 810,
        "continuity equivalences (adherence forms)": 162,
        "final/initial adjunction + adherence transport": 180,
        "implication ladder on classified instances": 162,
        "perfect<->compact fiber relation, quotient<->compact": 324,
        "topological pairs: closure forms + perfect collapse": 32,
        "mixed-property preservation grid": 162,
        "bijections: quotient <-> perfect per class": 162,
        "fused sweep vs reference implementations": 0,
    }),
    "3to2": (148176, {
        "route agreement (quotient x3, perfect x2)": 740880,
        "continuity equivalences (adherence forms)": 148176,
        "final/initial adjunction + adherence transport": 164640,
        "implication ladder on classified instances": 148176,
        "perfect<->compact fiber relation, quotient<->compact": 296352,
        "topological pairs: closure forms + perfect collapse": 696,
        "mixed-property preservation grid": 148176,
        "bijections: quotient <-> perfect per class": 0,
        "fused sweep vs reference implementations": 148,
    }),
    "3to3 pretopologies": (24576, {
        "route agreement (quotient x3, perfect x2)": 122880,
        "continuity equivalences (adherence forms)": 24576,
        "final/initial adjunction + adherence transport": 24960,
        "implication ladder on classified instances": 24576,
        "perfect<->compact fiber relation, quotient<->compact": 49152,
        "topological pairs: closure forms + perfect collapse": 5046,
        "mixed-property preservation grid": 24576,
        "bijections: quotient <-> perfect per class": 24576,
        "fused sweep vs reference implementations": 24,
    }),
}


# keeps the test ids stable
_IDS = {"3to3 pretopologies": "3to3 pretopology bijections"}


@pytest.mark.parametrize("name", [
    pytest.param(name, id=_IDS.get(name, name)) for name in PINNED_SWEEPS])
def test_sweep_counts_are_pinned(name):
    stats = laws.SweepStats()
    laws.sweep_domain(*domain(name), stats)
    contexts, instances = PINNED_SWEEPS[name]
    assert stats.contexts == contexts
    assert {r.name: r.instances for r in stats.merged()} == instances
    assert all(r.ok for r in stats.merged())
    assert sum(stats.breaches.values()) == 0


@pytest.mark.parametrize("name, step", [
    pytest.param(name, step, id=f"{_IDS.get(name, name)}-{step}")
    for name, step in [("2to2", 1), ("3to2", 5), ("3to3 pretopologies", 7)]])
def test_universe_kernel_and_sweep_agree_with_classify(name, step):
    """On every step-th (map, source) pair, bit i of every flag bitset is
    classify on target i, and the sweep over those pairs is green."""
    maps_, sources, targets = domain(name)
    pairs = [(f, xi) for f in maps_ for xi in sources][::step]
    universe = maps.TargetUniverse(targets)
    stats = laws.SweepStats()
    for f, xi in pairs:
        flags = maps.map_flags(maps.MapFacts(f, xi, universe), universe)
        for i, tau in enumerate(targets):
            report = classify(MapContext(f, xi, tau)).as_dict()
            assert {k: bool(v >> i & 1) for k, v in flags.items()} == report
    for f in maps_:
        laws.sweep_domain([f], [xi for g, xi in pairs if g is f], targets,
                          stats)
    assert all(r.ok for r in stats.merged())


@pytest.mark.parametrize("name", ["3to2", "3to3 pretopologies"])
def test_shared_universe_flags_equal_a_fresh_universe(name):
    """The memos of map_flags change no flag: on every (map, source) pair
    the domain's one universe gives the flags of a fresh universe."""
    maps_, sources, targets = domain(name)
    shared = maps.TargetUniverse(targets)
    for f in maps_:
        for xi in sources:
            fresh = maps.TargetUniverse(targets)
            assert (maps.map_flags(maps.MapFacts(f, xi, shared), shared)
                    == maps.map_flags(maps.MapFacts(f, xi, fresh), fresh))


def test_map_flags_returns_a_fresh_dict(monkeypatch):
    """Mutating the flags of one pair leaves a later pair with the same
    memo key, decided without building its routes, unchanged."""
    maps_, sources, targets = domain("3to2")
    f = maps_[0]
    by_key: dict = {}
    for xi in sources:
        fxi = maps.final_convergence(f, xi)
        key = (adherence_table(xi), fxi.table)
        by_key.setdefault(key, []).append(xi)
    first, later = next(xis for xis in by_key.values() if len(xis) > 1)[:2]
    universe, fresh = (maps.TargetUniverse(targets) for _ in range(2))
    want = maps.map_flags(maps.MapFacts(f, later, fresh), fresh)
    flags = maps.map_flags(maps.MapFacts(f, first, universe), universe)
    for name in flags:
        flags[name] ^= universe.full
    build, built = maps.MapFacts._build_routes, []

    def counted(facts, sel):
        built.append(sel)
        return build(facts, sel)
    monkeypatch.setattr(maps.MapFacts, "_build_routes", counted)
    assert maps.map_flags(maps.MapFacts(f, later, universe), universe) == want
    assert not built


def test_the_per_map_memo_holds_one_record_per_key(monkeypatch):
    """A sweep keeps seven kinds of record in the per-map memo, one per key:
    each flag sits in the record of the key it reads, the final convergence
    in its lift table's, and each law gap, the adherence transport among
    them, in the law record of the (adh_s, lifts) or lims key it reads; the
    adjunction's initial side and the oracle sit in the lims record."""
    memoized, tags = maps.TargetUniverse.memoized, set()

    def tagged(universe, f, key, build):
        tags.add(key[0])
        return memoized(universe, f, key, build)
    monkeypatch.setattr(maps.TargetUniverse, "memoized", tagged)
    laws.sweep_domain(*domain("3to2"), laws.SweepStats())
    assert tags == {"classes", "final", "lifts", "lims", "source",
                    "source_laws", "limit_laws"}


def test_the_laws_are_decided_once_per_record(monkeypatch):
    """On 3to2 the law gaps are built once per key per map, 1,512 source_laws
    records and 924 limit_laws records (154 pushed-limit tables per map),
    and a MapFacts record is built at most once per source_laws miss,
    topological pair (29 topologies x 6 maps) or cross-check context: the
    limit_laws records build none, and the other pairs read the two records
    alone."""
    memoized, built = maps.TargetUniverse.memoized, []

    def counted(universe, f, key, build):
        def build_counted():
            built.append((f, key))
            return build()
        return memoized(universe, f, key, build_counted)
    record, facts = laws.MapFacts, []

    def counted_facts(f, xi, universe, keys=None):
        facts.append(xi)
        return record(f, xi, universe, keys)
    monkeypatch.setattr(maps.TargetUniverse, "memoized", counted)
    monkeypatch.setattr(laws, "MapFacts", counted_facts)
    stats = laws.SweepStats()
    laws.sweep_domain(*domain("3to2"), stats)
    kinds = [key[0] for _, key in built]
    assert len(built) == len(set(built))
    assert (kinds.count("source_laws"), kinds.count("limit_laws")) == (
        1512, 924)
    assert stats.records == 1512 + 924
    assert len(facts) <= 1512 + 29 * 6 + stats.crosscheck.instances
    assert stats.crosscheck.instances == 148


def test_the_quotient_routes_read_the_pushed_preimage_adherence(
        monkeypatch):
    """The quotient adherence route reads f(adh ^(f^-H)) off the MapFacts
    record, from the table the pushed adherence gives once per pair: with
    its entry for the whole target planted empty for one source of 2to2,
    that route fails on every target while the reflector route does not,
    and the sweep raises at that source."""
    maps_, sources, targets = domain("2to2")
    xi0, record = sources[4], maps.MapFacts

    def planted(f, xi, universe, keys=None):
        facts = record(f, xi, universe, keys)
        if xi is xi0:
            facts.pre_adh = facts.pre_adh[:-1] + (0,)
        return facts
    monkeypatch.setattr(laws, "MapFacts", planted)
    with pytest.raises(InvariantViolation,
                       match="quotient routes disagree") as raised:
        laws.sweep_domain(maps_, sources, targets, laws.SweepStats())
    assert f"xi={xi0!r}" in str(raised.value)


def test_the_sweep_reads_each_source_once_per_domain(monkeypatch):
    """On 3to2 the sweep decides is_topology on the 64 pretopology sources
    and the 9 targets alone, and takes every pair's keys from the per-source
    adherence tables and the per-map lift_keys, never from pair_keys."""
    counts = {"is_topology": 0, "pair_keys": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call
    monkeypatch.setattr(laws, "is_topology",
                        counted("is_topology", is_topology))
    keys = counted("pair_keys", maps.pair_keys)
    monkeypatch.setattr(maps, "pair_keys", keys)
    # counted too if laws binds the name, as a sweep calling it would
    monkeypatch.setattr(laws, "pair_keys", keys, raising=False)
    stats = laws.SweepStats()
    laws.sweep_domain(*domain("3to2"), stats)
    assert counts == {"is_topology": 64 + 9, "pair_keys": 0}
    assert all(r.ok for r in stats.merged())


@pytest.mark.parametrize("bad", ["not surjective", "source elsewhere"])
def test_the_sweep_checks_maps_and_sources_before_any_record(monkeypatch,
                                                              bad):
    """A map that is not onto its target raises NotSurjective, and a source
    on another carrier, even the last one, CarrierMismatch, before the
    sweep looks up or builds any record."""
    maps_, sources, targets = domain("2to2")
    if bad == "not surjective":
        maps_ = [CarrierMap(maps_[0].source, maps_[0].target, (0, 0))]
        raised = NotSurjective
    else:
        sources = (*sources, all_convergences(target_carrier(2))[0])
        raised = CarrierMismatch

    def refused(universe, f, key, build):
        raise AssertionError(f"a {key[0]} record looked up before the guard")
    monkeypatch.setattr(maps.TargetUniverse, "memoized", refused)
    stats = laws.SweepStats()
    with pytest.raises(raised):
        laws.sweep_domain(maps_, sources, targets, stats)
    assert stats.records == stats.pairs == 0


def test_adherence_fixes_the_closed_sets():
    """The memo keys leave out the closed sets and the S0 table: on every
    source of 3to2 both are a function of the adherence table."""
    _, sources, _ = domain("3to2")
    facts_of: dict = {}
    for xi in sources:
        facts = closed_masks(xi), pretopologize(xi).table
        assert facts_of.setdefault(adherence_table(xi), facts) == facts
    assert len(facts_of) < len(sources)


def test_the_pushed_limits_fix_the_final_convergence_and_continuity():
    """The limit_laws record is keyed by the pushed limits alone: on every
    pair of the law domains the lift record's fxi.table[B] is the union of
    lims[A] over the A with f(A) = B, and the continuity flag is the same
    for every source of a map with the same pushed limits."""
    pairs = 0
    for name in laws.LAW_DOMAINS:
        maps_, sources, targets = domain(name)
        universe = maps.TargetUniverse(targets)
        for f in maps_:
            img, cont_of = f.image_table, {}
            for lifts, lims in maps.lift_keys(f, sources):
                fxi, _, _, _, cont, _, _ = maps.lift_record(f, lifts, universe)
                union = [0] * (f.target.full + 1)
                for a in range(1, f.source.full + 1):
                    union[img[a]] |= lims[a]
                assert fxi.table == tuple(union)
                assert cont_of.setdefault(lims, cont) == cont
                pairs += 1
    assert pairs == 18_066


def test_closure_form_characterizes_hereditarily_quotient_maps():
    """cl B <= f(cl f^-1 B) for every B holds exactly for the hereditarily
    quotient maps, and on a topological source it is the kernel's quotient
    adherence route of the principal class.  Here f: abcd -> pqr from the
    topology with opens {}, {a,c}, X onto the indiscrete space is
    continuous and quotient but not hereditarily quotient, and the closure
    form fails with it."""
    src, dst = default_carrier(4), Carrier.of("p", "q", "r")
    f = CarrierMap(src, dst, (2, 1, 0, 0))
    xi = topology_from_opens(src, [0, 0b0101, src.full])
    tau = indiscrete(dst)
    report = classify(MapContext(f, xi, tau))
    assert report.continuous and report.quotient
    assert not report.hereditarily_quotient
    cl_s, cl_t = adherence_table(xi), adherence_table(tau)
    assert any(cl_t[b] & ~f.image_mask(cl_s[f.preimage_mask(b)])
               for b in range(1, dst.full + 1))
    stats = laws.SweepStats()
    laws.sweep_domain([f], [xi], [tau], stats)
    assert stats.topo_props.instances == 1
    assert stats.topo_props.ok, stats.topo_props.failures


def _flipped(*names):
    """map_flags with the named flags negated on every target."""
    kernel = maps.map_flags

    def flipped(facts, universe):
        flags = kernel(facts, universe)
        for name in names:
            flags[name] ^= universe.full
        return flags
    return flipped


def test_topological_pairs_fail_where_the_flags_are_flipped(monkeypatch):
    """With the biquotient and closed flags negated, every topological
    context of 3to2 fails the perfect collapse, once per context, in
    target order."""
    monkeypatch.setattr(laws, "map_flags", _flipped("biquotient", "closed"))
    stats = laws.SweepStats()
    laws.sweep_domain(*domain("3to2"), stats)
    result = stats.topo_props
    assert result.instances == result.failures_total == 696
    assert len(result.failures) == laws.MAX_REPORTED_FAILURES
    assert all(message.startswith(
        "['closed/adherent/perfect split'] "
        "at (1, 0, 0) xi=Convergence[{'a'}->{'a'")
        for message in result.failures)
    assert result.failures[0].endswith(
        "tau=Convergence[{'p'}->{'p'}, {'q'}->{'q'}, {'p', 'q'}->{}]")


@pytest.mark.parametrize("kind, suite, failures, prefix", [
    ("co_s0", "continuity_eq", 49_230, "cont-in-conv forms disagree at "),
    ("co_adh", "topo_props", 168, "['closure continuity forms'] at ")])
def test_continuity_forms_fail_on_a_wrong_target_table(
        monkeypatch, kind, suite, failures, prefix):
    """The continuity forms that remain can fail: with the targets' S0
    table read as their limit table, S0-continuity parts from the
    adherence form; with their adherence table read as the limit table,
    the closure form of continuity parts from continuity on 168 of the
    696 topological contexts of 3to2."""
    monkeypatch.setitem(maps._TABLES, kind, maps._TABLES["co_lim"])
    stats = laws.SweepStats()
    laws.sweep_domain(*domain("3to2"), stats)
    result = getattr(stats, suite)
    assert result.failures_total == failures
    assert all(message.startswith(prefix) for message in result.failures)


def test_four_point_topologies_onto_three_point_topologies_are_green():
    """Every surjection between every 4-point topology and every 3-point
    topology is a topological pair, and every merged suite holds."""
    stats = laws.SweepStats()
    laws.sweep_domain(surjections(default_carrier(4), target_carrier(3)),
                      all_topologies(default_carrier(4)),
                      all_topologies(target_carrier(3)), stats)
    assert stats.contexts == stats.topo_props.instances == 370_620
    assert all(r.ok for r in stats.merged())


def test_a_quotient_image_of_a_topology_need_not_be_a_topology():
    """Every finite space is JE, so the preservation theorem does not say
    that J-quotient images of J-fixed spaces are J-fixed, and they need
    not be: f = (2, 1, 0, 0) from the topology with opens {}, {a,c}, X is
    continuous and quotient onto a convergence that is not a topology.
    What holds is T tau = T(f xi)."""
    src, dst = default_carrier(4), target_carrier(3)
    f = CarrierMap(src, dst, (2, 1, 0, 0))
    xi = topology_from_opens(src, [0, 0b0101, src.full])
    tau = Convergence(dst, (0, 7, 3, 3, 7, 7, 3, 3))
    report = classify(MapContext(f, xi, tau))
    assert report.continuous and report.quotient and not is_topology(tau)
    assert topologize(tau) == topologize(maps.final_convergence(f, xi))


@pytest.mark.parametrize("sources, targets, contexts", [
    pytest.param(all_topologies, all_convergences, 974_120,
                 id="topologies onto convergences"),
    pytest.param(all_pretopologies, all_pretopologies, 262_144,
                 id="pretopologies onto pretopologies")])
def test_quotient_variants_are_the_quotient_maps_of_the_reflections(
        sources, targets, contexts):
    """For continuous f, f is T-quotient iff T tau = T(f xi), and S0-quotient
    iff S0 tau = S0(f xi): every merged suite holds on every context of
    (2, 1, 0, 0) from 4-point spaces onto 3-point ones."""
    f = CarrierMap(default_carrier(4), target_carrier(3), (2, 1, 0, 0))
    stats = laws.SweepStats()
    laws.sweep_domain([f], sources(default_carrier(4)),
                      targets(target_carrier(3)), stats)
    assert stats.contexts == stats.preservation.instances == contexts
    assert all(r.ok for r in stats.merged())


def test_preservation_fails_where_the_quotient_flag_is_flipped(monkeypatch):
    """With the quotient flag negated, the preservation law fails once on
    every continuous context of 3to2, and nowhere else."""
    maps_, sources, targets = domain("3to2")
    universe = maps.TargetUniverse(targets)
    continuous = sum(
        popcount(maps.map_flags(maps.MapFacts(f, xi, universe),
                                universe)["continuous"])
        for f in maps_ for xi in sources)
    monkeypatch.setattr(laws, "map_flags", _flipped("quotient"))
    stats = laws.SweepStats()
    laws.sweep_domain(maps_, sources, targets, stats)
    assert stats.preservation.failures_total == continuous > 0
    assert all(message.startswith("T/S0-quotient ")
               for message in stats.preservation.failures)


def test_memo_changes_no_message(monkeypatch):
    """Under the flipped biquotient and closed flags, one map of 3to2 swept
    over every 5th source in one call, where the sources share the per-map
    memo, records the counts and messages of one call per source, each
    with a memo of its own; every message is kept.  The cross-check
    numbers the contexts within a call, so only its failures are
    compared."""
    monkeypatch.setattr(laws, "map_flags", _flipped("biquotient", "closed"))
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    maps_, sources, targets = domain("3to2")
    f, sources = maps_[0], sources[::5]
    shared, apart = laws.SweepStats(), laws.SweepStats()
    laws.sweep_domain([f], sources, targets, shared)
    for xi in sources:
        laws.sweep_domain([f], [xi], targets, apart)
    assert shared.topo_props.failures_total
    for one, each in zip(shared.merged(), apart.merged()):
        if one is not shared.crosscheck:
            assert one.instances == each.instances, one.name
        assert one.failures_total == each.failures_total, one.name
        assert one.failures == each.failures, one.name
    assert shared.breaches == apart.breaches


def test_the_cap_changes_no_total(monkeypatch):
    """Under the flipped biquotient and closed flags, a 3to2 sweep that
    keeps five messages per suite counts the failures of one that keeps
    them all, and keeps its first five messages."""
    monkeypatch.setattr(laws, "map_flags", _flipped("biquotient", "closed"))
    capped, kept = laws.SweepStats(), laws.SweepStats()
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 5)
    laws.sweep_domain(*domain("3to2"), capped)
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    laws.sweep_domain(*domain("3to2"), kept)
    assert sum(len(r.failures) > 5 for r in kept.merged()) >= 2
    for one, every in zip(capped.merged(), kept.merged()):
        assert one.failures_total == every.failures_total, one.name
        assert one.failures == every.failures[:5], one.name


def test_the_final_convergence_oracle_runs_per_pushed_limit_table(
        monkeypatch):
    """final_convergence_scan reads xi only through its pushed limits
    f(lim ^A), so the sweep runs it once per distinct pushed-limit table
    of a map, in the pair's limit_laws record, and compares it with fxi
    at every pair: wrong for the pushed limits of the
    last source xi0 of 3to2 alone, it fails the adjunction suite at every
    pair that shares them, each failure naming its own source."""
    maps_, sources, targets = domain("3to2")
    xi0 = sources[-1]

    def pushed(f, xi):
        return tuple(map(f.image_table.__getitem__, xi.table))

    scan, calls = laws.final_convergence_scan, []

    def wrong_at_xi0(f, xi):
        calls.append((f, pushed(f, xi)))
        got = scan(f, xi)
        if pushed(f, xi) != pushed(f, xi0):
            return got
        return type(got)(got.carrier, got.table[:-1] + (got.table[-1] ^ 1,))

    monkeypatch.setattr(laws, "final_convergence_scan", wrong_at_xi0)
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    stats = laws.SweepStats()
    laws.sweep_domain(maps_, sources, targets, stats)
    assert len(calls) == len(set(calls)) == sum(
        len({pushed(f, xi) for xi in sources}) for f in maps_)
    result = stats.adjunction
    want = [f"final convergence or its adherence transport failed: "
            f"{f.mapping} {xi!r}"
            for f in maps_ for xi in sources if pushed(f, xi) == pushed(f, xi0)]
    assert len(want) > len(maps_)
    assert result.failures_total == len(result.failures)
    assert result.failures == want
    assert all(r.ok for r in stats.merged() if r is not result)


def test_compactness_suite_fails_without_the_closed_class_opening(
        monkeypatch):
    """With the closed-class hulls left unopened, the closed form leaves
    the class-filter scan on the closed class; the per-space hull tables
    read the same _hulls, and the failures are those of a suite that asks
    compact_at_masks every question."""
    hulls = compactness._hulls
    monkeypatch.setattr(compactness, "_hulls",
                        lambda conv, b, sel: hulls(conv, b, Selector.F0))
    r = laws.suite_compactness_extras(3)
    assert (r.instances, r.failures_total) == (131_982, 616)
    assert all(m.startswith("compactness closed form and scan disagree "
                            "(Selector.F0_CLOSED)") for m in r.failures)


RELATION_ROWS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2),
                 (3, 0), (0, 3), (1, 2), (2, 1), (3, 3), (1, 1), (1, 3),
                 (3, 1), (2, 3), (3, 2))


def literal_compactness_extras(max_size):
    """The compactness suite as one call per instance, every question asked
    at every space, through the same module names as the suite."""
    r = LawResult("literal")
    for n in range(1, max_size + 1):
        carrier = default_carrier(n)
        full = carrier.full
        points = [1 << x for x in carrier.points()]
        odd = SetFamily(carrier, frozenset(range(1, full + 1, 2)))
        singletons = SetFamily(carrier, frozenset(points))
        for conv in all_convergences(carrier):
            s = laws.pseudotopologize(conv)
            chi = laws.characteristic(conv)
            if laws.validate_table(carrier, chi.table):
                r.fail(f"characteristic table invalid for {conv!r}")
            principal = laws.hull_table(conv, Selector.F_ALL)
            closed = laws.hull_table(conv, Selector.F0_CLOSED)
            for sel in Selector:
                if sel in (Selector.F_ALL, Selector.F0_CLOSED):
                    scan = laws.is_compact_at_scan(
                        CompactnessQuery(conv, odd, singletons, sel))
                    if laws.compact_at_masks(conv, odd.masks,
                                             singletons.masks, sel) != scan:
                        r.fail(f"compactness closed form and scan disagree "
                               f"({sel}) on {conv!r}")
                jchi = laws.reflect(sel, chi)
                whole = (closed if sel is Selector.F0_CLOSED
                         else principal)[full]
                for h in range(1, full + 1):
                    r.instances += 1
                    if (laws.hull_holds(whole, (h,), full)
                            != bool(jchi.table[h])):
                        r.fail(f"characteristic detection fails ({sel}) "
                               f"on {conv!r}")
            for h in range(1, full + 1):
                r.instances += 1
                for x, point in enumerate(points):
                    if (laws.hull_holds(principal[point], (h,), full)
                            != bool(s.table[h] >> x & 1)):
                        r.fail(f"S-limit/compact-at gap on {conv!r}")
                if conv.table[h] and not laws.hull_holds(principal[full],
                                                         (h,), full):
                    r.fail(f"convergent filter not compactoid on {conv!r}")
            r.instances += 1
            if laws.completeness_number_finite(conv) != 0:
                r.fail("finite completeness number must be 0")
    c2, d2 = default_carrier(2), target_carrier(2)
    fams = [SetFamily(c2, frozenset(m)) for m in ({1}, {2}, {3}, {1, 2})]
    ats = [Subset(c2, at) for at in range(1, 4)]
    sels = (Selector.F0, Selector.F_ALL)
    for rows in RELATION_ROWS:
        rel = FiniteRelation(c2, d2, rows)
        for theta in all_convergences(c2):
            for sigma in all_convergences(d2):
                for fam in fams:
                    for at in ats:
                        for sel in sels:
                            r.instances += 1
                            fam_compact = laws.hull_holds(
                                laws.hull_table(theta, sel)[at.bits],
                                fam.masks, c2.full)
                            res = laws.image_of_compact(
                                rel, theta, sigma, fam, at,
                                laws.is_relation_compact(rel, theta, sigma,
                                                         sel),
                                fam_compact, laws.hull_table(sigma, sel))
                            if not res.holds:
                                r.fail(f"compact image failed: rel={rows} "
                                       f"fam={sorted(fam.masks)} "
                                       f"at={at.bits}")
    return r


def _unopened_hulls(monkeypatch):
    hulls = compactness._hulls
    monkeypatch.setattr(compactness, "_hulls",
                        lambda conv, b, sel: hulls(conv, b, Selector.F0))


def _hull_holds_wrong_at_3(monkeypatch):
    hull_holds = compactness.hull_holds
    monkeypatch.setattr(laws, "hull_holds", lambda hull, a, full: (
        hull_holds(hull, a, full) != (3 in tuple(a))))


def _image_wrong_on_row_1_2(monkeypatch):
    image_of_compact = compactness.image_of_compact

    def planted(rel, theta, sigma, fam, at, rel_compact, fam_compact,
                hulls):
        if rel.rows == (1, 2) and rel_compact and fam_compact:
            return compactness.CheckedProposition(False, {})
        return image_of_compact(rel, theta, sigma, fam, at, rel_compact,
                                fam_compact, hulls)
    monkeypatch.setattr(laws, "image_of_compact", planted)


def _s_is_the_identity(monkeypatch):
    monkeypatch.setattr(laws, "pseudotopologize", lambda conv: conv)


def _scan_flipped_where_the_first_point_converges_everywhere(monkeypatch):
    scan = compactness.is_compact_at_scan
    monkeypatch.setattr(laws, "is_compact_at_scan", lambda q: (
        scan(q) != (q.conv.table[1] == q.conv.carrier.full)))


def _flipped_scan_and_hull_holds_wrong_at_odd_masks(monkeypatch):
    """Failures of every kind at one space, at several masks."""
    _scan_flipped_where_the_first_point_converges_everywhere(monkeypatch)
    hull_holds = compactness.hull_holds
    monkeypatch.setattr(laws, "hull_holds", lambda hull, a, full: (
        hull_holds(hull, a, full) != any(m & 1 for m in a)))


@pytest.mark.parametrize("plant, failures", [
    pytest.param(_unopened_hulls, 616, id="unopened-closed-hulls"),
    pytest.param(_hull_holds_wrong_at_3, 21_887, id="hull_holds-at-mask-3"),
    pytest.param(_image_wrong_on_row_1_2, 1_008, id="image-at-row-1-2"),
    pytest.param(_s_is_the_identity, 12_942, id="S-identity"),
    pytest.param(_scan_flipped_where_the_first_point_converges_everywhere,
                 3_402, id="flipped-scan"),
    pytest.param(_flipped_scan_and_hull_holds_wrong_at_odd_masks, 88_667,
                 id="flipped-scan-and-odd-masks"),
])
def test_the_compactness_records_report_what_a_literal_loop_reports(
        monkeypatch, plant, failures):
    """Under each planted fault, the suite's per-call records give the
    counts and every message, in order, of a loop that asks each question
    at each instance; each fault fails at every space it reaches."""
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    plant(monkeypatch)
    got = laws.suite_compactness_extras(3)
    want = literal_compactness_extras(3)
    assert (got.instances, got.failures_total) == (131_982, failures)
    assert (want.instances, want.failures_total) == (131_982, failures)
    assert got.failures == want.failures


def _scan_key(q):
    conv, sel = q.conv, q.selector
    return (sel, adherence_table(conv), class_filter_masks(sel, conv),
            tuple(conv.table[1 << x] for x in conv.carrier.points()),
            min_open_table(conv) if sel is Selector.F0_CLOSED else None)


def _image_key(rel, theta, sigma, fam, at, rel_compact, fam_compact, hulls):
    return (rel.rows, fam, at, rel_compact, fam_compact, tuple(hulls))


def test_the_compactness_suite_asks_each_distinct_input_once(monkeypatch):
    """The scan runs once per distinct (selector, adherence table, class
    filter masks, singleton limits, least opens of the closed class):
    138 times for the 5,508 comparisons; image_of_compact once per
    distinct (rows, family, set, both hypotheses, target hull table):
    1,480 times for 33,048 instances.  Both meet every input the literal
    loop meets."""
    scans, images = [], []
    scan, image_of_compact = (compactness.is_compact_at_scan,
                              compactness.image_of_compact)

    def counted_scan(q):
        scans.append(_scan_key(q))
        return scan(q)

    def counted_image(*args):
        images.append(_image_key(*args))
        return image_of_compact(*args)
    monkeypatch.setattr(laws, "is_compact_at_scan", counted_scan)
    monkeypatch.setattr(laws, "image_of_compact", counted_image)
    literal_compactness_extras(3)
    assert (len(scans), len(images)) == (5_508, 33_048)
    every_scan, every_image = set(scans), set(images)
    scans.clear()
    images.clear()
    assert laws.suite_compactness_extras(3).ok
    assert (len(scans), len(images)) == (138, 1_480)
    assert set(scans) == every_scan and set(images) == every_image


def test_cover_duality_fails_on_a_wrong_complement_adherence(monkeypatch):
    """adh P_c read in the topologization is wrong off topologies only, so
    the clause sets built once per (space, family) disagree at the same
    instances as clauses built per target would."""
    adherence_mask = spaces.adherence_mask
    monkeypatch.setattr(spaces, "adherence_mask", lambda conv, masks: (
        adherence_mask(topologize(conv), masks)))
    r = laws.suite_cover_duality(samples=10_000)
    assert (r.instances, r.failures_total) == (30_632, 824)
    assert all(m.startswith("duality broke: cover clauses disagree")
               for m in r.failures)


def test_functor_laws_decide_every_handle_with_its_own_tables(monkeypatch):
    """An S1 that differs from S0 (it topologizes pretopologies and keeps
    the rest) and is not functorial fails at n=3: each handle's
    functoriality is decided on its own images."""
    reflect = functors.reflect
    monkeypatch.setattr(functors, "reflect", lambda sel, c: (
        reflect(sel, c) if sel is not Selector.F1
        else topologize(c) if is_pretopology(c) else c))
    r = laws.suite_functor_laws(10_000)
    assert (r.instances, r.failures_total) == (65_824, 7)
    assert "S1 not functorial at n=3" in r.failures


def test_functor_laws_decide_a_coreflector_that_moves_spaces(monkeypatch):
    """A "coreflector" P that topologizes pretopologies and keeps the rest
    is not functorial: a sample reads its own continuity verdict only where
    P keeps both of its spaces, and decides every other image pair."""
    class Planted:
        tag, kind = "P", "coreflector"

        def __call__(self, conv):
            return topologize(conv) if is_pretopology(conv) else conv
    monkeypatch.setattr(laws, "COREFLECTORS",
                        (Planted(),) + functors.COREFLECTORS[1:])
    r = laws.suite_functor_laws(10_000)
    assert (r.instances, r.failures_total) == (65_824, 1)
    assert "P not functorial at n=3" in r.failures


class _DiscreteWhereSingletonsAgree:
    """Not contractive, isotone or functorial on 2 points."""
    tag, kind = "P", "reflector"

    def __call__(self, conv):
        return (discrete(conv.carrier) if conv.table[1] == conv.table[2]
                else conv)


def test_functor_laws_decide_each_context_once(monkeypatch):
    """At n=2 the handles share one continuity verdict per (map, source,
    target): 324 continuous calls for the eight handles, where a verdict
    per handle makes 2,592 and one call per instance 4,464.  Each handle,
    and a planted P that fails 24 functoriality instances, keeps the
    instances and every message of a call with verdicts of its own.  The
    whole suite asks each image pair once and each draw's own context
    where it is drawn: 12,714 calls for what were 27,319, over 12,713
    distinct contexts, as one of the 10,000 draws at n=3 repeats an
    earlier one."""
    contexts = []
    monkeypatch.setattr(laws, "continuous",
                        lambda ctx: contexts.append(ctx) or continuous(ctx))
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    c2 = default_carrier(2)
    convs, maps2 = list(all_convergences(c2)), all_maps(c2, c2)
    verdicts = {}
    for h in HANDLES.values():
        laws.check_functor_laws(LawResult("shared"), h, convs, maps2,
                                verdicts)
    assert len(contexts) == len(set(contexts)) == len(verdicts) == 324
    shared, own = LawResult("shared"), LawResult("own")
    planted = _DiscreteWhereSingletonsAgree()
    laws.check_functor_laws(shared, planted, convs, maps2, verdicts)
    laws.check_functor_laws(own, planted, convs, maps2)
    assert sum("functorial" in m for m in own.failures) == 24
    assert (shared.instances, shared.failures_total, shared.failures) == (
        own.instances, own.failures_total, own.failures)
    contexts.clear()
    r = laws.suite_functor_laws(10_000)
    assert (r.instances, r.failures_total) == (65_824, 0)
    assert (len(contexts), len(set(contexts))) == (12_714, 12_713)


def test_functor_laws_keep_no_reflection_across_calls(monkeypatch):
    """A run before the S1 of the test above is planted leaves nothing
    behind that the next run reads: the universe and its reflections live
    in one call."""
    laws.suite_functor_laws(200)
    reflect = functors.reflect
    monkeypatch.setattr(functors, "reflect", lambda sel, c: (
        reflect(sel, c) if sel is not Selector.F1
        else topologize(c) if is_pretopology(c) else c))
    r = laws.suite_functor_laws(10_000)
    assert (r.instances, r.failures_total) == (65_824, 7)


def test_reflector_bits_are_the_per_space_verdicts():
    universe = SpaceUniverse(default_carrier(3))
    for h in REFLECTORS:
        of, idempotent, contractive = laws.reflector_bits(universe, h)
        for i, conv in enumerate(universe.spaces):
            hc = functors.reflect(h.selector, conv)
            assert hc == universe.spaces[of[i]]
            assert (idempotent >> i & 1) == (
                functors.reflect(h.selector, hc).table == hc.table)
            assert (contractive >> i & 1) == finer(conv, hc)


def test_a_reflection_outside_the_universe_is_an_internal_fault(
        monkeypatch, capsys):
    """An S1 that empties every 3-point table leaves the convergences: the
    suite raises InvariantViolation and convlab laws exits 3."""
    from convlab.cli import main
    reflect = functors.reflect
    monkeypatch.setattr(functors, "reflect", lambda sel, c: (
        Convergence(c.carrier, (0,) * len(c.table))
        if sel is Selector.F1 and c.carrier.size == 3 else reflect(sel, c)))
    with pytest.raises(InvariantViolation, match="S1 sends .* outside"):
        laws.suite_functor_laws(10)
    assert main(["laws", "--size", "2"]) == 3
    assert "S1 sends" in capsys.readouterr().err


@pytest.mark.parametrize("covers, failures, prefix", [
    pytest.param(True, 2_741, "covering-pair validation != full scan",
                 id="True-2741"),
    pytest.param(False, 2_754, "covering pairs fail the valid table",
                 id="False-2754"),
])
def test_reflector_ordering_under_a_planted_covering_pair_test(
        monkeypatch, covers, failures, prefix):
    """The covering-pair test answers the same everywhere, in the validator
    and in the suite's checks.  Always true, it passes the raised tables
    that antitone_scan rejects, on all but 13 of the 2,754 spaces; always
    false, it fails the valid table of every space, although validate_table
    then falls back to antitone_scan and reports what the scan reports."""
    for module in (spaces, laws):
        monkeypatch.setattr(module, "_antitone_on_covers", lambda t: covers)
    r = laws.suite_reflector_ordering(3)
    assert (r.instances, r.failures_total) == (2_754, failures)
    assert all(m.startswith(prefix) for m in r.failures)


def _grid_contexts(maps_, sources, targets) -> list:
    """The grid's sample, literally: every context in (map, source,
    target) order, numbered from 1, kept where the number is a multiple of
    211."""
    return list(islice(product(maps_, sources, targets), 210, None, 211))


def _grid_by_scan(maps_, sources, targets) -> list:
    """The grid's failure messages, one is_quotient_like and one is_JE call
    per question."""
    failures = []
    for f, xi, tau in _grid_contexts(maps_, sources, targets):
        ctx = MapContext(f, xi, tau)
        if not continuous(ctx):
            continue
        for j in REFLECTORS:
            if is_quotient_like(ctx, j.selector):
                for e in functors.COREFLECTORS:
                    if laws.is_JE(xi, j, e) and not laws.is_JE(tau, j, e):
                        failures.append(f"({j.tag},{e.tag}) preservation "
                                        f"fails at {f.mapping}")
    return failures


@pytest.mark.parametrize("name, visited", [("3to2", 702), ("2to2", 0)])
def test_the_grid_visits_the_sampled_contexts_in_order(monkeypatch, name,
                                                       visited):
    seen = []

    def recorded(ctx):
        seen.append((ctx.f, ctx.source, ctx.target))
        return continuous(ctx)
    monkeypatch.setattr(laws, "continuous", recorded)
    maps_, sources, targets = domain(name)
    r = laws.suite_preservation_grid(maps_, sources, targets)
    assert seen == _grid_contexts(maps_, sources, targets)
    assert len(seen) == visited
    assert r.instances == (1_404 if visited else 0) and r.ok


def test_the_grid_fails_every_instance_under_a_planted_is_JE(monkeypatch):
    """is_JE planted false on every 2-point space fails each instance of
    3 -> 2: is_JE is asked once per (space, reflector, coreflector image),
    and each instance reads the answers of its own source and target."""
    calls = []

    def planted(conv, j, e):
        calls.append((conv.table, j, e))
        return conv.carrier.size != 2 and is_JE(conv, j, e)
    monkeypatch.setattr(laws, "is_JE", planted)
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    r = laws.suite_preservation_grid(*domain("3to2"))
    assert r.instances == r.failures_total == 1_404
    assert len({(table, j) for table, j, _ in calls}) == len(calls)
    assert r.failures == _grid_by_scan(*domain("3to2"))


def test_a_route_fault_escapes_from_the_grid_as_is_quotient_like_raises(
        monkeypatch):
    """With S1's reflector route planted to hold everywhere, the grid
    raises, at the first continuous context that is not S1-quotient, the
    InvariantViolation that is_quotient_like raises there."""
    build = maps.MapFacts._build_routes
    monkeypatch.setattr(maps.MapFacts, "_build_routes", lambda self, sel: (
        build(self, sel)._replace(quotient_refl=())
        if sel is Selector.F1 else build(self, sel)))
    with pytest.raises(InvariantViolation) as by_scan:
        _grid_by_scan(*domain("3to2"))
    with pytest.raises(InvariantViolation) as by_grid:
        laws.suite_preservation_grid(*domain("3to2"))
    assert str(by_grid.value) == str(by_scan.value)
    assert str(by_grid.value).startswith(
        "quotient routes disagree for Selector.F1")


def literal_reflector_ordering(max_size):
    """The reflector-ordering suite as one call per question at every
    space and selector, through the same module names as the suite."""
    r = LawResult("literal")
    for n in range(1, max_size + 1):
        for conv in all_convergences(default_carrier(n)):
            r.instances += 1
            t = laws.topologize(conv)
            s0 = laws.pretopologize(conv)
            if not (laws.finer(s0, t) and laws.finer(conv, s0)):
                r.fail(f"ordering broken on {conv!r}")
            if (laws.reflect_by_steps(Selector.F0_CLOSED, conv).table
                    != t.table):
                r.fail(f"closed-class reflection != topologizer on {conv!r}")
            if laws.is_topology(conv) and not (
                    laws.is_pretopology(conv)
                    and laws.is_pseudotopology(conv)):
                r.fail(f"class predicates inconsistent on {conv!r}")
            adh = laws.adherence_table(conv)
            if adh != laws.adherence_scan(conv):
                r.fail(f"closed-form adherence != scan on {conv!r}")
            if laws.open_masks(conv) != laws.open_masks_scan(conv):
                r.fail(f"closed-form open sets != scan on {conv!r}")
            raised = conv.table[:-1] + (conv.carrier.full,)
            if (laws.validate_table(conv.carrier, conv.table)
                    != laws.antitone_scan(conv.carrier, conv.table)
                    or laws._antitone_on_covers(raised)
                    and laws.antitone_scan(conv.carrier, raised)):
                r.fail(f"covering-pair validation != full scan on {conv!r}")
            if not laws._antitone_on_covers(conv.table):
                r.fail(f"covering pairs fail the valid table of {conv!r}")
            for sel in Selector:
                refl_adh = laws.adherence_table(laws.reflect(sel, conv))
                if any(refl_adh[h] != adh[h]
                       for h in laws.class_filter_masks(sel, conv)):
                    r.fail(f"class-filter adherence moved under {sel} "
                           f"on {conv!r}")
            if set(laws.open_masks(t)) != set(laws.open_masks(conv)):
                r.fail(f"open sets changed under topologization on {conv!r}")
    return r


def _family(carrier, pick):
    return SetFamily(carrier, frozenset(
        m for m in range(carrier.full + 1) if pick >> m & 1))


def literal_cover_duality(samples):
    """The cover-duality suite with one is_cover call per instance, and
    every interior asked again at every instance of the open-cover
    remark."""
    r = LawResult("literal")

    def cover(conv, fam, a):
        try:
            return laws.is_cover(conv, fam, Subset(conv.carrier, a))
        except InvariantViolation as exc:
            r.fail(f"duality broke: {exc}")
    for n in (1, 2):
        carrier = default_carrier(n)
        for conv in all_convergences(carrier):
            for pick in range(1 << (carrier.full + 1)):
                for a in range(carrier.full + 1):
                    r.instances += 1
                    cover(conv, _family(carrier, pick), a)
    carrier = default_carrier(3)
    universe = all_convergences(carrier)
    rng = random.Random(0)
    for _ in range(samples):
        conv = universe[rng.randrange(len(universe))]
        masks = frozenset(rng.sample(range(carrier.full + 1),
                                     rng.randrange(1, 5)))
        r.instances += 1
        cover(conv, SetFamily(carrier, masks),
              rng.randrange(carrier.full + 1))
    for conv in all_topologies(default_carrier(2)) + all_topologies(carrier):
        cr = conv.carrier
        for pick in range(0, 1 << (cr.full + 1), 3):
            fam = _family(cr, pick)
            for a in range(cr.full + 1):
                r.instances += 1
                union_int = 0
                for m in fam.masks:
                    union_int |= laws.interior_mask(conv, m)
                if cover(conv, fam, a) != (a & ~union_int == 0):
                    r.fail(f"open-cover remark fails on {conv!r}")
    return r


def literal_functor_laws(sample_pairs):
    """The functor-law suite with every handle applied, and every finer
    and continuous question asked, at every instance."""
    r = LawResult("literal")
    c2 = default_carrier(2)
    convs, maps2 = all_convergences(c2), all_maps(c2, c2)
    for h in HANDLES.values():
        for c in convs:
            hc = h(c)
            r.instances += 1
            if h(hc).table != hc.table:
                r.fail(f"{h.tag} not idempotent on {c!r}")
            if h.kind in ("reflector", "identity") and not laws.finer(c, hc):
                r.fail(f"{h.tag} not contractive on {c!r}")
            if h.kind in ("coreflector", "identity") and not laws.finer(hc,
                                                                       c):
                r.fail(f"{h.tag} not expansive on {c!r}")
        for x, z in product(convs, convs):
            r.instances += 1
            if laws.finer(x, z) and not laws.finer(h(x), h(z)):
                r.fail(f"{h.tag} not isotone on a pair over {c2.labels}")
        for x, z, f in product(convs, convs, maps2):
            r.instances += 1
            if (laws.continuous(MapContext(f, x, z))
                    and not laws.continuous(MapContext(f, h(x), h(z)))):
                r.fail(f"{h.tag} not functorial on a map "
                       f"{c2.labels}->{c2.labels}")
    c3 = default_carrier(3)
    rng = random.Random(0)
    spaces3, maps3 = all_convergences(c3), all_maps(c3, c3)
    for _ in range(sample_pairs):
        xi = spaces3[rng.randrange(len(spaces3))]
        zeta = spaces3[rng.randrange(len(spaces3))]
        for h in laws.REFLECTORS:
            r.instances += 1
            if h(h(xi)).table != h(xi).table:
                r.fail(f"{h.tag} not idempotent at n=3")
            if not laws.finer(xi, h(xi)):
                r.fail(f"{h.tag} not contractive at n=3")
            if laws.finer(zeta, xi) and not laws.finer(h(zeta), h(xi)):
                r.fail(f"{h.tag} not isotone at n=3")
        f = maps3[rng.randrange(len(maps3))]
        if laws.continuous(MapContext(f, xi, zeta)):
            for h in laws.REFLECTORS + laws.COREFLECTORS:
                r.instances += 1
                if not laws.continuous(MapContext(f, h(xi), h(zeta))):
                    r.fail(f"{h.tag} not functorial at n=3")
    return r


def _reflect_topologizes_F1(monkeypatch):
    reflect = functors.reflect
    monkeypatch.setattr(laws, "reflect", lambda sel, conv: (
        topologize(conv) if sel is Selector.F1 else reflect(sel, conv)))


def _interior_drops_bit_0(monkeypatch):
    interior_mask = spaces.interior_mask
    monkeypatch.setattr(laws, "interior_mask",
                        lambda conv, m: interior_mask(conv, m) & ~1)


def _finer_false_at_entry_1(monkeypatch):
    monkeypatch.setattr(laws, "finer", lambda c1, c2: (
        c1.table[1] != 1 and finer(c1, c2)))


def _finer_false_into_a_full_entry_1(monkeypatch):
    """False where the second table's lim ^{x0} is the whole carrier: it
    reads the coarser side, where T and S0 differ."""
    monkeypatch.setattr(laws, "finer", lambda c1, c2: (
        c2.table[1] != c2.carrier.full and finer(c1, c2)))


def _relation_compact_always(monkeypatch):
    monkeypatch.setattr(laws, "is_relation_compact", lambda *args: True)


def _hulls_drop_bit_0(monkeypatch):
    """Wrong on the 3-point spaces whose lim ^{x0} is the whole carrier."""
    hulls = compactness._hulls
    monkeypatch.setattr(compactness, "_hulls", lambda conv, b, sel: (
        [h & ~1 for h in hulls(conv, b, sel)]
        if conv.carrier.size == 3 and conv.table[1] == conv.carrier.full
        else hulls(conv, b, sel)))


ORDERING = (laws.suite_reflector_ordering, literal_reflector_ordering, 3)
COVERS = (laws.suite_cover_duality, literal_cover_duality, 10_000)
FUNCTORS = (laws.suite_functor_laws, literal_functor_laws, 10_000)
COMPACTNESS = (laws.suite_compactness_extras, literal_compactness_extras, 3)


@pytest.mark.parametrize("plant, suite, instances, failures", [
    pytest.param(_reflect_topologizes_F1, ORDERING, 2_754, 1_492,
                 id="reflect-F1-ordering"),
    pytest.param(_interior_drops_bit_0, COVERS, 30_632, 6_709,
                 id="interior-covers"),
    pytest.param(_finer_false_at_entry_1, ORDERING, 2_754, 130,
                 id="finer-ordering"),
    pytest.param(_finer_false_at_entry_1, FUNCTORS, 65_824, 1_735,
                 id="finer-functors"),
    pytest.param(_finer_false_into_a_full_entry_1, FUNCTORS, 65_824, 27_241,
                 id="finer-into-functors"),
    pytest.param(_relation_compact_always, COMPACTNESS, 131_982, 1_872,
                 id="relation-compact-compactness"),
    pytest.param(_hulls_drop_bit_0, COMPACTNESS, 131_982, 53_253,
                 id="hulls-compactness"),
])
def test_the_suite_records_report_what_a_literal_loop_reports(
        monkeypatch, plant, suite, instances, failures):
    """Under each planted fault, a suite that decides each question once
    per distinct input keeps the instances, the failure total and every
    message, in order, of a loop that asks each question at each
    instance."""
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    plant(monkeypatch)
    run, literal, size = suite
    got, want = run(size), literal(size)
    assert (got.instances, got.failures_total) == (instances, failures)
    assert (want.instances, want.failures_total) == (instances, failures)
    assert got.failures == want.failures


def test_the_oracles_that_read_the_whole_table_run_at_every_space(
        monkeypatch):
    """reflect_by_steps returning its argument wherever lim ^{x0} is the
    whole carrier fails at every space it reaches: its stop test reads the
    whole table, so a record keyed by what its first step reads would
    miss some of them."""
    reflect_by_steps = functors.reflect_by_steps
    monkeypatch.setattr(laws, "reflect_by_steps", lambda sel, conv: (
        conv if conv.table[1] == conv.carrier.full
        else reflect_by_steps(sel, conv)))
    monkeypatch.setattr(laws, "MAX_REPORTED_FAILURES", 10**6)
    collapse = laws.suite_finite_collapse(3)
    assert (collapse.instances, collapse.failures_total) == (2_754, 1_682)
    ordering = laws.suite_reflector_ordering(3)
    assert (ordering.instances, ordering.failures_total) == (2_754, 1_691)
    assert ordering.failures == literal_reflector_ordering(3).failures


def _counted(monkeypatch, module, name, calls, key=None):
    original = getattr(module, name)

    def counted(*args):
        calls.append(args if key is None else key(*args))
        return original(*args)
    monkeypatch.setattr(module, name, counted)


def test_the_suites_ask_each_distinct_input_once(monkeypatch):
    """Each ledger counts the suite's calls at size 3, and each keyed
    question meets every input the literal loop meets:
    - reflector ordering, adherence_table: 2,889 calls, one per space and
      one per distinct (reflection, class filter masks, source adherence);
    - cover duality, interior_mask: 248, one per (topology, mask);
    - functor laws, finer: 15,485, isotony once per image pair and the
      contractivity of S1 and S read off S0's; SpaceUniverse.index: 217,
      once per distinct image table of each handle;
    - compactness, hull_table: 174, of which 138 per distinct singleton
      limits (and least opens, for the closed class) and 36 in the relation
      block; is_relation_compact: 1,152, once per (rows, source table,
      class, target hull table)."""
    ledger = {name: [] for name in ("adherence", "interior", "finer",
                                    "index", "hulls", "relation")}
    _counted(monkeypatch, laws, "adherence_table", ledger["adherence"],
             lambda conv: conv.table)
    _counted(monkeypatch, laws, "interior_mask", ledger["interior"],
             lambda conv, m: (conv, m))
    _counted(monkeypatch, laws, "finer", ledger["finer"])
    _counted(monkeypatch, SpaceUniverse, "index", ledger["index"])
    _counted(monkeypatch, laws, "hull_table", ledger["hulls"],
             lambda conv, sel: (
                 tuple(conv.table[1 << x] for x in conv.carrier.points()),
                 min_open_table(conv) if sel is Selector.F0_CLOSED else sel))
    _counted(monkeypatch, laws, "is_relation_compact", ledger["relation"],
             lambda rel, theta, sigma, sel: (
                 rel.rows, theta.table, sel,
                 tuple(compactness.hull_table(sigma, sel))))
    for (run, literal, size), counts, keyed in (
            (ORDERING, {"adherence": 2_889}, True),
            (COVERS, {"interior": 248}, True),
            (FUNCTORS, {"finer": 15_485, "index": 217}, False),
            (COMPACTNESS, {"hulls": 174, "relation": 1_152}, True)):
        every = {}
        if keyed:
            assert literal(size).ok
            every = {name: set(ledger[name]) for name in counts}
        for calls in ledger.values():
            calls.clear()
        assert run(size).ok
        assert {name: len(ledger[name]) for name in counts} == counts
        assert all(set(ledger[name]) == keys for name, keys in every.items())
        for calls in ledger.values():
            calls.clear()


# ---------------------------------------------------------------------------
# two processes: shards.run_jobs
# ---------------------------------------------------------------------------

def _untimed(node):
    """A report document without its wall times, which differ per run."""
    if isinstance(node, dict):
        return {k: _untimed(v) for k, v in node.items()
                if k not in ("elapsed_seconds", "seconds")}
    if isinstance(node, list):
        return [_untimed(v) for v in node]
    return node


def _no_child_left():
    """No worker is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_laws_2(monkeypatch, cpus):
    """The untimed run_laws(2) document where cpus CPUs are usable, and
    the number of workers the run forked."""
    fork, forked = os.fork, []

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid
    with monkeypatch.context() as m:
        m.setattr(shards, "usable_cpus", lambda: cpus)
        m.setattr(os, "fork", counted)
        doc = run_laws(2).as_dict()
    _no_child_left()
    return _untimed(doc), len(forked)


def _s0_returns_its_argument(monkeypatch):
    reflect = functors.reflect
    monkeypatch.setattr(functors, "reflect", lambda sel, c: (
        c if sel is Selector.F0 else reflect(sel, c)))


def _biquotient_and_closed_flipped(monkeypatch):
    monkeypatch.setattr(laws, "map_flags", _flipped("biquotient", "closed"))


@pytest.mark.parametrize("plant, failing", [
    pytest.param(None, set(), id="green"),
    pytest.param(_s0_returns_its_argument,
                 {"finite collapse (selector classes + coreflectors)",
                  "compactness: characteristic, images, completeness",
                  "mixed-property preservation grid"},
                 id="functors-reflect"),
    pytest.param(_biquotient_and_closed_flipped,
                 {"implication ladder on classified instances",
                  "perfect<->compact fiber relation, quotient<->compact",
                  "topological pairs: closure forms + perfect collapse",
                  "mixed-property preservation grid",
                  "bijections: quotient <-> perfect per class"},
                 id="sweep-map-flags"),
])
def test_two_processes_report_what_one_process_reports(monkeypatch, plant,
                                                       failing):
    """The report of a run split between a worker and this process equals
    that of a run in one process, but for wall times: green, under a fault
    planted in suites that the worker runs (finite collapse, compactness)
    and in the sweep that this process runs, and under one planted in the
    sweep alone."""
    if plant:
        plant(monkeypatch)
    split, forked = _run_laws_2(monkeypatch, 2)
    alone, alone_forked = _run_laws_2(monkeypatch, 1)
    assert (forked, alone_forked) == (1, 0)
    assert split == alone
    assert {r["name"] for r in split["suites"] if not r["ok"]} == failing


def _raising(exc):
    def suite(*args):
        raise exc
    return suite


@pytest.mark.parametrize("worker_suite, parent_suite, raised", [
    pytest.param("suite_axioms_and_lattice", "suite_reflector_ordering",
                 InvariantViolation, id="worker-first"),
    pytest.param("suite_strictness_witnesses", "suite_reflector_ordering",
                 TypeError, id="parent-first"),
])
@pytest.mark.parametrize("cpus", [2, 1])
def test_the_earliest_job_in_run_order_raises(monkeypatch, worker_suite,
                                              parent_suite, raised, cpus):
    """With a route disagreement planted in a suite that the worker runs
    and a programming error in one that this process runs, run_laws
    raises the one earlier in run order, with its message, as a run in one
    process does, and leaves no child behind."""
    monkeypatch.setattr(laws, worker_suite, _raising(
        InvariantViolation("planted in the worker")))
    monkeypatch.setattr(laws, parent_suite, _raising(
        TypeError("planted here")))
    monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
    message = {InvariantViolation: "planted in the worker",
               TypeError: "planted here"}[raised]
    with pytest.raises(raised) as info:
        run_laws(2)
    _no_child_left()
    assert type(info.value) is raised and str(info.value) == message
    if cpus == 2 and raised is InvariantViolation:
        # the worker's traceback comes back as the cause
        assert isinstance(info.value.__cause__, shards.RemoteTraceback)
        assert "planted in the worker" in str(info.value.__cause__)


def test_an_exception_that_does_not_pickle_comes_back_as_runtime_error(
        monkeypatch):
    class Local(Exception):
        pass
    monkeypatch.setattr(laws, "suite_family_algebra",
                        _raising(Local("not picklable")))
    monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError) as info:
        run_laws(2)
    _no_child_left()
    message = str(info.value)
    assert message.startswith("Local: not picklable\n")
    assert "Traceback" in message and "in suite" in message


def test_an_interrupt_here_kills_and_reaps_the_worker(monkeypatch):
    """KeyboardInterrupt in this process's shard kills a worker that is
    still running and reaps it before the interrupt propagates."""
    monkeypatch.setattr(laws, "suite_axioms_and_lattice",
                        lambda: time.sleep(60))
    monkeypatch.setattr(laws, "suite_reflector_ordering",
                        _raising(KeyboardInterrupt()))
    monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_laws(2)
    assert time.monotonic() - t0 < 30
    _no_child_left()


def test_a_worker_that_dies_is_a_runtime_error(monkeypatch):
    monkeypatch.setattr(laws, "suite_family_algebra", lambda: os._exit(7))
    monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="worker exited with status 7"):
        run_laws(2)
    _no_child_left()


def test_a_failed_fork_runs_every_job_here(monkeypatch):
    """Where fork fails for want of processes or memory, the run goes on
    in this process and reports what a split run reports."""
    split, _ = _run_laws_2(monkeypatch, 2)

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
    assert _untimed(run_laws(2).as_dict()) == split
    _no_child_left()


def _refuse_fork():
    raise AssertionError("forked")


def test_one_usable_cpu_forks_nothing(monkeypatch):
    """Under taskset -c 0 the affinity mask holds one CPU, and every job
    runs in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert shards.usable_cpus() == 1
    assert run_laws(2).ok


def test_a_second_thread_forks_nothing(monkeypatch):
    monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert shards.run_jobs([lambda: 1, lambda: 2], {1}) == [1, 2]
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
