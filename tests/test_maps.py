import hashlib
import itertools
import json

import pytest

from convlab.families import Carrier, CarrierMap, NotSurjective
from convlab.functors import Selector, topologize
from convlab.maps import (
    _TABLES,
    MapContext,
    TargetUniverse,
    classification_witnesses,
    classify,
    closed_in_product,
    continuous,
    final_convergence,
    graph_closed,
    identity_map,
    initial_convergence,
    is_JE,
    is_almost_open,
    is_open_map,
    is_open_map_topological,
    is_perfect_like,
    is_quotient_like,
)
from convlab.spaces import Convergence, adherence_table, discrete, pretopology_from_vicinities
from convlab.enumerate import (
    all_convergences,
    all_topologies,
    default_carrier,
    domain,
    surjections,
)
from convlab.zoo import AB, ABC, chain_pretopology

PQ = Carrier.of("p", "q")


@pytest.fixture(scope="module")
def p3():
    return chain_pretopology()


@pytest.fixture(scope="module")
def tp3(p3):
    return topologize(p3)


def collapse_ab_to_p():
    return CarrierMap.of(ABC, PQ, {"a": "p", "b": "p", "c": "q"})


class TestContinuity:
    def test_identity_continuous(self, p3):
        assert continuous(MapContext(identity_map(ABC), p3, p3))

    def test_into_coarser_reflection(self, p3, tp3):
        assert continuous(MapContext(identity_map(ABC), p3, tp3))

    def test_back_from_reflection_not_continuous(self, p3, tp3):
        assert not continuous(MapContext(identity_map(ABC), tp3, p3))


class TestInitialFinal:
    def test_identity_gives_back_the_space(self, p3):
        ident = identity_map(ABC)
        assert initial_convergence(ident, p3).table == p3.table
        assert final_convergence(ident, p3).table == p3.table

    def test_final_equals_exact_image_form(self, p3):
        f = collapse_ab_to_p()
        fxi = final_convergence(f, p3)
        for b in range(1, 4):
            acc = 0
            for a in range(1, 8):
                if f.image_mask(a) == b:
                    acc |= f.image_mask(p3.table[a])
            assert fxi.table[b] == acc

    def test_final_needs_surjection(self, p3):
        f = CarrierMap.of(ABC, PQ, {"a": "p", "b": "p", "c": "p"})
        with pytest.raises(NotSurjective):
            final_convergence(f, p3)

    def test_final_of_pretopology_onto_three_points_can_lose_it(self):
        # four points collapse onto three: the classical escape from
        # pretopologies under finality
        x4 = Carrier.of("x1", "x2", "z1", "z2")
        y3 = Carrier.of("y", "y1", "y2")
        xi = pretopology_from_vicinities(
            x4, {"x1": ("x1", "z1"), "x2": ("x2", "z2"),
                 "z1": ("z1",), "z2": ("z2",)})
        from convlab.functors import is_pretopology, is_topology
        assert is_topology(xi)
        f = CarrierMap.of(x4, y3, {"x1": "y", "x2": "y",
                                   "z1": "y1", "z2": "y2"})
        fxi = final_convergence(f, xi)
        assert not is_pretopology(fxi)
        assert not is_topology(fxi)


class TestQuotientRoutes:
    def test_chain_identity_flags(self, p3, tp3):
        ctx = MapContext(identity_map(ABC), p3, tp3)
        assert is_quotient_like(ctx, Selector.F0_CLOSED)
        assert not is_quotient_like(ctx, Selector.F0)
        assert is_quotient_like(MapContext(identity_map(ABC), p3, p3),
                                Selector.F_ALL)

    def test_blunt_preimage_inclusion_is_strictly_stronger(self):
        """Regression fixture: the whole-fiber preimage inclusion fails on
        an instance where all three implemented routes (and the reflector
        characterization) agree the map IS hereditarily quotient."""
        xi = Convergence.make(ABC, (
            0,
            ABC.mask_of("a"),      # lim ^{a}
            ABC.mask_of("b"),      # lim ^{b}
            0,                     # lim ^{a,b}
            ABC.mask_of("ac"),     # lim ^{c}
            ABC.mask_of("a"),      # lim ^{a,c}
            0,                     # lim ^{b,c}
            0,                     # lim ^X
        ))
        tau = Convergence.make(PQ, (0, PQ.mask_of("p"), PQ.mask_of("pq"), 0))
        f = collapse_ab_to_p()
        ctx = MapContext(f, xi, tau)
        assert is_quotient_like(ctx, Selector.F0)  # routes agree: True
        # the blunt form fails at the class filter ^{q}
        adh_t = adherence_table(tau)
        adh_s = adherence_table(xi)
        h = PQ.mask_of("q")
        blunt = f.preimage_mask(adh_t[h]) & ~adh_s[f.preimage_mask(h)] == 0
        assert not blunt

    def test_quotient_witness_extraction(self, p3, tp3):
        ctx = MapContext(identity_map(ABC), p3, tp3)
        report, witnesses = classification_witnesses(ctx)
        assert not report.hereditarily_quotient
        assert set(witnesses["hereditarily_quotient"]) == {
            "filter_base", "point"}


class TestPerfectRoutes:
    def test_chain_identity_flags(self, p3, tp3):
        ctx = MapContext(identity_map(ABC), p3, tp3)
        assert is_perfect_like(ctx, Selector.F0_CLOSED)   # closed map
        assert not is_perfect_like(ctx, Selector.F0)      # not adherent

    def test_homeomorphism_perfect(self, p3):
        ctx = MapContext(identity_map(ABC), p3, p3)
        assert is_perfect_like(ctx, Selector.F_ALL)

    def test_target_side_cover_quantification_misses_unsaturated_filters(self):
        """Regression fixture: quantifying the cover form over families on
        the TARGET only reaches fiber-saturated class filters; an
        unsaturated principal filter breaks perfection while every
        saturated one passes.  The implemented cover route quantifies on
        the source and stays equivalent."""
        xi = Convergence.make(ABC, (
            0,
            ABC.mask_of("a"),      # lim ^{a}
            ABC.mask_of("bc"),     # lim ^{b}
            0,                     # lim ^{a,b}
            ABC.mask_of("c"),      # lim ^{c}
            0, 0, 0,
        ))
        tau = Convergence.make(PQ, (0, PQ.mask_of("pq"), PQ.mask_of("q"), 0))
        f = collapse_ab_to_p()
        ctx = MapContext(f, xi, tau)
        assert not is_perfect_like(ctx, Selector.F0)
        # saturated class filters (preimages of target sets) all pass
        adh_t = adherence_table(tau)
        adh_s = adherence_table(xi)
        for b in range(1, 4):
            g = f.preimage_mask(b)
            assert adh_t[f.image_mask(g)] & ~f.image_mask(adh_s[g]) == 0
        # the gap witness is the unsaturated filter ^{a}
        g = ABC.mask_of("a")
        assert adh_t[f.image_mask(g)] & ~f.image_mask(adh_s[g]) != 0


class TestOpenMaps:
    def test_identity_open(self, p3):
        assert is_open_map(MapContext(identity_map(ABC), p3, p3))

    def test_collapse_to_point_open(self):
        star = Carrier.of("*")
        f = CarrierMap.of(AB, star, {"a": "*", "b": "*"})
        ctx = MapContext(f, discrete(AB), discrete(star))
        assert is_open_map(ctx)

    def test_almost_open_but_not_open_instance(self):
        # the point a catches limits through {c} that b cannot lift
        xi = Convergence.make(ABC, (
            0,
            ABC.mask_of("a"), ABC.mask_of("b"), 0,
            ABC.mask_of("ac"), ABC.mask_of("a"), 0, 0,
        ))
        f = collapse_ab_to_p()
        tau = final_convergence(f, xi)
        ctx = MapContext(f, xi, tau)
        assert is_almost_open(ctx)
        assert not is_open_map(ctx)

    def test_filter_form_agrees_with_open_images_on_topological_sources(self):
        # the filter form implies open images always; the converse needs a
        # topological source
        for xi in all_topologies(default_carrier(3))[::3]:
            for f in surjections(ABC, PQ):
                for tau in all_convergences(PQ):
                    ctx = MapContext(f, xi, tau)
                    assert is_open_map(ctx) == is_open_map_topological(ctx)

    def test_filter_form_implies_open_images_in_general(self):
        for xi in all_convergences(default_carrier(2))[::2]:
            for f in surjections(AB, PQ):
                for tau in all_convergences(PQ):
                    ctx = MapContext(f, xi, tau)
                    if is_open_map(ctx):
                        assert is_open_map_topological(ctx)


class TestClassify:
    def test_homeomorphism_all_true_on_hausdorff(self):
        # graph_closed needs a Hausdorff target even for the identity (the
        # diagonal is closed in the square exactly when limits are unique)
        d = discrete(ABC)
        rep = classify(MapContext(identity_map(ABC), d, d))
        assert all(rep.as_dict().values())

    def test_homeomorphism_map_flags_true_on_non_hausdorff(self, p3):
        rep = classify(MapContext(identity_map(ABC), p3, p3))
        d = rep.as_dict()
        assert not d.pop("graph_closed")  # diagonal not closed: two limits
        assert all(d.values())

    def test_classification_refuses_non_surjections(self, p3):
        f = CarrierMap.of(ABC, PQ, {"a": "p", "b": "p", "c": "p"})
        tau = discrete(PQ)
        with pytest.raises(NotSurjective):
            classify(MapContext(f, p3, tau))

    def test_witnesses_for_false_flags(self, p3, tp3):
        ctx = MapContext(identity_map(ABC), p3, tp3)
        rep, ws = classification_witnesses(ctx)
        assert rep == classify(ctx)
        for flag, value in rep.as_dict().items():
            if not value:
                assert flag in ws

    def test_one_evaluation_per_class(self, p3, tp3, monkeypatch):
        from convlab import maps
        calls = []
        for name in ("_quotient", "_perfect"):
            def counted(sel, *args, name=name, fn=getattr(maps, name)):
                calls.append((name, sel))
                return fn(sel, *args)
            monkeypatch.setattr(maps, name, counted)
        classify(MapContext(identity_map(ABC), p3, tp3))
        assert len(calls) == 4
        assert set(calls) == {
            (name, sel) for name in ("_quotient", "_perfect")
            for sel in (Selector.F0, Selector.F0_CLOSED)}


# sha256 of the report and the witnesses, in output order, of every
# stride-th context of the domain (maps, then sources, then targets), as
# first recorded
PINNED_WITNESSES = {
    ("3to2", 29):
        "6a72b2bc06bca3b8f7ae57623302f53a8ce4b7be8e3ab5dc0f217ef44aff78e2",
    ("3to3 pretopologies", 11):
        "4735a67a12df41551bf7d2c2cec8aea2f562e2129b5884a86a635372c80329c3",
    ("3to3 pretopologies onto topologies", 11):
        "f828bd77b218a68f211fb48f5dc7240e57fea1893c8c6de2ddf0a0cd6d6623fe",
    ("3to3 sampled", 11):
        "f09ae5d440da930c977981bd1601056e10dbdd847a8d616da013bd9b989842c7",
}


@pytest.mark.parametrize("name, stride", sorted(PINNED_WITNESSES))
def test_witness_digest_is_pinned(name, stride):
    digest = hashlib.sha256()
    contexts = itertools.product(*domain(name))
    for f, xi, tau in itertools.islice(contexts, 0, None, stride):
        report, witnesses = classification_witnesses(MapContext(f, xi, tau))
        digest.update(json.dumps([report.as_dict(), witnesses]).encode())
    assert digest.hexdigest() == PINNED_WITNESSES[name, stride]


class TestGraphClosed:
    def test_identity_on_discrete(self):
        rel = identity_map(AB).as_relation()
        d = discrete(AB)
        assert graph_closed(rel, d, d)
        assert closed_in_product(rel, d, d)

    def test_chain_identity_not_graph_closed(self, p3, tp3):
        rel = identity_map(ABC).as_relation()
        assert not graph_closed(rel, p3, tp3)


class TestMixedProperties:
    def test_topologies_are_T_I1_spaces(self):
        from convlab.functors import HANDLES
        for top in all_topologies(default_carrier(3))[::5]:
            assert is_JE(top, HANDLES["T"], HANDLES["I1"])

    def test_JE_degenerates_to_true_at_finite_scale(self):
        # with the coreflectors equal to the identity, J(E xi) = J xi is
        # coarser than xi by contractivity, so every finite convergence is
        # a JE-space; the preservation content that survives finitely is
        # fixedness preservation, covered by the law sweep
        from convlab.functors import HANDLES
        for conv in all_convergences(default_carrier(2)):
            for e in ("Seq", "I1", "K"):
                assert is_JE(conv, HANDLES["T"], HANDLES[e])

    def test_rejects_wrong_kinds(self, p3):
        from convlab.families import ValidationError
        from convlab.functors import HANDLES
        with pytest.raises(ValidationError):
            is_JE(p3, HANDLES["Seq"], HANDLES["I1"])
        with pytest.raises(ValidationError):
            is_JE(p3, HANDLES["T"], HANDLES["S0"])


class TestTargetUniverse:
    @pytest.mark.parametrize("name", ["3to2", "3to3 pretopologies"])
    def test_rows_are_scans_over_the_targets(self, name):
        """For every table kind and every (k, m), the row entry meets reads
        is the scan of the targets' entry k against m."""
        targets = domain(name)[2]
        universe = TargetUniverse(targets)
        full = targets[0].carrier.full
        for kind, table_of in _TABLES.items():
            tables = [table_of(tau) for tau in targets]
            for k in range(full + 1):
                for m in range(full + 1):
                    assert universe.meets(kind, k, m) == sum(
                        1 << i for i, table in enumerate(tables)
                        if table[k] & m)

    def test_a_one_target_universe_builds_class_routes_once(self,
                                                           monkeypatch):
        """Two pairs of one map with the same (source adherence, final
        convergence) key share the class verdicts in a one-target universe
        too: the routes are built for the first pair only."""
        from convlab import maps
        maps_, sources, targets = domain("3to2")
        f = maps_[0]
        by_key: dict = {}
        for xi in sources:
            key = (adherence_table(xi), final_convergence(f, xi).table)
            by_key.setdefault(key, []).append(xi)
        first, later = next(xis for xis in by_key.values()
                            if len(xis) > 1)[:2]
        fresh = TargetUniverse(targets[:1])
        want = maps.map_flags(maps.MapFacts(f, later, fresh), fresh)
        build, built = maps.MapFacts._build_routes, []

        def counted(facts, sel):
            built.append(sel)
            return build(facts, sel)
        monkeypatch.setattr(maps.MapFacts, "_build_routes", counted)
        universe = TargetUniverse(targets[:1])
        maps.map_flags(maps.MapFacts(f, first, universe), universe)
        assert maps.map_flags(maps.MapFacts(f, later, universe),
                              universe) == want
        assert built == [Selector.F0, Selector.F0_CLOSED]

    def test_an_empty_universe_answers_nothing(self):
        universe = TargetUniverse(())
        assert universe.full == 0
        assert universe.meets("adh", 1, 1) == 0
        assert universe.holding("adh", ((1, 1),)) == 0
        assert universe.holding("lim", ()) == 0
