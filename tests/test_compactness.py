import pytest

from convlab.compactness import (
    CompactnessQuery,
    characteristic,
    compact_at_masks,
    compact_at_sets,
    completeness_number_finite,
    hull_holds,
    hull_table,
    image_of_compact,
    is_compactoid_filter,
    is_relation_compact,
)
from convlab.families import (
    Carrier,
    FiniteFilter,
    FiniteRelation,
    InvariantViolation,
    SetFamily,
    Subset,
)
from convlab.functors import Selector, topologize
from convlab.maps import MapContext, identity_map, is_perfect_like
from convlab.spaces import (
    adherence_table,
    closed_masks,
    discrete,
    validate_table,
)
from convlab.enumerate import all_convergences, default_carrier
from convlab.zoo import ABC, chain_pretopology, sierpinski


class TestCompactAt:
    def test_every_subset_compact_at_itself_exhaustive_n2(self):
        for conv in all_convergences(default_carrier(2)):
            for m in range(1, 4):
                s = Subset(conv.carrier, m)
                assert compact_at_sets(conv, s, s)

    def test_every_subset_compact_at_itself_sampled_n3(self):
        for conv in all_convergences(default_carrier(3))[::41]:
            for m in range(1, 8):
                s = Subset(conv.carrier, m)
                for sel in Selector:
                    assert compact_at_sets(conv, s, s, sel)

    def test_sierpinski_zero_compact_but_not_closed(self):
        s = sierpinski()
        zero = s.carrier.subset("0")
        assert compact_at_sets(s, zero, zero)
        assert zero.bits not in closed_masks(s)

    def test_finite_compactness_with_T1_forces_inclusion(self):
        # when every singleton is closed, finitely-compact-at means subset
        for conv in all_convergences(default_carrier(2)):
            t1 = all((1 << i) in closed_masks(conv)
                     for i in conv.carrier.points())
            if not t1:
                continue
            for a in range(1, 4):
                for b in range(1, 4):
                    if compact_at_sets(conv, Subset(conv.carrier, a),
                                       Subset(conv.carrier, b), Selector.F0):
                        assert a & ~b == 0

    def test_sierpinski_breaks_it_without_T1(self):
        s = sierpinski()
        zero, one = s.carrier.subset("0"), s.carrier.subset("1")
        assert compact_at_sets(s, zero, one, Selector.F0)
        assert not (zero <= one)


class TestHullTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_give_every_singleton_verdict(self, n):
        """For every space up to 3 points and every selector, entry b of
        the space's hull table decides compactness of {a} at {b} as
        compact_at_masks does, for every pair of masks."""
        masks = range(default_carrier(n).full + 1)
        for conv in all_convergences(default_carrier(n)):
            full = conv.carrier.full
            for sel in Selector:
                hulls = hull_table(conv, sel)
                for b in masks:
                    for a in masks:
                        assert (hull_holds(hulls[b], (a,), full)
                                == compact_at_masks(conv, (a,), (b,), sel))

    def test_passed_facts_give_the_computed_verdict(self):
        """image_of_compact, given the hypothesis read off the source's hull
        table and the target's hull table, answers as compact_at_masks
        decides the implication, for every relation on 2 points."""
        c2 = default_carrier(2)
        rels = [FiniteRelation(c2, c2, (a, b))
                for a in range(4) for b in range(4)]
        for theta in all_convergences(c2):
            for sel in Selector:
                hulls = hull_table(theta, sel)
                for rel in rels:
                    rel_compact = is_relation_compact(rel, theta, theta, sel)
                    for pick in range(1, 16):
                        fam = SetFamily(c2, frozenset(
                            m for m in range(4) if pick >> m & 1))
                        images = [rel.image_mask(m) for m in fam.masks]
                        for at in range(1, 4):
                            fam_compact = hull_holds(hulls[at], fam.masks, 3)
                            assert fam_compact == compact_at_masks(
                                theta, fam.masks, (at,), sel)
                            got = image_of_compact(
                                rel, theta, theta, fam, Subset(c2, at),
                                rel_compact, fam_compact, hulls)
                            want = not (rel_compact and fam_compact) or (
                                compact_at_masks(theta, images,
                                                 (rel.image_mask(at),), sel))
                            assert got.holds == want
                            assert (got.witness is None) == want


class TestRelationCompact:
    def test_identity_relation_compact(self):
        for conv in all_convergences(default_carrier(2)):
            rel = identity_map(conv.carrier).as_relation()
            for sel in Selector:
                assert is_relation_compact(rel, conv, conv, sel)

    def test_perfect_iff_inverse_compact_on_the_chain(self):
        xi = chain_pretopology()
        tau = topologize(xi)
        f = identity_map(ABC)
        inv = f.as_relation().inverse()
        ctx = MapContext(f, xi, tau)
        for sel in Selector:
            assert is_perfect_like(ctx, sel) == \
                is_relation_compact(inv, tau, xi, sel)


class TestCharacteristic:
    def test_discrete_characteristic(self):
        d = discrete(ABC)
        chi = characteristic(d)
        for m in range(1, 8):
            expect = ABC.full if d.table[m] else 0
            assert chi.table[m] == expect

    def test_characteristic_is_a_convergence(self):
        for conv in all_convergences(default_carrier(2)):
            chi = characteristic(conv)
            assert validate_table(chi.carrier, chi.table) == []

    def test_compactoid_detection_via_reflection(self):
        from convlab.functors import reflect
        for conv in all_convergences(default_carrier(2)):
            chi = characteristic(conv)
            for sel in Selector:
                jchi = reflect(sel, chi)
                for h in range(1, 4):
                    got = is_compactoid_filter(
                        conv, FiniteFilter(conv.carrier, h), sel)
                    assert got == bool(jchi.table[h])

    def test_convergent_filters_are_compactoid(self):
        for conv in all_convergences(default_carrier(2)):
            for h in range(1, 4):
                if conv.table[h]:
                    assert is_compactoid_filter(
                        conv, FiniteFilter(conv.carrier, h))


class TestImageOfCompact:
    def test_identity_relation_reduces_to_hypothesis(self):
        conv = chain_pretopology()
        rel = identity_map(ABC).as_relation()
        fam = SetFamily(ABC, frozenset({ABC.mask_of("c")}))
        c = ABC.mask_of("c")
        hulls = hull_table(conv, Selector.F_ALL)
        res = image_of_compact(
            rel, conv, conv, fam, Subset(ABC, c),
            is_relation_compact(rel, conv, conv, Selector.F_ALL),
            hull_holds(hulls[c], fam.masks, ABC.full), hulls)
        assert res.holds and res.witness is None

    def test_a_hull_table_holding_no_image_member_fails_with_a_witness(self):
        conv = chain_pretopology()
        rel = identity_map(ABC).as_relation()
        fam = SetFamily.of(ABC, ("a", "c"), ("b",))
        res = image_of_compact(rel, conv, conv, fam, ABC.subset("a", "b"),
                               True, True, [0] * (ABC.full + 1))
        assert res.holds is False
        assert res.witness == {"family": [["b"], ["a", "c"]],
                               "at": ["a", "b"]}


class TestCompleteness:
    def test_discrete_and_chain_are_complete_at_level_zero(self):
        assert completeness_number_finite(discrete(ABC)) == 0
        assert completeness_number_finite(chain_pretopology()) == 0

    def test_perfect_maps_preserve_the_number_degenerately(self):
        xi = chain_pretopology()
        tau = topologize(xi)
        assert completeness_number_finite(xi) == \
            completeness_number_finite(tau) == 0

    def test_a_non_adherent_filter_is_an_invariant_violation(self,
                                                             monkeypatch):
        """A broken adherence table exits 3 through InvariantViolation, not
        with a traceback."""
        def without_b(conv):
            return tuple(0 if h == 0b10 else a
                         for h, a in enumerate(adherence_table(conv)))
        monkeypatch.setattr("convlab.compactness.adherence_table", without_b)
        with pytest.raises(InvariantViolation):
            completeness_number_finite(discrete(ABC))

    def test_query_carrier_mismatch(self):
        from convlab.families import CarrierMismatch
        other = Carrier.of("x", "y")
        with pytest.raises(CarrierMismatch):
            CompactnessQuery(
                chain_pretopology(),
                SetFamily(other, frozenset({1})),
                SetFamily(other, frozenset({1})),
                Selector.F0)
