import pytest
from hypothesis import given, strategies as st

from convlab.families import (
    Carrier,
    CarrierMap,
    DegenerateFilter,
    FiniteFilter,
    FiniteRelation,
    SetFamily,
    Subset,
    ValidationError,
    check_ultrafilter_selection,
    coarser,
    complement_family,
    filter_from_members,
    filter_join,
    filter_meet,
    grill,
    isotonize,
    mesh,
    rel_image_family,
    rel_preimage_family,
    ultrafilters_of,
)

AB = Carrier.of("a", "b")
ABC = Carrier.of("a", "b", "c")


def fam(carrier, *members):
    return SetFamily.of(carrier, *members)


def masks(family):
    return set(family.masks)


class TestIsotonize:
    def test_empty_family_stays_empty(self):
        assert len(isotonize(fam(AB))) == 0

    def test_singleton_upward_closure(self):
        got = isotonize(fam(AB, ("a",)))
        assert masks(got) == {0b01, 0b11}

    def test_two_member_closure_on_three_points(self):
        got = isotonize(fam(ABC, ("a",), ("b", "c")))
        # supersets of {a} plus supersets of {b,c}, brute force
        expect = {m for m in range(8) if m & 0b001 == 0b001} | \
                 {m for m in range(8) if m & 0b110 == 0b110}
        assert masks(got) == expect

    def test_result_upward_closed(self):
        got = isotonize(fam(ABC, ("a", "b"), ("c",)))
        for m in got.masks:
            for sup_ in range(8):
                if m & ~sup_ == 0:
                    assert sup_ in got.masks


class TestGrill:
    def test_grill_of_empty_family_is_everything(self):
        assert len(grill(fam(AB))) == 4

    def test_grill_of_singleton(self):
        assert masks(grill(fam(AB, ("a",)))) == {0b01, 0b11}

    def test_grill_on_three_points(self):
        got = grill(fam(ABC, ("a", "b"), ("b", "c")))
        expect = {m for m in range(8) if m & 0b010} | {0b101, 0b111}
        assert masks(got) == expect

    def test_mesh_via_grill_inclusions(self):
        f1 = fam(ABC, ("a",), ("a", "b"))
        f2 = fam(ABC, ("a", "c"))
        assert mesh(f1, f2) == all(m in masks(grill(f1)) for m in f2.masks)
        assert mesh(f1, f2) == all(m in masks(grill(f2)) for m in f1.masks)


class TestMeshAndCoarser:
    def test_mesh_trivial_cases(self):
        assert mesh(fam(AB, ("a",)), fam(AB, ("a", "b")))
        assert not mesh(fam(AB, ("a",)), fam(AB, ("b",)))

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_mesh_symmetric(self, pick1, pick2):
        f1 = SetFamily(ABC, frozenset(m for m in range(8) if pick1 >> m & 1))
        f2 = SetFamily(ABC, frozenset(m for m in range(8) if pick2 >> m & 1))
        assert mesh(f1, f2) == mesh(f2, f1)

    def test_coarser_examples(self):
        assert coarser(fam(AB, ("a", "b")), fam(AB, ("a",)))
        assert not coarser(fam(AB, ("a",)), fam(AB, ("a", "b")))

    def test_coarser_of_principal_filters_is_superset_order(self):
        for a in range(1, 8):
            for b in range(1, 8):
                fa = FiniteFilter(ABC, a)
                fb = FiniteFilter(ABC, b)
                assert fa.leq(fb) == (b & ~a == 0)
                assert coarser(fa.as_family(), fb.as_family()) == fa.leq(fb)


class TestComplement:
    def test_empty(self):
        assert len(complement_family(fam(AB))) == 0

    def test_singleton(self):
        assert masks(complement_family(fam(AB, ("a",)))) == {0b10}

    @given(st.integers(0, 255))
    def test_involution(self, pick):
        f = SetFamily(ABC, frozenset(m for m in range(8) if pick >> m & 1))
        assert complement_family(complement_family(f)).masks == f.masks


class TestRelations:
    def test_identity_image(self):
        rel = FiniteRelation(AB, AB, (0b01, 0b10))
        f = fam(AB, ("a",), ("b",))
        assert rel_image_family(rel, f).masks == f.masks

    def test_direct_image_of_a_map(self):
        pq = Carrier.of("p", "q")
        f = CarrierMap.of(ABC, pq, {"a": "p", "b": "p", "c": "q"})
        got = rel_image_family(f.as_relation(), fam(ABC, ("a",), ("c",)))
        assert masks(got) == {0b01, 0b10}

    def test_grill_duality_exhaustive_2x2(self):
        pq = Carrier.of("p", "q")
        fams_src = [SetFamily(AB, frozenset(m for m in range(4) if p >> m & 1))
                    for p in range(16)]
        fams_dst = [SetFamily(pq, frozenset(m for m in range(4) if p >> m & 1))
                    for p in range(16)]
        for r0 in range(4):
            for r1 in range(4):
                rel = FiniteRelation(AB, pq, (r0, r1))
                for fa in fams_src:
                    for fb in fams_dst:
                        assert mesh(rel_image_family(rel, fa), fb) == \
                            mesh(fa, rel_preimage_family(rel, fb))

    def test_rel_map_characterization_all_2x2(self):
        pq = Carrier.of("p", "q")
        for r0 in range(4):
            for r1 in range(4):
                rel = FiniteRelation(AB, pq, (r0, r1))
                assert rel.validates_as_map() == rel.is_total_single_valued()

    def test_carrier_map_from_relation_rejects_non_maps(self):
        pq = Carrier.of("p", "q")
        with pytest.raises(ValidationError):
            CarrierMap.from_relation(FiniteRelation(AB, pq, (0b11, 0b01)))
        ok = CarrierMap.from_relation(FiniteRelation(AB, pq, (0b10, 0b01)))
        assert ok("a") == "q" and ok("b") == "p"


class TestFilterLattice:
    def test_meet_of_point_filters(self):
        m = filter_meet(FiniteFilter.point(AB, "a"), FiniteFilter.point(AB, "b"))
        assert m.base == 0b11

    def test_join_of_point_filters_degenerates(self):
        j = filter_join(FiniteFilter.point(AB, "a"), FiniteFilter.point(AB, "b"))
        assert j.degenerate

    def test_lattice_laws_exhaustive_n3(self):
        filters = [FiniteFilter(ABC, b) for b in range(8)]
        for f1 in filters:
            for f2 in filters:
                meet, join = filter_meet(f1, f2), filter_join(f1, f2)
                assert meet.leq(f1) and meet.leq(f2)
                assert f1.leq(join) and f2.leq(join)
                assert filter_meet(f1, f1).base == f1.base
                assert filter_join(f1, join).base == join.base
                assert filter_meet(f1, join).base == f1.base  # absorption

    def test_canonical_round_trip(self):
        for base in range(1, 8):
            f = FiniteFilter(ABC, base)
            assert filter_from_members(ABC, f.members()).base == base


class TestUltrafilters:
    def test_point_filter_is_its_own_ultrafilter(self):
        f = FiniteFilter.point(AB, "a")
        assert ultrafilters_of(f) == (f,)

    def test_two_point_base(self):
        f = FiniteFilter(AB, 0b11)
        assert {u.base for u in ultrafilters_of(f)} == {0b01, 0b10}

    def test_meet_of_ultrafilters_recovers_filter(self):
        for base in range(1, 8):
            f = FiniteFilter(ABC, base)
            ultras = ultrafilters_of(f)
            acc = ultras[0]
            for u in ultras[1:]:
                acc = filter_meet(acc, u)
            assert acc.base == f.base

    def test_degenerate_has_no_ultrafilters(self):
        with pytest.raises(DegenerateFilter):
            ultrafilters_of(FiniteFilter(AB, 0))


class TestUltrafilterSelection:
    def test_single_point(self):
        f = FiniteFilter.point(AB, "a")
        sel = {f: AB.subset("a")}
        got = check_ultrafilter_selection(f, sel)
        assert [s.bits for _, s in got] == [0b01]

    def test_two_points(self):
        f = FiniteFilter(AB, 0b11)
        ua, ub = ultrafilters_of(f)
        got = check_ultrafilter_selection(
            f, {ua: Subset(AB, ua.base), ub: Subset(AB, ub.base)})
        union = 0
        for _, s in got:
            union |= s.bits
        assert f.base & ~union == 0

    def test_invalid_selection_rejected(self):
        f = FiniteFilter(AB, 0b11)
        ua, ub = ultrafilters_of(f)
        with pytest.raises(ValidationError):
            check_ultrafilter_selection(
                f, {ua: Subset(AB, ub.base), ub: Subset(AB, ub.base)})

    @given(st.integers(1, 7), st.data())
    def test_random_selection_union_is_member(self, base, data):
        f = FiniteFilter(ABC, base)
        sel = {}
        for u in ultrafilters_of(f):
            extra = data.draw(st.integers(0, 7))
            sel[u] = Subset(ABC, u.base | extra)
        got = check_ultrafilter_selection(f, sel)
        union = 0
        for _, s in got:
            union |= s.bits
        assert FiniteFilter(ABC, base).contains(Subset(ABC, union))

    def test_witness_is_minimal(self):
        f = FiniteFilter(ABC, 0b111)
        ua, ub, uc = ultrafilters_of(f)
        # one selected member already covers the base
        sel = {ua: Subset(ABC, 0b111), ub: Subset(ABC, 0b010),
               uc: Subset(ABC, 0b100)}
        got = check_ultrafilter_selection(f, sel)
        assert len(got) == 1


class TestCarrierValidation:
    def test_size_cap(self):
        with pytest.raises(Exception):
            Carrier(tuple(f"p{i}" for i in range(17)))

    def test_distinct_labels(self):
        with pytest.raises(ValidationError):
            Carrier(("a", "a"))

    def test_full_is_a_stored_mask_outside_equality(self):
        one, two = Carrier.of("a", "b"), Carrier(("a", "b"))
        assert one.full == 3 and two.full == 3
        assert one == two and hash(one) == hash(two)
        assert repr(one) == repr(two) == "Carrier(labels=('a', 'b'))"
        assert one != Carrier.of("a", "c")

    @pytest.mark.parametrize("label", ["z", ["a"]])
    def test_unknown_or_unhashable_label_is_a_key_error(self, label):
        carrier = Carrier.of("a", "b")
        message = f"no point labelled {label!r}"
        with pytest.raises(KeyError) as exc:
            carrier.index(label)
        assert exc.value.args == (message,)
        with pytest.raises(KeyError) as exc:
            carrier.mask_of(["b", label])
        assert exc.value.args == (message,)
        assert carrier.index("b") == 1 and carrier.mask_of(["b", "a"]) == 3

    def test_degenerate_filter_is_representable(self):
        f = FiniteFilter(AB, 0)
        assert f.degenerate
        assert filter_join(FiniteFilter.point(AB, "a"),
                           FiniteFilter.point(AB, "b")) == f
