import random
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, strategies as st

from convlab.families import Carrier, FiniteFilter, SetFamily, Subset, ValidationError
from convlab.spaces import (
    Convergence,
    adherence,
    adherence_mask,
    antitone_scan,
    closed_masks,
    closure,
    closure_mask,
    cover_clauses,
    discrete,
    finer,
    indiscrete,
    inf,
    inherence,
    is_cover,
    is_open,
    neighborhood_filter,
    open_sets,
    product,
    sup,
    topology_from_opens,
    validate_table,
    vicinity_filter,
)
from convlab.enumerate import all_convergences, default_carrier
from convlab.zoo import AB, ABC, chain_pretopology, sierpinski


@pytest.fixture(scope="module")
def p3():
    return chain_pretopology()


class TestValidation:
    def test_discrete_is_valid(self):
        assert validate_table(ABC, discrete(ABC).table) == []

    def test_centered_violation_names_point_and_axiom(self):
        table = list(discrete(AB).table)
        table[0b01] = 0b10  # a no longer converges to itself
        msgs = validate_table(AB, tuple(table))
        assert any("centered axiom violated at point a" in m for m in msgs)

    def test_antitone_violation_reported(self):
        table = list(discrete(AB).table)
        table[0b11] = 0b11  # bigger set converges more than its subsets
        msgs = validate_table(AB, tuple(table))
        assert any("antitone" in m for m in msgs)

    def test_antitone_scan_lists_the_pairs_of_a_double_loop(self):
        """The submask walk gives the messages of a literal loop over all
        mask pairs (a, b) with b a proper nonempty subset of a, in its
        order, on seeded random tables of 1-6 points."""
        rng = random.Random(17)
        for n in [1, 2, 3, 4, 5, 6] * 10:
            carrier = Carrier(tuple(f"x{i}" for i in range(n)))
            table = (0,) + tuple(rng.randrange(1 << n) if rng.random() < 0.8
                                 else 0 for _ in range(carrier.full))
            named = ["{%s}" % ", ".join(map(repr, carrier.labels_of(m)))
                     for m in range(carrier.full + 1)]
            literal = [
                f"antitone axiom violated: lim^{named[a]} exceeds "
                f"lim^{named[b]}"
                for a in range(1, carrier.full + 1)
                for b in range(1, carrier.full + 1)
                if b & ~a == 0 and b != a and table[a] & ~table[b]]
            assert antitone_scan(carrier, table) == literal

    def test_antitone_scan_on_a_dense_ten_point_table(self):
        """Every limit is the whole carrier but lim ^{x0} = {x0}: each of
        the 511 sets holding x0 and another point exceeds {x0}."""
        carrier = Carrier(tuple(f"x{i}" for i in range(10)))
        table = [carrier.full] * (carrier.full + 1)
        table[1] = 1
        got = antitone_scan(carrier, tuple(table))
        assert len(got) == 511
        assert got[0] == ("antitone axiom violated: lim^{'x0', 'x1'} "
                          "exceeds lim^{'x0'}")
        assert validate_table(carrier, tuple(table)) == got

    def test_chain_pretopology_is_valid(self, p3):
        assert validate_table(ABC, p3.table) == []

    def test_make_raises_with_all_violations(self):
        bad = [0] * 4
        with pytest.raises(ValidationError) as exc:
            Convergence.make(AB, tuple(bad))
        assert len(exc.value.violations) == 2  # both points uncentered


class TestTopologyFromOpens:
    def test_masks_and_label_lists_give_one_topology(self):
        by_masks = topology_from_opens(ABC, [0, 0b100, 0b110, ABC.full])
        by_labels = topology_from_opens(
            ABC, [(), ("c",), ("b", "c"), ("a", "b", "c")])
        assert by_masks == by_labels
        assert {s.bits for s in open_sets(by_masks)} == {
            0, 0b100, 0b110, ABC.full}

    def test_a_system_without_the_empty_set_or_the_carrier_is_rejected(self):
        for opens in ([0b01], [0, 0b01], [0b01, AB.full]):
            with pytest.raises(ValidationError) as exc:
                topology_from_opens(AB, opens)
            assert exc.value.violations == [
                "open system must contain the empty set and the carrier"]

    def test_a_system_not_closed_under_union_or_meet_is_rejected(self):
        for opens in ([0, 0b001, 0b010, ABC.full],
                      [0, 0b011, 0b110, ABC.full]):
            with pytest.raises(ValidationError) as exc:
                topology_from_opens(ABC, opens)
            assert exc.value.violations == [
                "open system not closed under union/intersection"]


class TestLimits:
    def test_chain_limits(self, p3):
        assert p3.limit(FiniteFilter(ABC, ABC.mask_of("c"))).bits == \
            ABC.mask_of("bc")
        assert p3.limit(FiniteFilter(ABC, ABC.mask_of("ac"))).bits == 0

    def test_centered_everywhere(self):
        for conv in all_convergences(default_carrier(2)):
            for i in conv.carrier.points():
                assert conv.table[1 << i] >> i & 1

    def test_degenerate_filter_rejected(self, p3):
        from convlab.families import DegenerateFilter
        with pytest.raises(DegenerateFilter):
            p3.limit(FiniteFilter(ABC, 0))


class TestOpenSets:
    def test_chain_open_sets(self, p3):
        assert {s.bits for s in open_sets(p3)} == {
            0, ABC.mask_of("c"), ABC.mask_of("bc"), ABC.full}

    def test_empty_and_whole_always_open(self):
        for conv in all_convergences(default_carrier(2)):
            opens = {s.bits for s in open_sets(conv)}
            assert 0 in opens and conv.carrier.full in opens

    def test_sierpinski_opens(self):
        s = sierpinski()
        assert is_open(s, s.carrier.subset("0"))
        assert not is_open(s, s.carrier.subset("1"))


class TestClosure:
    def test_chain_closure_of_c_is_whole_space(self, p3):
        assert closure(p3, ABC.subset("c")).bits == ABC.full

    def test_closure_of_empty(self, p3):
        assert closure(p3, Subset(ABC, 0)).bits == 0

    def test_idempotent_and_monotone_exhaustive_n2(self):
        for conv in all_convergences(default_carrier(2)):
            for m in range(4):
                c1 = closure(conv, Subset(conv.carrier, m))
                assert closure(conv, c1).bits == c1.bits
                assert m & ~c1.bits == 0


class TestAdherence:
    def test_chain_examples(self, p3):
        assert adherence(p3, ABC.subset("c")).bits == ABC.mask_of("bc")
        assert adherence(p3, ABC.subset("b", "c")).bits == ABC.full

    def test_adherence_not_idempotent_on_chain(self, p3):
        once = adherence(p3, ABC.subset("c"))
        assert adherence(p3, once).bits != once.bits

    def test_contains_the_set(self):
        for conv in all_convergences(default_carrier(2)):
            for m in range(1, 4):
                assert m & ~adherence(conv, Subset(conv.carrier, m)).bits == 0

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_antitone_in_the_family_order(self, p1, p2):
        from convlab.families import coarser
        f1 = SetFamily(ABC, frozenset(m for m in range(8) if p1 >> m & 1))
        f2 = SetFamily(ABC, frozenset(m for m in range(8) if p2 >> m & 1))
        conv = chain_pretopology()
        if coarser(f1, f2):
            assert adherence(conv, f2).bits & ~adherence(conv, f1).bits == 0


class TestAdherenceVsClosure:
    def test_adherence_inside_closure_equality_on_topologies(self):
        """Set adherence sits inside the closure for every convergence and
        equals it exactly on topologies; exhaustive n <= 3."""
        from convlab.functors import is_topology
        from convlab.spaces import adherence_table, closure_mask
        for n in (1, 2, 3):
            for conv in all_convergences(default_carrier(n)):
                adh = adherence_table(conv)
                topo = is_topology(conv)
                for m in range(1, conv.carrier.full + 1):
                    cl = closure_mask(conv, m)
                    assert adh[m] & ~cl == 0
                    if topo:
                        assert adh[m] == cl

    def test_closure_is_the_least_closed_superset(self):
        """closure_mask is the meet of the closed supersets of the mask in
        closed_masks; exhaustive n <= 3."""
        for n in (1, 2, 3):
            for conv in all_convergences(default_carrier(n)):
                closed = closed_masks(conv)
                for m in range(conv.carrier.full + 1):
                    assert closure_mask(conv, m) == reduce(
                        and_, (c for c in closed if m & ~c == 0))


class TestInherence:
    def test_chain_example(self, p3):
        got = inherence(p3, SetFamily.of(ABC, ("b", "c")))
        assert got.bits == ABC.mask_of("bc")

    def test_whole_space_cover(self, p3):
        assert inherence(p3, SetFamily.of(ABC, ("a", "b", "c"))).bits == ABC.full

    @given(st.integers(0, 255), st.integers(0, 13))
    def test_duality_round_trip(self, pick, conv_i):
        from convlab.families import complement_family
        convs = all_convergences(ABC)
        conv = convs[conv_i * 196]  # deterministic spread over the universe
        f = SetFamily(ABC, frozenset(m for m in range(8) if pick >> m & 1))
        assert inherence(conv, f).bits == \
            (~adherence(conv, complement_family(f))).bits


class TestCovers:
    def test_whole_space_covers_everything(self, p3):
        whole = SetFamily.of(ABC, ("a", "b", "c"))
        for m in range(8):
            assert is_cover(p3, whole, Subset(ABC, m))

    def test_chain_cover_example(self, p3):
        assert is_cover(p3, SetFamily.of(ABC, ("b", "c")), ABC.subset("b", "c"))

    @pytest.mark.parametrize("members", [
        (), (("b", "c"),), (("a",), ("b", "c"), ("a", "c"))],
        ids=["empty", "one-member", "three-member"])
    def test_one_adherence_pass_per_query(self, p3, members, monkeypatch):
        """The adherence clause, which is also the inherence test, makes
        one adherence pass over the complement family."""
        import convlab.spaces as spaces
        calls = []

        def counted(conv, fam_masks):
            calls.append(fam_masks)
            return adherence_mask(conv, fam_masks)

        monkeypatch.setattr(spaces, "adherence_mask", counted)
        for m in range(8):
            calls.clear()
            is_cover(p3, SetFamily.of(ABC, *members), Subset(ABC, m))
            assert len(calls) == 1

    @pytest.mark.parametrize("n, stride", [(1, 1), (2, 1), (3, 197)])
    def test_clause_sets_give_the_cover_verdict(self, n, stride):
        """Both sets of cover_clauses, built once per (space, family), give
        the literal filter clause for every target, and is_cover reads
        them as it reads its own: every space up to 2 points, every 197th
        on 3."""
        carrier = default_carrier(n)
        full = carrier.full
        for conv in all_convergences(carrier)[::stride]:
            for pick in range(1 << (full + 1)):
                fam = SetFamily(carrier, frozenset(
                    m for m in range(full + 1) if pick >> m & 1))
                clauses = cover_clauses(conv, fam)
                for t in range(full + 1):
                    literal = all(
                        any(h & ~p == 0 for p in fam.masks)
                        for h in range(1, full + 1) if t & conv.table[h])
                    assert (clauses[0] & t == 0) == literal
                    assert (clauses[1] & t == 0) == literal
                    target = Subset(carrier, t)
                    assert (is_cover(conv, fam, target, clauses)
                            == is_cover(conv, fam, target) == literal)


class TestNeighborhoodAndVicinity:
    def test_chain_filters(self, p3):
        assert vicinity_filter(p3, "a").base == ABC.mask_of("ab")
        assert neighborhood_filter(p3, "a").base == ABC.full

    def test_discrete_filters_coincide(self):
        d = discrete(ABC)
        for lab in ABC.labels:
            assert vicinity_filter(d, lab).base == ABC.mask_of(lab)
            assert neighborhood_filter(d, lab).base == ABC.mask_of(lab)

    def test_vicinity_finer_than_neighborhood_exhaustive_n3(self):
        for conv in all_convergences(default_carrier(3))[::17]:
            for lab in conv.carrier.labels:
                v = vicinity_filter(conv, lab)
                n = neighborhood_filter(conv, lab)
                assert n.leq(v)  # V(x) is finer-or-equal N(x)


class TestLattice:
    def test_sup_of_singleton(self, p3):
        assert sup([p3]).table == p3.table

    def test_sup_with_discrete_is_discrete(self, p3):
        assert sup([discrete(ABC), p3]).table == discrete(ABC).table

    def test_inf_with_indiscrete_is_indiscrete(self, p3):
        assert inf([indiscrete(ABC), p3]).table == indiscrete(ABC).table

    def test_lattice_preserves_axioms(self):
        universe = all_convergences(default_carrier(2))
        for c1 in universe:
            for c2 in universe:
                assert validate_table(c1.carrier, sup([c1, c2]).table) == []
                assert validate_table(c1.carrier, inf([c1, c2]).table) == []

    def test_finer_is_a_partial_order(self):
        universe = all_convergences(default_carrier(2))
        for c1 in universe:
            assert finer(c1, c1)
            for c2 in universe:
                if finer(c1, c2) and finer(c2, c1):
                    assert c1.table == c2.table


class TestProduct:
    def test_product_of_discretes_is_discrete(self):
        got = product(discrete(AB), discrete(AB))
        assert got.table == discrete(got.carrier).table

    def test_projections_continuous_exhaustive_2x2(self):
        from convlab.spaces import project_mask
        for c1 in all_convergences(default_carrier(2)):
            for c2 in all_convergences(Carrier.of("p", "q")):
                prod = product(c1, c2)
                n2 = c2.carrier.size
                for m in range(1, prod.carrier.full + 1):
                    lims = prod.table[m]
                    p1 = project_mask(m, n2, 0)
                    p2 = project_mask(m, n2, 1)
                    assert project_mask(lims, n2, 0) & ~c1.table[p1] == 0 \
                        if lims else True
                    assert project_mask(lims, n2, 1) & ~c2.table[p2] == 0 \
                        if lims else True

    def test_product_with_point_is_isomorphic(self, p3):
        point = discrete(Carrier.of("*"))
        got = product(p3, point)
        assert got.table == p3.table  # same masks under the pairing order

    def test_product_axioms(self, p3):
        got = product(p3, sierpinski())
        assert validate_table(got.carrier, got.table) == []

    def test_product_cap(self):
        big = discrete(Carrier(tuple(f"x{i}" for i in range(5))))
        from convlab.families import CapExceeded
        with pytest.raises(CapExceeded):
            product(big, big)
