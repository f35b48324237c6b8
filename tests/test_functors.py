import pytest

from convlab.families import Carrier, ValidationError
from convlab.functors import (
    COREFLECTORS,
    HANDLES,
    REFLECTORS,
    Selector,
    class_filter_masks,
    countable_character_coreflect,
    handle,
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
from convlab.spaces import discrete, finer
from convlab.enumerate import (
    all_convergences, all_maps, all_topologies, default_carrier)
from convlab.laws import LawResult, check_functor_laws
from convlab.zoo import ABC, chain_pretopology, two_point_non_pseudo


@pytest.fixture(scope="module")
def p3():
    return chain_pretopology()


class TestReflect:
    def test_pretopology_is_S0_fixed(self, p3):
        assert reflect(Selector.F0, p3).table == p3.table

    def test_discrete_fixed_by_every_selector(self):
        d = discrete(ABC)
        for sel in Selector:
            assert reflect(sel, d).table == d.table

    def test_principal_selectors_share_one_cache_entry(self):
        from convlab import functors
        space = discrete(Carrier(("u1", "u2", "u3", "u4")))
        before = functors._reflect.cache_info().currsize
        results = [reflect(sel, space)
                   for sel in (Selector.F0, Selector.F1, Selector.F_ALL)]
        assert functors._reflect.cache_info().currsize == before + 1
        assert results[0] is results[1] is results[2]

    def test_closed_class_reflection_of_chain(self, p3):
        t = reflect(Selector.F0_CLOSED, p3)
        assert t.table[ABC.mask_of("c")] == ABC.full
        # the open sets of the reflection are those of the original space
        from convlab.spaces import open_masks
        assert set(open_masks(t)) == set(open_masks(p3)) == {
            0, ABC.mask_of("c"), ABC.mask_of("bc"), ABC.full}

    def test_topologize_idempotent_on_topologies(self):
        for top in all_topologies(default_carrier(3)):
            assert topologize(top).table == top.table

    def test_contractive_and_idempotent_sampled(self):
        for conv in all_convergences(default_carrier(3))[::97]:
            t = topologize(conv)
            assert finer(conv, t)
            assert topologize(t).table == t.table


class TestSelectors:
    def test_class_enumerations_coincide_finitely(self, p3):
        f0 = class_filter_masks(Selector.F0, p3)
        f1 = class_filter_masks(Selector.F1, p3)
        fa = class_filter_masks(Selector.F_ALL, p3)
        assert f0 == f1 == fa == tuple(range(1, 8))

    def test_closed_class_is_a_subset(self, p3):
        closed = class_filter_masks(Selector.F0_CLOSED, p3)
        assert set(closed) <= set(class_filter_masks(Selector.F0, p3))
        assert set(closed) == {ABC.mask_of("a"), ABC.mask_of("ab"), ABC.full}

    def test_closed_class_monotone_in_the_convergence(self):
        # coarser convergence -> fewer opens -> fewer closed sets
        for conv in all_convergences(default_carrier(2)):
            t = topologize(conv)
            assert set(class_filter_masks(Selector.F0_CLOSED, conv)) == \
                set(class_filter_masks(Selector.F0_CLOSED, t))


class TestCoreflectors:
    def test_all_identity_on_chain(self, p3):
        assert seq_coreflect(p3).table == p3.table
        assert countable_character_coreflect(p3).table == p3.table
        assert locally_compactoid_coreflect(p3).table == p3.table

    def test_identity_on_discrete(self):
        d = discrete(ABC)
        assert locally_compactoid_coreflect(d).table == d.table


class TestClassPredicates:
    def test_chain_is_pretopology_not_topology(self, p3):
        assert is_pretopology(p3)
        assert not is_topology(p3)
        assert is_pseudotopology(p3)

    def test_two_point_non_pseudotopology(self):
        conv = two_point_non_pseudo()
        assert not is_pseudotopology(conv)
        s = pseudotopologize(conv)
        assert s.table[conv.carrier.full] == conv.carrier.mask_of("b")

    def test_every_topology_passes_all_three(self):
        for top in all_topologies(default_carrier(3)):
            assert is_topology(top)
            assert is_pretopology(top)
            assert is_pseudotopology(top)


class TestHandles:
    def test_registry(self):
        assert handle("T").kind == "reflector"
        assert handle("Seq").kind == "coreflector"
        assert handle("I").kind == "identity"
        with pytest.raises(ValidationError):
            handle("Q")

    def test_identity_functor_trivially_lawful(self):
        c2 = default_carrier(2)
        r = LawResult("I")
        check_functor_laws(r, HANDLES["I"], all_convergences(c2),
                           all_maps(c2, c2))
        assert r.ok
        assert r.instances == 9 + 9 * 9 + 9 * 9 * 4

    def test_only_the_reflectors_carry_a_selector(self):
        carrying = [h for h in HANDLES.values() if h.selector is not None]
        assert carrying == list(REFLECTORS)
        assert [h.selector for h in carrying] == [
            Selector.F0_CLOSED, Selector.F0, Selector.F1, Selector.F_ALL]

    def test_each_handle_is_reflect_at_its_selector_or_the_identity(self):
        for c in all_convergences(default_carrier(3)):
            for h in HANDLES.values():
                if h.selector is None:
                    assert h(c) is c
                else:
                    assert h(c).table == reflect_by_steps(h.selector, c).table


class TestOrdering:
    def test_pointwise_chain_on_the_chain_pretopology(self, p3):
        t, s0 = topologize(p3), pretopologize(p3)
        assert finer(s0, t) and finer(p3, s0)

    def test_reflections_are_valid_convergences(self):
        from convlab.spaces import validate_table
        for conv in all_convergences(default_carrier(2)):
            for r in REFLECTORS + COREFLECTORS:
                out = r(conv)
                assert validate_table(out.carrier, out.table) == []
