import pytest
from hypothesis import given, settings, strategies as st

from convlab.symbolic.sets import (
    APEX,
    FanSet,
    PeriodicSet,
    UnrepresentableSet,
    fan_anchor,
    fan_apex,
    fan_points,
    fan_row,
    fan_spine,
)
from convlab.symbolic.filters import (
    cofinite_filter,
    decompose,
    is_sequential,
    principal_filter,
    symbolic_equal,
    symbolic_join,
    symbolic_leq,
    symbolic_meet,
    symbolic_mesh,
)
from convlab.symbolic.fan import fan_check, is_open, open_violations, vicinity
from convlab.symbolic.prime import (
    PRIME_APEX,
    apex_point_filter,
    limit_points,
    prime_check,
    whole_carrier_cofinite,
)
from convlab.symbolic.truncation import (
    MAX_WINDOW,
    check_emptiness,
    check_infiniteness,
    check_leq,
    check_member_semantics,
    check_mesh,
    check_set_ops,
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

periodic_sets = st.builds(
    PeriodicSet,
    st.booleans(), st.booleans(),
    st.frozensets(st.integers(0, 5), max_size=4))

fan_sets = st.builds(
    FanSet, st.booleans(), periodic_sets,
    st.dictionaries(st.integers(0, 4), periodic_sets, max_size=3))

# the sets the fan exemplar builds, closed under & and ~
exemplar_fan_sets = st.recursive(
    st.one_of(
        st.builds(fan_row, st.integers(0, 4)),
        st.builds(fan_anchor, st.integers(0, 4)),
        st.just(fan_apex()), st.just(fan_spine()),
        st.just(FanSet.empty()), st.just(FanSet.full()),
        st.lists(st.one_of(st.just(APEX), st.tuples(st.integers(0, 4),
                                                    st.integers(0, 5))),
                 max_size=4).map(lambda ps: fan_points(*ps))),
    lambda sets: st.one_of(st.builds(lambda a, b: a & b, sets, sets),
                           st.builds(lambda a: ~a, sets)),
    max_leaves=6)


def prime_filters():
    def build(wide, core_pick):
        core = wide & core_pick
        return cofinite_filter(wide, core)
    return st.builds(build, periodic_sets, periodic_sets)


def fan_filters():
    def build(wide, core_pick):
        core = wide & core_pick
        return cofinite_filter(wide, core)
    return st.builds(build, fan_sets, fan_sets)


# ---------------------------------------------------------------------------
# set algebra vs truncation windows
# ---------------------------------------------------------------------------

class TestSetAlgebra:
    @given(periodic_sets, periodic_sets)
    @settings(max_examples=150, deadline=None)
    def test_prime_ops_pointwise(self, s1, s2):
        assert check_set_ops(s1, s2)

    @given(fan_sets, fan_sets)
    @settings(max_examples=150, deadline=None)
    def test_fan_ops_pointwise(self, s1, s2):
        assert check_set_ops(s1, s2)

    @given(periodic_sets)
    def test_prime_certificates(self, s):
        assert check_emptiness(s)
        assert check_infiniteness(s)

    @given(fan_sets)
    def test_fan_certificates(self, s):
        assert check_emptiness(s)
        assert check_infiniteness(s)

    @given(periodic_sets, periodic_sets)
    def test_subset_via_truncation(self, s1, s2):
        k = max(s1.stability_bound(), s2.stability_bound(), MAX_WINDOW) + 2
        truncated = s1.truncate(k) <= s2.truncate(k)
        if s1.subset_of(s2):
            assert truncated
        elif truncated:
            # inclusion can only fail beyond the window at tail level
            assert not (s1 - s2).is_empty

    @given(fan_sets, fan_sets)
    @settings(max_examples=80, deadline=None)
    def test_fan_involution_and_de_morgan(self, s1, s2):
        assert ~(~s1) == s1
        assert (~(s1 | s2)) == (~s1 & ~s2)

    @given(periodic_sets, periodic_sets)
    def test_intersection_diff_is_read_off_the_two_diffs(self, a, b):
        c = a & b
        bound = max(a.stability_bound(), b.stability_bound())
        expected = frozenset(
            x for x in range(bound)
            if (a.contains(x) and b.contains(x))
            != (c.even_tail if x % 2 == 0 else c.odd_tail))
        assert c.diff == expected
        assert c.diff <= a.diff | b.diff

    def test_negative_positions_rejected(self):
        with pytest.raises(UnrepresentableSet):
            PeriodicSet(False, False, frozenset({-2}))

    def test_fan_sets_are_stored_canonically(self):
        """A row slice equal to the default is dropped, so equal point sets
        compare equal however their rows were given."""
        empty = PeriodicSet.empty()
        assert FanSet(False, empty, ((1, empty),)) == FanSet.empty()
        assert FanSet(True, empty, ((3, PeriodicSet.of(0)), (1, ~empty))) \
            == FanSet(True, empty, {1: ~empty, 3: PeriodicSet.of(0)})

    @pytest.mark.parametrize("rows", [((1, PeriodicSet.of(0)),
                                       (1, PeriodicSet.of(2))),
                                      ((-1, PeriodicSet.of(0)),)])
    def test_fan_rows_unique_and_non_negative(self, rows):
        with pytest.raises(UnrepresentableSet):
            FanSet(False, PeriodicSet.empty(), rows)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

class TestFilterAlgebra:
    def test_canonical_principal_when_gap_finite(self):
        wide = PeriodicSet.of(1, 2, 3)
        f = cofinite_filter(wide, PeriodicSet.of(1))
        assert f.principal
        assert f.wide == f.core == PeriodicSet.of(1)

    def test_degenerate_when_free_and_finite(self):
        f = cofinite_filter(PeriodicSet.of(2, 3))
        assert f.degenerate

    def test_center_must_sit_inside(self):
        with pytest.raises(UnrepresentableSet):
            cofinite_filter(PeriodicSet.evens(), PeriodicSet.of(1))

    @given(prime_filters(), prime_filters())
    @settings(max_examples=100, deadline=None)
    def test_meet_is_member_intersection(self, f1, f2):
        m = symbolic_meet(f1, f2)
        for s in [f1.wide, f2.wide, f1.wide | f2.wide, f1.core | f2.core,
                  (f1.wide | f2.wide) - PeriodicSet.of(1)]:
            assert m.member(s) == (f1.member(s) and f2.member(s))

    @given(prime_filters(), prime_filters())
    @settings(max_examples=100, deadline=None)
    def test_join_upper_bound_and_degeneracy(self, f1, f2):
        j = symbolic_join(f1, f2)
        assert symbolic_leq(f1, j) and symbolic_leq(f2, j)
        if not j.degenerate:
            # join members include every pairwise intersection
            assert j.member(f1.wide & f2.wide | f1.core & f2.core
                            | (f1.core | f1.wide) & (f2.core | f2.wide))

    def test_meet_of_incomparable_generators_normalizes(self):
        # two cofinite-centered generators always meet to one generator;
        # the meet of the even-cofinite and odd-cofinite filters is the
        # cofinite filter of the union, and it stays sequential
        f1 = cofinite_filter(PeriodicSet.evens())
        f2 = cofinite_filter(PeriodicSet.odds())
        m = symbolic_meet(f1, f2)
        assert symbolic_equal(m, cofinite_filter(
            PeriodicSet.evens() | PeriodicSet.odds()))
        assert is_sequential(m)

    @given(prime_filters(), prime_filters())
    @settings(max_examples=100, deadline=None)
    def test_mesh_window_harness(self, f1, f2):
        assert check_mesh(f1, f2)

    @given(prime_filters(), prime_filters())
    @settings(max_examples=100, deadline=None)
    def test_leq_window_harness(self, f1, f2):
        assert check_leq(f1, f2)

    @given(fan_filters(), fan_filters())
    @settings(max_examples=60, deadline=None)
    def test_fan_filters_mesh_and_leq(self, f1, f2):
        assert check_mesh(f1, f2)
        assert check_leq(f1, f2)

    @given(prime_filters())
    @settings(max_examples=100, deadline=None)
    def test_member_semantics(self, f):
        assert check_member_semantics(f)

    def test_mesh_spec_cases(self):
        b = PeriodicSet.cofinite_without(PRIME_APEX)
        assert symbolic_mesh(cofinite_filter(b), cofinite_filter(b))
        point = PeriodicSet.of(8)
        centered = cofinite_filter(b | point, point)
        assert symbolic_mesh(centered, principal_filter(point))
        evens = cofinite_filter(PeriodicSet.evens())
        odds = cofinite_filter(PeriodicSet.odds())
        assert not symbolic_mesh(evens, odds)


def _canonical_derived(f1, f2):
    """The two filters, their meet and join, and both decompose parts."""
    yield f1
    yield f2
    yield symbolic_meet(f1, f2)
    yield symbolic_join(f1, f2)
    yield from decompose(f1)


@pytest.mark.parametrize("filters", [prime_filters(), fan_filters()],
                         ids=["prime", "fan"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_filters_stay_canonical(filters, data):
    """Every filter the layer builds keeps its core inside its wide part,
    collapses to its core when the gap is finite, and is (empty, empty)
    when degenerate: the premise of the two-clause mesh."""
    f1, f2 = data.draw(st.tuples(filters, filters))
    for f in _canonical_derived(f1, f2):
        assert f.core.subset_of(f.wide)
        if (f.wide - f.core).is_finite:
            assert f.wide == f.core
        if f.degenerate:
            assert f.wide.is_empty and f.core.is_empty


class TestDecompose:
    def test_mixed_filter_splits(self):
        wide = PeriodicSet.full()
        core = PeriodicSet.of(2, 4)
        f = cofinite_filter(wide, core)
        free, princ = decompose(f)
        assert free.free and not free.degenerate
        assert symbolic_equal(free, cofinite_filter(wide - core))
        assert princ.principal and princ.core == core

    def test_principal_filter_has_degenerate_free_part(self):
        f = principal_filter(PeriodicSet.of(3))
        free, princ = decompose(f)
        assert free.degenerate
        assert symbolic_equal(princ, f)

    def test_free_filter_has_degenerate_principal_part(self):
        f = whole_carrier_cofinite()
        free, princ = decompose(f)
        assert princ.degenerate  # no principal part
        assert symbolic_equal(free, f)

    @given(prime_filters())
    @settings(max_examples=100, deadline=None)
    def test_recomposition_identities(self, f):
        free, princ = decompose(f)
        assert symbolic_equal(symbolic_meet(free, princ), f)
        if not free.degenerate and not princ.degenerate:
            assert symbolic_join(free, princ).degenerate


class TestSequential:
    def test_free_sequence_filter(self):
        f = whole_carrier_cofinite()
        assert is_sequential(f) and f.free

    def test_constant_sequence_is_principal_sequential(self):
        f = principal_filter(PeriodicSet.of(2))
        assert is_sequential(f) and f.principal

    def test_degenerate_not_sequential(self):
        assert not is_sequential(cofinite_filter(PeriodicSet.of(2)))


# ---------------------------------------------------------------------------
# the fan exemplar
# ---------------------------------------------------------------------------

class TestFan:
    def test_report_all_green(self):
        report = fan_check()
        assert report.ok
        claims = [f.claim for f in report.findings]
        assert any("vicinity member" in c for c in claims)
        assert any("not open" in c for c in claims)
        assert any("no representable open" in c for c in claims)

    def test_spine_membership_structure(self):
        spine = fan_spine()
        assert spine.contains(APEX)
        assert spine.contains((4, 0)) and not spine.contains((4, 1))
        assert (spine & fan_row(2)) == fan_anchor(2)

    def test_vicinity_filters(self):
        assert vicinity(APEX).member(fan_spine())
        assert vicinity((3, 0)).member(fan_row(3))
        assert not vicinity((3, 0)).member(fan_points((3, 0), (3, 1)))
        assert vicinity((3, 2)).member(fan_points((3, 2)))

    def test_spine_not_open_reason(self):
        msgs = open_violations(fan_spine())
        assert msgs and "uniform slice is finite" in msgs[0]

    def test_known_opens(self):
        assert is_open(FanSet.full())
        assert is_open(FanSet.empty())
        # all rows fully, apex, minus a finite non-anchor chunk
        o = FanSet(True, PeriodicSet.full(),
                   {2: PeriodicSet.cofinite_without(0, 1, 2)})
        assert is_open(o)
        # isolated points are open singletons
        assert is_open(fan_points((1, 4)))
        # an anchor singleton is not open
        assert not is_open(fan_anchor(1))

    @given(exemplar_fan_sets)
    @settings(max_examples=200, deadline=None)
    def test_exemplar_slices_are_finite_or_cofinite(self, s):
        for sl in (s.default, *(sl for _, sl in s.overrides)):
            assert sl.even_tail == sl.odd_tail

    @given(fan_sets)
    @settings(max_examples=200, deadline=None)
    def test_no_random_open_between_apex_and_spine(self, s):
        clipped = (s & fan_spine()) | fan_apex()
        assert not is_open(clipped)

    @given(fan_sets)
    @settings(max_examples=200, deadline=None)
    def test_open_with_apex_never_inside_spine(self, s):
        if is_open(s) and s.contains(APEX):
            assert not s.subset_of(fan_spine())


# ---------------------------------------------------------------------------
# the prime exemplar
# ---------------------------------------------------------------------------

class TestPrime:
    def test_report_all_green(self):
        report = prime_check()
        assert report.ok
        claims = [f.claim for f in report.findings]
        assert any("not an ultrafilter" in c for c in claims)
        assert any("limit set in the defined convergence is empty" in c
                   for c in claims)
        assert any("pseudotopological reflection" in c for c in claims)

    def test_point_filter_limits(self):
        assert limit_points(principal_filter(PeriodicSet.of(4))) == \
            PeriodicSet.of(4)
        assert limit_points(apex_point_filter()) == PeriodicSet.of(0)

    def test_two_point_principal_converges_nowhere(self):
        f = principal_filter(PeriodicSet.of(2, 3))
        assert limit_points(f).is_empty

    def test_cofinite_filter_converges_nowhere(self):
        assert limit_points(whole_carrier_cofinite()).is_empty

    def test_parity_deciding_filter_is_out_of_scope(self):
        with pytest.raises(UnrepresentableSet):
            limit_points(cofinite_filter(PeriodicSet.evens()))

    def test_halves_partition_the_carrier(self):
        evens, odds = PeriodicSet.evens(), PeriodicSet.odds()
        assert (evens & odds).is_empty
        assert evens | odds == PeriodicSet.full()
        assert evens.contains(PRIME_APEX)

    def test_undecided_on_parity(self):
        cof = whole_carrier_cofinite()
        assert not cof.member(PeriodicSet.evens())
        assert not cof.member(PeriodicSet.odds())
