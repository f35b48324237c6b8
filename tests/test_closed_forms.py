"""The O(n * 2^n) closed forms on the query path against their literal
O(4^n) oracles, on random spaces of 4 to 8 points (the pretopology table
against the vicinity formula written out, the topologizer against the
iterated closed-class operator); the shared principal-class evaluation in
classify() and the exact-image final convergence against per-selector
calls and the antitone-closure scan, on random surjections of 4 to 6
points onto 2 or 3; the hull form of compactness against the class-filter
scan, for families and for relations; and no query on 10 points running
an oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from convlab import compactness, functors, maps
from convlab.compactness import (
    CompactnessQuery,
    hull_holds,
    hull_table,
    image_of_compact,
    is_compact_at,
    is_compact_at_scan,
    is_relation_compact,
)
from convlab.families import (
    Carrier,
    CarrierMap,
    FiniteRelation,
    SetFamily,
    Subset,
    bits_of,
)
from convlab.functors import (
    HANDLES,
    Selector,
    class_filter_masks,
    is_pseudotopology,
    reflect,
    reflect_by_steps,
    topologize,
)
from convlab.maps import (
    MapContext,
    classification_witnesses,
    classify,
    final_convergence,
    final_convergence_scan,
    identity_map,
    is_perfect_like,
    is_quotient_like,
)
from convlab.spaces import (
    Convergence,
    adherence_scan,
    adherence_table,
    antitone_scan,
    closure_mask,
    open_masks,
    open_masks_scan,
    pretopology_from_vicinities,
    pretopology_table,
    validate_table,
)

SETTINGS = settings(max_examples=50, deadline=None)


def carrier_of(n: int) -> Carrier:
    return Carrier(tuple("abcdefgh"[:n]))


def table_from_generators(n: int, gens: list[list[int]]) -> tuple[int, ...]:
    """lim ^A = the points x with A inside one of x's generator sets; every
    finite convergence arises this way."""
    table = [0] * (1 << n)
    for x, sets in enumerate(gens):
        for g in sets:
            sub = g | 1 << x
            top = sub
            while sub:
                table[sub] |= 1 << x
                sub = (sub - 1) & top
    return tuple(table)


def draw_table(draw, n: int) -> tuple[int, ...]:
    masks = st.integers(0, (1 << n) - 1)
    gens = [draw(st.lists(masks, min_size=1, max_size=3)) for _ in range(n)]
    return table_from_generators(n, gens)


@st.composite
def valid_tables(draw):
    n = draw(st.integers(4, 8))
    return carrier_of(n), draw_table(draw, n)


@st.composite
def surjection_contexts(draw):
    """A surjection of 4..6 points onto 2..3, a random source, and a target
    that is random, the final convergence, or its topologization."""
    n, m = draw(st.integers(4, 6)), draw(st.integers(2, 3))
    extra = draw(st.lists(st.integers(0, m - 1),
                          min_size=n - m, max_size=n - m))
    mapping = tuple(draw(st.permutations(list(range(m)) + extra)))
    src, dst = carrier_of(n), Carrier(tuple("pqr"[:m]))
    f = CarrierMap(src, dst, mapping)
    xi = Convergence(src, draw_table(draw, n))
    target = draw(st.sampled_from(("random", "final", "topologized")))
    if target == "random":
        tau = Convergence(dst, draw_table(draw, m))
    elif target == "final":
        tau = final_convergence(f, xi)
    else:
        tau = topologize(final_convergence(f, xi))
    return MapContext(f, xi, tau)


@st.composite
def corrupted_tables(draw):
    carrier, table = draw(valid_tables())
    table = list(table)
    full = carrier.full
    edits = draw(st.lists(
        st.tuples(st.integers(1, full), st.integers(0, full)),
        min_size=1, max_size=4))
    for mask, value in edits:
        table[mask] = value
    return carrier, tuple(table)


@given(valid_tables())
@SETTINGS
def test_adherence_matches_scan(space):
    conv = Convergence(*space)
    assert adherence_table(conv) == adherence_scan(conv)


@given(valid_tables())
@SETTINGS
def test_open_sets_and_closures_match_scan(space):
    conv = Convergence(*space)
    opens = open_masks_scan(conv)
    assert open_masks(conv) == opens
    full = conv.carrier.full
    for mask in range(full + 1):
        outside = 0
        for o in opens:
            if not o & mask:
                outside |= o
        assert closure_mask(conv, mask) == full & ~outside


@given(valid_tables())
@SETTINGS
def test_pretopological_reflections_match_iterated_operator(space):
    conv = Convergence(*space)
    for sel in (Selector.F0, Selector.F1, Selector.F_ALL):
        assert reflect(sel, conv).table == reflect_by_steps(sel, conv).table


@given(valid_tables())
@SETTINGS
def test_topologize_matches_iterated_closed_operator(space):
    conv = Convergence(*space)
    assert topologize(conv).table == \
        reflect_by_steps(Selector.F0_CLOSED, conv).table


@given(st.integers(4, 8).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@SETTINGS
def test_pretopology_table_is_the_vicinity_formula(vmasks):
    # lim ^A = {x : A <= V(x)}, on every nonempty A; nothing on the empty set
    n = len(vmasks)
    want = [0] + [sum(1 << x for x in range(n) if a & ~vmasks[x] == 0)
                  for a in range(1, 1 << n)]
    assert pretopology_table(vmasks) == tuple(want)


@given(valid_tables())
@SETTINGS
def test_valid_tables_validate_clean(space):
    carrier, table = space
    assert validate_table(carrier, table) == []
    assert antitone_scan(carrier, table) == []


@given(corrupted_tables())
@SETTINGS
def test_validation_messages_match_full_scan(space):
    carrier, table = space
    centered = [f"centered axiom violated at point {carrier.labels[i]}"
                for i in carrier.points() if not table[1 << i] >> i & 1]
    assert validate_table(carrier, table) == (
        centered + antitone_scan(carrier, table))


def test_open_set_whose_subset_by_one_point_is_not_open():
    # V(b) = {a, b}: {a, b} holds the vicinity of each of its points, {b}
    # does not, so openness cannot be built up from O minus its lowest point
    carrier = carrier_of(4)
    conv = pretopology_from_vicinities(
        carrier, {"a": "a", "b": "ab", "c": "c", "d": "d"})
    opens = open_masks(conv)
    assert carrier.mask_of("ab") in opens
    assert carrier.mask_of("b") not in opens
    assert opens == open_masks_scan(conv)


# (quotient-like flag, perfect-like flag) per selector
LADDER_FLAGS = {
    Selector.F_ALL: ("biquotient", "perfect"),
    Selector.F1: ("countably_biquotient", "countably_perfect"),
    Selector.F0: ("hereditarily_quotient", "adherent"),
    Selector.F0_CLOSED: ("quotient", "closed"),
}


@given(surjection_contexts())
@SETTINGS
def test_classify_matches_per_selector_calls(ctx):
    f, xi, tau = ctx.f, ctx.source, ctx.target
    fxi = final_convergence(f, xi)
    assert fxi == final_convergence_scan(f, xi)
    report, witnesses = classification_witnesses(ctx)
    assert report == classify(ctx)
    adh_s, adh_t = adherence_table(xi), adherence_table(tau)

    def quotient_breach(h):  # adh ^H outside f(adh ^(f^-H))
        return adh_t[h] & ~f.image_mask(adh_s[f.preimage_mask(h)])

    def perfect_breach(g):  # adh f[^G] outside f(adh ^G)
        return adh_t[f.image_mask(g)] & ~f.image_mask(adh_s[g])

    for sel, (q_name, p_name) in LADDER_FLAGS.items():
        assert getattr(report, q_name) == is_quotient_like(ctx, sel)
        assert getattr(report, p_name) == is_perfect_like(ctx, sel)
        # the named class filter is the first of its class to break the
        # inclusion, and it breaks it at the named point
        for name, space, breach in ((q_name, fxi, quotient_breach),
                                    (p_name, xi, perfect_breach)):
            breaking = [m for m in class_filter_masks(sel, space)
                        if breach(m)]
            assert getattr(report, name) == (not breaking)
            if not breaking:
                assert name not in witnesses
                continue
            w = witnesses[name]
            assert space.carrier.mask_of(w["filter_base"]) == breaking[0]
            assert breach(breaking[0]) >> tau.carrier.index(w["point"]) & 1


def families_of(draw, n: int) -> SetFamily:
    """0 to 3 members, the empty set drawn often."""
    member = st.one_of(st.just(0), st.integers(0, (1 << n) - 1))
    return SetFamily(carrier_of(n), frozenset(
        draw(st.lists(member, max_size=3))))


@st.composite
def compactness_queries(draw):
    carrier, table = draw(valid_tables())
    n = carrier.size
    return Convergence(carrier, table), families_of(draw, n), \
        families_of(draw, n)


@given(compactness_queries())
@SETTINGS
def test_compact_at_matches_class_filter_scan(query):
    conv, fam, at = query
    for sel in Selector:
        q = CompactnessQuery(conv, fam, at, sel)
        assert is_compact_at(q) == is_compact_at_scan(q)


@st.composite
def relation_contexts(draw):
    """A relation of 4..8 points into 2..5, and a space on each end."""
    (source, theta_table), m = draw(valid_tables()), draw(st.integers(2, 5))
    target = Carrier(tuple("pqrst"[:m]))
    rows = draw(st.lists(st.integers(0, target.full),
                         min_size=source.size, max_size=source.size))
    return (FiniteRelation(source, target, tuple(rows)),
            Convergence(source, theta_table),
            Convergence(target, draw_table(draw, m)))


def relation_compact_by_scan(rel, theta, sigma, sel) -> bool:
    # {R(a)} compact at {R(w)} for every w in lim ^a
    def members(mask):
        return SetFamily(sigma.carrier, frozenset({mask}))
    return all(
        is_compact_at_scan(CompactnessQuery(
            sigma, members(rel.image_mask(a)), members(rel.rows[w]), sel))
        for a in range(1, theta.carrier.full + 1)
        for w in bits_of(theta.table[a]))


@given(relation_contexts())
@SETTINGS
def test_relation_compact_matches_class_filter_scan(ctx):
    for sel in Selector:
        assert is_relation_compact(*ctx, sel) == \
            relation_compact_by_scan(*ctx, sel)


ORACLES = ((functors, "reflect_by_steps"), (maps, "final_convergence_scan"),
           (functors, "seq_coreflect"),
           (functors, "countable_character_coreflect"),
           (functors, "locally_compactoid_coreflect"),
           (functors, "_adh_determined_step"),
           (compactness, "is_compact_at_scan"))


@pytest.fixture()
def oracles_raise(monkeypatch):
    """Every O(4^n) oracle raises when production looks it up."""
    def oracle(*args):
        raise AssertionError("a query ran an oracle")
    for module, name in ORACLES:
        monkeypatch.setattr(module, name, oracle)


def test_no_query_runs_an_oracle(oracles_raise):
    n, rng = 10, random.Random(9)
    carrier = Carrier(tuple("abcdefghij"))
    xi = Convergence(carrier, table_from_generators(n, [
        [rng.getrandbits(n) for _ in range(2)] for _ in range(n)]))
    for h in HANDLES.values():
        assert h(xi) is xi or h.kind == "reflector"
    onto3 = CarrierMap(carrier, Carrier(("p", "q", "r")),
                       tuple(i % 3 for i in range(n)))
    tau3 = Convergence(onto3.target, table_from_generators(
        3, [[rng.getrandbits(3)] for _ in range(3)]))
    for ctx in (MapContext(identity_map(carrier), xi, topologize(xi)),
                MapContext(onto3, xi, tau3)):
        classification_witnesses(ctx)
    is_pseudotopology(xi)
    fam = SetFamily(carrier, frozenset({0b1111, 0b110000, 0b1010101010}))
    at = SetFamily(carrier, frozenset({0b11, 0b1100000000}))
    rel = onto3.as_relation()
    for sel in Selector:
        is_compact_at(CompactnessQuery(xi, fam, at, sel))
        image_of_compact(rel, xi, tau3, fam, Subset(carrier, 0b111),
                         is_relation_compact(rel, xi, tau3, sel),
                         hull_holds(hull_table(xi, sel)[0b111], fam.masks,
                                    carrier.full),
                         hull_table(tau3, sel))
