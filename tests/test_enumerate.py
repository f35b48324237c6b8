import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convlab.enumerate import (
    DOMAINS,
    PREDICATES,
    EnumerationSpec,
    SearchTask,
    SpaceUniverse,
    all_convergences,
    all_maps,
    all_pretopologies,
    all_topologies,
    default_carrier,
    domain,
    enumerate_spaces,
    point_downsets,
    sample_convergences,
    search,
    surjections,
    target_carrier,
)
from convlab.families import CapExceeded, Carrier, CarrierMap, ValidationError

# the search documents the benchmark checks its tables workload against
RECORDED_SEARCHES = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected" / "tables.json")
    .read_text())["search"]


class TestUniverses:
    def test_pinned_counts(self):
        assert len(all_convergences(default_carrier(2))) == 9
        assert len(all_pretopologies(default_carrier(2))) == 4
        assert len(all_pretopologies(default_carrier(3))) == 64
        assert len(all_topologies(default_carrier(3))) == 29
        assert len(all_convergences(default_carrier(3))) == 14 ** 3

    def test_downset_counts(self):
        for n, count in ((1, 1), (2, 3), (3, 14), (4, 148)):
            for i in range(n):
                downsets = point_downsets(n, i)
                assert len(downsets) == count
                assert list(downsets) == sorted(set(downsets))

    def test_pseudotopologies_coincide_with_pretopologies(self):
        from convlab.functors import is_pseudotopology
        ps = all_pretopologies(default_carrier(3))
        assert enumerate_spaces(EnumerationSpec(3, "pseudotopology")) == ps
        assert all(is_pseudotopology(c) for c in ps[::7])

    def test_vicinity_count_formula(self):
        for n in (2, 3, 4):
            assert len(all_pretopologies(default_carrier(n))) == \
                2 ** (n * (n - 1))

    def test_four_point_topology_count(self):
        assert len(all_topologies(default_carrier(4))) == 355

    def test_streams_are_duplicate_free_and_valid(self):
        from convlab.spaces import validate_table
        for stream in (all_convergences(default_carrier(3)),
                       all_topologies(default_carrier(3))):
            assert len(set(stream)) == len(stream)
            for conv in stream[::101]:
                assert validate_table(conv.carrier, conv.table) == []

    def test_caps(self):
        for n in (0, 17):
            with pytest.raises(CapExceeded):
                default_carrier(n)
        with pytest.raises(CapExceeded):
            sample_convergences(default_carrier(5), 1, seed=0)
        with pytest.raises(CapExceeded):
            all_convergences(default_carrier(4))
        with pytest.raises(CapExceeded):
            all_pretopologies(Carrier(tuple(f"x{i}" for i in range(5))))
        for n in (0, 5):
            with pytest.raises(CapExceeded, match=f"size {n} outside 1..4"):
                target_carrier(n)


class TestSpaceUniverse:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_table_is_numbered_by_its_position(self, n):
        universe = SpaceUniverse(default_carrier(n))
        assert universe.spaces is all_convergences(default_carrier(n))
        assert [universe.index(conv.table) for conv in universe.spaces] == (
            list(range(len(universe.spaces))))

    @pytest.mark.parametrize("table", [
        (0,) * 8,                    # no point is a limit of its singleton
        (1, 1, 2, 3, 4, 5, 6, 7),    # a limit for the empty set
        (0, 1, 2, 3, 4, 5, 6, 15),   # a limit outside the carrier
        (0, 1, 2, 3, 4, 5, 6, -1),
        (0, 1, 2, 7, 4, 5, 6, 7),    # lim ^{a,b} exceeds lim ^{a}
        (0, 1, 2, 3),                # a 2-point table
        (0, 1, 2, 3, 4, 5, 6, 7, 0),
    ])
    def test_a_table_that_is_no_convergence_has_no_number(self, table):
        assert SpaceUniverse(default_carrier(3)).index(table) is None

    def test_reflections_are_the_numbers_of_the_reflections(self):
        from convlab.functors import S0, T, pretopologize, topologize
        universe = SpaceUniverse(default_carrier(3))
        position = {conv: i for i, conv in enumerate(universe.spaces)}
        for h, reflector in ((T, topologize), (S0, pretopologize)):
            want = [position[reflector(conv)] for conv in universe.spaces]
            assert list(universe.reflections(h)) == want
            assert universe.reflections(h) is universe.reflections(h)


class TestDomains:
    def test_each_domain_is_the_construction_it_replaced(self):
        c2, c3, d2 = default_carrier(2), default_carrier(3), Carrier.of("p", "q")
        bijections = tuple(f for f in all_maps(c3, c3) if f.is_bijective())
        pre3 = all_pretopologies(c3)
        want = {
            "2to2": (surjections(c2, d2), all_convergences(c2),
                     all_convergences(d2)),
            "3to2": (surjections(c3, d2), all_convergences(c3),
                     all_convergences(d2)),
            "3to3 pretopologies": (bijections, pre3, pre3),
            "3to3 pretopologies onto topologies":
                (bijections, pre3, all_topologies(c3)),
            "3to3 sampled": (bijections, sample_convergences(c3, 200, 0),
                             sample_convergences(c3, 20, 1)),
        }
        assert sorted(DOMAINS) == sorted(want)
        for name in DOMAINS:
            assert domain(name) == want[name], name
        assert len(bijections) == 6
        assert target_carrier(3) == Carrier.of("p", "q", "r")

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValidationError):
            domain("4to4")


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports convlab from the same
    sources as this one; its standard output."""
    import convlab
    src = os.path.dirname(os.path.dirname(convlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestBuiltOnFirstUse:
    def test_import_builds_no_universe(self):
        out = _fresh(
            "import convlab.laws\n"
            "from convlab import enumerate as e\n"
            "print(*[f.cache_info().currsize for f in (e.all_convergences,"
            " e.all_pretopologies, e.all_topologies, e.point_downsets)])")
        assert out.split() == ["0", "0", "0", "0"]

    def test_final_topology_hunt_builds_only_what_it_examines(self):
        out = _fresh(
            "from convlab import enumerate as e\n"
            "res = e.search(e.SearchTask('topology_final_not_topology'))\n"
            "print(res.examined, res.witness is not None,"
            " e.all_topologies.cache_info().currsize)")
        assert out.split() == ["9", "True", "0"]


def stream_digest(stream) -> str:
    """SHA-256 over the limit tables of a stream, in stream order."""
    h = hashlib.sha256()
    for conv in stream:
        h.update((",".join(map(str, conv.table)) + ";").encode())
    return h.hexdigest()


# stream_digest of each stream as first recorded: members and order are fixed
PINNED_STREAMS = {
    ("convergence", 2):
        "e018501509cf0bf784e8886cae87453d54aabb91f90260d86f4c0baef253fed8",
    ("convergence", 3):
        "943af17871ffd0f12d911346a579d929aac9f99b9af5f5e5048f547bd0dbecea",
    ("pretopology", 3):
        "7a4c95a92af1f26639ec15c38c52ad1d0ab844f0116fc6a4eb849f1ec0a402a3",
    ("pretopology", 4):
        "b1b3b53bf452daffcbb513c2e8334558197cea1e31ab03e77e537fb20962d673",
    ("topology", 3):
        "3dd39c1f3b291f5298a96ea8ba6ec308c6194c79d1595e8507e07328452e4986",
    ("topology", 4):
        "71cb612190617375e295ae363a0c99aaa8ec54ab8991bf81b04ba66028ab6347",
    ("sample", 3):
        "bcb0e2b44e9d8dee4314691cca66dec47c73dda4b015a47abd7f7c88f96dbfc6",
    ("sample", 4):
        "7c578cdafc63482564a23fe30efe62355c27d25876e85f6677b996de614e9187",
}
STREAMS = {
    "convergence": all_convergences,
    "pretopology": all_pretopologies,
    "topology": all_topologies,
    "sample": lambda carrier: sample_convergences(carrier, 200, 0),
}


class TestDeterminism:
    @pytest.mark.parametrize("klass, n", sorted(PINNED_STREAMS))
    def test_stream_digest_is_pinned(self, klass, n):
        """Members and order of every stream the law sweeps and searches
        read, down to the first witness they report."""
        stream = STREAMS[klass](default_carrier(n))
        assert stream_digest(stream) == PINNED_STREAMS[klass, n]

    def test_same_stream_across_runs(self):
        a = enumerate_spaces(EnumerationSpec(3, "pretopology"))
        b = enumerate_spaces(EnumerationSpec(3, "pretopology"))
        assert a == b

    def test_sampling_deterministic_by_seed(self):
        a = sample_convergences(default_carrier(3), 20, seed=5)
        b = sample_convergences(default_carrier(3), 20, seed=5)
        c = sample_convergences(default_carrier(3), 20, seed=6)
        assert a == b
        assert a != c

    def test_spec_sampling_requires_seed(self):
        with pytest.raises(ValidationError):
            enumerate_spaces(EnumerationSpec(3, "convergence", count=5))


class TestSearch:
    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValidationError):
            SearchTask("no_such_predicate")

    def test_witnesses_are_verifiable(self):
        """Rebuild each found witness from its serialized form and confirm
        the predicate flags on the rebuilt context."""
        from convlab import io
        from convlab.maps import MapContext, classify

        for name, want in [
            ("quotient_not_hereditarily_quotient",
             {"quotient": True, "hereditarily_quotient": False}),
            ("almost_open_not_open", {"almost_open": True, "open": False}),
            ("quotient_not_closed", {"quotient": True, "closed": False}),
            ("biquotient_not_almost_open",
             {"biquotient": True, "almost_open": False}),
        ]:
            res = search(SearchTask(name))
            assert res.witness is not None
            src = io.convergence_from_doc(res.witness["source"])
            dst = io.convergence_from_doc(res.witness["target"])
            f = CarrierMap.of(src.carrier, dst.carrier, res.witness["map"])
            rep = classify(MapContext(f, src, dst))
            for k, v in want.items():
                assert getattr(rep, k) == v

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_search_reads_the_kernel_and_matches_the_record(self, name,
                                                            monkeypatch):
        """No search builds or classifies one context at a time, and every
        search document is the recorded one."""
        def refuse(*args, **kwargs):
            raise AssertionError("a search built or classified one context")
        # classify builds one report per call, whoever holds a reference
        monkeypatch.setattr("convlab.maps.classify", refuse)
        monkeypatch.setattr("convlab.maps.ClassificationReport", refuse)
        # and a context is refused on construction, whatever bound its class
        monkeypatch.setattr("convlab.maps.MapContext.__post_init__", refuse)
        res = search(SearchTask(name))
        assert {"predicate": res.predicate, "examined": res.examined,
                "witness": res.witness, "exhausted": res.exhausted} == \
            RECORDED_SEARCHES[name]

    def test_search_deterministic(self):
        r1 = search(SearchTask("closed_not_adherent"))
        r2 = search(SearchTask("closed_not_adherent"))
        assert r1.examined == r2.examined
        assert r1.witness == r2.witness

    def test_collapsing_arrow_exhausts(self):
        res = search(SearchTask("hereditarily_quotient_not_biquotient"))
        assert res.exhausted
        res = search(SearchTask("perfect_not_closed"))
        assert res.exhausted

    def test_final_topology_hunt(self):
        """At 3 -> 2 the hunt provably exhausts (2-point pretopologies are
        topologies, and finality onto 2 points preserves pretopologies);
        the genuine witness lives at 4 -> 3."""
        from convlab import io
        from convlab.functors import is_topology
        from convlab.maps import final_convergence

        res32 = search(SearchTask("topology_final_not_topology_3to2"))
        assert res32.exhausted and res32.examined == 29 * 6

        res43 = search(SearchTask("topology_final_not_topology"))
        assert res43.witness is not None
        src = io.convergence_from_doc(res43.witness["source"])
        assert is_topology(src)
        f = CarrierMap.of(
            src.carrier,
            io.convergence_from_doc(res43.witness["final"]).carrier,
            res43.witness["map"])
        assert not is_topology(final_convergence(f, src))

    def test_limit_cuts_off(self):
        res = search(SearchTask("closed_not_adherent", limit=10))
        assert res.examined == 10 and res.witness is None
        assert not res.exhausted

    def test_exhausted_only_when_the_stream_runs_out(self):
        # the 2 -> 2 stream has 162 candidates and no witness
        cut = search(SearchTask("perfect_not_closed", limit=161))
        assert cut.examined == 161 and not cut.exhausted
        for limit in (162, 163, None):
            res = search(SearchTask("perfect_not_closed", limit=limit))
            assert res.examined == 162 and res.exhausted

    def test_limit_at_a_chunk_boundary(self):
        """A 3to2 chunk holds the 9 targets of a pair.  The witness at 2144
        is the second candidate of the chunk after 2142, so cuts at the
        chunk's boundary and inside it leave the witness unread."""
        for limit in (2142, 2143):
            cut = search(SearchTask("closed_not_adherent", limit=limit))
            assert (cut.examined, cut.witness, cut.exhausted) == \
                (limit, None, False)
        res = search(SearchTask("closed_not_adherent", limit=2144))
        assert res.examined == 2144
        assert res.witness == RECORDED_SEARCHES["closed_not_adherent"][
            "witness"]

    def test_limit_at_the_last_single_candidate_chunk(self):
        # the 3 -> 2 topology hunt has 174 one-candidate chunks
        cut = search(SearchTask("topology_final_not_topology_3to2",
                                limit=173))
        assert cut.examined == 173 and not cut.exhausted
        res = search(SearchTask("topology_final_not_topology_3to2",
                                limit=174))
        assert res.examined == 174 and res.exhausted

    def test_limit_one_before_the_closed_image_witness(self):
        res = search(SearchTask("continuous_image_of_closed_not_closed",
                                limit=1))
        assert (res.examined, res.witness, res.exhausted) == (1, None, False)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValidationError):
            SearchTask("closed_not_adherent", limit=limit)

    def test_surjections_count(self):
        assert len(surjections(default_carrier(3), Carrier.of("p", "q"))) == 6
        assert len(surjections(default_carrier(2), Carrier.of("p", "q"))) == 2
        maps = all_maps(default_carrier(3), Carrier.of("p", "q"))
        assert len(set(maps)) == len(maps) == 8
        assert surjections(default_carrier(3), Carrier.of("p", "q")) == \
            tuple(f for f in maps if f.is_surjective())
