import pytest

from convlab import laws, maps
from convlab.enumerate import all_convergences, default_carrier, surjections
from convlab.families import Carrier, InvariantViolation
from convlab.laws import LawResult, emit_tables, run_laws


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
        assert {"name", "instances", "ok", "failures"} <= set(doc["suites"][0])

    def test_failure_capping(self):
        r = LawResult("x")
        for i in range(20):
            r.fail(f"boom {i}")
        assert len(r.failures) <= 6
        assert not r.ok


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
            laws.suite_cover_duality(samples=1, seed=0)
        assert len(calls) == 1

    def test_prop_JE(self, monkeypatch):
        calls = self._failing(monkeypatch, "is_JE")
        with pytest.raises(TypeError):
            laws.suite_prop_JE(max_size=1)
        assert len(calls) == 1


class TestRouteDisagreement:
    def test_propagates_out_of_the_sweep(self, monkeypatch):
        # without triggers the cover routes hold wherever the others fail
        monkeypatch.setattr(maps.MapFacts, "_cover_triggers",
                            lambda self, pairs: ())
        c2, d2 = default_carrier(2), Carrier(("p", "q"))
        with pytest.raises(InvariantViolation, match="routes disagree"):
            laws.sweep_domain(surjections(c2, d2), all_convergences(c2),
                              all_convergences(d2), laws.SweepStats())


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
