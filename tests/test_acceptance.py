"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  The heavy exhaustive surface is produced once by the full law run
(module fixture) and the criteria assert on its named suites plus their
stated runtime bounds."""

import json
import random
import time
from pathlib import Path

import pytest

from convlab.laws import (
    LAW_DOMAINS,
    LawSuiteReport,
    emit_tables,
    run_laws,
    suite_axioms_and_lattice,
    suite_functor_laws,
)

# the answers the benchmark checks, recorded by perfbench/record.py
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


@pytest.fixture(scope="module")
def laws() -> LawSuiteReport:
    report = run_laws(max_size=3)
    return report


def _criterion(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def _suite_ok(laws, name):
    r = laws.result(name)
    return r.ok, f"{r.instances} instances"


def test_criterion_01_axiom_and_lattice_suite():
    t0 = time.time()
    result = suite_axioms_and_lattice()
    elapsed = time.time() - t0
    _criterion(
        1, "all 9 two-point convergences enumerated; lattice laws hold",
        result.ok and elapsed < 1.0,
        f"{result.instances} instances in {elapsed:.3f}s")


def test_criterion_02_functor_laws():
    t0 = time.time()
    result = suite_functor_laws(10_000)
    elapsed = time.time() - t0
    _criterion(
        2, "T/S0/S1/S contractive+idempotent+isotone+functorial "
           "(81 pairs at n=2, 10^4 sampled pairs at n=3)",
        result.ok and elapsed < 60.0,
        f"{result.instances} instances in {elapsed:.1f}s")


def test_criterion_03_finite_collapse(laws):
    ok, detail = _suite_ok(laws, "finite collapse (selector classes + coreflectors)")
    _criterion(3, "reflect(F0)=reflect(F1)=reflect(F_ALL), Seq=I1=K=id, n<=3",
               ok, detail)


def test_criterion_04_reflector_ordering(laws):
    ok, detail = _suite_ok(laws, "reflector ordering + topologizer agreement")
    _criterion(4, "T <= S0 <= S1 <= S pointwise; topologize == closed-class "
                  "reflection bit-exactly", ok, detail)


def test_criterion_05_continuity_equivalences(laws):
    ok, detail = _suite_ok(laws, "continuity equivalences (adherence forms)")
    _criterion(5, "three-way continuity equivalence, every selector, every "
                  "surjection 2->2 and 3->2, full universes; zero "
                  "discrepancies", ok, detail)


def test_criterion_06_cover_duality(laws):
    ok, detail = _suite_ok(laws, "cover duality (three clauses) + open-cover remark")
    _criterion(6, "cover/inherence/adherence clauses agree (exhaustive "
                  "n<=2, 10^4 random at n=3)", ok, detail)


def test_criterion_07_route_agreement(laws):
    ok, detail = _suite_ok(laws, "route agreement (quotient x3, perfect x2)")
    _criterion(7, "quotient triple-agreement and perfect double-agreement "
                  "on every classification run", ok, detail)


def test_criterion_08_chain_identity_example(laws):
    ok, detail = _suite_ok(laws, "chain-pretopology identity classification")
    _criterion(8, "identity (pretopology -> its topologization): "
                  "continuous, quotient, closed, NOT hereditarily "
                  "quotient, NOT adherent, NOT open", ok, detail)


def test_criterion_09_implication_tables(laws):
    ok1, d1 = _suite_ok(laws, "implication ladder on classified instances")
    ok2, d2 = _suite_ok(laws, "strictness witnesses via search")
    ok3, d3 = _suite_ok(laws, "bijections: quotient <-> perfect per class")
    _criterion(9, "every implication arrow holds; non-reversible arrows "
                  "carry stored witnesses; bijection equivalence",
               ok1 and ok2 and ok3, f"{d1}; {d2}; {d3}")


def test_criterion_10_compactness_theorems(laws):
    ok1, d1 = _suite_ok(laws, "perfect<->compact fiber relation, quotient<->compact")
    ok2, d2 = _suite_ok(laws, "compactness: characteristic, images, completeness")
    within_budget = laws.elapsed < 300.0
    _criterion(10, "perfect<->compact-fiber and quotient<->compact "
                   "equivalences exhaustive; characteristic detection; "
                   "compact images",
               ok1 and ok2 and within_budget,
               f"{d1}; {d2}; full run {laws.elapsed:.1f}s < 300s")


def test_criterion_11_topological_perfect_collapse(laws):
    ok, detail = _suite_ok(laws, "topological pairs: closure forms + perfect collapse")
    _criterion(11, "finite topological pairs: closed <-> adherent <-> "
                   "countably perfect <-> perfect", ok, detail)


def test_criterion_12_preservation(laws):
    ok1, d1 = _suite_ok(laws, "mixed-property preservation grid")
    ok2, d2 = _suite_ok(laws, "JE preservation via is_JE (sampled grid)")
    ok3, d3 = _suite_ok(laws, "JE two-route agreement (exhaustive)")
    _criterion(12, "no preservation violation for any (reflector, "
                   "coreflector) pair over continuous quotient-like "
                   "surjections 3->2",
               ok1 and ok2 and ok3, f"{d1}; {d2}")


def test_criterion_13_sierpinski(laws):
    ok, detail = _suite_ok(laws, "Sierpinski fixture")
    _criterion(13, "{0} compact at itself and not closed, exact", ok, detail)


def test_criterion_14_enumeration_counts(laws):
    ok, detail = _suite_ok(laws, "enumeration counts (9 / 64 / 29) + determinism")
    _criterion(14, "9 convergences (n=2), 64 pretopologies (n=3), 29 "
                   "topologies (n=3), independent oracles, deterministic "
                   "across runs", ok, detail)


def test_criterion_15_symbolic_exemplars():
    from convlab.symbolic.fan import fan_check
    from convlab.symbolic.prime import prime_check
    from convlab.symbolic.sets import (
        FanSet, PeriodicSet, fan_points, fan_row,
        fan_spine)
    from convlab.symbolic.filters import cofinite_filter
    from convlab.symbolic.truncation import (
        check_emptiness, check_infiniteness, check_leq, check_mesh,
        check_set_ops)

    fan_ok = fan_check().ok
    prime_ok = prime_check().ok

    rng = random.Random(0)

    def rand_slice():
        cofinite = rng.random() < 0.5
        return PeriodicSet(cofinite, cofinite,
                           frozenset(rng.sample(range(5), rng.randrange(3))))

    def rand_fan():
        return FanSet(
            rng.random() < 0.5, rand_slice(),
            {r: rand_slice() for r in rng.sample(range(5), rng.randrange(3))})

    def rand_prime():
        return PeriodicSet(rng.random() < 0.5, rng.random() < 0.5,
                           frozenset(rng.sample(range(7), rng.randrange(4))))

    truncations_ok = True
    for _ in range(120):
        s1, s2 = rand_prime(), rand_prime()
        t1, t2 = rand_fan(), rand_fan()
        truncations_ok &= check_set_ops(s1, s2) and check_set_ops(t1, t2)
        truncations_ok &= check_emptiness(s1) and check_emptiness(t1)
        truncations_ok &= check_infiniteness(s1) and check_infiniteness(t1)
        f1 = cofinite_filter(s1, s1 & s2)
        f2 = cofinite_filter(s2, s2 & s1)
        g1 = cofinite_filter(t1, t1 & t2)
        g2 = cofinite_filter(t2, t2 & t1)
        truncations_ok &= check_mesh(f1, f2) and check_leq(f1, f2)
        truncations_ok &= check_mesh(g1, g2) and check_leq(g1, g2)
    for probe in (fan_spine(), fan_row(3), fan_points((1, 1)),
                  ~fan_spine()):
        truncations_ok &= check_set_ops(probe, fan_spine())

    _criterion(15, "fan: spine is a vicinity, no representable open "
                   "in between; prime: cofinite filter converges nowhere "
                   "yet its pseudotopological limit holds the apex; all "
                   "symbolic decisions match truncations k<=6",
               fan_ok and prime_ok and truncations_ok)


def test_criterion_16_graph_closedness(laws):
    ok, detail = _suite_ok(laws, "graph-closedness (product, symmetry, Hausdorff)")
    _criterion(16, "everywhere-graph-closed <-> closed-in-product and "
                   "inversion symmetry, exhaustive over 2x2 relations",
               ok, detail)


def test_every_law_suite_green(laws):
    bad = [r.name for r in laws.results if not r.ok]
    total = sum(r.instances for r in laws.results)
    print(f"[INFO] full law run: {len(laws.results)} suites, "
          f"{total} instances, {laws.elapsed:.1f}s")
    assert not bad, f"failing suites: {bad}"


def test_suite_instance_counts_match_the_benchmark_record(laws):
    """Every suite counts the instances the benchmark's laws record
    expects, so a moved count shows here first."""
    want = json.loads((EXPECTED / "laws.json").read_text())["instances"]
    assert {r.name: r.instances for r in laws.results} == want


def test_the_law_run_reports_each_domain(laws):
    """The full run records, per named domain, its (map, source) pairs, its
    contexts, the law records its sweep built and its seconds, and its
    document lists them."""
    domains = laws.as_dict()["domains"]
    assert [d["name"] for d in domains] == list(LAW_DOMAINS)
    by_name = {d["name"]: d for d in domains}
    assert (by_name["3to2"]["pairs"], by_name["3to2"]["contexts"],
            by_name["3to2"]["records"]) == (16_464, 148_176, 2_436)
    assert sum(d["contexts"] for d in domains) == 196_914
    assert all(isinstance(d["seconds"], float) for d in domains)


def test_tables_document_matches_the_benchmark_record():
    """emit_tables(3) is the tables document the benchmark checks (its
    search documents are checked in test_enumerate)."""
    want = json.loads((EXPECTED / "tables.json").read_text())["tables"]
    assert json.loads(json.dumps(emit_tables(3))) == want


def test_exemplar_documents_match_the_benchmark_record():
    """The fan and prime reports are the exemplar documents the benchmark
    checks."""
    from convlab.symbolic.fan import fan_check
    from convlab.symbolic.prime import prime_check

    want = json.loads((EXPECTED / "tables.json").read_text())["exemplars"]
    assert {"fan": fan_check().as_dict(),
            "prime": prime_check().as_dict()} == want
