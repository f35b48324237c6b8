"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED PASS MODE [TRACE_FILE]

MODE is ``setup`` (import and build the inputs, then stop), ``run`` or
``trace`` (``run`` with the layer tracer installed; the trace is written to
TRACE_FILE).  Host-speed sampling (``pace.py``) runs from the first line of
``main`` to the end of the pass.  The last line of standard output is one
JSON object: ``ready`` (time.monotonic() just before the first timed
call) with the sampling record of the set-up (``setup_factor``,
``setup_sampled_s``), and for a pass its wall time ``pass_s``, its time
and each request's in reference seconds (``pass_ref_s``, ``op_ref_s``),
the ``instances`` the program verified, ``rss_kb`` (ru_maxrss right after
the pass), and the checks made after the timed region: ``attempted``,
``failed`` and the first ``mismatches``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import pace
import tracer
import wide

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected")
MAX_MISMATCHES = 5


def use_sources() -> None:
    """Import convlab from the checkout's ``src/``, never an installed copy.
    Each workload imports only the modules its requests use, inside its
    functions, so that set-up time is what a CLI user of that command pays."""
    if not os.path.isdir(os.path.join(SRC, "convlab")):
        sys.exit(f"no convlab sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _load(name: str):
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# laws: one `convlab laws --size 3` verdict
# ---------------------------------------------------------------------------

def laws_inputs(seed: int, pass_index: int):
    from convlab import laws  # noqa: F401  (set-up)
    return None  # run_laws builds its universes itself


def laws_ops(_inputs):
    from convlab import laws
    yield "laws", lambda: laws.run_laws(3)


def laws_check(_inputs, outputs):
    report = outputs[0]
    if isinstance(report, BaseException):
        return 0, 1, [f"run_laws raised {report!r}"]
    got = {r.name: r.instances for r in report.results}
    bad = []
    if not report.ok:
        bad.append("laws report is not ok: " + "; ".join(
            f"{r.name}: {r.failures[:1]}" for r in report.results if not r.ok))
    want = _load("laws.json")["instances"]
    if got != want:
        bad.append(f"suite instance counts differ from the record: total "
                   f"{sum(got.values())} vs {sum(want.values())}")
    return sum(got.values()), int(bool(bad)), bad


# ---------------------------------------------------------------------------
# tables: `convlab tables`, then `convlab search` for every predicate, then
# both `convlab exemplar ... --check`; three requests, because a single
# search or exemplar check lasts milliseconds, too short to time steadily
# ---------------------------------------------------------------------------

def tables_inputs(seed: int, pass_index: int):
    from convlab import enumerate as enum, laws  # noqa: F401  (set-up)
    from convlab.symbolic import fan, prime  # noqa: F401  (set-up)
    return sorted(enum.PREDICATES)


def tables_ops(predicates):
    from convlab import laws
    from convlab.symbolic import fan, prime
    yield "tables", lambda: laws.emit_tables(3)
    yield "search", lambda: {name: _search_doc(name) for name in predicates}
    yield "exemplars", lambda: {"fan": fan.fan_check().as_dict(),
                                "prime": prime.prime_check().as_dict()}


def _search_doc(name: str) -> dict:
    from convlab import enumerate as enum
    res = enum.search(enum.SearchTask(name))
    return {"predicate": res.predicate, "examined": res.examined,
            "witness": res.witness, "exhausted": res.exhausted}


def tables_check(predicates, outputs):
    want = _load("tables.json")
    bad = []
    for (name, _call), got in zip(tables_ops(predicates), outputs):
        if isinstance(got, BaseException):
            bad.append(f"{name} raised {got!r}")
        elif json.loads(json.dumps(got)) != want.get(name):
            bad.append(f"{name}: document differs from the record")
    failed = len(bad)
    tables, search = outputs[0], outputs[1]
    instances = (tables.get("contexts_checked", 0)
                 if isinstance(tables, dict) else 0)
    if isinstance(search, dict):
        instances += sum(doc["examined"] for doc in search.values())
    return instances, failed, bad


# ---------------------------------------------------------------------------
# wide: single-space CLI queries at n = 10
# ---------------------------------------------------------------------------

def wide_inputs(seed: int, pass_index: int):
    from convlab import cli, compactness, maps  # noqa: F401  (set-up)
    return wide.pass_queries(seed, pass_index)


def _wide_query(q: wide.Query) -> dict:
    from convlab import compactness, functors, io, maps, spaces
    from convlab.cli import SELECTOR_FLAGS
    conv = io.convergence_from_doc(json.loads(q.source_text))
    adh = spaces.adherence_table(conv)
    opens = spaces.open_masks(conv)
    closures = tuple(spaces.closure_mask(conv, m) for m in q.closure_masks)
    s0 = functors.reflect(functors.Selector.F0, conv)
    top = functors.topologize(conv)
    tau = io.convergence_from_doc(json.loads(q.target_text))
    f = io.map_from_doc(json.loads(q.map_text), conv.carrier, tau.carrier)
    fxi = maps.final_convergence(f, conv)
    report = maps.classify(maps.MapContext(f, conv, tau))
    compact = compactness.is_compact_at(compactness.CompactnessQuery(
        conv,
        io.family_from_doc(json.loads(q.at_text), conv.carrier),
        io.family_from_doc(json.loads(q.relative_text), conv.carrier),
        SELECTOR_FLAGS[q.selector]))
    return {"table": conv.table, "adherence": adh, "opens": opens,
            "closures": closures, "s0": s0.table, "topologize": top.table,
            "final": fxi.table,
            "digest": wide.digest_answer(report.as_dict(), compact)}


def wide_ops(queries):
    for q in queries:
        yield f"query {q.pool_index}", lambda q=q: _wide_query(q)


def wide_check(queries, outputs):
    from convlab import ValidationError
    digest = _load("wide_digest.json")["answers"]
    bad, failed = [], 0
    for q, got in zip(queries, outputs):
        if q.pool_index is None:
            wrong = [] if type(got) is ValidationError else [
                f"malformed {q.kind} document gave {got!r:.80}, "
                f"not ValidationError"]
        elif isinstance(got, BaseException):
            wrong = [f"pool entry {q.pool_index} raised {got!r}"]
        else:
            wrong = wide.check_answer(q, got, digest)
        failed += bool(wrong)
        bad.extend(wrong)
    return len(queries), failed, bad


WORKLOADS = {
    "laws": (laws_inputs, laws_ops, laws_check),
    "tables": (tables_inputs, tables_ops, tables_check),
    "wide": (wide_inputs, wide_ops, wide_check),
}


def main(argv: list[str]) -> int:
    sampler = pace.Pace()
    sampler.start()
    use_sources()
    workload, seed, pass_index, mode = argv[:4]
    make_inputs, ops, check = WORKLOADS[workload]
    inputs = make_inputs(int(seed), int(pass_index))
    tr = None
    if mode == "trace":
        tr = tracer.Tracer()
        tracer.install(tr)
    calls = list(ops(inputs))
    clock = time.perf_counter
    ready, t_pass = time.monotonic(), clock()
    result = {"ready": ready,
              "setup_factor": sampler.factor(upto=t_pass),
              "setup_sampled_s": sampler.sampled_s(upto=t_pass)}
    if mode == "setup":
        sampler.stop()
        print(json.dumps(result))
        return 0
    outputs, bounds = [], [t_pass]
    for _name, call in calls:
        try:
            out = call()
        except Exception as exc:  # a request's outcome, checked below
            out = exc
        bounds.append(clock())
        outputs.append(out)
    sampler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    instances, failed, mismatches = check(inputs, outputs)
    result.update({
        "pass_s": bounds[-1] - t_pass,
        "pass_ref_s": sampler.reference_s(t_pass, bounds[-1]),
        "op_ref_s": [sampler.reference_s(t0, t1)
                     for t0, t1 in zip(bounds, bounds[1:])],
        "instances": instances, "rss_kb": rss_kb,
        "attempted": len(calls), "failed": failed,
        "mismatches": mismatches[:MAX_MISMATCHES]})
    if tr is not None:
        result["layers"] = tr.summary()
        result["counts"] = tr.counts
        result["caches"] = tracer.cache_snapshot()
        result["missing"] = tr.missing
        tr.write(argv[4], {"workload": workload, "seed": int(seed),
                           "pass_s": result["pass_s"],
                           "caches": result["caches"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
