"""The convlab benchmark.

    python3 perfbench/run.py --workload laws|tables|wide --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client in a closed loop: every pass runs in a fresh child
interpreter (``child.py``), one child at a time, and the next pass starts
only after the previous one ended.  A pass starts while the run, with
one more pass as long as the longest so far, stays within ``--seconds`` of
wall time; there is at least one pass.  Before the passes,
``SETUP_SAMPLES`` children only start, import convlab and build their
inputs, to measure set-up.

With ``--trace 0`` the last line of standard output holds every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of one traced pass, and ``trace.overhead_s`` is the traced
pass time minus that of an untraced pass on the same inputs.  The spans of
the traced pass go to ``perfbench/out/``.  The lines before the last one
describe the run: machine, Python, seed, commit, sample counts and the
first mismatches, if any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("laws", "tables", "wide")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, pass_index: int, mode: str,
              trace_file: str | None = None) -> dict:
    cmd = [sys.executable, CHILD, workload, str(seed), str(pass_index), mode]
    if trace_file:
        cmd.append(trace_file)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(
            f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready"] - t0 - result["setup_sampled_s"]
                         ) * result["setup_factor"]
    return result


def commit_id() -> str:
    """git HEAD when the checkout has git metadata, and a digest of the
    sources either way."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    head = "none"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]),
                      encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        pass
    return f"git {head[:12]}, src sha256 {digest.hexdigest()[:12]}"


def percentile(data: list[float], pct: int) -> float:
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """Metric values in reference seconds, and the sample count behind
    each."""
    op_s = [t for p in passes for t in p["op_ref_s"]]
    busy = sum(p["pass_ref_s"] for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["pass_ref_s"] for p in passes),
        "instances_per_s": sum(p["instances"] for p in passes) / busy,
        "query_p50_ms": 1e3 * statistics.median(op_s),
        "query_p90_ms": 1e3 * percentile(op_s, 90),
        "queries_per_s": len(op_s) / busy,
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
    }
    samples = {"setup_s": len(setups), "query_p50_ms": len(op_s),
               "query_p90_ms": len(op_s)}
    return values, samples


def per_layer(name: str, traced: dict, overhead_s: float) -> float:
    """A per-layer metric from the traced pass, times in reference seconds
    at the pass's mean host speed; 0 when that pass never reached the
    function (or the cache no longer exists)."""
    if name == "trace.overhead_s":
        return overhead_s
    if name.startswith("cache."):
        _, fn, field = name.split(".")
        return traced["caches"].get(fn, {}).get(field, 0)
    if name in traced["counts"]:
        return traced["counts"][name]
    span, field = name.rsplit(".", 1)
    busy = traced["layers"].get(span, {}).get("busy_s", 0.0) * (
        traced["pass_ref_s"] / traced["pass_s"])
    if field == "contexts_per_s":
        contexts = traced["counts"].get(span + ".contexts", 0)
        return contexts / busy if busy else 0
    if field == "busy_s":
        return busy
    return traced["layers"].get(span, {}).get(field, 0)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    print(f"# convlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}; nproc "
          f"{os.cpu_count()}, Python {platform.python_version()}, "
          f"{commit_id()}")
    w, seed = args.workload, args.seed
    try:
        setups = [run_child(w, seed, 0, "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            trace_file = os.path.join(OUT, f"trace-{w}-seed{seed}.json")
            passes = [run_child(w, seed, 0, "run"),
                      run_child(w, seed, 0, "trace", trace_file)]
        else:
            passes, longest = [], 0.0
            start = time.monotonic()
            while (not passes or time.monotonic() - start + longest
                   <= args.seconds):
                t0 = time.monotonic()
                passes.append(run_child(w, seed, len(passes), "run"))
                longest = max(longest, time.monotonic() - t0)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for msg in p["mismatches"]:
            print(f"# mismatch: {msg}")
    print(f"# failed_ops = {failed}/{attempted} = {failed / attempted:g} "
          f"over {len(passes)} pass(es)")
    if args.trace:
        plain, traced = passes
        overhead = traced["pass_ref_s"] - plain["pass_ref_s"]
        print(f"# untraced pass {plain['pass_ref_s']:.3f} s, traced pass "
              f"{traced['pass_ref_s']:.3f} s (reference seconds); spans in "
              f"{os.path.relpath(trace_file, ROOT)}")
        if traced["missing"]:
            print(f"# not traced (absent): {', '.join(traced['missing'])}")
        names = spec["per_layer"]
        values = {m["name"]: per_layer(m["name"], traced, overhead)
                  for m in names}
    else:
        names = spec["end_to_end"]
        values, samples = end_to_end(passes, setups + [
            p["setup_s"] for p in passes])
        wall = ", ".join(f"{p['pass_s']:.3f}" for p in passes)
        slowdown = statistics.median(p["pass_s"] / p["pass_ref_s"]
                                     for p in passes)
        print(f"# wall time per pass: {wall} s; wall / reference time "
              f"{slowdown:.3f}")
        for m in names:
            n = samples.get(m["name"])
            print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}"
                  + (f" (n={n})" if n else ""))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
