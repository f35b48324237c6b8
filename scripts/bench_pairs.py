"""Compare two source trees on the benchmark in alternating pairs and write
a BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent REV --title TEXT \
        --out BENCH_<pr>.json

Run from the root of a git checkout; stdlib only.  Both trees are exported
with `git archive` into a fresh temporary directory: the parent at REV and
the change as the working tree's tracked files stand (a `git stash create`
snapshot, or HEAD when the tree is clean), whose commit hash the file
records.  Pair k runs `perfbench/run.py --workload W --seed k --seconds S`,
S being BENCHMARK.json's run_seconds, once in each tree, one run at a time,
for each workload in turn; of the 10 pairs, the parent runs first in the
first half and the change first in the rest.
The file records the host (nproc; usable_cpus, the CPUs the runs may use,
which a law run splits its work over; the Python version) and, per
workload and end-to-end metric of BENCHMARK.json,
the median and quartiles of each side's runs, the relative change of the
medians, change_wins: the pairs in which the change read better,
beyond_parent_spread: the medians differ by more than the parent's
q3 - q1, and within_bound: the change's median is no worse than the
parent's by more than the metric's bound, a fraction of the parent's
median.  A gain holds when change_wins is at least 9 of 10 and the medians
differ beyond the parent's spread in the better direction; no metric may
leave its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("tables", "laws", "wide")
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(("git", "archive", rev), check=True,
                             capture_output=True).stdout
    subprocess.run(("tar", "-x", "-C", dest), input=archive, check=True)


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        (sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}"),
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3, inclusive of the extremes."""
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summarize(runs: dict, spec: list[dict]) -> dict:
    """One workload's record from its runs: runs[side] lists the last-line
    documents of perfbench/run.py in pair order."""
    out = {
        "pairs": len(runs["parent"]),
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side])
                   for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side])
                      for side in SIDES},
        "metrics": {},
    }
    for m in spec:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        parent, change = spread(values["parent"]), spread(values["change"])
        q1, before, q3 = quartiles(values["parent"])
        after = statistics.median(values["change"])
        out["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (c - p) > 0 for p, c in
                               zip(values["parent"], values["change"])),
            "median_change": round(
                change["median"] / parent["median"] - 1, 4)
            if parent["median"] else None,
            "beyond_parent_spread": abs(after - before) > q3 - q1,
            "within_bound": sign * (after - before) >= -m["bound"] * before,
        }
    return out


def host() -> dict:
    """The CPU count, the CPUs this process may run on (its affinity mask,
    where the platform has one; taskset narrows it) and the Python
    version."""
    cpus = os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    return {"nproc": os.cpu_count(), "usable_cpus": cpus,
            "python": platform.python_version()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent revision")
    ap.add_argument("--title", required=True)
    ap.add_argument("--note", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    revs = {"parent": git("rev-parse", args.parent),
            "change": git("stash", "create") or git("rev-parse", "HEAD")}
    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(work, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        runs = {w: {side: [] for side in SIDES} for w in WORKLOADS}
        first_half = PAIRS // 2
        for k in range(1, PAIRS + 1):
            order = SIDES if k <= first_half else SIDES[::-1]
            for w in WORKLOADS:
                for side in order:
                    got = run(trees[side], w, k, seconds)
                    runs[w][side].append(got)
                    print(f"# pair {k} {w} {side}: run_s "
                          f"{got['metrics']['run_s']['value']:.4f}",
                          file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {
        "title": args.title,
        **host(),
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "command": f"python3 perfbench/run.py --workload "
                   f"<{'|'.join(WORKLOADS)}> --seed <1..{PAIRS}> "
                   f"--seconds {seconds:g} (last line), each tree "
                   f"exported with git archive, pair k uses seed k on both "
                   f"sides; written by scripts/bench_pairs.py",
        "order": f"pairs 1-{first_half}: the parent runs first; pairs "
                 f"{first_half + 1}-{PAIRS}: the change runs first; "
                 f"one run at a time; {', then '.join(WORKLOADS)}",
        "note": args.note,
        "workloads": {w: summarize(runs[w], spec) for w in WORKLOADS},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
