"""scripts/bench_pairs.py's summary of one workload, read on synthetic run
documents: the script is loaded from its path and runs no benchmark."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(values, failed, attempted, correct=None):
    correct = correct or [True] * len(values)
    return [{"correct": ok, "failed": bad, "attempted": tried,
             "metrics": {"run_s": {"value": v}, "queries_per_s": {"value": v}}}
            for v, bad, tried, ok in zip(values, failed, attempted, correct)]


SPEC = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "queries_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.24}]
# pairs 1 and 5 tie, the change reads lower in pairs 2 and 4, higher in 3
PARENT = [1.0, 2.0, 3.0, 4.0, 5.0]
CHANGE = [1.0, 1.5, 3.5, 2.0, 5.0]


def summary(correct=None):
    runs = {"parent": runs_of(PARENT, [0, 1, 0, 2, 0], [10, 11, 12, 13, 14]),
            "change": runs_of(CHANGE, [1, 0, 0, 0, 0], [9, 9, 9, 9, 9],
                              correct)}
    return load_script().summarize(runs, SPEC)


def test_summary_counts_pairs_and_sums_each_side():
    got = summary()
    assert got["pairs"] == 5 and got["correct"]
    assert got["failed"] == {"parent": 3, "change": 1}
    assert got["attempted"] == {"parent": 60, "change": 45}
    assert not summary(correct=[True, True, False, True, True])["correct"]


def test_ties_win_for_neither_side_and_higher_flips_the_sign():
    metrics = summary()["metrics"]
    assert metrics["run_s"]["change_wins"] == 2
    assert metrics["queries_per_s"]["change_wins"] == 1
    assert metrics["run_s"]["better"] == "lower"
    assert metrics["queries_per_s"]["unit"] == "1/s"


def test_medians_and_quartiles_are_inclusive():
    run_s = summary()["metrics"]["run_s"]
    # the exclusive method would give 1.5 and 4.5 for the parent
    assert run_s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert run_s["change"] == {"median": 2.0, "q1": 1.5, "q3": 3.5}
    assert run_s["median_change"] == round(2.0 / 3.0 - 1, 4)


def verdicts(parent, change):
    """Both metrics' verdict fields for runs that read the same values on
    run_s (better lower) and queries_per_s (better higher)."""
    zeros = [0] * len(parent)
    runs = {"parent": runs_of(parent, zeros, zeros),
            "change": runs_of(change, zeros, zeros)}
    metrics = load_script().summarize(runs, SPEC)["metrics"]
    return {name: (m["beyond_parent_spread"], m["within_bound"])
            for name, m in metrics.items()}


def test_a_tie_is_neither_beyond_the_spread_nor_out_of_bound():
    assert verdicts(PARENT, PARENT) == {"run_s": (False, True),
                                        "queries_per_s": (False, True)}


def test_the_spread_is_the_parents_quartile_distance():
    # the parent's q3 - q1 is 2.0; the change's median moves by 1.0 or 2.5
    assert verdicts(PARENT, [0.0, 1.0, 2.0, 3.0, 4.0])["run_s"][0] is False
    assert verdicts(PARENT, [0.5, 0.5, 0.5, 0.5, 0.5])["run_s"][0] is True


def test_the_bound_is_read_in_the_worse_direction():
    """A regression of 23.9% stays inside a 24% bound and one of 24.1%
    leaves it; the same values are a gain on a better: higher metric,
    and a drop of 24.1% there leaves the bound."""
    parent = [1.0] * 5
    assert verdicts(parent, [1.239] * 5) == {"run_s": (True, True),
                                             "queries_per_s": (True, True)}
    assert verdicts(parent, [1.241] * 5) == {"run_s": (True, False),
                                             "queries_per_s": (True, True)}
    assert verdicts(parent, [0.759] * 5) == {"run_s": (True, True),
                                             "queries_per_s": (True, False)}


def test_the_host_records_the_usable_cpus(monkeypatch):
    """usable_cpus is the affinity mask's size, which taskset narrows
    below nproc, and the CPU count where the platform has no mask."""
    script = load_script()
    monkeypatch.setattr(script.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(script.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    got = script.host()
    assert (got["nproc"], got["usable_cpus"]) == (2, 1)
    monkeypatch.delattr(script.os, "sched_getaffinity")
    assert script.host()["usable_cpus"] == 2
