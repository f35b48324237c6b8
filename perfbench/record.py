"""Record the answers the benchmark checks against.

    python3 perfbench/record.py [laws] [tables] [wide]

Writes ``expected/laws.json`` (per-suite instance counts of
``run_laws(3)``), ``expected/tables.json`` (the documents of the ``tables``
workload) and ``expected/wide_digest.json`` (the classification flags and
compactness answer for every ``wide`` pool entry).  Run it only at a commit
whose answers are known to be right; the files were recorded at the seed
commit.  A ``wide`` entry whose oracle-checked answers disagree with the
library is not recorded.
"""

from __future__ import annotations

import json
import os
import sys

import child
import wide


def _write(name: str, doc) -> None:
    path = os.path.join(child.EXPECTED, name)
    os.makedirs(child.EXPECTED, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_laws() -> None:
    from convlab import laws
    report = laws.run_laws(3)
    if not report.ok:
        raise SystemExit("run_laws(3) is not ok; nothing recorded")
    _write("laws.json", {"instances": {r.name: r.instances
                                       for r in report.results}})


def record_tables() -> None:
    ops = list(child.tables_ops(child.tables_inputs(0, 0)))
    _write("tables.json", {name: call() for name, call in ops})


def record_wide() -> None:
    answers = {}
    for i in range(wide.POOL_SIZE):
        q = wide.pool_entry(i)
        got = child._wide_query(q)
        wrong = wide.check_answer(q, got, {str(i): got["digest"]})
        if wrong:
            raise SystemExit("; ".join(wrong))
        answers[str(i)] = got["digest"]
    _write("wide_digest.json", {
        "fields": "classification flags in report order, then is_compact_at",
        "answers": answers})


if __name__ == "__main__":
    child.use_sources()
    which = sys.argv[1:] or ["laws", "tables", "wide"]
    for name in which:
        {"laws": record_laws, "tables": record_tables,
         "wide": record_wide}[name]()
