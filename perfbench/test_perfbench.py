"""Self-tests of the benchmark's generator and oracles.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import unittest

import child
import wide

child.use_sources()
from convlab import Convergence, ValidationError, io  # noqa: E402
from convlab.enumerate import (  # noqa: E402
    all_convergences, all_pretopologies, default_carrier, surjections)
from convlab.families import Carrier  # noqa: E402
from convlab.functors import Selector, reflect, topologize  # noqa: E402
from convlab.maps import final_convergence  # noqa: E402
from convlab.spaces import (  # noqa: E402
    adherence_table, closure_mask, open_masks)


def _oracle_disagreements(conv: Convergence, maps=()) -> list[str]:
    table, n, full = conv.table, conv.carrier.size, conv.carrier.full
    out = []
    opens = wide.oracle_opens(table)
    if wide.oracle_adherence(table) != adherence_table(conv):
        out.append("adherence")
    if opens != open_masks(conv):
        out.append("opens")
    if any(wide.oracle_closure(opens, full, m) != closure_mask(conv, m)
           for m in range(full + 1)):
        out.append("closure")
    if wide.oracle_s0(table) != reflect(Selector.F0, conv).table:
        out.append("s0")
    if wide.oracle_topologize(opens, n) != topologize(conv).table:
        out.append("topologize")
    for f in maps:
        got = wide.oracle_final(table, f.mapping, f.target.size)
        if got != final_convergence(f, conv).table:
            out.append(f"final under {f.mapping}")
    return out


class OracleTest(unittest.TestCase):
    def test_every_convergence_up_to_three_points(self):
        total = 0
        for n in (1, 2, 3):
            carrier = default_carrier(n)
            onto_two = (surjections(carrier, Carrier(("p", "q")))
                        if n > 1 else ())
            for conv in all_convergences(carrier):
                total += 1
                self.assertEqual(_oracle_disagreements(conv, onto_two), [],
                                 repr(conv))
        self.assertEqual(total, 1 + 9 + 2744)

    def test_every_pretopology_on_four_points(self):
        carrier = default_carrier(4)
        onto_two = surjections(carrier, Carrier(("p", "q")))[:3]
        universe = all_pretopologies(carrier)
        self.assertEqual(len(universe), 4096)
        for conv in universe:
            self.assertEqual(_oracle_disagreements(conv, onto_two), [],
                             repr(conv))


class GeneratorTest(unittest.TestCase):
    def test_pool_documents_are_accepted(self):
        for i in range(0, wide.POOL_SIZE, 7):
            q = wide.pool_entry(i)
            conv = io.convergence_from_doc(json.loads(q.source_text))
            self.assertEqual(conv.table, q.table)
            made = Convergence.make(conv.carrier, q.table)
            self.assertEqual(made.table, q.table)
            tau = io.convergence_from_doc(json.loads(q.target_text))
            self.assertEqual(tau.table, q.target_table)
            f = io.map_from_doc(json.loads(q.map_text), conv.carrier,
                                tau.carrier)
            self.assertTrue(f.is_surjective())

    def test_pool_is_deterministic(self):
        self.assertEqual(wide.pool_entry(5), wide.pool_entry(5))
        self.assertEqual(wide.pass_queries(3, 1), wide.pass_queries(3, 1))
        self.assertNotEqual(wide.pass_queries(3, 1), wide.pass_queries(4, 1))

    def test_a_pass_never_repeats_a_space(self):
        # entries of different strata never share a table, and a pass takes
        # one entry per stratum
        first_of_table: dict[tuple, int] = {}
        for i in range(wide.POOL_SIZE):
            stratum = first_of_table.setdefault(wide.pool_entry(i).table,
                                                i % wide.STRATA)
            self.assertEqual(stratum, i % wide.STRATA, f"entry {i}")

    def test_open_set_counts_span_the_range(self):
        counts = [len(wide.oracle_opens(wide.pool_entry(i).table))
                  for i in range(0, wide.POOL_SIZE, 5)]
        self.assertEqual(min(counts), 2)
        self.assertGreater(max(counts), 200)

    def test_malformed_documents_are_rejected(self):
        rng = random.Random(0)
        carrier = Carrier(wide.LABELS)
        for _ in range(4):
            for how in wide.MALFORMED_KINDS:
                q = wide.malformed(rng, how)
                with self.assertRaises(ValidationError):
                    io.convergence_from_doc(json.loads(q.source_text))
                if q.table:
                    with self.assertRaises(ValidationError):
                        Convergence.make(carrier, q.table)

    def test_a_pass_mixes_strata_and_malformed_documents(self):
        queries = wide.pass_queries(11, 0)
        self.assertEqual(len(queries), wide.STRATA + len(wide.MALFORMED_KINDS))
        strata = {q.pool_index % wide.STRATA for q in queries
                  if q.pool_index is not None}
        self.assertEqual(len(strata), wide.STRATA)


if __name__ == "__main__":
    unittest.main()
