"""Inputs, closed-form oracles and answer checks for the ``wide`` workload.

A ``wide`` query is what a CLI user sends about one space on a 10-point
carrier: the space's JSON document, a map onto a 2-point target, the
target's document, two sets to close and a compactness question.

Well-formed spaces come from a fixed pool of ``POOL_SIZE`` entries.  Entry
``i`` is generated from its index alone, so the answers the program gave for
it at the seed commit (``expected/wide_digest.json``) apply to every run
seed.  The pool is stratified by kind (general convergence, pretopology,
topology) and by density bin, and every pass draws one entry from each
stratum, so passes made from different seeds carry the same mix of work.
Malformed documents are generated afresh for every pass; they must be
rejected with ``ValidationError``.

The generator never calls ``convlab.enumerate``: ``point_downsets`` scans
all 2^(2^n) candidate downsets and does not return at n = 6.

The oracles are O(n * 2^n) closed forms, independent of the library's
O(4^n) loops:

* adherence of a set = OR of the singleton limits of its points;
* S0 (pretopological reflection) of a set = AND of its points' singleton
  limits;
* open sets = the sets that contain the vicinity of each of their points;
* closure of a set = complement of the union of the open sets missing it;
* topological reflection: x is a limit of A iff A lies inside the smallest
  open set around x;
* final convergence on the target: union of f(lim A) over the A with
  f(A) = B exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

N_POINTS = 10
LABELS = tuple("abcdefghij")
TARGET_LABELS = ("p", "q")
KINDS = ("convergence", "pretopology", "topology")
DENSITY_BINS = 8
# highest chance that a generator set (an edge, for topologies) takes in a
# further point; the density bins split [0, DENSITY_CAP] evenly
DENSITY_CAP = {"convergence": 0.15, "pretopology": 0.4, "topology": 0.25}
STRATA = len(KINDS) * DENSITY_BINS
PER_STRATUM = 16
POOL_SIZE = STRATA * PER_STRATUM
MALFORMED_KINDS = ("lim-centered", "lim-antitone", "vicinity-centered")
SELECTORS = ("F0", "F1", "F")
FULL = (1 << N_POINTS) - 1


@dataclass(frozen=True)
class Query:
    """One CLI-style query.  ``pool_index`` is None for a malformed one."""

    pool_index: int | None
    kind: str
    table: tuple[int, ...]        # the limit table the document encodes
    source_text: str              # the space document, JSON text
    target_text: str
    map_text: str
    mapping: tuple[int, ...]      # source point -> target point index
    target_table: tuple[int, ...]
    closure_masks: tuple[int, ...]
    at_text: str                  # compactness: the family tested
    relative_text: str            # compactness: the family it is tested at
    selector: str


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _labels(mask: int, labels=LABELS) -> list[str]:
    return [labels[i] for i in range(len(labels)) if mask >> i & 1]


def _random_mask(rng: random.Random, p: float) -> int:
    return sum(1 << i for i in range(N_POINTS) if rng.random() < p)


def table_from_generators(gens: list[list[int]]) -> tuple[int, ...]:
    """lim ^A = the points x with A inside one of x's generator sets."""
    table = [0] * (FULL + 1)
    for x, sets in enumerate(gens):
        bit = 1 << x
        for g in sets:
            sub = g
            while sub:
                table[sub] |= bit
                sub = (sub - 1) & g
    return tuple(table)


def _reachable(edges: list[int], x: int) -> int:
    seen = 1 << x
    todo = [x]
    while todo:
        y = todo.pop()
        new = edges[y] & ~seen
        seen |= new
        todo.extend(i for i in range(N_POINTS) if new >> i & 1)
    return seen


def _space(kind: str, rng: random.Random, p: float) -> list[list[int]]:
    """Per-point generator sets of a space of the given kind."""
    if kind == "convergence":
        gens = [[1 << x | _random_mask(rng, p)
                 for _ in range(rng.randint(2, 3))]
                for x in range(N_POINTS)]
    elif kind == "pretopology":
        gens = [[1 << x | _random_mask(rng, p)] for x in range(N_POINTS)]
    else:
        # minimal open sets of a preorder: reflexive-transitive closure of a
        # sparse random relation, so the vicinities are transitively closed
        edges = [_random_mask(rng, p) for _ in range(N_POINTS)]
        gens = [[_reachable(edges, x)] for x in range(N_POINTS)]
    return gens


def _strictly_of_kind(kind: str, gens: list[list[int]]) -> bool:
    """True when the space is not also of a narrower kind, so that entries
    of different kinds never share a table."""
    vic = [_union(sets) for sets in gens]
    if kind == "convergence":
        # some point's vicinity lies in none of its generator sets
        return any(all(v & ~g for g in sets) for v, sets in zip(vic, gens))
    if kind == "pretopology":
        # the vicinities are not transitively closed
        return any(vic[y] & ~v for v in vic
                   for y in range(N_POINTS) if v >> y & 1)
    # neither the discrete nor the indiscrete topology
    return (any(v != 1 << x for x, v in enumerate(vic))
            and any(v != FULL for v in vic))


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def lim_doc(table: tuple[int, ...]) -> dict:
    return {"points": list(LABELS),
            "lim": {",".join(_labels(m)): _labels(table[m])
                    for m in range(1, FULL + 1)}}


def vicinity_doc(vicinities: list[int]) -> dict:
    return {"vicinity": {LABELS[x]: _labels(v)
                         for x, v in enumerate(vicinities)}}


def _target(rng: random.Random) -> tuple[int, ...]:
    lp = 0b01 | rng.getrandbits(1) << 1
    lq = 0b10 | rng.getrandbits(1)
    return (0, lp, lq, lp & lq & rng.getrandbits(2))


def _extras(rng: random.Random, table, source_text: str, pool_index, kind):
    mapping = [rng.randrange(2) for _ in range(N_POINTS)]
    if len(set(mapping)) == 1:
        mapping[rng.randrange(N_POINTS)] ^= 1
    tgt = _target(rng)
    tgt_doc = {"points": list(TARGET_LABELS),
               "lim": {"p": _labels(tgt[1], TARGET_LABELS),
                       "q": _labels(tgt[2], TARGET_LABELS),
                       "p,q": _labels(tgt[3], TARGET_LABELS)}}
    at = [_labels(rng.randrange(1, FULL + 1))
          for _ in range(rng.randint(1, 2))]
    return Query(
        pool_index=pool_index, kind=kind, table=table,
        source_text=source_text,
        target_text=json.dumps(tgt_doc),
        map_text=json.dumps({"map": {LABELS[i]: TARGET_LABELS[j]
                                     for i, j in enumerate(mapping)}}),
        mapping=tuple(mapping), target_table=tgt,
        closure_masks=(rng.randrange(1, FULL + 1), rng.randrange(1, FULL + 1)),
        at_text=json.dumps(at),
        relative_text=json.dumps([_labels(rng.randrange(1, FULL + 1))]),
        selector=rng.choice(SELECTORS))


def pool_entry(i: int) -> Query:
    """Well-formed pool entry ``i``, a function of ``i`` alone."""
    if not 0 <= i < POOL_SIZE:
        raise IndexError(i)
    rng = random.Random(f"wide-pool:{i}")
    kind = KINDS[i % len(KINDS)]
    density = (i // len(KINDS)) % DENSITY_BINS
    p = DENSITY_CAP[kind] * (density + rng.random()) / DENSITY_BINS
    while True:
        gens = _space(kind, rng, p)
        if _strictly_of_kind(kind, gens):
            break
    table = table_from_generators(gens)
    if kind == "pretopology":
        doc = vicinity_doc([g[0] for g in gens])
    else:
        doc = lim_doc(table)
    return _extras(rng, table, json.dumps(doc), i, kind)


def malformed(rng: random.Random, how: str) -> Query:
    """A document breaking the centered or the antitone axiom."""
    kind = rng.choice(KINDS)
    gens = _space(kind, rng, DENSITY_CAP[kind] * rng.random())
    x = rng.randrange(N_POINTS)
    if how == "vicinity-centered":
        vic = [g[0] for g in gens]
        vic[x] &= ~(1 << x)
        text = json.dumps(vicinity_doc(vic))
        table = ()
    else:
        table = list(table_from_generators(gens))
        if how == "lim-centered":
            table[1 << x] &= ~(1 << x)
        else:
            # lim of a two-point set gains a point outside one member's limit
            y = rng.choice([i for i in range(N_POINTS) if i != x])
            outside = [z for z in range(N_POINTS)
                       if not table[1 << x] >> z & 1]
            if not outside:
                table[1 << x] = 1 << x
                outside = [z for z in range(N_POINTS) if z != x]
            table[1 << x | 1 << y] |= 1 << rng.choice(outside)
        table = tuple(table)
        text = json.dumps(lim_doc(table))
    return _extras(rng, table, text, None, kind)


def pass_queries(seed: int, pass_index: int) -> list[Query]:
    """One pass: an entry from every pool stratum, plus one malformed
    document of each kind, in seeded order."""
    rng = random.Random(f"wide-pass:{seed}:{pass_index}")
    picks = [s + STRATA * rng.randrange(PER_STRATUM) for s in range(STRATA)]
    queries = [pool_entry(i) for i in picks]
    queries += [malformed(rng, how) for how in MALFORMED_KINDS]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# oracles (mask level; ``table`` is a limit table over n points)
# ---------------------------------------------------------------------------

def _by_lowest_bit(table, point_values, combine, empty):
    """out[m] = combine of point_values[x] over the points x of m."""
    out = [empty] * len(table)
    for m in range(1, len(table)):
        low = m & -m
        v = point_values[low.bit_length() - 1]
        out[m] = v if m == low else combine(out[m ^ low], v)
    return tuple(out)


def oracle_adherence(table) -> tuple[int, ...]:
    n = (len(table) - 1).bit_length()
    singles = [table[1 << x] for x in range(n)]
    return _by_lowest_bit(table, singles, int.__or__, 0)


def oracle_s0(table) -> tuple[int, ...]:
    n = (len(table) - 1).bit_length()
    singles = [table[1 << x] for x in range(n)]
    return _by_lowest_bit(table, singles, int.__and__, 0)


def vicinities(table) -> list[int]:
    n = (len(table) - 1).bit_length()
    vic = [0] * n
    for a in range(1, len(table)):
        for x in range(n):
            if table[a] >> x & 1:
                vic[x] |= a
    return vic


def oracle_opens(table) -> tuple[int, ...]:
    n = (len(table) - 1).bit_length()
    vic = vicinities(table)
    return tuple(o for o in range(len(table))
                 if all(vic[x] & ~o == 0 for x in range(n) if o >> x & 1))


def oracle_closure(opens, full: int, mask: int) -> int:
    union = 0
    for o in opens:
        if not o & mask:
            union |= o
    return full & ~union


def oracle_topologize(opens, n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    nbhd = [full] * n
    for o in opens:
        for x in range(n):
            if o >> x & 1:
                nbhd[x] &= o
    return (0,) + tuple(
        sum(1 << x for x in range(n) if a & ~nbhd[x] == 0)
        for a in range(1, full + 1))


def oracle_final(table, mapping, m: int) -> tuple[int, ...]:
    def image(a):
        out = 0
        for x, y in enumerate(mapping):
            if a >> x & 1:
                out |= 1 << y
        return out
    out = [0] * (1 << m)
    for a in range(1, len(table)):
        out[image(a)] |= image(table[a])
    return tuple(out)


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------

def digest_answer(report_flags: dict, compact: bool) -> str:
    """Classification flags in report order, then the compactness answer."""
    return "".join("1" if v else "0" for v in report_flags.values()) + (
        "1" if compact else "0")


def check_answer(q: Query, ans: dict, digest: dict) -> list[str]:
    """Mismatches between a well-formed query's answers and the oracles
    and recorded digest; an empty list means correct."""
    out = []
    table = q.table
    opens = oracle_opens(table)
    want = {
        "table": table,
        "adherence": oracle_adherence(table),
        "opens": opens,
        "closures": tuple(oracle_closure(opens, FULL, m)
                          for m in q.closure_masks),
        "s0": oracle_s0(table),
        "topologize": oracle_topologize(opens, N_POINTS),
        "final": oracle_final(table, q.mapping, len(TARGET_LABELS)),
    }
    for key, value in want.items():
        if ans[key] != value:
            out.append(f"{key} differs from the oracle")
    recorded = digest.get(str(q.pool_index))
    if recorded is None:
        out.append(f"no recorded answer for pool entry {q.pool_index}")
    elif ans["digest"] != recorded:
        out.append(f"classify/is_compact_at answer {ans['digest']} differs "
                   f"from the recorded {recorded}")
    return [f"pool entry {q.pool_index}: {m}" for m in out]
