"""Exhaustive generation of convergences, pretopologies, pseudotopologies
and topologies on small carriers, the named sweep and search domains built
from them, and predicate-driven counterexample search.

Enumeration strategy per class:

  convergence     per point, the downsets of the nonempty-subset poset
                  that contain the singleton (one downset = the sets whose
                  principal filter converges to the point); the space is
                  the product of independent per-point choices, and its
                  limit table is the transpose of the chosen downsets.
  pretopology     vicinity maps V(x) containing x; lim ^A = {x : A <= V(x)}
                  (spaces.pretopology_table).
  pseudotopology  on a finite carrier a pseudotopology is determined by its
                  point-filter limits, which is the vicinity data again:
                  the pretopology stream.
  topology        brute force over open-set systems (the independent
                  oracle for the class counts), one generator; the cached
                  tuple all_topologies is that generator read to the end.

Streams are duplicate-free and deterministically ordered: itertools.product
over the per-point choices, the last point varying fastest.  Caps are
n <= 3 for general convergences and n <= 4 for the other classes and for
seeded sampling, whose per-point downsets are generated mask by mask
(point_downsets); carriers have 1 to 16 points.  SpaceUniverse numbers
the convergences on one carrier in that order, so a table's number is its
mixed-radix position over the per-point choices.

A domain is the (maps, sources, targets) triple that a law sweep or a
search runs over; domain(name) builds each named one from the cached
universes, and the targets of a domain live on target_carrier.  Nothing is
built at import: each search stream builds its domain when it is first
read, so a command pays only for the universes it uses.

A search reads its candidates in chunks (f, xi, cands, data), in search
order.  A chunk's test is a bitset over its cands and the witness is the
lowest hit bit, so examined and exhausted follow by arithmetic.  A flag
search reads the classification kernel as the law sweep does: the targets
of its domain form one maps.TargetUniverse, and each (map, source) pair
builds one MapFacts and runs map_flags once, one chunk whose cands are the
targets and whose data are their flag bitsets, so no context is built or
classified on its own.  The closed-image hunt reads the same pairs cut to
their continuous targets; the topology-final hunts take one candidate per
chunk and generate each map's topologies afresh.  A route disagreement
raises InvariantViolation (exit code 3) when its pair is decided, so also
at a target that follows the witness in that pair.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import lshift
from typing import Callable, Iterator

from .families import (
    MAX_CARRIER,
    CapExceeded,
    Carrier,
    CarrierMap,
    InvariantViolation,
    ValidationError,
    bits_of,
    transpose,
)
from .spaces import (
    Convergence,
    closed_masks,
    pretopology_table,
    topology_from_opens,
)

CONVERGENCE_CAP = 3
PRETOPOLOGY_CAP = 4
SAMPLING_CAP = 4

CLASSES = ("convergence", "pseudotopology", "pretopology", "topology")


@dataclass(frozen=True, slots=True)
class EnumerationSpec:
    size: int
    klass: str
    seed: int | None = None
    count: int | None = None

    def __post_init__(self):
        # seeded sampling draws convergences, from a seed, count many
        count = self.count
        problems = [problem for broken, problem in (
            (self.klass not in CLASSES,
             f"unknown class {self.klass!r}; choose from {CLASSES}"),
            (count is not None and count < 0,
             f"enumeration count must not be negative, got {count}"),
            (count is not None and self.klass != "convergence",
             f"only convergences are sampled, not the class {self.klass!r}"),
            (count is not None and self.seed is None, "sampling needs a seed"),
            (count is None and self.seed is not None, "a seed needs a count"),
        ) if broken]
        if problems:
            raise ValidationError(problems)


def default_carrier(n: int) -> Carrier:
    if not 1 <= n <= MAX_CARRIER:
        raise CapExceeded(f"carrier size {n} outside 1..{MAX_CARRIER}")
    return Carrier(tuple("abcdefghijklmnop"[:n]))


def target_carrier(n: int) -> Carrier:
    """The target carrier p, q, r, s of the sweep and search domains, cut
    to n points."""
    if not 1 <= n <= 4:
        raise CapExceeded(f"target carrier size {n} outside 1..4")
    return Carrier(tuple("pqrs"[:n]))


@lru_cache(maxsize=None)
def point_downsets(n: int, i: int) -> tuple[int, ...]:
    """Downsets of the nonempty-subset poset of an n-carrier containing the
    singleton of point i, encoded as bitsets over masks (bit m = mask m in
    the downset), ascending.  The masks are decided in ascending order: m
    joins only once every set it covers (m minus one point) has joined, and
    {i} always joins; bit 0 (the empty set) stays clear."""
    downs = [0]
    for m in range(1, 1 << n):
        covered = [m & ~(1 << j) for j in bits_of(m) if m != 1 << j]
        grown = [] if m == 1 << i else list(downs)  # m stays out
        grown += [down | 1 << m for down in downs
                  if all(down >> c & 1 for c in covered)]
        downs = grown
    return tuple(sorted(downs))


def _conv_from_downsets(carrier: Carrier, choice: tuple[int, ...]) -> Convergence:
    """lim ^A holds the points whose chosen downset contains A."""
    return Convergence(carrier, transpose(choice, carrier.full + 1))


@lru_cache(maxsize=None)
def all_convergences(carrier: Carrier) -> tuple[Convergence, ...]:
    if carrier.size > CONVERGENCE_CAP:
        raise CapExceeded(
            f"general convergences are enumerated up to n={CONVERGENCE_CAP}")
    downsets = [point_downsets(carrier.size, i) for i in carrier.points()]
    return tuple(_conv_from_downsets(carrier, choice)
                 for choice in product(*downsets))


class SpaceUniverse:
    """The convergences on one carrier, numbered in all_convergences order.

    A table's number is its mixed-radix position in the product of the
    per-point downsets, read off its columns without hashing the table.
    reflections(h) numbers h's image of every space, built on first request
    and held by this universe alone."""

    __slots__ = ("carrier", "spaces", "_spread", "_place", "_reflections")

    def __init__(self, carrier: Carrier):
        self.carrier = carrier
        self.spaces = all_convergences(carrier)
        width = carrier.full + 1
        # limit value -> its bit i moved to bit i * width: summed over the
        # table shifted by mask, these give the columns side by side
        self._spread = tuple(sum(1 << i * width for i in bits_of(v))
                             for v in range(width))
        self._place = []  # per point: downset -> its share of the number
        weight = 1
        for i in reversed(carrier.points()):
            downs = point_downsets(carrier.size, i)
            self._place.append({d: k * weight for k, d in enumerate(downs)})
            weight *= len(downs)
        self._place.reverse()
        self._reflections = {}

    def index(self, table: tuple[int, ...]) -> int | None:
        """The number of the space with this limit table; None when no
        convergence on the carrier has it."""
        width = self.carrier.full + 1
        if len(table) != width or min(table) < 0 or max(table) >= width:
            return None
        columns = sum(map(lshift, map(self._spread.__getitem__, table),
                          range(width)))
        number = 0
        for place in self._place:
            share = place.get(columns & ~(-1 << width))
            if share is None:
                return None
            number += share
            columns >>= width
        return number

    def reflections(self, h) -> array:
        """of[i]: the number of h(spaces[i]) for the functor handle h;
        InvariantViolation when h leaves the convergences on the carrier.
        Each distinct image table is numbered once per call."""
        if h not in self._reflections:
            of = array("H")
            numbers = {}  # image table -> its number, for this call
            for i, conv in enumerate(self.spaces):
                table = h(conv).table
                # a fixed point keeps its own number
                j = i if table == conv.table else numbers.get(table)
                if j is None:
                    j = numbers[table] = self.index(table)
                    if j is None:
                        raise InvariantViolation(
                            f"{h.tag} sends {conv!r} outside the "
                            f"convergences on {self.carrier.size} points")
                of.append(j)
            self._reflections[h] = of
        return self._reflections[h]


@lru_cache(maxsize=None)
def all_pretopologies(carrier: Carrier) -> tuple[Convergence, ...]:
    if carrier.size > PRETOPOLOGY_CAP:
        raise CapExceeded(
            f"pretopologies are enumerated up to n={PRETOPOLOGY_CAP}")
    vmask_options = [
        [v for v in range(carrier.full + 1) if v >> i & 1]
        for i in carrier.points()]
    return tuple(Convergence(carrier, pretopology_table(vmasks))
                 for vmasks in product(*vmask_options))


def topologies(carrier: Carrier) -> Iterator[Convergence]:
    """The topologies, one per open-set system (a family containing {} and
    X, closed under union and intersection), by brute force over the
    families of proper nonempty masks."""
    if carrier.size > PRETOPOLOGY_CAP:
        raise CapExceeded(
            f"topologies are enumerated up to n={PRETOPOLOGY_CAP}")
    full = carrier.full
    proper = [m for m in range(1, full)]
    for pick in range(1 << len(proper)):
        opens = {0, full}
        for k, m in enumerate(proper):
            if pick >> k & 1:
                opens.add(m)
        if all(a | b in opens and a & b in opens
               for a in opens for b in opens):
            yield topology_from_opens(carrier, opens)


@lru_cache(maxsize=None)
def all_topologies(carrier: Carrier) -> tuple[Convergence, ...]:
    return tuple(topologies(carrier))


def random_convergence(carrier: Carrier, rng: random.Random) -> Convergence:
    """A uniformly seeded (not uniformly distributed) valid table: random
    per-point downsets."""
    n = carrier.size
    if n > SAMPLING_CAP:
        raise CapExceeded(
            f"convergences are sampled up to n={SAMPLING_CAP}")
    choice = []
    for i in carrier.points():
        options = point_downsets(n, i)
        choice.append(options[rng.randrange(len(options))])
    return _conv_from_downsets(carrier, tuple(choice))


def sample_convergences(carrier: Carrier, count: int,
                        seed: int) -> tuple[Convergence, ...]:
    rng = random.Random(seed)
    return tuple(random_convergence(carrier, rng) for _ in range(count))


def enumerate_spaces(spec: EnumerationSpec) -> tuple[Convergence, ...]:
    """Materialize the stream: the seeded sample, or the class universe."""
    carrier = default_carrier(spec.size)
    if spec.count is not None:
        return sample_convergences(carrier, spec.count, spec.seed)
    if spec.klass == "convergence":
        return all_convergences(carrier)
    if spec.klass in ("pretopology", "pseudotopology"):
        return all_pretopologies(carrier)
    return all_topologies(carrier)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def all_maps(source: Carrier, target: Carrier) -> tuple[CarrierMap, ...]:
    """All maps, ordered by mapping tuple read with the first point as the
    least significant digit."""
    return tuple(
        CarrierMap(source, target, tuple(reversed(p)))
        for p in product(range(target.size), repeat=source.size))


def surjections(source: Carrier, target: Carrier) -> tuple[CarrierMap, ...]:
    """All surjections, in the order of all_maps."""
    return tuple(f for f in all_maps(source, target)
                 if len(set(f.mapping)) == target.size)


DOMAINS = ("2to2", "3to2", "3to3 pretopologies",
           "3to3 pretopologies onto topologies", "3to3 sampled")


def domain(name: str) -> tuple[tuple[CarrierMap, ...],
                               tuple[Convergence, ...],
                               tuple[Convergence, ...]]:
    """(maps, sources, targets) of a named domain, built on each call from
    the cached universes:

      2to2, 3to2      the surjections of 2 or 3 points onto 2, all
                      convergences on both sides
      3to3 pretopologies
                      the bijections of a, b, c, pretopologies on both sides
      3to3 pretopologies onto topologies
                      the same bijections, onto topologies
      3to3 sampled    the same bijections, 200 sources sampled from seed 0
                      and 20 targets from seed 1
    """
    if name not in DOMAINS:
        raise ValidationError(
            [f"unknown domain {name!r}; choose from {DOMAINS}"])
    if name in ("2to2", "3to2"):
        src, dst = default_carrier(int(name[0])), target_carrier(2)
        return (surjections(src, dst), all_convergences(src),
                all_convergences(dst))
    c3 = default_carrier(3)
    bijections = tuple(f for f in surjections(c3, c3) if f.is_bijective())
    if name == "3to3 sampled":
        return (bijections, sample_convergences(c3, 200, 0),
                sample_convergences(c3, 20, 1))
    targets = (all_topologies(c3) if name.endswith("onto topologies")
               else all_pretopologies(c3))
    return bijections, all_pretopologies(c3), targets


@dataclass(frozen=True, slots=True)
class SearchResult:
    predicate: str
    witness: dict | None
    examined: int
    exhausted: bool  # the stream ran out without a witness


@dataclass(frozen=True, slots=True)
class SearchEntry:
    """A hunt over chunks (f, xi, cands, data) in search order: test(chunk)
    is the bitset of the cands that witness, serialize(chunk, i) the
    document of cands[i]; exhausts says that no candidate witnesses."""
    exhausts: bool
    candidates: Callable[[], Iterator[tuple]]
    test: Callable[[tuple], int]
    serialize: Callable[[tuple, int], dict]


def _pairs(domain_name: str):
    """Factory of the chunks of a named domain, one per (map, source) pair,
    built when the stream is first read: the maps outermost, the cands the
    domain's targets and data their flags, which the classification kernel
    decides once per pair over all targets, as the law sweep does."""
    from .maps import MapFacts, TargetUniverse, map_flags

    def gen():
        maps, sources, targets = domain(domain_name)
        universe = TargetUniverse(targets)
        for f in maps:
            for xi in sources:
                yield f, xi, targets, map_flags(MapFacts(f, xi, universe),
                                                universe)
    return gen


def _flags_match(want: dict[str, bool]):
    """The test of the targets whose flags have the wanted values."""
    def test(chunk) -> int:
        hits = (1 << len(chunk[2])) - 1
        for k, v in want.items():
            hits &= chunk[3][k] if v else ~chunk[3][k]
        return hits
    return test


def _serializer(key: str):
    """The document of cands[i]: the map, the source and cands[i] as key."""
    def serialize(chunk, i: int) -> dict:
        from .io import convergence_to_doc
        f, xi, cands, _ = chunk
        return {"map": {lab: f(lab) for lab in f.source.labels},
                "source": convergence_to_doc(xi),
                key: convergence_to_doc(cands[i])}
    return serialize


def _topology_finals(src_n: int, dst_n: int):
    """Factory of the chunks (f, topology, (final convergence,), None); the
    topologies are generated afresh for each map, so a hunt that stops
    early builds only the topologies it examines."""
    from .maps import final_convergence

    def gen():
        src_c = default_carrier(src_n)
        for f in surjections(src_c, target_carrier(dst_n)):
            for xi in topologies(src_c):
                yield f, xi, (final_convergence(f, xi),), None
    return gen


def _final_not_topology(chunk) -> int:
    from .functors import is_topology
    return not is_topology(chunk[2][0])


def _continuous_3to2():
    """Factory of the 3to2 chunks cut to their continuous targets, if any."""
    pairs = _pairs("3to2")

    def gen():
        for f, xi, targets, flags in pairs():
            cands = tuple(targets[k] for k in bits_of(flags["continuous"]))
            if cands:
                yield f, xi, cands, None
    return gen


def _closed_image_not_closed(chunk) -> int:
    f, xi, cands, _ = chunk
    images = {f.image_mask(c) for c in closed_masks(xi)}
    return sum(1 << k for k, tau in enumerate(cands)
               if not images <= set(closed_masks(tau)))


# (exhausts, domain, wanted flags) of every search over the kernel's flags.
# The quotient-but-not-hereditarily-quotient pattern needs equal 3-point
# carriers: on a 2-point target the two classes provably coincide (a
# 2-point pretopology is a topology and openness is a pretopological
# invariant).
_FLAG_PREDICATES = {
    "quotient_not_hereditarily_quotient": (
        False, "3to3 pretopologies onto topologies",
        {"quotient": True, "hereditarily_quotient": False}),
    "closed_not_adherent": (
        False, "3to2", {"closed": True, "adherent": False}),
    "quotient_not_closed": (
        False, "3to2", {"quotient": True, "closed": False}),
    "almost_open_not_open": (
        False, "3to2", {"almost_open": True, "open": False}),
    "biquotient_not_almost_open": (
        False, "3to2", {"biquotient": True, "almost_open": False}),
    "biquotient_not_perfect": (
        False, "3to2", {"biquotient": True, "perfect": False}),
    # collapses at finite scale
    "hereditarily_quotient_not_biquotient": (
        True, "2to2", {"hereditarily_quotient": True, "biquotient": False}),
    # impossible by the implication ladder
    "perfect_not_closed": (
        True, "2to2", {"perfect": True, "closed": False}),
}

PREDICATES: dict[str, SearchEntry] = {
    name: SearchEntry(exhausts, _pairs(domain_name), _flags_match(want),
                      _serializer("target"))
    for name, (exhausts, domain_name, want) in _FLAG_PREDICATES.items()}
# a topology whose final convergence is not a topology, 4 -> 3
PREDICATES["topology_final_not_topology"] = SearchEntry(
    False, _topology_finals(4, 3), _final_not_topology, _serializer("final"))
# the same hunt at 3 -> 2 exhausts: 2-point pretopologies are topologies,
# and finality onto 2 points preserves pretopologies
PREDICATES["topology_final_not_topology_3to2"] = SearchEntry(
    True, _topology_finals(3, 2), _final_not_topology, _serializer("final"))
# a continuous surjection and a closed set with a non-closed image
PREDICATES["continuous_image_of_closed_not_closed"] = SearchEntry(
    False, _continuous_3to2(), _closed_image_not_closed,
    _serializer("target"))


@dataclass(frozen=True, slots=True)
class SearchTask:
    predicate: str
    limit: int | None = None

    def __post_init__(self):
        if self.predicate not in PREDICATES:
            raise ValidationError(
                [f"unknown predicate {self.predicate!r}; "
                 f"choose from {sorted(PREDICATES)}"])
        if self.limit is not None and self.limit < 1:
            raise ValidationError(
                [f"search limit must be at least 1, got {self.limit}"])


def search(task: SearchTask) -> SearchResult:
    """First witness in the deterministic candidate order, or none with the
    number of examined candidates; exhausted when no candidate is left, so
    a search cut at its limit is not.  Each chunk is tested at once, and
    only its candidates up to the limit count."""
    entry, cap = PREDICATES[task.predicate], task.limit or math.inf
    examined = 0
    for chunk in entry.candidates():
        if examined == cap:  # a candidate is left past the limit
            return SearchResult(task.predicate, None, examined, False)
        room = min(len(chunk[2]), cap - examined)
        hits = entry.test(chunk) & ((1 << room) - 1)
        if hits:
            i = (hits & -hits).bit_length() - 1
            return SearchResult(task.predicate, entry.serialize(chunk, i),
                                examined + i + 1, False)
        examined += len(chunk[2])
        if examined > cap:  # the limit cut the chunk
            break
    return SearchResult(task.predicate, None, min(examined, cap),
                        examined <= cap)
