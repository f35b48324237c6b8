"""Exhaustive generation of convergences, pretopologies, pseudotopologies
and topologies on small carriers, plus predicate-driven counterexample
search.

Enumeration strategy per class:

  convergence     per point, the downsets of the nonempty-subset poset
                  that contain the singleton (one downset = the sets whose
                  principal filter converges to the point); the space is
                  the product of independent per-point choices, and its
                  limit table is the transpose of the chosen downsets.
  pretopology     vicinity maps V(x) containing x; lim ^A = {x : A <= V(x)}
                  (spaces.pretopology_table).
  pseudotopology  same concrete parameterization: on a finite carrier a
                  pseudotopology is determined by its point-filter limits,
                  which is the vicinity data again.
  topology        brute force over open-set systems (the independent
                  oracle for the class counts).

Streams are duplicate-free and deterministically ordered: itertools.product
over the per-point choices, the last point varying fastest.  Caps are
n <= 3 for general convergences and n <= 4 for the other classes and for
seeded sampling, whose per-point downsets are found by a scan over
2^(2^n) candidates; carriers have 1 to 16 points.

Every search runs over one (map, source, target) stream built by
_contexts, or over the final convergences of topologies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

from .families import (
    MAX_CARRIER,
    CapExceeded,
    Carrier,
    CarrierMap,
    ValidationError,
    transpose,
)
from .spaces import Convergence, pretopology_table, topology_from_opens

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
        if self.klass not in CLASSES:
            raise ValidationError(
                [f"unknown class {self.klass!r}; choose from {CLASSES}"])


def default_carrier(n: int) -> Carrier:
    if not 1 <= n <= MAX_CARRIER:
        raise CapExceeded(f"carrier size {n} outside 1..{MAX_CARRIER}")
    return Carrier(tuple("abcdefghijklmnop"[:n]))


@lru_cache(maxsize=None)
def point_downsets(n: int, i: int) -> tuple[int, ...]:
    """Downsets of the nonempty-subset poset of an n-carrier containing the
    singleton of point i, encoded as bitsets over masks (bit m = mask m in
    the downset).  Ascending order."""
    full = (1 << n) - 1
    singleton = 1 << i
    out = []
    for cand in range(1 << (full + 1)):
        if not cand >> singleton & 1 or cand & 1:
            continue  # must contain {i}; bit 0 (the empty set) stays clear
        ok = True
        for m in range(1, full + 1):
            if cand >> m & 1:
                sub = (m - 1) & m
                while sub:
                    if not cand >> sub & 1:
                        ok = False
                        break
                    sub = (sub - 1) & m
                if not ok:
                    break
        if ok:
            out.append(cand)
    return tuple(out)


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


def all_pseudotopologies(carrier: Carrier) -> tuple[Convergence, ...]:
    """Finite carriers: pseudotopologies are exactly the pretopologies
    (point-filter limits determine both); same deterministic stream."""
    return all_pretopologies(carrier)


@lru_cache(maxsize=None)
def all_open_systems(carrier: Carrier) -> tuple[frozenset[int], ...]:
    """All open-set systems (families containing {} and X, closed under
    union and intersection), brute force over proper nonempty masks."""
    if carrier.size > PRETOPOLOGY_CAP:
        raise CapExceeded(
            f"topologies are enumerated up to n={PRETOPOLOGY_CAP}")
    full = carrier.full
    proper = [m for m in range(1, full)]
    out = []
    for pick in range(1 << len(proper)):
        opens = {0, full}
        for k, m in enumerate(proper):
            if pick >> k & 1:
                opens.add(m)
        if all(a | b in opens and a & b in opens
               for a in opens for b in opens):
            out.append(frozenset(opens))
    return tuple(out)


@lru_cache(maxsize=None)
def all_topologies(carrier: Carrier) -> tuple[Convergence, ...]:
    return tuple(topology_from_opens(carrier, opens)
                 for opens in all_open_systems(carrier))


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
        if spec.seed is None:
            raise ValidationError(["sampling needs a seed"])
        return sample_convergences(carrier, spec.count, spec.seed)
    if spec.klass == "convergence":
        return all_convergences(carrier)
    if spec.klass in ("pretopology", "pseudotopology"):
        return all_pretopologies(carrier)
    return all_topologies(carrier)


def count_spaces(spec: EnumerationSpec) -> int:
    return len(enumerate_spaces(spec))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def all_maps(source: Carrier, target: Carrier) -> tuple[CarrierMap, ...]:
    """All maps, ordered by mapping tuple read with the first point as the
    least significant digit."""
    out = []
    n, m = source.size, target.size
    for code in range(m ** n):
        mapping = []
        c = code
        for _ in range(n):
            mapping.append(c % m)
            c //= m
        out.append(CarrierMap(source, target, tuple(mapping)))
    return tuple(out)


def surjections(source: Carrier, target: Carrier) -> tuple[CarrierMap, ...]:
    """All surjections, in the order of all_maps."""
    return tuple(f for f in all_maps(source, target)
                 if len(set(f.mapping)) == target.size)


@dataclass(frozen=True, slots=True)
class SearchResult:
    predicate: str
    witness: dict | None
    examined: int

    @property
    def exhausted(self) -> bool:
        return self.witness is None


@dataclass(frozen=True, slots=True)
class SearchEntry:
    description: str
    candidates: Callable[[], Iterator]
    test: Callable[[object], bool]
    serialize: Callable[[object], dict]


def _contexts(maps, sources, targets):
    """Deterministic (map, source, target) stream factory: the maps
    outermost, the targets fastest."""
    from .maps import MapContext

    def gen():
        for f in maps:
            for xi in sources:
                for tau in targets:
                    yield MapContext(f, xi, tau)
    return gen


def _convergence_contexts(src_n: int, dst_n: int):
    """Every surjection of src_n onto dst_n points, between all
    convergences on either side."""
    src_c, dst_c = default_carrier(src_n), Carrier(tuple("pqrs"[:dst_n]))
    return _contexts(surjections(src_c, dst_c), all_convergences(src_c),
                     all_convergences(dst_c))


def _serialize_context(ctx) -> dict:
    from .io import convergence_to_doc
    return {
        "map": {lab: ctx.f(lab) for lab in ctx.f.source.labels},
        "source": convergence_to_doc(ctx.source),
        "target": convergence_to_doc(ctx.target),
    }


def _flag_test(want: dict[str, bool]) -> Callable:
    from .maps import classify

    def test(ctx) -> bool:
        report = classify(ctx)
        return all(getattr(report, k) == v for k, v in want.items())
    return test


def _topology_final_candidates(src_n: int, dst_n: int):
    from .maps import final_convergence

    src_c = default_carrier(src_n)
    dst_c = Carrier(tuple("pqrs"[:dst_n]))
    maps = surjections(src_c, dst_c)
    tops = all_topologies(src_c)

    def gen():
        for f in maps:
            for xi in tops:
                yield (f, xi, final_convergence(f, xi))
    return gen


def _final_not_topology(cand) -> bool:
    from .functors import is_topology
    return not is_topology(cand[2])


def _serialize_final(cand) -> dict:
    from .io import convergence_to_doc
    f, xi, fxi = cand
    return {
        "map": {lab: f(lab) for lab in f.source.labels},
        "source": convergence_to_doc(xi),
        "final": convergence_to_doc(fxi),
    }


def _closed_image_candidates():
    from .maps import continuous
    gen0 = _convergence_contexts(3, 2)

    def gen():
        for ctx in gen0():
            if continuous(ctx):
                yield ctx
    return gen


def _closed_image_not_closed(ctx) -> bool:
    from .spaces import closed_masks
    closed_t = set(closed_masks(ctx.target))
    return any(ctx.f.image_mask(c) not in closed_t
               for c in closed_masks(ctx.source))


PREDICATES: dict[str, SearchEntry] = {}


def _register_flag_predicate(name: str, description: str,
                             want: dict[str, bool],
                             src_n: int = 3, dst_n: int = 2):
    PREDICATES[name] = SearchEntry(
        description, _convergence_contexts(src_n, dst_n),
        _flag_test(want), _serialize_context)


# Bijections over (pretopology, topology) pairs: the home of the
# quotient-but-not-hereditarily-quotient pattern.  On a 2-point target the
# two classes provably coincide (a 2-point pretopology is a topology and
# openness is a pretopological invariant), so the hunt needs equal 3-point
# carriers.
_ABC = default_carrier(3)
PREDICATES["quotient_not_hereditarily_quotient"] = SearchEntry(
    "quotient surjection that is not hereditarily quotient",
    _contexts([f for f in surjections(_ABC, _ABC) if f.is_bijective()],
              all_pretopologies(_ABC), all_topologies(_ABC)),
    _flag_test({"quotient": True, "hereditarily_quotient": False}),
    _serialize_context)
_register_flag_predicate(
    "closed_not_adherent",
    "closed surjection that is not adherent",
    {"closed": True, "adherent": False})
_register_flag_predicate(
    "quotient_not_closed",
    "quotient surjection that is not closed",
    {"quotient": True, "closed": False})
_register_flag_predicate(
    "almost_open_not_open",
    "almost open surjection that is not open",
    {"almost_open": True, "open": False})
_register_flag_predicate(
    "biquotient_not_almost_open",
    "biquotient surjection that is not almost open",
    {"biquotient": True, "almost_open": False})
_register_flag_predicate(
    "biquotient_not_perfect",
    "biquotient surjection that is not perfect",
    {"biquotient": True, "perfect": False})
_register_flag_predicate(
    "hereditarily_quotient_not_biquotient",
    "collapses at finite scale: expected exhausted",
    {"hereditarily_quotient": True, "biquotient": False}, src_n=2, dst_n=2)
_register_flag_predicate(
    "perfect_not_closed",
    "impossible by the implication ladder: expected exhausted",
    {"perfect": True, "closed": False}, src_n=2, dst_n=2)

PREDICATES["topology_final_not_topology"] = SearchEntry(
    "topology whose final convergence is not a topology (4 -> 3)",
    _topology_final_candidates(4, 3), _final_not_topology, _serialize_final)
PREDICATES["topology_final_not_topology_3to2"] = SearchEntry(
    "same hunt at 3 -> 2; provably exhausted (2-point pretopologies are "
    "topologies and finality onto 2 points preserves pretopologies)",
    _topology_final_candidates(3, 2), _final_not_topology, _serialize_final)
PREDICATES["continuous_image_of_closed_not_closed"] = SearchEntry(
    "continuous surjection and a closed set with non-closed image",
    _closed_image_candidates(), _closed_image_not_closed, _serialize_context)


@dataclass(frozen=True, slots=True)
class SearchTask:
    predicate: str
    limit: int | None = None

    def __post_init__(self):
        if self.predicate not in PREDICATES:
            raise ValidationError(
                [f"unknown predicate {self.predicate!r}; "
                 f"choose from {sorted(PREDICATES)}"])


def search(task: SearchTask) -> SearchResult:
    """First witness in the deterministic candidate order, or exhaustion
    with the number of examined candidates."""
    entry = PREDICATES[task.predicate]
    examined = 0
    for cand in entry.candidates():
        examined += 1
        if entry.test(cand):
            return SearchResult(task.predicate, entry.serialize(cand), examined)
        if task.limit is not None and examined >= task.limit:
            break
    return SearchResult(task.predicate, None, examined)
