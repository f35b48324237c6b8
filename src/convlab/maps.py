"""Continuity, initial/final convergences, and classification of surjections
into quotient-like and perfect-like classes.

Classification has one kernel.  MapFacts is the one record of a (map,
source) pair: what the routes read of it that does not depend on the
target, the pushed adherence f(adh ^A) built once per pair, and the rest,
with each flag that needs no class route, one record per key in the
universe's per-map memo (MapFacts lists the kernel's three kinds of
record; laws.sweep_domain lists its own).  The keys are made of three
tables: the source adherence, and the lift table and pushed limits, which
lift_keys builds for every source of a map after checking the map once;
pair_keys gives all three for one pair.  lift_record reads the record of
a lift table.  map_flags adds the class verdicts with their route faults
per (source adherence, final convergence), and builds the filter classes,
reflections, cover-route triggers and routes only where it misses that
entry.  Each route is a tuple of (k, bad) constraints that hold when
table[k] & bad == 0 on a target table.

The targets enter as a TargetUniverse: a tuple of targets on one carrier,
with bitsets over it (bit i stands for targets[i]).  meets(kind, k, m) is
the bitset of targets whose lim / adh / S0 / T table (or its complement)
has an entry k meeting m: entry m of one row per (kind, k), the
union_table of the per-point columns, so a route over a whole universe is
an OR of a few row lookups.  map_flags decides the twelve flags of one
(map, source) pair for every target at once, as bitsets, and route
agreement is equality of bitsets; on a disagreement the lowest differing
bit names the first failing target.
classify, the is_* predicates and the law sweep all call it: classify is
the one-target case, so each route exists once; quotient_decider answers
is_quotient_like for every selector off one record.  As f is J-quotient iff
tau >= J(fxi), the reflector route reads the source only through fxi, the
other class routes through its adherence and closed sets, and the closed
sets are fixed by the singleton limits, which the adherence table holds (C
is closed iff lim ^{c} lies in C for every c in C, as lim ^A lies in
lim ^{a}), so (adh_s, fxi.table) keys the class verdicts.  The law sweep
keeps its own per-map forms in the same memo.

Each inverse-continuity class is decided through independent routes that
must agree bit-for-bit; a disagreement raises InvariantViolation:

  quotient-like (per selector class of filters on the target):
    (a) the adherence form, fiberwise:   y in adh ^H on the target implies
        the fiber of y meets adh ^(f^-H) on the source;
    (b) the reflector form:              target >= H(final convergence);
    (c) the cover form through inherence duality.

  perfect-like (per selector class of filters on the source):
    (a) adh f[^G] on the target is inside the image of adh ^G;
    (b) the cover form through inherence duality.

  almost open: target >= final convergence, whose exact-image form the
  law sweep compares with final_convergence_scan once per (map, source).

Not every comparison can fail.  Both cover forms restate their adherence
forms: the perfect cover constraints are the grouped perfect adherence
constraints by construction (a fiber misses adh ^G exactly off f(adh ^G)),
and the quotient cover constraints, OR-ed per entry k, equal the quotient
adherence constraints on every (map, source, class) of the sweep domains.
So the reflector form against the adherence form is the only quotient
comparison that can fail, and the perfect comparison cannot.

The blunt preimage inclusion f^-(adh ^H) <= adh ^(f^-H) is deliberately
NOT the implemented quotient test: it demands the whole fiber, not a fiber
point, and is strictly stronger than (b) on non-topological instances (a
stored regression fixture exhibits the gap).  The fiberwise reading is the
one the three routes and the compactness characterizations all agree on.

Class conventions: the quotient ladder reads its closed-set class on the
final convergence (H is in the class iff H is fxi-closed, equivalently its
preimage is xi-closed); the perfect ladder reads closedness on the source.

The finite collapse is decided once, in functors: F0, F1 and F_ALL
enumerate the same principal bases and share one reflection, checked in the
law sweep against the literal reflect_by_steps.  map_flags therefore runs
each ladder twice, for the principal class and for the closed class; the
principal result is the biquotient, countably biquotient and hereditarily
quotient flag (the perfect, countably perfect and adherent flag).

classification_witnesses reads its witnesses off the one MapFacts record
that decides its report: each is the first constraint of the flag's route
that the target breaks.  continuous() and graph_closed() keep their own
loops, which their witnesses reuse: the first accepts maps that are not
surjective, the second any relation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Iterator, NamedTuple

from .families import (
    Carrier,
    CarrierMap,
    CarrierMismatch,
    FiniteRelation,
    InvariantViolation,
    NotSurjective,
    ValidationError,
    bits_of,
    popcount,
    transpose,
    union_table,
)
from .functors import (
    FunctorHandle,
    Selector,
    class_filter_masks,
    pretopologize,
    reflect,
    topologize,
)
from .spaces import (
    Convergence,
    adherence_table,
    closed_masks,
    finer,
    open_masks,
    product,
)


@dataclass(frozen=True, slots=True)
class MapContext:
    f: CarrierMap
    source: Convergence
    target: Convergence

    def __post_init__(self):
        if (self.f.source != self.source.carrier
                or self.f.target != self.target.carrier):
            raise CarrierMismatch("map endpoints do not match the spaces")

    def require_surjective(self):
        if not self.f.is_surjective():
            raise NotSurjective("classification is defined for surjections")


def identity_map(carrier: Carrier) -> CarrierMap:
    return CarrierMap(carrier, carrier, tuple(carrier.points()))


def _continuity_violation(ctx: MapContext) -> int:
    """The first nonempty A, in mask order, with f(lim ^A) not inside
    lim ^f(A) (any map, surjective or not); 0 if there is none."""
    f, src, dst = ctx.f, ctx.source, ctx.target
    return next((
        a for a in range(1, src.carrier.full + 1)
        if f.image_mask(src.table[a]) & ~dst.table[f.image_mask(a)]), 0)


def continuous(ctx: MapContext) -> bool:
    return not _continuity_violation(ctx)


def initial_convergence(f: CarrierMap, tau: Convergence) -> Convergence:
    """Coarsest convergence on the source making f continuous:
    x in lim ^A iff f(x) in lim ^f(A)."""
    if f.target != tau.carrier:
        raise CarrierMismatch("initial convergence needs tau on the target")
    carrier = f.source
    table = [0] * (carrier.full + 1)
    for a in range(1, carrier.full + 1):
        table[a] = f.preimage_mask(tau.table[f.image_mask(a)])
    return Convergence(carrier, tuple(table))


def _require_surjection(f: CarrierMap, sources) -> None:
    """Raise unless f is a surjection from the carrier of every source."""
    for xi in sources:
        if xi.carrier is not f.source and xi.carrier != f.source:
            raise CarrierMismatch("final convergence needs xi on the source")
    if not f.is_surjective():
        raise NotSurjective("the final convergence needs a surjection")


def _lift_table(img: tuple, full_t: int, table: tuple) -> tuple:
    """The one lift loop, which lift_keys, pair_keys and final_convergence
    run: lifts[B], the points in lim ^A for some A with f(A) = B, where
    table is the limit table and img the image table of the surjection f."""
    lifts = [0] * (full_t + 1)
    for a in range(1, len(img)):
        lifts[img[a]] |= table[a]
    return tuple(lifts)


def lift_keys(f: CarrierMap, sources) -> Iterator[tuple]:
    """(lifts, lims) for each source xi of the surjection f, one source at
    a time: the lift table (_lift_table) and the pushed limits
    lims[A] = f(lim ^A).  f and the carriers of the sources are checked
    once, on the call."""
    _require_surjection(f, sources)
    img, full_t = f.image_table, f.target.full
    return ((_lift_table(img, full_t, xi.table),
             tuple(map(img.__getitem__, xi.table))) for xi in sources)


def pair_keys(f: CarrierMap, xi: Convergence) -> tuple:
    """The three tables through which the per-map memo reads the pair of the
    surjection f and the source xi: the source adherence adh_s, and the
    lift table lifts and pushed limits lims that lift_keys gives."""
    _require_surjection(f, (xi,))
    img = f.image_table
    return (adherence_table(xi), _lift_table(img, f.target.full, xi.table),
            tuple(map(img.__getitem__, xi.table)))


def final_convergence(f: CarrierMap, xi: Convergence) -> Convergence:
    """Finest convergence on the target making f continuous, in the
    exact-image form: lim ^B = union of f(lim ^A) over A with f(A) = B.
    It equals the antitone closure over A with f(A) >= B
    (final_convergence_scan): for surjective f, such an A shrinks to
    A & f^-B, whose image is B and whose limits include those of A;
    surjectivity also makes it centered."""
    _require_surjection(f, (xi,))
    img = f.image_table
    lifts = _lift_table(img, f.target.full, xi.table)
    return Convergence(f.target, tuple(img[x] for x in lifts))


def final_convergence_scan(f: CarrierMap, xi: Convergence) -> Convergence:
    """The final convergence of a surjection as the literal antitone
    closure, O(2^|X| * 2^|Y|): lim ^B = union of f(lim ^A) over A with
    f(A) >= B.  The law sweep's oracle for final_convergence."""
    carrier, img = f.target, f.image_table
    table = [0] * (carrier.full + 1)
    imgs = [(img[a], img[xi.table[a]]) for a in range(1, xi.carrier.full + 1)]
    for b in range(1, carrier.full + 1):
        acc = 0
        for ia, il in imgs:
            if b & ~ia == 0:
                acc |= il
        table[b] = acc
    return Convergence(carrier, tuple(table))


# ---------------------------------------------------------------------------
# the classification kernel
# ---------------------------------------------------------------------------

class _Routes(NamedTuple):
    """Constraints of the quotient and perfect routes for one filter class;
    each is a tuple of (k, bad) pairs that hold when table[k] & bad == 0."""

    quotient_adh: tuple    # on adh_t, per class filter ^H on the target
    quotient_refl: tuple   # on lim_t, against the reflected final convergence
    quotient_cover: tuple  # on adh_t, per complement of an image family
    perfect_adh: tuple     # on adh_t, per image f(G) of a class filter ^G
    perfect_cover: tuple   # on adh_t, per image f(G), from the fibers


def _forbidden(allowed, full: int) -> tuple:
    """(k, full minus allowed) for each (k, allowed), vacuous ones dropped."""
    return tuple((k, bad) for k, ok in allowed if (bad := full & ~ok))


def _first_breach(table, constraints) -> tuple[int, int]:
    """The first (k, bad) constraint that the table breaks, as (k,
    table[k] & bad); (0, 0) if it breaks none."""
    return next(((k, table[k] & bad) for k, bad in constraints
                 if table[k] & bad), (0, 0))


def _complement(table_of):
    def complement(tau):
        full = tau.carrier.full
        return [full & ~v for v in table_of(tau)]
    return complement


# target-side tables by kind; a co_ kind holds the entrywise complements, so
# that entry k meets m exactly where m is not inside the table's entry k
_TABLES = {
    "lim": lambda tau: tau.table,
    "adh": adherence_table,
    "s0": lambda tau: pretopologize(tau).table,
    "t": lambda tau: topologize(tau).table,
}
_TABLES.update({"co_" + kind: _complement(table_of)
                for kind, table_of in list(_TABLES.items())})


class TargetUniverse:
    """Targets on one carrier, numbered by position; a bitset over the
    universe holds one fact for every target at once (bit i: targets[i]).

    meets(kind, k, m) is the set of targets whose table entry k meets the
    mask m: entry m of the (kind, k) row, the union_table of the per-point
    columns (column y: the targets whose entry k holds y), built on the
    first question about (kind, k); holding ORs those entries.  A row has
    an entry per mask of the carrier, so a one-target universe, which has
    nothing to share, tests the entry directly instead.  memoized keeps,
    for one map at a time, what the map decides over the universe."""

    __slots__ = ("targets", "full", "_tables", "_rows", "_map", "_per_map")

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.full = (1 << len(self.targets)) - 1
        self._tables: dict[str, list] = {}
        self._rows: dict[str, list] = {}
        self._map: CarrierMap | None = None
        self._per_map: dict = {}

    def memoized(self, f: CarrierMap, key, build):
        """build() once per key while f is the map at hand; a new map drops
        the entries.  Callers tag their keys apart."""
        if f is not self._map:
            self._map, self._per_map = f, {}
        got = self._per_map.get(key)
        if got is None:
            got = self._per_map[key] = build()
        return got

    def tables(self, kind: str) -> list:
        """The kind's table of every target, in target order."""
        got = self._tables.get(kind)
        if got is None:
            got = self._tables[kind] = [_TABLES[kind](t) for t in self.targets]
        return got

    def meets(self, kind: str, k: int, m: int) -> int:
        return self.full & ~self.holding(kind, ((k, m),))

    def holding(self, kind: str, constraints) -> int:
        """The targets meeting every (k, bad) constraint: table[k] & bad
        == 0 for each."""
        full, tables = self.full, self._tables.get(kind) or self.tables(kind)
        if full <= 1:
            broken = full and _first_breach(tables[0], constraints)[1]
            return 0 if broken else full
        rows = self._rows.get(kind) or self._rows.setdefault(
            kind, [None] * len(tables[0]))
        failing = 0
        for k, bad in constraints:
            row = rows[k]
            if row is None:
                row = rows[k] = union_table(transpose(
                    [table[k] for table in tables],
                    self.targets[0].carrier.size))
            failing |= row[bad]
            if failing == full:
                break
        return full & ~failing


def _lift_parts(f: CarrierMap, lifts: tuple,
                universe: TargetUniverse) -> tuple:
    """The record of one lift table: the final convergence fxi (its image),
    its adherence, the almost-open constraints order (the target is finer
    than fxi), the open constraints lift_every (every fiber point lifts
    ^B), and the continuity flag (f(lim ^A) within lim ^f(A), on the co_lim
    tables), the almost-open flag and the open flag."""
    img, full_s, full_t = f.image_table, f.source.full, f.target.full
    fxi_table = tuple(map(img.__getitem__, lifts))
    targets = range(1, full_t + 1)
    order = _forbidden(((b, fxi_table[b]) for b in targets), full_t)
    lift_every = _forbidden(((b, full_t & ~img[full_s & ~lifts[b]])
                             for b in targets), full_t)
    fxi = Convergence(f.target, fxi_table)
    return (fxi, adherence_table(fxi), order, lift_every,
            universe.holding("co_lim", ((b, fxi_table[b]) for b in targets
                                        if fxi_table[b])),
            universe.holding("lim", order),
            universe.holding("lim", lift_every))


def lift_record(f: CarrierMap, lifts: tuple,
                universe: TargetUniverse) -> tuple:
    """The universe's per-map record of one lift table (_lift_parts)."""
    return universe.memoized(f, ("lifts", lifts),
                             partial(_lift_parts, f, lifts, universe))


def _graph_closed(f: CarrierMap, lims: tuple,
                  universe: TargetUniverse) -> int:
    """The graph-closedness flag of one pushed-limit table: adh f(A) lies in
    the common image of the limits of ^A (empty unless they share one
    image)."""
    img, full_t = f.image_table, f.target.full
    graph: dict[int, int] = {}
    for a in range(1, f.source.full + 1):
        common = lims[a]
        if common:
            if common & (common - 1):
                common = 0
            graph[img[a]] = graph.get(img[a], full_t) & common
    return universe.holding("adh", _forbidden(graph.items(), full_t))


class MapFacts:
    """The one record of the surjection f and the source xi: what the
    classification routes and the law sweep read of the pair, and the
    flags that need no class route.  The targets enter through a
    TargetUniverse alone.  Each part is built once per distinct value of
    what it reads, the per-map tables by CarrierMap, the rest through the
    universe's per-map memo, one entry per key, the last three kinds
    below (laws.sweep_domain lists its own records).  keys, when given,
    is the pair's (adh_s, lifts, lims), as the law sweep holds them; else
    pair_keys computes them.

      per map:               the image, preimage and fiber tables;
      per source:            its adherence adh_s, from the cached
                             adherence_table;
      per pair:              the lift table lifts[B] and the pushed limits
                             lims[A] = f(lim ^A) of lift_keys, the keys
                             below; the pushed adherence
                             pushed_adh[A] = f(adh ^A) and, read
                             off it, pre_adh[H] = f(adh ^(f^-H)) and the
                             fiber misses misses[A], the target points
                             whose fiber misses adh ^A;
      per lift table:        fxi (the image of the lift table), its
                             adherence adh_fxi, the almost-open constraints
                             order, the open constraints lift_every, and
                             the continuous, almost_open and open flags;
      per pushed limits:     the graph_closed flag;
      per (adh_s, fxi):      the class routes, each selector's built once
                             by _class_flags, and only when map_flags
                             misses its memo of the class verdicts."""

    __slots__ = ("f", "xi", "full_s", "full_t", "img", "pre", "adh_s",
                 "lifts", "lims", "pushed_adh", "pre_adh", "misses",
                 "fxi", "adh_fxi", "order", "continuous", "almost_open",
                 "lift_every", "open", "graph_closed")

    def __init__(self, f: CarrierMap, xi: Convergence,
                 universe: TargetUniverse, keys: tuple | None = None):
        self.f, self.xi = f, xi
        img = self.img = f.image_table
        self.pre = f.preimage_table
        full_t = self.full_t = f.target.full
        self.full_s = f.source.full
        adh_s, lifts, lims = keys or pair_keys(f, xi)
        self.adh_s, self.lifts, self.lims = adh_s, lifts, lims
        pushed = self.pushed_adh = tuple(map(img.__getitem__, adh_s))
        self.pre_adh = tuple(map(pushed.__getitem__, self.pre))
        self.misses = tuple(full_t & ~adh for adh in pushed)
        (self.fxi, self.adh_fxi, self.order, self.lift_every,
         self.continuous, self.almost_open, self.open) = lift_record(
            f, lifts, universe)
        self.graph_closed = universe.memoized(
            f, ("lims", lims), partial(_graph_closed, f, lims, universe))

    def _cover_triggers(self, pairs) -> tuple:
        """For each (k, g): the points y whose fiber lies in the inherence of
        the complement family of ^G (misses adh ^G) must miss entry k."""
        out: dict[int, int] = {}
        misses = self.misses
        for k, g in pairs:
            ys = misses[g]
            if k and ys:
                out[k] = out.get(k, 0) | ys
        return tuple(out.items())

    def _build_routes(self, sel: Selector) -> _Routes:
        img, pre, pushed = self.img, self.pre, self.pushed_adh
        pre_adh, full_s, full_t = self.pre_adh, self.full_s, self.full_t
        # the quotient ladder reads its class on the final convergence, the
        # perfect ladder on the source
        target_class = class_filter_masks(sel, self.fxi)
        source_class = class_filter_masks(sel, self.xi)
        refl = reflect(sel, self.fxi).table
        # the cover route quantifies over class filters on the source; for
        # the closed class, over preimages of the closed class filters
        if sel is Selector.F0_CLOSED:
            covers = [pre[h] for h in target_class]
        else:
            covers = source_class
        perfect_adh: dict[int, int] = {}
        for g in source_class:
            ig = img[g]
            perfect_adh[ig] = perfect_adh.get(ig, full_t) & pushed[g]
        return _Routes(
            _forbidden(((h, pre_adh[h]) for h in target_class), full_t),
            _forbidden(((b, refl[b]) for b in range(1, full_t + 1)), full_t),
            self._cover_triggers(
                (full_t & ~img[full_s & ~g], g) for g in covers),
            _forbidden(perfect_adh.items(), full_t),
            self._cover_triggers((img[g], g) for g in source_class))


def _disagree(faults: list, what: str, sel: Selector | None,
              **forms: int) -> None:
    """Record, for _raise_first, the targets where the forms of one verdict
    (bitsets over the targets) differ."""
    first, *rest = forms.values()
    differ = 0
    for bits in rest:
        differ |= first ^ bits
    faults.append((differ, what, sel, forms))


def _raise_first(facts: MapFacts, universe: TargetUniverse,
                 faults: list) -> None:
    """Raise InvariantViolation for the first target, in universe order, at
    which two forms of one verdict differ, naming the first such verdict in
    evaluation order: the fault a scan of one target at a time meets
    first."""
    if not faults:
        return
    low = min(fault[0] & -fault[0] for fault in faults)
    _, what, sel, forms = next(fault for fault in faults if fault[0] & low)
    i = low.bit_length() - 1
    label = f"{what} disagree" + (f" for {sel}" if sel else "")
    detail = " ".join(f"{name}={bool(bits & low)}"
                      for name, bits in forms.items())
    raise InvariantViolation(
        f"{label}: {detail} at f={facts.f.mapping} xi={facts.xi!r} "
        f"tau={universe.targets[i]!r}")


def _quotient(sel: Selector, r: _Routes, universe: TargetUniverse,
              faults: list) -> int:
    """Quotient-like for the class: (a) every point of adh ^H has a fiber
    point adhering to ^(f^-H); (b) the target is finer than the reflected
    final convergence; (c) images of class covers of fibers are covers."""
    adh = universe.holding("adh", r.quotient_adh)
    refl = universe.holding("lim", r.quotient_refl)
    cover = universe.holding("adh", r.quotient_cover)
    if not adh == refl == cover:
        _disagree(faults, "quotient routes", sel,
                  adh=adh, refl=refl, cover=cover)
    return adh


def _perfect(sel: Selector, r: _Routes, universe: TargetUniverse,
             faults: list) -> int:
    """Perfect-like for the class: (a) adh f[^G] lies in f(adh ^G); (b) when
    the complement family of ^G covers a fiber, its pushed-forward
    complement family covers the point."""
    adh = universe.holding("adh", r.perfect_adh)
    cover = universe.holding("adh", r.perfect_cover)
    if adh != cover:
        _disagree(faults, "perfect routes", sel, adh=adh, cover=cover)
    return adh


def _class_flags(facts: MapFacts, universe: TargetUniverse) -> tuple:
    """The ladders' flags, one verdict per class, and their route faults."""
    faults, flags = [], {}
    routes = {sel: facts._build_routes(sel) for _, sel in _QUOTIENT_CLASSES}
    for decide, classes in ((_quotient, _QUOTIENT_CLASSES),
                            (_perfect, _PERFECT_CLASSES)):
        for names, sel in classes:
            verdict = decide(sel, routes[sel], universe, faults)
            flags.update(dict.fromkeys(names, verdict))
    return flags, faults


def map_flags(facts: MapFacts, universe: TargetUniverse) -> dict[str, int]:
    """The twelve classification flags of f: (xi) -> (tau) for every target
    tau of the universe, each a bitset over the universe.  Four are read
    off the MapFacts record; the class verdicts run every route once per
    class, as an OR of memoized meets over its constraints, memoized per
    (adh_s, fxi) with their route faults.  A memo hit raises its faults
    again, naming the pair at hand."""
    classes, faults = universe.memoized(
        facts.f, ("classes", facts.adh_s, facts.fxi.table),
        lambda: _class_flags(facts, universe))
    flags = {
        "continuous": facts.continuous,
        "open": facts.open,
        "almost_open": facts.almost_open,
        "graph_closed": facts.graph_closed,
        **classes,
    }
    _raise_first(facts, universe, faults)
    return flags


def _evaluate(ctx: MapContext) -> tuple:
    """The kernel's view of one context: its MapFacts and the one-target
    universe of its target."""
    ctx.require_surjective()
    universe = TargetUniverse((ctx.target,))
    return MapFacts(ctx.f, ctx.source, universe), universe


def _decide(decide, facts: MapFacts, universe: TargetUniverse,
            sel: Selector) -> bool:
    """One class verdict of an evaluated context (_evaluate), raising its
    route faults."""
    faults: list = []
    verdict = decide(sel, facts._build_routes(sel), universe, faults)
    _raise_first(facts, universe, faults)
    return bool(verdict)


def quotient_decider(ctx: MapContext):
    """is_quotient_like(ctx, sel) as a function of sel: every selector's
    routes are built on the one MapFacts record of ctx."""
    return partial(_decide, _quotient, *_evaluate(ctx))


def is_quotient_like(ctx: MapContext, sel: Selector) -> bool:
    return _decide(_quotient, *_evaluate(ctx), sel)


def is_perfect_like(ctx: MapContext, sel: Selector) -> bool:
    return _decide(_perfect, *_evaluate(ctx), sel)


def is_almost_open(ctx: MapContext) -> bool:
    """I-quotient: the target is finer than the final convergence."""
    return bool(_evaluate(ctx)[0].almost_open)


def is_open_map(ctx: MapContext) -> bool:
    """Filter form: every fiber point of every limit point lifts the
    converging principal filter exactly."""
    return bool(_evaluate(ctx)[0].open)


def is_open_map_topological(ctx: MapContext) -> bool:
    """Open-set form: images of open sets are open.  Equivalent to the
    filter form when the source is a topology."""
    ctx.require_surjective()
    opens_t = set(open_masks(ctx.target))
    return all(ctx.f.image_mask(o) in opens_t for o in open_masks(ctx.source))


# ---------------------------------------------------------------------------
# graph-closedness
# ---------------------------------------------------------------------------

def graph_closed_at(rel: FiniteRelation, theta: Convergence, sigma: Convergence,
                    w: int) -> bool:
    if rel.source != theta.carrier or rel.target != sigma.carrier:
        raise CarrierMismatch("relation endpoints do not match the spaces")
    adh_s = adherence_table(sigma)
    for a in range(1, theta.carrier.full + 1):
        if theta.table[a] >> w & 1:
            img = rel.image_mask(a)
            adh = adh_s[img] if img else 0
            if adh & ~rel.rows[w]:
                return False
    return True


def graph_closed(rel: FiniteRelation, theta: Convergence,
                 sigma: Convergence) -> bool:
    """Graph-closed at every point: adherences of image filters stay inside
    the relation's values."""
    return all(graph_closed_at(rel, theta, sigma, w)
               for w in theta.carrier.points())


def closed_in_product(rel: FiniteRelation, theta: Convergence,
                      sigma: Convergence) -> bool:
    """The relation, as a subset of the product space, is closed."""
    prod = product(theta, sigma)
    n2 = sigma.carrier.size
    graph = 0
    for i, row in enumerate(rel.rows):
        for j in bits_of(row):
            graph |= 1 << (i * n2 + j)
    return graph in closed_masks(prod)


def is_hausdorff(conv: Convergence) -> bool:
    """No filter has two limit points."""
    return all(popcount(conv.table[a]) <= 1
               for a in range(1, conv.carrier.full + 1))


# ---------------------------------------------------------------------------
# mixed (reflector-coreflector) properties
# ---------------------------------------------------------------------------

def _require_kinds(j: FunctorHandle, e: FunctorHandle) -> None:
    if j.kind not in ("reflector", "identity"):
        raise ValidationError([f"{j.tag} is not a reflector"])
    if e.kind != "coreflector":
        raise ValidationError([f"{e.tag} is not a coreflector"])


def _quotient_for_handle(ctx: MapContext, j: FunctorHandle) -> bool:
    if j.tag == "I":
        return is_almost_open(ctx)
    return is_quotient_like(ctx, j.selector)


def is_JE(conv: Convergence, j: FunctorHandle, e: FunctorHandle) -> bool:
    """conv >= J(E conv); cross-checked against: the identity from E conv to
    conv is a J-quotient."""
    _require_kinds(j, e)
    by_order = finer(conv, j(e(conv)))
    ident = identity_map(conv.carrier)
    by_quotient = _quotient_for_handle(MapContext(ident, e(conv), conv), j)
    if by_order != by_quotient:
        raise InvariantViolation(
            f"JE forms disagree for ({j.tag},{e.tag}): "
            f"order={by_order} quotient={by_quotient}")
    return by_order


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_LADDER = [
    ("open", "almost_open"),
    ("almost_open", "biquotient"),
    ("biquotient", "countably_biquotient"),
    ("countably_biquotient", "hereditarily_quotient"),
    ("hereditarily_quotient", "quotient"),
    ("perfect", "countably_perfect"),
    ("countably_perfect", "adherent"),
    ("adherent", "closed"),
    ("closed", "quotient"),
    ("perfect", "biquotient"),
    ("countably_perfect", "countably_biquotient"),
    ("adherent", "hereditarily_quotient"),
]

# flags decided by one principal-class evaluation (the finite collapse)
# and by the closed class, per ladder
_QUOTIENT_CLASSES = (
    (("biquotient", "countably_biquotient", "hereditarily_quotient"),
     Selector.F0),
    (("quotient",), Selector.F0_CLOSED),
)
_PERFECT_CLASSES = (
    (("perfect", "countably_perfect", "adherent"), Selector.F0),
    (("closed",), Selector.F0_CLOSED),
)


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    continuous: bool
    open: bool
    almost_open: bool
    biquotient: bool
    countably_biquotient: bool
    hereditarily_quotient: bool
    quotient: bool
    perfect: bool
    countably_perfect: bool
    adherent: bool
    closed: bool
    graph_closed: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __post_init__(self):
        d = self.as_dict()
        for stronger, weaker in _LADDER:
            if d[stronger] and not d[weaker]:
                raise InvariantViolation(
                    f"implication breached: {stronger} without {weaker}")


def _report(flags: dict[str, int]) -> ClassificationReport:
    return ClassificationReport(**{k: bool(v) for k, v in flags.items()})


def classify(ctx: MapContext) -> ClassificationReport:
    """The one-target case of map_flags."""
    return _report(map_flags(*_evaluate(ctx)))


def classification_witnesses(
        ctx: MapContext) -> tuple[ClassificationReport, dict[str, dict]]:
    """classify's report and a violating instance for each false flag, both
    read off the pair's one MapFacts record: each witness but continuity's
    and graph-closedness's (own scans, for any map or relation) is the
    first constraint of its route that the target breaks."""
    facts, universe = _evaluate(ctx)
    report = _report(map_flags(facts, universe))
    out: dict[str, dict] = {}
    f, src, dst = ctx.f, ctx.source, ctx.target
    a = 0 if report.continuous else _continuity_violation(ctx)
    if a:
        out["continuous"] = {"set": list(src.carrier.labels_of(a))}
    # the routes test these constraints: a breach exists iff the flag fails
    b, y_bits = _first_breach(dst.table, facts.lift_every)
    if y_bits:
        y = (y_bits & -y_bits).bit_length() - 1
        x_bits = f.fibers[y] & ~facts.lifts[b]
        out["open"] = {
            "target_set": list(dst.carrier.labels_of(b)),
            "target_point": dst.carrier.labels[y],
            "source_point": src.carrier.labels[
                (x_bits & -x_bits).bit_length() - 1]}
    b, y_bits = _first_breach(dst.table, facts.order)
    if y_bits:
        out["almost_open"] = {
            "target_set": list(dst.carrier.labels_of(b)),
            "point": dst.carrier.labels[y_bits.bit_length() - 1]}
    adh_t = universe.tables("adh")[0]
    # adh f[^G] per source mask G, the table the perfect routes break
    adh_img = tuple(map(adh_t.__getitem__, facts.img))
    for classes, table, space, bad in (
            (_QUOTIENT_CLASSES, adh_t, facts.fxi,
             lambda h: ~facts.pre_adh[h]),
            (_PERFECT_CLASSES, adh_img, src, facts.misses.__getitem__)):
        for names, sel in classes:
            if getattr(report, names[0]):
                continue
            m, y_bits = _first_breach(table, (
                (m, bad(m)) for m in class_filter_masks(sel, space)))
            if y_bits:
                out.update(dict.fromkeys(names, {
                    "filter_base": list(space.carrier.labels_of(m)),
                    "point": dst.carrier.labels[y_bits.bit_length() - 1]}))
    if not report.graph_closed:
        rel = f.as_relation()
        for w in src.carrier.points():
            if not graph_closed_at(rel, src, dst, w):
                out["graph_closed"] = {"point": src.carrier.labels[w]}
                break
    return report, out
