"""Continuity, initial/final convergences, and classification of surjections
into quotient-like and perfect-like classes.

Each inverse-continuity class is decided through independent routes that
must agree bit-for-bit:

  quotient-like (per selector class of filters on the target):
    (a) the adherence form, fiberwise:   y in adh ^H on the target implies
        the fiber of y meets adh ^(f^-H) on the source;
    (b) the reflector form:              target >= H(final convergence);
    (c) the cover form through inherence duality.

  perfect-like (per selector class of filters on the source):
    (a) adh f[^G] on the target is inside the image of adh ^G;
    (b) the cover form through inherence duality.

The blunt preimage inclusion f^-(adh ^H) <= adh ^(f^-H) is deliberately
NOT the implemented quotient test: it demands the whole fiber, not a fiber
point, and is strictly stronger than (b) on non-topological instances (a
stored regression fixture exhibits the gap).  The fiberwise reading is the
one the three routes and the compactness characterizations all agree on.

Class conventions: the quotient ladder reads its closed-set class on the
final convergence (H is in the class iff H is fxi-closed, equivalently its
preimage is xi-closed); the perfect ladder reads closedness on the source.

The finite collapse is implemented once, in functors: F0, F1 and F_ALL
enumerate the same principal bases and share one reflection, checked in the
law sweep against the literal reflect_by_steps.  classify() therefore runs
each ladder twice, for the principal class and for the closed class; the
principal result is the biquotient, countably biquotient and hereditarily
quotient flag (the perfect, countably perfect and adherent flag).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from .families import (
    Carrier,
    CarrierMap,
    CarrierMismatch,
    FiniteRelation,
    InvariantViolation,
    NotSurjective,
    bits_of,
    popcount,
)
from .functors import FunctorHandle, Selector, class_filter_masks, reflect
from .spaces import (
    Convergence,
    adherence_table,
    closed_masks,
    closure_mask,
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


def continuous(ctx: MapContext) -> bool:
    """f(lim ^A) <= lim ^f(A) for every nonempty A (any map, surjective or
    not)."""
    f, src, dst = ctx.f, ctx.source, ctx.target
    return all(
        f.image_mask(src.table[a]) & ~dst.table[f.image_mask(a)] == 0
        for a in range(1, src.carrier.full + 1))


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


@lru_cache(maxsize=None)
def final_convergence(f: CarrierMap, xi: Convergence) -> Convergence:
    """Finest convergence on the target making f continuous.

    Computed as the antitone closure of the image constraints:
    lim ^B = union of f(lim ^A) over A with f(A) >= B.  For surjective f
    this equals the exact-image form (shrink A to A through the preimage of
    B) and needs no extra centering.
    """
    if f.source != xi.carrier:
        raise CarrierMismatch("final convergence needs xi on the source")
    if not f.is_surjective():
        raise NotSurjective("the final convergence needs a surjection")
    carrier = f.target
    table = [0] * (carrier.full + 1)
    imgs = [(f.image_mask(a), f.image_mask(xi.table[a]))
            for a in range(1, xi.carrier.full + 1)]
    for b in range(1, carrier.full + 1):
        acc = 0
        for ia, il in imgs:
            if b & ~ia == 0:
                acc |= il
        table[b] = acc
    return Convergence(carrier, tuple(table))


# ---------------------------------------------------------------------------
# class enumeration per selector
# ---------------------------------------------------------------------------

def quotient_class_space(ctx: MapContext, sel: Selector) -> Convergence:
    """The space whose filters the quotient ladder quantifies over: the
    target carrier, with closedness read on the final convergence."""
    if sel is Selector.F0_CLOSED:
        return final_convergence(ctx.f, ctx.source)
    return ctx.target


# ---------------------------------------------------------------------------
# quotient-like: three routes
# ---------------------------------------------------------------------------

def _quotient_adherence_form(ctx: MapContext, sel: Selector) -> bool:
    """Route (a): for each class filter ^H on the target and each point of
    adh ^H, some fiber point adheres to ^(f^-H)."""
    f = ctx.f
    adh_t = adherence_table(ctx.target)
    adh_s = adherence_table(ctx.source)
    for h in class_filter_masks(sel, quotient_class_space(ctx, sel)):
        if adh_t[h] & ~f.image_mask(adh_s[f.preimage_mask(h)]):
            return False
    return True


def _quotient_reflector_form(ctx: MapContext, sel: Selector) -> bool:
    """Route (b): target finer than the reflected final convergence."""
    return finer(ctx.target, reflect(sel, final_convergence(ctx.f, ctx.source)))


def _quotient_cover_form(ctx: MapContext, sel: Selector) -> bool:
    """Route (c): images of class covers of fibers are covers.

    For each family Q on the source whose complement family is a class
    filter base, and each target point y:  f^-(y) <= inh Q  implies
    y in inh f[Q].  For the selector classes containing all principal
    filters, Q ranges over all singleton families; for the closed class it
    ranges over the preimage covers derived from the class filters.
    """
    f = ctx.f
    full_s = ctx.source.carrier.full
    full_t = ctx.target.carrier.full
    adh_t = adherence_table(ctx.target)
    adh_s = adherence_table(ctx.source)
    if sel is Selector.F0_CLOSED:
        klass = class_filter_masks(sel, quotient_class_space(ctx, sel))
        q_masks = [full_s & ~f.preimage_mask(h) for h in klass]
    else:
        # complement families of all class filters on the source carrier
        q_masks = [full_s & ~g for g in range(1, full_s + 1)]
    for q in q_masks:
        inh_q = full_s & ~adh_s[full_s & ~q] if full_s & ~q else full_s
        img_q = f.image_mask(q)
        inh_img = full_t & ~adh_t[full_t & ~img_q] if full_t & ~img_q else full_t
        for y in range(ctx.target.carrier.size):
            if f.fiber_mask(y) & ~inh_q == 0 and not inh_img >> y & 1:
                return False
    return True


def is_quotient_like(ctx: MapContext, sel: Selector) -> bool:
    """All three routes, which must agree."""
    ctx.require_surjective()
    a = _quotient_adherence_form(ctx, sel)
    b = _quotient_reflector_form(ctx, sel)
    c = _quotient_cover_form(ctx, sel)
    if not a == b == c:
        raise InvariantViolation(
            f"quotient routes disagree for {sel}: adh={a} refl={b} cover={c}")
    return a


def quotient_witness(ctx: MapContext, sel: Selector) -> dict | None:
    """First (class filter, point) violating the fiberwise form, if any."""
    f = ctx.f
    adh_t = adherence_table(ctx.target)
    adh_s = adherence_table(ctx.source)
    for h in class_filter_masks(sel, quotient_class_space(ctx, sel)):
        bad = adh_t[h] & ~f.image_mask(adh_s[f.preimage_mask(h)])
        if bad:
            y = bad.bit_length() - 1
            return {
                "filter_base": list(ctx.target.carrier.labels_of(h)),
                "point": ctx.target.carrier.labels[y],
            }
    return None


# ---------------------------------------------------------------------------
# perfect-like: two routes
# ---------------------------------------------------------------------------

def _perfect_adherence_form(ctx: MapContext, sel: Selector) -> bool:
    """Route (a): adh f[^G] <= f(adh ^G) for every class filter on the
    source."""
    f = ctx.f
    adh_t = adherence_table(ctx.target)
    adh_s = adherence_table(ctx.source)
    for g in class_filter_masks(sel, ctx.source):
        if adh_t[f.image_mask(g)] & ~f.image_mask(adh_s[g]):
            return False
    return True


def _perfect_cover_form(ctx: MapContext, sel: Selector) -> bool:
    """Route (b): when the complement family of a class filter ^G covers a
    fiber, its pushed-forward complement family covers the point:
    f^-(y) <= inh {G^c}  implies  y in inh {f(G)^c}."""
    f = ctx.f
    full_s = ctx.source.carrier.full
    full_t = ctx.target.carrier.full
    adh_t = adherence_table(ctx.target)
    adh_s = adherence_table(ctx.source)
    for g in class_filter_masks(sel, ctx.source):
        inh_q = full_s & ~adh_s[g]
        img_g = f.image_mask(g)
        inh_p = full_t & ~adh_t[img_g]
        for y in range(ctx.target.carrier.size):
            if f.fiber_mask(y) & ~inh_q == 0 and not inh_p >> y & 1:
                return False
    return True


def is_perfect_like(ctx: MapContext, sel: Selector) -> bool:
    ctx.require_surjective()
    a = _perfect_adherence_form(ctx, sel)
    b = _perfect_cover_form(ctx, sel)
    if a != b:
        raise InvariantViolation(
            f"perfect routes disagree for {sel}: adh={a} cover={b}")
    return a


def perfect_witness(ctx: MapContext, sel: Selector) -> dict | None:
    f = ctx.f
    adh_t = adherence_table(ctx.target)
    adh_s = adherence_table(ctx.source)
    for g in class_filter_masks(sel, ctx.source):
        bad = adh_t[f.image_mask(g)] & ~f.image_mask(adh_s[g])
        if bad:
            return {
                "filter_base": list(ctx.source.carrier.labels_of(g)),
                "point": ctx.target.carrier.labels[bad.bit_length() - 1],
            }
    return None


# ---------------------------------------------------------------------------
# open / almost open
# ---------------------------------------------------------------------------

def is_almost_open(ctx: MapContext) -> bool:
    """I-quotient: target >= final convergence.  Cross-checked against the
    existential filter form (some fiber point has a filter mapping onto the
    converging one)."""
    ctx.require_surjective()
    by_order = finer(ctx.target, final_convergence(ctx.f, ctx.source))
    f, src, dst = ctx.f, ctx.source, ctx.target
    by_filters = True
    for b in range(1, dst.carrier.full + 1):
        need = dst.table[b]
        for y in bits_of(need):
            if not any(
                    src.table[a] & f.fiber_mask(y) and f.image_mask(a) == b
                    for a in range(1, src.carrier.full + 1)):
                by_filters = False
                break
        if not by_filters:
            break
    if by_order != by_filters:
        raise InvariantViolation(
            f"almost-open forms disagree: order={by_order} filter={by_filters}")
    return by_order


def is_open_map(ctx: MapContext) -> bool:
    """Filter form: every fiber point of every limit point lifts the
    converging principal filter exactly."""
    ctx.require_surjective()
    f, src, dst = ctx.f, ctx.source, ctx.target
    for b in range(1, dst.carrier.full + 1):
        for y in bits_of(dst.table[b]):
            for x in bits_of(f.fiber_mask(y)):
                if not any(
                        src.table[a] >> x & 1 and f.image_mask(a) == b
                        for a in range(1, src.carrier.full + 1)):
                    return False
    return True


def is_open_map_topological(ctx: MapContext) -> bool:
    """Open-set form: images of open sets are open.  Equivalent to the
    filter form when the source is a topology."""
    ctx.require_surjective()
    opens_t = set(open_masks(ctx.target))
    return all(ctx.f.image_mask(o) in opens_t for o in open_masks(ctx.source))


# ---------------------------------------------------------------------------
# closure forms (the topological propositions)
# ---------------------------------------------------------------------------

def continuity_closure_forms(ctx: MapContext) -> tuple[bool, bool]:
    """(cl f^-B <= f^-(cl B) for all B,  f(cl A) <= cl f(A) for all A)."""
    f, src, dst = ctx.f, ctx.source, ctx.target
    eq2 = all(
        closure_mask(src, f.preimage_mask(b)) & ~f.preimage_mask(closure_mask(dst, b)) == 0
        for b in range(dst.carrier.full + 1))
    eq3 = all(
        f.image_mask(closure_mask(src, a)) & ~closure_mask(dst, f.image_mask(a)) == 0
        for a in range(src.carrier.full + 1))
    return eq2, eq3


def quotient_closure_form(ctx: MapContext) -> bool:
    """Fiberwise inversion of the closure-preimage inclusion: every point of
    cl B has a fiber point in cl f^-(B)."""
    f, src, dst = ctx.f, ctx.source, ctx.target
    for b in range(1, dst.carrier.full + 1):
        clb = closure_mask(dst, b)
        cls_ = f.image_mask(closure_mask(src, f.preimage_mask(b)))
        if clb & ~cls_:
            return False
    return True


def closed_map_closure_form(ctx: MapContext) -> bool:
    """cl f(A) <= f(cl A) for every A (the image-closure inversion)."""
    f, src, dst = ctx.f, ctx.source, ctx.target
    return all(
        closure_mask(dst, f.image_mask(a)) & ~f.image_mask(closure_mask(src, a)) == 0
        for a in range(src.carrier.full + 1))


def closedness_reflecting(ctx: MapContext) -> bool:
    """B closed on the target whenever f^-(B) is closed on the source."""
    f = ctx.f
    closed_t = set(closed_masks(ctx.target))
    return all(
        b in closed_t
        for b in range(ctx.target.carrier.full + 1)
        if f.preimage_mask(b) in closed_masks(ctx.source))


def closed_map_images(ctx: MapContext) -> bool:
    """Images of closed sets are closed."""
    f = ctx.f
    closed_t = set(closed_masks(ctx.target))
    return all(f.image_mask(c) in closed_t for c in closed_masks(ctx.source))


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
    from .families import ValidationError
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


@dataclass(frozen=True, slots=True)
class PreservationReport:
    applicable: bool  # f continuous J-quotient and the source is JE
    holds: bool       # target is JE (vacuously True when not applicable)


def check_preservation(ctx: MapContext, j: FunctorHandle,
                       e: FunctorHandle) -> PreservationReport:
    """Continuous J-quotient images of JE-spaces are JE."""
    _require_kinds(j, e)
    applicable = (continuous(ctx) and _quotient_for_handle(ctx, j)
                  and is_JE(ctx.source, j, e))
    holds = is_JE(ctx.target, j, e) if applicable else True
    return PreservationReport(applicable, holds)


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


def classify(ctx: MapContext) -> ClassificationReport:
    ctx.require_surjective()
    flags = {}
    for decide, classes in ((is_quotient_like, _QUOTIENT_CLASSES),
                            (is_perfect_like, _PERFECT_CLASSES)):
        for names, sel in classes:
            flags.update(dict.fromkeys(names, decide(ctx, sel)))
    return ClassificationReport(
        continuous=continuous(ctx),
        open=is_open_map(ctx),
        almost_open=is_almost_open(ctx),
        graph_closed=graph_closed(
            ctx.f.as_relation(), ctx.source, ctx.target),
        **flags,
    )


def classification_witnesses(ctx: MapContext,
                             report: ClassificationReport) -> dict[str, dict]:
    """A violating instance for each false flag, where one is extractable."""
    out: dict[str, dict] = {}
    f, src, dst = ctx.f, ctx.source, ctx.target
    if not report.continuous:
        for a in range(1, src.carrier.full + 1):
            if f.image_mask(src.table[a]) & ~dst.table[f.image_mask(a)]:
                out["continuous"] = {
                    "set": list(src.carrier.labels_of(a))}
                break
    if not report.open:
        done = False
        for b in range(1, dst.carrier.full + 1):
            for y in bits_of(dst.table[b]):
                for x in bits_of(f.fiber_mask(y)):
                    if not any(src.table[a] >> x & 1 and f.image_mask(a) == b
                               for a in range(1, src.carrier.full + 1)):
                        out["open"] = {
                            "target_set": list(dst.carrier.labels_of(b)),
                            "target_point": dst.carrier.labels[y],
                            "source_point": src.carrier.labels[x]}
                        done = True
                        break
                if done:
                    break
            if done:
                break
    if not report.almost_open:
        fxi = final_convergence(f, src)
        for b in range(1, dst.carrier.full + 1):
            bad = dst.table[b] & ~fxi.table[b]
            if bad:
                out["almost_open"] = {
                    "target_set": list(dst.carrier.labels_of(b)),
                    "point": dst.carrier.labels[bad.bit_length() - 1]}
                break
    for witness, classes in ((quotient_witness, _QUOTIENT_CLASSES),
                             (perfect_witness, _PERFECT_CLASSES)):
        for names, sel in classes:
            failing = [name for name in names if not getattr(report, name)]
            w = witness(ctx, sel) if failing else None
            if w:
                out.update(dict.fromkeys(failing, w))
    if not report.graph_closed:
        rel = f.as_relation()
        for w in src.carrier.points():
            if not graph_closed_at(rel, src, dst, w):
                out["graph_closed"] = {"point": src.carrier.labels[w]}
                break
    return out
