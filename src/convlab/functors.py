"""Adherence-determined reflectors and the finite coreflectors.

A reflector here is the generic operator

    lim' ^F  =  intersection of adh ^H  over class filters ^H meshing ^F

instantiated at four filter classes: closed principal filters of the
argument space (the topologizer T), principal filters (the pretopologizer
S0), countably based filters (the paratopologizer S1) and all filters (the
pseudotopologizer S).

The finite collapse is decided once.  On a finite carrier every filter
attains its intersection, so the principal, countably based, sequential and
all-filter classes have the same bases: _principal_masks enumerates them
for F0, F1 and F_ALL, and reflect sends the three to one cached function.
That function is the closed form the antitone axiom gives: every class
filter meshing ^F contains a point filter of F, so the operator sends
lim ^F to the intersection of lim ^{x} over x in F (the ultrafilter
formula, one families.meet_table of the singleton limits), which is
already a fixed point.  The closed-principal class mentions the space's
own closed sets; its closed form is topologize(), the pretopology
(spaces.pretopology_table) whose vicinities are the least open sets.  The
literal operator _adh_determined_step, iterated to a fixed point by
reflect_by_steps, is the O(4^n) oracle the law sweep compares both with.

The coreflectors Seq (sequentially based), I1 (countable character) and K
(locally compactoid) are the identity on a finite convergence: antitony
makes Seq's union over coarser principal filters the entry itself, and
every nonempty set is compactoid.  seq_coreflect (= I1) and
locally_compactoid_coreflect are the definitions, the oracle the
finite-collapse suite compares with the identity.

A FunctorHandle carries its selector: T, S0, S1 and S apply reflect at
their filter class, so reflect is the one dispatch; the identity I and the
coreflectors carry none and return the argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .families import Carrier, ValidationError, meet_table
from .spaces import (
    Convergence,
    adherence_table,
    closed_masks,
    min_open_table,
    pretopology_table,
)


class Selector(enum.Enum):
    """Filter-class selector for adherence-determined reflection."""

    F0_CLOSED = "F0_CLOSED"
    F0 = "F0"
    F1 = "F1"
    F_ALL = "F"


def _principal_masks(carrier: Carrier) -> tuple[int, ...]:
    """Bases of all non-degenerate principal filters, by minimum member.

    These are also the bases of the countably based, the sequential and all
    filters: a filter on a finite carrier attains its intersection, so it is
    the principal filter of its minimum.
    """
    return tuple(range(1, carrier.full + 1))


def class_filter_masks(sel: Selector, conv: Convergence) -> tuple[int, ...]:
    """Concrete filter bases of the selector class at this space."""
    if sel is Selector.F0_CLOSED:
        return tuple(m for m in closed_masks(conv) if m)
    if sel in (Selector.F0, Selector.F1, Selector.F_ALL):
        return _principal_masks(conv.carrier)
    raise ValidationError([f"unknown selector {sel!r}"])


def _adh_determined_step(sel: Selector, conv: Convergence) -> Convergence:
    """One application of the adherence-determined operator."""
    carrier = conv.carrier
    adh = adherence_table(conv)
    klass = class_filter_masks(sel, conv)
    table = [0] * (carrier.full + 1)
    for f in range(1, carrier.full + 1):
        acc = carrier.full
        for h in klass:
            if h & f:
                acc &= adh[h]
        table[f] = acc
    return Convergence(carrier, tuple(table))


def reflect_by_steps(sel: Selector, conv: Convergence) -> Convergence:
    """The adherence-determined operator iterated to a fixed point: the
    oracle of reflect for every selector."""
    cur = conv
    while True:
        nxt = _adh_determined_step(sel, cur)
        if nxt.table == cur.table:
            return nxt
        cur = nxt


def reflect(sel: Selector, conv: Convergence) -> Convergence:
    """The reflection of ``conv`` under the selector's operator: the
    topologizer for F0_CLOSED; F0, F1 and F_ALL share one cache entry per
    space."""
    return topologize(conv) if sel is Selector.F0_CLOSED else _reflect(conv)


@lru_cache(maxsize=None)
def _reflect(conv: Convergence) -> Convergence:
    # the ultrafilter formula: lim' ^A = intersection of lim ^{x}, x in A
    carrier = conv.carrier
    return Convergence(carrier, meet_table(
        [conv.table[1 << i] for i in carrier.points()], carrier.full))


@lru_cache(maxsize=None)
def topologize(conv: Convergence) -> Convergence:
    """Topological reflection via open sets: x is a limit of ^A exactly when
    every open set containing x includes A, i.e. the pretopology whose
    vicinities are the least open sets.  Must agree with
    reflect_by_steps(F0_CLOSED, .) bit-exactly."""
    return Convergence(conv.carrier, pretopology_table(min_open_table(conv)))


def pretopologize(conv: Convergence) -> Convergence:
    """S0, and on a finite carrier also S1 and S: the principal-class
    reflection."""
    return reflect(Selector.F0, conv)


pseudotopologize = pretopologize


# ---------------------------------------------------------------------------
# coreflector oracles: the definitions, which the handles' identity must equal
# ---------------------------------------------------------------------------

def _is_compactoid_mask(conv: Convergence, k: int) -> bool:
    """{K} compact at the whole space: every filter meshing K has adherent
    points."""
    if k == 0:
        return False
    adh = adherence_table(conv)
    return all(adh[h] for h in range(1, conv.carrier.full + 1) if h & k)


def seq_coreflect(conv: Convergence) -> Convergence:
    """Coarsest sequentially based (equivalently, countable character)
    convergence finer than the input: limits through class subfilters only.
    A sequential filter (B/A)_0 with B finite is ^A, and a countable base
    stabilizes, so on a finite carrier both classes are the principal one
    and Seq = I1."""
    carrier = conv.carrier
    table = [0] * (carrier.full + 1)
    klass = _principal_masks(carrier)
    for a in range(1, carrier.full + 1):
        acc = 0
        for e in klass:
            # ^e coarser-or-equal ^a  <=>  a <= e
            if a & ~e == 0:
                acc |= conv.table[e]
        table[a] = acc
    return Convergence(carrier, tuple(table))


countable_character_coreflect = seq_coreflect


def locally_compactoid_coreflect(conv: Convergence) -> Convergence:
    """Keep a limit only when the filter contains a compactoid member."""
    carrier = conv.carrier
    table = [0] * (carrier.full + 1)
    for a in range(1, carrier.full + 1):
        has_compactoid_member = any(
            _is_compactoid_mask(conv, k)
            for k in range(1, carrier.full + 1) if a & ~k == 0)
        table[a] = conv.table[a] if has_compactoid_member else 0
    return Convergence(carrier, tuple(table))


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FunctorHandle:
    tag: str
    kind: str  # reflector | coreflector | identity
    selector: Selector | None = None  # the filter class of a reflector

    def __call__(self, conv: Convergence) -> Convergence:
        # the identity, and each coreflector's closed form on a finite
        # carrier (module docstring)
        if self.selector is None:
            return conv
        return reflect(self.selector, conv)


T = FunctorHandle("T", "reflector", Selector.F0_CLOSED)
S0 = FunctorHandle("S0", "reflector", Selector.F0)
S1 = FunctorHandle("S1", "reflector", Selector.F1)
S = FunctorHandle("S", "reflector", Selector.F_ALL)
I = FunctorHandle("I", "identity")
SEQ = FunctorHandle("Seq", "coreflector")
I1 = FunctorHandle("I1", "coreflector")
K = FunctorHandle("K", "coreflector")

HANDLES = {h.tag: h for h in (T, S0, S1, S, I, SEQ, I1, K)}
REFLECTORS = (T, S0, S1, S)
COREFLECTORS = (SEQ, I1, K)


def handle(tag: str) -> FunctorHandle:
    try:
        return HANDLES[tag]
    except KeyError:
        raise ValidationError(
            [f"unknown functor {tag!r}; choose from {sorted(HANDLES)}"]) from None


# ---------------------------------------------------------------------------
# class-membership predicates
# ---------------------------------------------------------------------------

def is_topology(conv: Convergence) -> bool:
    return topologize(conv).table == conv.table


def is_pretopology(conv: Convergence) -> bool:
    return pretopologize(conv).table == conv.table


def is_pseudotopology(conv: Convergence) -> bool:
    return pseudotopologize(conv).table == conv.table
