"""Canonical small spaces used throughout the tests and docs, each built
through a validating constructor: a vicinity map, an open-set system or,
for a space that is neither, a limit table given to Convergence.make."""

from __future__ import annotations

from .families import Carrier
from .spaces import Convergence, pretopology_from_vicinities, topology_from_opens

ABC = Carrier.of("a", "b", "c")
AB = Carrier.of("a", "b")
PQ = Carrier.of("p", "q")
ZERO_ONE = Carrier.of("0", "1")


def chain_pretopology() -> Convergence:
    """Three-point pretopology with vicinities a->{a,b}, b->{b,c}, c->{c}.

    Its adherence is not idempotent (adh{c} = {b,c} but adh{b,c} = X), so it
    is a pretopology that is not a topology; its topologization has opens
    {}, {c}, {b,c}, X.
    """
    return pretopology_from_vicinities(
        ABC, {"a": ("a", "b"), "b": ("b", "c"), "c": ("c",)})


def sierpinski() -> Convergence:
    """Sierpinski topology on {0,1} with {0} open.

    Some presentations make {1} the open point instead; this build fixes the
    convention in which {0} is open, hence {0} is compact at itself but not
    closed, and lim ^{0} = {0,1}.
    """
    return topology_from_opens(ZERO_ONE, [(), ("0",), ("0", "1")])


def two_point_non_pseudo() -> Convergence:
    """lim^{a}={a,b}, lim^{b}={b}, lim^{a,b}={}: not a pseudotopology.
    The table is indexed by subset mask, a being bit 0."""
    return Convergence.make(AB, (0, 0b11, 0b10, 0))
