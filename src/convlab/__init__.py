"""Finite convergence spaces and their map calculus.

Core layers:

  families     carriers, bit-mask subsets, set families, principal
               filters, relations and maps
  spaces       convergences: limits, open/closed sets, adherence,
               inherence, covers, the convergence lattice, products
  functors     adherence-determined reflectors (T, S0, S1, S) and the
               finite coreflectors (Seq, I1, K)
  maps         continuity, initial/final convergences, quotient-like and
               perfect-like classification, graph-closedness, mixed
               properties
  compactness  families compact at families, compact relations, the
               characteristic convergence, finite completeness
  enumerate    exhaustive universes of small spaces and counterexample
               search
  laws         every theorem verified exhaustively at desk scale
  shards       an ordered list of jobs, one shard in a forked worker
               when two CPUs are usable
  symbolic     bounded cofinite-filter layer for two countable exemplars
  cli          command-line front end over JSON documents
"""

from .families import (
    Carrier,
    CarrierMap,
    CarrierMismatch,
    CapExceeded,
    DegenerateFilter,
    FiniteFilter,
    FiniteRelation,
    InvariantViolation,
    NotSurjective,
    SetFamily,
    Subset,
    ValidationError,
)
from .spaces import Convergence

__all__ = [
    "Carrier", "CarrierMap", "CarrierMismatch", "CapExceeded",
    "Convergence", "DegenerateFilter", "FiniteFilter", "FiniteRelation",
    "InvariantViolation", "NotSurjective", "SetFamily", "Subset",
    "ValidationError",
]

__version__ = "0.1.0"
