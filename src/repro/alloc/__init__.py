"""Borrow-allocation subsystem — the Figure 3.1 pass, made pluggable.

The width-reduction pass is split into layers mirroring
:mod:`repro.verify`:

* :mod:`repro.alloc.model` — the interval-conflict model
  (:func:`build_model`): ancilla periods, per-ancilla lending
  :class:`~repro.circuits.intervals.WindowSet`\\ s (whole-period by
  default; split at restore points with ``segmented=True``, so a host
  busy only inside a restore gap still qualifies), candidate hosts and
  the window-overlap conflict graph, read off the finished circuit's
  per-wire touch lists in one pass;
* :mod:`repro.alloc.base` / :mod:`repro.alloc.registry` — the
  :class:`AllocationStrategy` interface and the ``@register_strategy``
  decorator registry;
* one module per policy:

  - ``greedy`` (:mod:`repro.alloc.greedy`) — the seed's first-fit,
    linear time;
  - ``interval-graph`` (:mod:`repro.alloc.interval_graph`) —
    conflict-graph colouring that packs many guests onto one host;
  - ``lookahead`` (:mod:`repro.alloc.lookahead`) — branch-and-bound
    optimal for small ancilla counts, the differential-test oracle,
    seeded with greedy so it never does worse;
  - ``verified`` (:mod:`repro.alloc.verified`) — a safety gate that
    batch-verifies only ancillas with a candidate host, then delegates;

* :mod:`repro.alloc.api` — :func:`allocate`, the pass's one front
  door, which drives model -> strategy -> rewritten circuit and
  returns a :class:`BorrowPlan`.

The online multi-programmer (:mod:`repro.multiprog`) builds each job's
model once and picks a strategy per admission.
"""

from repro.alloc.api import BorrowPlan, SafetyCheck, allocate, materialise
from repro.alloc.model import (
    ConflictModel,
    Placement,
    build_model,
    validate_placement,
)
from repro.alloc.base import AllocationStrategy
from repro.alloc.registry import (
    available_strategies,
    make_strategy,
    register_strategy,
    strategy_class,
)

# Importing the strategy modules is what registers them.
from repro.alloc.greedy import GreedyStrategy
from repro.alloc.interval_graph import IntervalGraphStrategy
from repro.alloc.lookahead import LookaheadStrategy
from repro.alloc.verified import VerifiedStrategy

__all__ = [
    "AllocationStrategy",
    "BorrowPlan",
    "ConflictModel",
    "GreedyStrategy",
    "IntervalGraphStrategy",
    "LookaheadStrategy",
    "Placement",
    "SafetyCheck",
    "VerifiedStrategy",
    "allocate",
    "available_strategies",
    "build_model",
    "make_strategy",
    "materialise",
    "register_strategy",
    "strategy_class",
    "validate_placement",
]
