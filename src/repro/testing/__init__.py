"""Seeded workload generation and invariant checking — the randomized
test harness the queueing machinery ships with.

Lifecycle misuse (use-after-release, double-lend) dominates real
defects in borrowing/ownership systems, and example-driven unit tests
rarely reach the interleavings that trigger them.  This subsystem makes
randomized, *reproducible* testing a first-class citizen:

* :mod:`repro.testing.generators` — deterministic generators driven by
  an explicit seed: :func:`random_reversible_circuit` (classical
  circuits whose ancillas are constructively safe — or deliberately
  spoiled), :func:`random_job`, :func:`random_arrival_trace` (seeded
  submit/release event sequences with timeouts), and
  :func:`random_lending_trace` (a lender/guest mix shaped for the
  time-sliced lending regime, built from :func:`lender_job`,
  :func:`windowed_guest_job` and :func:`segmented_guest_job` — the
  last with multiple restore segments straddling long idle gaps, the
  shape segmented lending multiplexes); :func:`random_fleet_trace`
  adds recurring circuit families (resubmitted circuits under fresh
  names) — the signal the fleet router's ``family-affinity`` placement
  routes on;
* :mod:`repro.testing.invariants` —
  :class:`OccupancyInvariantChecker`, which re-derives the scheduler's
  global safety contract from first principles (no double-owned wire,
  every holder alive, released wires returned, every placement sound)
  and raises :class:`~repro.errors.InvariantViolation` with a machine
  snapshot; :class:`FleetInvariantChecker` runs it per shard of a
  :class:`~repro.multiprog.FleetRouter` and then cross-checks the
  router's resident map and queue against shard reality;
* :mod:`repro.testing.harness` — :func:`replay_trace`, which drives a
  :class:`~repro.multiprog.MultiProgrammer` (or a
  :class:`~repro.multiprog.FleetRouter` — the surfaces match) through
  a trace, checking invariants after every event, and returns a
  :class:`TraceLog` with per-event backfill provenance (also the
  engine behind the ``queueing`` and ``fleet`` sections of
  ``BENCH_alloc.json``).

Same seed, same trace, same verdicts — a failing run is reproducible
from one integer.
"""

from repro.testing.generators import (
    TraceEvent,
    lender_job,
    random_arrival_trace,
    random_fleet_trace,
    random_job,
    random_lending_trace,
    random_reversible_circuit,
    segmented_guest_job,
    windowed_guest_job,
)
from repro.testing.harness import TraceLog, replay_trace
from repro.testing.invariants import (
    FleetInvariantChecker,
    OccupancyInvariantChecker,
)

__all__ = [
    "FleetInvariantChecker",
    "OccupancyInvariantChecker",
    "TraceEvent",
    "TraceLog",
    "lender_job",
    "random_arrival_trace",
    "random_fleet_trace",
    "random_job",
    "random_lending_trace",
    "random_reversible_circuit",
    "replay_trace",
    "segmented_guest_job",
    "windowed_guest_job",
]
