"""Multi-program scheduling with cross-program dirty-qubit borrowing —
system S13, an executable rendering of the paper's Section 7 discussion.

Module tour
-----------

:mod:`repro.multiprog.scheduler`
    The :class:`MultiProgrammer` itself.  Two front doors:

    * :meth:`~MultiProgrammer.admit` — the *online* path: place one
      arriving job against live occupancy (width-reducing it with a
      registered :mod:`repro.alloc` strategy, lazily batch-verifying
      its ancillas, letting verified-safe ones borrow idle co-tenant
      wires) or raise :class:`~repro.errors.CapacityError` when it
      does not fit — at once, before any verification, when its
      ``reduced_width`` exceeds the free pool.  Lending is
      *time-sliced*: a lent wire carries a set of window-disjoint
      :class:`Lease`\\ s (the guest ancilla's gate-index lending
      :class:`~repro.circuits.intervals.WindowSet` mapped onto the
      machine timeline), so one idle wire multiplexes several
      concurrent guests.  Under ``lending="segmented"`` each
      window carries the restore-point segmentation — a lease covers
      only the ancilla's compute/uncompute segments, and other guests
      thread through the restore gaps; ``lending="windowed"`` (the
      default) keeps whole-period windows.  Which feasible wire a
      lease lands on is a registered
      :class:`~repro.multiprog.packing.LeasePacker` (``first-fit`` /
      ``best-fit`` / ``earliest-gap``), selectable per scheduler.
      :meth:`~MultiProgrammer.release` retires only the releasing
      guest's leases, and
      :meth:`~MultiProgrammer.lease_table` /
      :meth:`~MultiProgrammer.idle_offers` report per-window
      availability;
    * :meth:`~MultiProgrammer.submit` — the *queueing* path: a
      capacity-rejected arrival waits in an admission queue instead of
      bouncing.  Every :meth:`~MultiProgrammer.release` (and any
      admission that offers new lendable wires) triggers a backfill
      pass that re-attempts queued jobs; queued jobs carry optional
      logical-clock timeouts and can be cancelled; the queue is
      introspectable via :meth:`~MultiProgrammer.pending` and
      :meth:`~MultiProgrammer.stats`.

    The batch :meth:`~MultiProgrammer.schedule` replays a whole job
    list through the online path and compacts it into one composite
    circuit — byte-for-byte the seed scheduler's result.

    Interval-conflict models are **memoised** by ``(circuit
    fingerprint, request wires)`` — a queued job re-tried at every
    release event builds its model once; hits/misses surface in
    :meth:`~MultiProgrammer.stats`.  Segmented lending certifies
    restore segments with a shared memoised
    :func:`~repro.circuits.intervals.solver_restore_checker`, so it
    also splits windows at *semantic* (non-mirror) identity blocks.

:mod:`repro.multiprog.queueing`
    The pluggable queue-policy layer, a decorator registry mirroring
    the allocation strategies and verification backends:
    ``fifo`` (strict head-of-line — admission order equals arrival
    order, at the price of head-of-line blocking), ``backfill``
    (out-of-order — any queued job that fits *now* is admitted, so a
    narrow late arrival can slip past a blocked wide head), ``sjf``
    (narrowest reduced width first) and ``priority`` (highest
    ``submit(..., priority=…)`` first).

:mod:`repro.multiprog.packing`
    The pluggable lease-packing layer: a :class:`LeasePacker` decides
    which feasible offered wire a new cross-program lease lands on —
    ``first-fit`` (smallest index), ``best-fit`` (most-loaded wire)
    or ``earliest-gap`` (tightest fit after the preceding lease).

:mod:`repro.multiprog.fleet`
    The fleet tier: a :class:`FleetRouter` owns N
    :class:`MultiProgrammer` shards (heterogeneous sizes via
    :class:`ShardSpec`, one shared verifier as the cross-shard memo
    tier) behind one ``submit()``/``release()`` front door.  A
    registered :class:`PlacementPolicy` (``least-loaded`` /
    ``best-fit-width`` / ``family-affinity`` by circuit-fingerprint
    prefix) ranks the shards per job.  Shards hold residents only: a
    job no shard admits waits in the fleet's one queue, which drains
    earliest deadline first against each shard whose state changes,
    with timeouts counted in fleet events.  ``fleet_stats()`` /
    ``shard_tables()`` mirror the single-machine introspection at
    fleet scale.

Safety is non-negotiable throughout: a job's dirty ancilla may borrow
an idle qubit *from another job* only when it is verified safely
uncomputed (Definition 3.1 via the Section 6 pipeline) — an unverified
borrow could corrupt a co-tenant's state, the failure mode the paper
warns about in multi-programming clouds.  The randomized harness in
:mod:`repro.testing` replays seeded workload traces through
submit/release/backfill and asserts the global occupancy contract
after every event.
"""

from repro.multiprog.fleet import (
    FleetRouter,
    FleetSubmitOutcome,
    PlacementPolicy,
    ShardSpec,
    available_placements,
    make_placement,
    placement_class,
    register_placement,
)
from repro.multiprog.packing import (
    BestFitPacker,
    EarliestGapPacker,
    FirstFitPacker,
    LeasePacker,
    available_packers,
    make_packer,
    packer_class,
    register_packer,
)
from repro.multiprog.queueing import (
    BackfillPolicy,
    FifoPolicy,
    PriorityPolicy,
    QueueEntry,
    QueuePolicy,
    QueueStats,
    ShortestJobFirstPolicy,
    SubmitOutcome,
    available_policies,
    make_policy,
    policy_class,
    register_policy,
)
from repro.multiprog.scheduler import (
    Admission,
    BorrowRequest,
    Lease,
    MultiProgrammer,
    QuantumJob,
    ScheduleResult,
)

__all__ = [
    "Admission",
    "BackfillPolicy",
    "BestFitPacker",
    "BorrowRequest",
    "EarliestGapPacker",
    "FifoPolicy",
    "FirstFitPacker",
    "FleetRouter",
    "FleetSubmitOutcome",
    "Lease",
    "LeasePacker",
    "MultiProgrammer",
    "PlacementPolicy",
    "PriorityPolicy",
    "QuantumJob",
    "QueueEntry",
    "QueuePolicy",
    "QueueStats",
    "ScheduleResult",
    "ShardSpec",
    "ShortestJobFirstPolicy",
    "SubmitOutcome",
    "available_packers",
    "available_placements",
    "available_policies",
    "make_packer",
    "make_placement",
    "make_policy",
    "packer_class",
    "placement_class",
    "policy_class",
    "register_packer",
    "register_placement",
    "register_policy",
]
