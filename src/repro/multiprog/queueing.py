"""Admission-queue policies for the online multi-programmer.

A capacity-rejected :meth:`~repro.multiprog.scheduler.MultiProgrammer.submit`
does not bounce the job: it lands in a wait queue, and every event that
frees or re-shapes capacity (a release, or a new admission that offers
lendable wires) triggers a *drain pass* that re-attempts queued jobs.
Which jobs a pass may attempt is the policy knob, registered here with
the same decorator-registry shape as the allocation strategies and the
verification backends:

* ``fifo`` — strict head-of-line: only the queue head is ever
  attempted, so admission order equals arrival order (at the price of
  head-of-line blocking — a wide job at the head starves narrower jobs
  behind it);
* ``backfill`` — out-of-order: one pass over the whole queue in
  arrival order, admitting every job that fits *now* and skipping the
  rest, so a narrow late arrival can slip past a blocked wide head;
* ``sjf`` — shortest job first: one pass in ascending *reduced width*
  (the job's wire count minus its ancilla requests — the floor on the
  fresh qubits it can need), oldest first among equals, so the narrow
  jobs that fit almost anywhere drain before the wide ones that were
  blocking them;
* ``priority`` — highest ``submit(..., priority=…)`` first, oldest
  first among equals: paying tenants overtake, equal-priority traffic
  degrades to arrival order (with priorities left at the default the
  policy behaves like ``backfill``).

"Fits" is window-aware: the admission attempt a drain pass makes runs
the full time-sliced lending machinery, so a queued job is admitted as
soon as *some* window assignment works — its verified-safe ancillas may
lease gate-index windows on wires that are already lent to other
guests, provided the windows are disjoint on the machine timeline
(:class:`repro.multiprog.scheduler.Lease`).  Policies themselves stay
purely order-deciding; the window reasoning lives in
:meth:`MultiProgrammer.admit`.

The queue bookkeeping itself (:class:`QueueEntry`, :class:`QueueStats`,
:class:`SubmitOutcome`) is policy-independent and lives here so the
scheduler module stays focused on machine state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.registry import make_registry


@dataclass(eq=False)
class QueueEntry:
    """One waiting job: the submission plus its queueing metadata.

    ``enqueued_at`` and ``deadline`` are *logical-clock* values (the
    owning scheduler or fleet router ticks once per submit/release
    event), so timeout behaviour is deterministic and replayable — no
    wall-clock in the contract.  ``deadline is None`` means the entry
    never expires.  ``priority`` orders the ``priority`` policy's drain
    passes (higher first) and is ignored by the other policies and by
    the fleet queue.
    """

    job: Any  # a repro.multiprog.scheduler.QuantumJob (typed loosely to
    #           avoid an import cycle with the scheduler module)
    strategy: Optional[str]
    enqueued_at: int
    deadline: Optional[int]
    seq: int
    priority: int = 0

    @property
    def name(self) -> str:
        return self.job.name

    @property
    def reduced_width(self) -> int:
        """The job's :attr:`~repro.multiprog.scheduler.QuantumJob.reduced_width`
        — the floor on its fresh-qubit need, the ``sjf`` sort key."""
        return self.job.reduced_width


@dataclass
class SubmitOutcome:
    """What :meth:`MultiProgrammer.submit` did with an arrival.

    ``status`` is ``"admitted"`` (then ``admission`` is set) or
    ``"queued"`` (then ``position`` is the 0-based queue slot at
    enqueue time).  ``backfilled`` names any *queued* jobs a successful
    admission unblocked in the same event (new lendable wires can make
    a waiting job fit without any release).
    """

    status: str
    admission: Optional[Any] = None
    position: Optional[int] = None
    backfilled: Tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.status == "admitted"


@dataclass
class QueueStats:
    """Lifetime counters of one admission queue (a scheduler's or a
    fleet router's).

    Wait times are measured in logical-clock events (one tick per
    submit/release), the same unit timeouts are expressed in.
    ``total_wait`` accumulates over every entry that *left* the queue
    with a measurable wait — admitted-from-queue and expired alike —
    so ``mean_wait`` reflects congestion rather than just the lucky
    survivors.
    """

    submitted: int = 0
    admitted_immediately: int = 0
    admitted_from_queue: int = 0
    queued: int = 0
    expired: int = 0
    cancelled: int = 0
    rejected: int = 0
    total_wait: int = 0
    expired_names: List[str] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return self.admitted_immediately + self.admitted_from_queue

    @property
    def waited(self) -> int:
        """Entries whose wait contributed to ``total_wait``."""
        return self.admitted_from_queue + self.expired

    @property
    def mean_wait(self) -> float:
        if not self.waited:
            return 0.0
        return self.total_wait / self.waited

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "admitted_immediately": self.admitted_immediately,
            "admitted_from_queue": self.admitted_from_queue,
            "queued": self.queued,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "total_wait_events": self.total_wait,
            "mean_wait_events": round(self.mean_wait, 4),
        }


#: A drain pass's admission attempt: returns the Admission, or None
#: when the entry does not fit right now.
TryAdmit = Callable[[QueueEntry], Optional[Any]]


class QueuePolicy(ABC):
    """Decides which queued entries one drain pass may attempt."""

    #: Registry name (set by :func:`register_policy`).
    name: str = "?"

    #: May a *new arrival* be admitted while older jobs wait?  Strict
    #: FIFO says no — a fitting arrival still queues behind the head.
    allows_overtaking: bool = True

    @abstractmethod
    def drain(
        self, entries: List[QueueEntry], try_admit: TryAdmit
    ) -> List[QueueEntry]:
        """Attempt admissions over ``entries`` (oldest first), removing
        each admitted entry from the list in place and returning them
        in admission order.  Entries that do not fit stay queued."""


# ---------------------------------------------------------------------- #
# Registry (the shared repro.registry implementation, same as
# repro.alloc strategies and repro.verify.backends)
# ---------------------------------------------------------------------- #

_REGISTRY = make_registry(QueuePolicy, "queue policy", plural="queue policies")

#: Class decorator: publish a :class:`QueuePolicy` under a name.
register_policy = _REGISTRY.register
#: All registered queue-policy names, sorted.
available_policies = _REGISTRY.available
#: Look up a policy class by name (:class:`CircuitError` if absent).
policy_class = _REGISTRY.get
#: Instantiate a registered policy with keyword options.
make_policy = _REGISTRY.make


# ---------------------------------------------------------------------- #
# The two built-in policies
# ---------------------------------------------------------------------- #


@register_policy("fifo")
class FifoPolicy(QueuePolicy):
    """Strict head-of-line: admission order is exactly arrival order."""

    allows_overtaking = False

    def drain(
        self, entries: List[QueueEntry], try_admit: TryAdmit
    ) -> List[QueueEntry]:
        admitted: List[QueueEntry] = []
        while entries:
            if try_admit(entries[0]) is None:
                break
            admitted.append(entries.pop(0))
        return admitted


def _drain_in_order(
    entries: List[QueueEntry], try_admit: TryAdmit, key
) -> List[QueueEntry]:
    """The shared one-pass drain: attempt every entry in ``key`` order,
    removing the admitted ones from the queue in place.  Every
    out-of-order policy is this loop with a different sort key."""
    admitted: List[QueueEntry] = []
    for entry in sorted(entries, key=key):
        if try_admit(entry) is not None:
            entries.remove(entry)
            admitted.append(entry)
    return admitted


@register_policy("backfill")
class BackfillPolicy(QueuePolicy):
    """Out-of-order: admit anything that fits now, oldest first."""

    allows_overtaking = True

    def drain(
        self, entries: List[QueueEntry], try_admit: TryAdmit
    ) -> List[QueueEntry]:
        return _drain_in_order(
            entries, try_admit, key=lambda entry: entry.seq
        )


@register_policy("sjf")
class ShortestJobFirstPolicy(QueuePolicy):
    """Narrowest reduced width first, oldest first among equals."""

    allows_overtaking = True

    def drain(
        self, entries: List[QueueEntry], try_admit: TryAdmit
    ) -> List[QueueEntry]:
        return _drain_in_order(
            entries,
            try_admit,
            key=lambda entry: (entry.reduced_width, entry.seq),
        )


@register_policy("priority")
class PriorityPolicy(QueuePolicy):
    """Highest submission priority first, oldest first among equals."""

    allows_overtaking = True

    def drain(
        self, entries: List[QueueEntry], try_admit: TryAdmit
    ) -> List[QueueEntry]:
        return _drain_in_order(
            entries,
            try_admit,
            key=lambda entry: (-entry.priority, entry.seq),
        )


__all__ = [
    "BackfillPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "ShortestJobFirstPolicy",
    "QueueEntry",
    "QueuePolicy",
    "QueueStats",
    "SubmitOutcome",
    "available_policies",
    "make_policy",
    "policy_class",
    "register_policy",
]
