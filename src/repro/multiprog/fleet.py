"""Fleet tier: route jobs across many :class:`MultiProgrammer` shards.

One :class:`MultiProgrammer` is one machine.  The paper's Section 7
result — multi-programming raises utilisation — compounds at the next
level up: a *fleet* of machines behind one front door, where placement
(which shard hosts which job) matters as much as packing within a
shard.  :class:`FleetRouter` owns N shards (heterogeneous
``machine_size``, per-shard ``lending``/``lease_packer``/
``queue_policy`` knobs via :class:`ShardSpec`), routes every
``submit()`` through a pluggable :class:`PlacementPolicy`, and keeps
queued work fluid: on every event each shard's own backfill drain runs,
then jobs still queued on one shard are *migrated* to any other shard
that can admit them right now, then the fleet-level overflow queue —
jobs no shard could even hold in its local queue — gets a drain pass.

Placement policies are registered with the same decorator-registry
shape as the allocation strategies, verification backends, queue
policies and lease packers:

* ``least-loaded`` — emptiest shard first (occupancy fraction, ties to
  declaration order): the classic load balancer;
* ``best-fit-width`` — the shard whose *current free pool* fits the
  job most tightly: preserves large contiguous capacity on the other
  shards for wide jobs;
* ``family-affinity`` — route repeat circuits (by fingerprint prefix)
  to the shard that last admitted their family, falling back to
  least-loaded: keeps a family's memoised conflict models and solver
  verdicts hot on one shard.

Two clocks coexist.  The *logical* clocks (one per shard, plus a fleet
event counter) stay authoritative: timeouts passed to ``submit()`` are
logical, so seeded traces replay identically.  *Wall-clock* deadlines
layer on top: ``submit(deadline_s=...)`` stamps an absolute expiry from
an injectable monotonic ``clock=`` callable (``time.monotonic`` by
default; tests inject a fake), evaluated lazily at the start of every
routed event — there is no background thread, so replay stays
deterministic whenever the injected clock is.

All shards share one :class:`~repro.verify.batch.BatchVerifier`
(unless prebuilt programmers are handed in), so solver verdicts and
disk-cache hits memoise *across* the fleet — a family admitted on
shard A verifies for free when migrated to shard B.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import CapacityError, CircuitError, VerificationError
from repro.multiprog.scheduler import (
    Admission,
    MultiProgrammer,
    QuantumJob,
)
from repro.registry import make_registry
from repro.verify.batch import BatchVerifier


@dataclass(frozen=True)
class ShardSpec:
    """Constructor knobs for one shard of a fleet.

    A plain ``int`` in ``FleetRouter(shards=[...])`` is shorthand for
    ``ShardSpec(machine_size=that_int)``; a full spec tunes one shard's
    packing behaviour independently of its neighbours (e.g. one
    ``segmented``-lending shard for palindrome-heavy families next to
    ``windowed``-lending ones).
    """

    machine_size: int
    name: Optional[str] = None
    strategy: str = "greedy"
    queue_policy: str = "fifo"
    lending: str = "windowed"
    lease_packer: str = "first-fit"


class PlacementPolicy(ABC):
    """Orders the eligible shards for one job, most preferred first."""

    #: Registry name (set by :func:`register_placement`).
    name: str = "?"

    @abstractmethod
    def rank(
        self, job: QuantumJob, shards: Mapping[str, MultiProgrammer]
    ) -> List[str]:
        """Return every key of ``shards`` (all statically eligible for
        ``job``), best host first.  Must be deterministic so seeded
        traces replay identically."""

    def note_admitted(self, job: QuantumJob, shard: str) -> None:
        """Feedback hook: ``job`` was admitted on ``shard``.  Stateful
        policies (family affinity) learn from it; the default is a
        no-op."""


_REGISTRY = make_registry(PlacementPolicy, "placement policy")

#: Class decorator: publish a :class:`PlacementPolicy` under a name.
register_placement = _REGISTRY.register
#: All registered placement-policy names, sorted.
available_placements = _REGISTRY.available
#: Look up a placement class by name (:class:`CircuitError` if absent).
placement_class = _REGISTRY.get
#: Instantiate a registered placement policy with keyword options.
make_placement = _REGISTRY.make


def _declaration_order(shards: Mapping[str, MultiProgrammer]) -> Dict[str, int]:
    return {name: index for index, name in enumerate(shards)}


@register_placement("least-loaded")
class LeastLoadedPlacement(PlacementPolicy):
    """Emptiest shard first, by occupancy fraction."""

    def rank(self, job, shards):
        order = _declaration_order(shards)
        return sorted(
            shards,
            key=lambda name: (
                shards[name].occupancy / shards[name].machine_size,
                order[name],
            ),
        )


@register_placement("best-fit-width")
class BestFitWidthPlacement(PlacementPolicy):
    """Tightest current fit first.

    Shards whose free pool already covers the job's static width floor
    (``reduced_width``) rank by smallest leftover; shards that cannot
    fit it right now follow, closest-to-fitting first.  Their admit
    refuses at once (no placement holds fewer than ``reduced_width``
    fresh wires), but they are where the job queues if nothing admits.
    """

    def rank(self, job, shards):
        order = _declaration_order(shards)
        need = job.reduced_width

        def key(name):
            free = shards[name].free_qubits
            if free >= need:
                return (0, free - need, order[name])
            return (1, need - free, order[name])

        return sorted(shards, key=key)


@register_placement("family-affinity")
class FamilyAffinityPlacement(PlacementPolicy):
    """Send repeat circuits to the shard that last hosted their family.

    The family key is a prefix of the circuit's content fingerprint, so
    resubmissions of the same circuit (the common service pattern) land
    where their conflict model and solver verdicts are already
    memoised.  Unknown families fall back to least-loaded.
    """

    def __init__(self, prefix_length: int = 16):
        self.prefix_length = prefix_length
        self._fallback = LeastLoadedPlacement()
        #: family fingerprint prefix -> shard that last admitted it.
        self._affinity: Dict[str, str] = {}

    def _family(self, job: QuantumJob) -> str:
        return job.circuit.fingerprint()[: self.prefix_length]

    def rank(self, job, shards):
        ranked = self._fallback.rank(job, shards)
        preferred = self._affinity.get(self._family(job))
        if preferred in shards:
            ranked.remove(preferred)
            ranked.insert(0, preferred)
        return ranked

    def note_admitted(self, job, shard):
        self._affinity[self._family(job)] = shard


@dataclass
class FleetSubmitOutcome:
    """What :meth:`FleetRouter.submit` did with one job."""

    #: ``"admitted"`` or ``"queued"``.
    status: str
    #: Hosting shard (admitted), queueing shard, or ``None`` for the
    #: fleet-level overflow queue.
    shard: Optional[str] = None
    admission: Optional[Admission] = None
    #: Queued jobs admitted fleet-wide as a side effect of this event
    #: (local drains, migrations and overflow admissions alike).
    backfilled: Tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.status == "admitted"


@dataclass
class FleetStats:
    """Lifetime fleet-level routing counters.

    These count *routing* decisions; each shard keeps its own
    :class:`~repro.multiprog.queueing.QueueStats` (exposed under
    ``fleet_stats()["shards"]``) for what happened inside it.  Note the
    double-entry cases: a migration or wall-clock expiry withdraws the
    entry from its shard via ``cancel()``, so shard-level ``cancelled``
    includes fleet-initiated withdrawals.
    """

    submitted: int = 0
    admitted_immediately: int = 0
    #: Queued jobs admitted later by any route: a shard's own drain, a
    #: cross-shard migration, or an overflow drain.
    admitted_from_queue: int = 0
    #: Jobs that left one shard's queue and admitted on another.
    migrations: int = 0
    queued: int = 0
    overflow_queued: int = 0
    overflow_admitted: int = 0
    #: Overflow entries whose *logical* timeout lapsed (fleet events).
    expired: int = 0
    #: Entries withdrawn by a lapsed wall-clock ``deadline_s``.
    deadline_expired: int = 0
    rejected: int = 0
    expired_names: List[str] = field(default_factory=list)
    deadline_expired_names: List[str] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return self.admitted_immediately + self.admitted_from_queue

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "admitted_immediately": self.admitted_immediately,
            "admitted_from_queue": self.admitted_from_queue,
            "migrations": self.migrations,
            "queued": self.queued,
            "overflow_queued": self.overflow_queued,
            "overflow_admitted": self.overflow_admitted,
            "expired": self.expired,
            "deadline_expired": self.deadline_expired,
            "rejected": self.rejected,
            "expired_names": list(self.expired_names),
            "deadline_expired_names": list(self.deadline_expired_names),
        }


@dataclass
class _OverflowEntry:
    """A job no shard could hold, waiting at the fleet level."""

    job: QuantumJob
    strategy: Optional[str]
    priority: int
    enqueued_event: int
    #: Fleet-event deadline (``submit(timeout=...)``), or ``None``.
    expires_event: Optional[int]

    @property
    def name(self) -> str:
        return self.job.name


class FleetRouter:
    """N machines behind one ``submit()``/``release()`` front door.

    Mirrors the single-machine :class:`MultiProgrammer` surface
    (``submit``/``release``/``cancel``/``residents``/``pending``/
    ``admission``/``stats``/``snapshot``), so trace replay and the
    invariant harness drive either interchangeably; the fleet-only
    surface (``fleet_stats``, ``shard_tables``, ``resident_shards``,
    ``queued_shards``) adds the per-shard view.

    ``shards`` entries may be plain ints (machine sizes), full
    :class:`ShardSpec`\\ s, or prebuilt :class:`MultiProgrammer`\\ s
    (which must be empty and keep their own verifier).

    ``check_invariants=True`` runs an
    :class:`~repro.testing.invariants.OccupancyInvariantChecker` on
    every shard plus the fleet's own routing-consistency check after
    every routed event — the configuration the seeded property traces
    use.
    """

    def __init__(
        self,
        shards: Sequence[Union[int, ShardSpec, MultiProgrammer]],
        placement: Union[str, PlacementPolicy] = "least-loaded",
        backend: str = "bdd",
        verifier: Optional[BatchVerifier] = None,
        cache_path: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        check_invariants: bool = False,
    ):
        if not shards:
            raise CircuitError("a fleet needs at least one shard")
        self.verifier = verifier or BatchVerifier(
            backend=backend, cache_path=cache_path
        )
        self.shards: Dict[str, MultiProgrammer] = {}
        for index, item in enumerate(shards):
            if isinstance(item, MultiProgrammer):
                name, shard = f"shard{index}", item
                if shard.residents or shard.pending():
                    raise CircuitError(
                        f"prebuilt shard {name} must start empty"
                    )
            else:
                spec = (
                    item
                    if isinstance(item, ShardSpec)
                    else ShardSpec(machine_size=item)
                )
                name = spec.name or f"shard{index}"
                shard = MultiProgrammer(
                    spec.machine_size,
                    backend=backend,
                    strategy=spec.strategy,
                    verifier=self.verifier,
                    queue_policy=spec.queue_policy,
                    lending=spec.lending,
                    lease_packer=spec.lease_packer,
                )
            if name in self.shards:
                raise CircuitError(f"duplicate shard name {name!r}")
            self.shards[name] = shard
        self.placement = (
            placement
            if isinstance(placement, PlacementPolicy)
            else make_placement(placement)
        )
        #: Monotonic wall clock for ``deadline_s`` (injectable).
        self._clock_fn = clock or time.monotonic
        #: Resident job name -> hosting shard name.
        self._resident_on: Dict[str, str] = {}
        #: Shard-queued job name -> its shard, fleet arrival order.
        self._queued_on: Dict[str, str] = {}
        #: Jobs no shard could hold, fleet arrival order.
        self._overflow: List[_OverflowEntry] = []
        #: Queued/overflow job name -> absolute wall-clock expiry.
        self._deadlines: Dict[str, float] = {}
        self._stats = FleetStats()
        #: Fleet logical clock: one tick per routed submit/release.
        self._events = 0
        #: Names backfilled fleet-wide by the most recent event.
        self.last_backfilled: Tuple[str, ...] = ()
        self._shard_checkers: List[object] = []
        self.check_invariants = check_invariants
        if check_invariants:
            # Imported lazily: repro.testing imports repro.multiprog
            # for its generators, so a module-level import would cycle.
            from repro.testing.invariants import OccupancyInvariantChecker

            self._shard_checkers = [
                OccupancyInvariantChecker(shard)
                for shard in self.shards.values()
            ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def machine_size(self) -> int:
        """Total qubits across the fleet."""
        return sum(shard.machine_size for shard in self.shards.values())

    @property
    def occupancy(self) -> int:
        return sum(shard.occupancy for shard in self.shards.values())

    @property
    def free_qubits(self) -> int:
        return self.machine_size - self.occupancy

    @property
    def residents(self) -> Tuple[str, ...]:
        """Resident names fleet-wide, shard order then admission order."""
        names: List[str] = []
        for shard in self.shards.values():
            names.extend(shard.residents)
        return tuple(names)

    @property
    def events(self) -> int:
        return self._events

    def pending(self) -> Tuple[str, ...]:
        """Queued names fleet-wide: shard queues (fleet arrival order)
        then the overflow queue."""
        return tuple(self._queued_on) + tuple(
            entry.name for entry in self._overflow
        )

    @property
    def queue_length(self) -> int:
        return len(self._queued_on) + len(self._overflow)

    def resident_shards(self) -> Dict[str, str]:
        """Resident job name -> hosting shard name (a copy)."""
        return dict(self._resident_on)

    def queued_shards(self) -> Dict[str, Optional[str]]:
        """Queued job name -> shard name (``None`` = overflow queue)."""
        table: Dict[str, Optional[str]] = dict(self._queued_on)
        for entry in self._overflow:
            table[entry.name] = None
        return table

    def shard_of(self, name: str) -> str:
        """The shard hosting resident job ``name``."""
        try:
            return self._resident_on[name]
        except KeyError:
            raise CircuitError(
                f"no resident job named {name!r} on any shard"
            ) from None

    def admission(self, name: str) -> Admission:
        return self.shards[self.shard_of(name)].admission(name)

    def fleet_stats(self) -> Dict[str, object]:
        """Fleet-level routing counters plus every shard's own stats."""
        data = self._stats.as_dict()
        data["placement"] = self.placement.name
        data["events"] = self._events
        data["machine_size"] = self.machine_size
        data["occupancy"] = self.occupancy
        data["free_qubits"] = self.free_qubits
        data["residents"] = len(self._resident_on)
        data["pending"] = self.queue_length
        data["overflow_pending"] = len(self._overflow)
        data["deadlines_tracked"] = len(self._deadlines)
        data["last_backfilled"] = list(self.last_backfilled)
        data["shards"] = {
            name: shard.stats() for name, shard in self.shards.items()
        }
        return data

    # ``stats()`` aliases the fleet view so trace replay and the bench
    # harness read either tier through one method name.
    stats = fleet_stats

    def shard_tables(self) -> Dict[str, Dict[str, object]]:
        """Per-shard occupancy/lease introspection, one map per shard."""
        return {
            name: {
                "machine_size": shard.machine_size,
                "occupancy": shard.occupancy,
                "free_qubits": shard.free_qubits,
                "residents": list(shard.residents),
                "pending": list(shard.pending()),
                "occupancy_table": shard.occupancy_table(),
                "lease_table": shard.lease_table(),
            }
            for name, shard in self.shards.items()
        }

    def snapshot(self) -> str:
        lines = [
            f"fleet: {len(self.shards)} shards, "
            f"{self.occupancy}/{self.machine_size} qubits busy, "
            f"placement={self.placement.name}"
        ]
        for name, shard in self.shards.items():
            lines.append(f"-- {name} --")
            lines.append(shard.snapshot())
        if self._overflow:
            names = ", ".join(entry.name for entry in self._overflow)
            lines.append(f"overflow: {names}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def submit(
        self,
        job: QuantumJob,
        strategy: Optional[str] = None,
        timeout: Optional[int] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> FleetSubmitOutcome:
        """Admit ``job`` on the best shard, or queue it fleet-wide.

        The placement policy ranks the statically eligible shards
        (those whose ``machine_size`` covers the job's width floor);
        the first that admits hosts the job.  If none admits now, the
        job queues on the best-ranked shard that can hold it — its
        ``timeout`` is in *that shard's* logical events, preserving
        single-machine replay semantics — and every later event may
        migrate it to whichever shard frees capacity first.  (Queueing
        ticks that shard's clock, which can shift lease windows enough
        for the job to fit; it is then admitted there instead.)  If no
        shard can even queue it (every eligible shard is empty yet
        still cannot host it — it needs lending, and lending needs
        co-tenants), it waits in the fleet overflow queue, where
        ``timeout`` counts *fleet* events instead.

        ``deadline_s`` adds a wall-clock bound on queue wait: measured
        with the injected monotonic clock from now, evaluated lazily at
        the start of every routed event, ignored once admitted.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise CircuitError("deadline_s must be positive")
        if timeout is not None and timeout < 1:
            raise CircuitError("timeout must be at least one event")
        if job.name in self._resident_on:
            raise CircuitError(f"job {job.name!r} is already resident")
        if job.name in self._queued_on or any(
            entry.name == job.name for entry in self._overflow
        ):
            raise CircuitError(f"job {job.name!r} is already queued")
        self._event()
        self._stats.submitted += 1
        try:
            job.check_verifiable()
        except VerificationError:
            self._stats.rejected += 1
            raise
        eligible = self._eligible(job)
        if not eligible:
            self._stats.rejected += 1
            widest = max(
                shard.machine_size for shard in self.shards.values()
            )
            raise CapacityError(
                f"job {job.name!r} needs at least {job.reduced_width} "
                f"free qubits but the widest shard has {widest}"
            )
        order = self.placement.rank(job, eligible)
        # First pass: immediate admission in placement order.
        for shard_name in order:
            try:
                admission = self.shards[shard_name].admit(
                    job, strategy=strategy
                )
            except CapacityError:
                continue
            self._note_admitted(job, shard_name, immediate=True)
            backfilled = self._redistribute()
            self._check()
            return FleetSubmitOutcome(
                "admitted",
                shard=shard_name,
                admission=admission,
                backfilled=backfilled,
            )
        # Second pass: queue on the best-ranked shard that will hold
        # it.  An *empty* shard whose admit failed would reject instead
        # (the single-machine rule: an empty machine that cannot host
        # proves local impossibility), so those are skipped without
        # charging them a submission.  The shard's submit() ticks its
        # clock before retrying admit, so lease windows shift by one
        # round and the job may fit after all: then it is an immediate
        # admission on that shard, not a queue entry.
        for shard_name in order:
            shard = self.shards[shard_name]
            if shard.occupancy == 0:
                continue
            try:
                outcome = shard.submit(
                    job, strategy=strategy, timeout=timeout, priority=priority
                )
            except CapacityError:
                continue
            if outcome.admitted:
                self._note_admitted(job, shard_name, immediate=True)
                backfilled = list(self._absorb_drained(shard_name))
                backfilled.extend(self._redistribute())
                self._check()
                return FleetSubmitOutcome(
                    "admitted",
                    shard=shard_name,
                    admission=outcome.admission,
                    backfilled=tuple(backfilled),
                )
            self._queued_on[job.name] = shard_name
            # The shard's submit ticked its own clock, which may have
            # expired *other* entries queued there — re-sync the map.
            self._sync_shard_queues()
            self._stats.queued += 1
            self._track_deadline(job.name, deadline_s)
            self._check()
            return FleetSubmitOutcome("queued", shard=shard_name)
        # No shard can hold even a queue entry for it right now.  On a
        # completely empty fleet that is a proof of impossibility (no
        # co-tenant will ever lend); otherwise the job waits at the
        # fleet level for lending conditions to change.
        if self.occupancy == 0:
            self._stats.rejected += 1
            raise CapacityError(
                f"job {job.name!r} cannot be hosted by any empty shard "
                f"and the fleet is idle — queueing could never help"
            )
        self._overflow.append(
            _OverflowEntry(
                job=job,
                strategy=strategy,
                priority=priority,
                enqueued_event=self._events,
                expires_event=(
                    None if timeout is None else self._events + timeout
                ),
            )
        )
        self._queue_stats_overflow()
        self._track_deadline(job.name, deadline_s)
        self._check()
        return FleetSubmitOutcome("queued", shard=None)

    def release(self, name: str) -> Tuple[int, ...]:
        """Complete resident job ``name``; returns its shard's freed
        wires.

        The hosting shard's own release runs first (clock tick, expiry,
        local backfill), then the fleet pass: local drains on every
        shard, cross-shard migration of still-queued jobs, and an
        overflow drain.  Everything admitted along the way lands in
        :attr:`last_backfilled` / ``fleet_stats()["last_backfilled"]``.
        A name that is not resident raises before anything happens: a
        failed release is not a fleet event.
        """
        shard_name = self._resident_on.get(name)
        if shard_name is None:
            if name in self._queued_on or any(
                entry.name == name for entry in self._overflow
            ):
                raise CircuitError(
                    f"job {name!r} is queued, not resident — use "
                    f"cancel() to withdraw it"
                )
            raise CircuitError(
                f"no resident job named {name!r} on any shard"
            )
        self._event()
        shard = self.shards[shard_name]
        freed = shard.release(name)
        del self._resident_on[name]
        backfilled = list(self._absorb_drained(shard_name))
        backfilled.extend(self._redistribute())
        self.last_backfilled = tuple(backfilled)
        self._check()
        return freed

    def cancel(self, name: str) -> QuantumJob:
        """Withdraw a queued job from its shard queue or the overflow."""
        shard_name = self._queued_on.get(name)
        if shard_name is not None:
            job = self.shards[shard_name].cancel(name)
            del self._queued_on[name]
            self._deadlines.pop(name, None)
            return job
        for entry in self._overflow:
            if entry.name == name:
                self._overflow.remove(entry)
                self._deadlines.pop(name, None)
                return entry.job
        if name in self._resident_on:
            raise CircuitError(
                f"job {name!r} is resident on shard "
                f"{self._resident_on[name]!r}, not queued — use "
                f"release() to complete it"
            )
        raise CircuitError(f"no queued job named {name!r}")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _eligible(self, job: QuantumJob) -> Dict[str, MultiProgrammer]:
        """Shards whose machine covers the job's static width floor."""
        need = job.reduced_width
        return {
            name: shard
            for name, shard in self.shards.items()
            if need <= shard.machine_size
        }

    def _event(self) -> None:
        """One routed event: tick, reset provenance, expire deadlines."""
        self._events += 1
        self.last_backfilled = ()
        self._expire_overflow()
        self._expire_deadlines()

    def _track_deadline(
        self, name: str, deadline_s: Optional[float]
    ) -> None:
        if deadline_s is not None:
            self._deadlines[name] = self._clock_fn() + deadline_s

    def _expire_overflow(self) -> None:
        """Drop overflow entries whose fleet-event timeout lapsed."""
        for entry in list(self._overflow):
            if (
                entry.expires_event is not None
                and self._events >= entry.expires_event
            ):
                self._overflow.remove(entry)
                self._deadlines.pop(entry.name, None)
                self._stats.expired += 1
                self._stats.expired_names.append(entry.name)

    def _expire_deadlines(self) -> None:
        """Withdraw queued entries whose wall-clock deadline passed."""
        if not self._deadlines:
            return
        now = self._clock_fn()
        for name, expiry in list(self._deadlines.items()):
            if name in self._resident_on:
                # Admitted since: the deadline bounded queue wait only.
                del self._deadlines[name]
                continue
            queued_shard = self._queued_on.get(name)
            in_overflow = any(e.name == name for e in self._overflow)
            if queued_shard is None and not in_overflow:
                # Expired logically or drained away; nothing to bound.
                del self._deadlines[name]
                continue
            if now < expiry:
                continue
            if queued_shard is not None:
                try:
                    self.shards[queued_shard].cancel(name)
                except CircuitError:
                    # The shard dropped it on its own (logical expiry)
                    # between syncs; the wall deadline is then moot.
                    del self._queued_on[name]
                    del self._deadlines[name]
                    continue
                del self._queued_on[name]
            else:
                self._overflow = [
                    e for e in self._overflow if e.name != name
                ]
            del self._deadlines[name]
            self._stats.deadline_expired += 1
            self._stats.deadline_expired_names.append(name)

    def _note_admitted(
        self, job: QuantumJob, shard_name: str, immediate: bool
    ) -> None:
        self._resident_on[job.name] = shard_name
        if immediate:
            self._stats.admitted_immediately += 1
        else:
            self._stats.admitted_from_queue += 1
        self.placement.note_admitted(job, shard_name)

    def _queue_stats_overflow(self) -> None:
        self._stats.queued += 1
        self._stats.overflow_queued += 1

    def _absorb_drained(self, shard_name: str) -> Tuple[str, ...]:
        """Record a shard's just-run drain results in the fleet maps."""
        shard = self.shards[shard_name]
        admitted = shard.last_backfilled
        for name in admitted:
            self._queued_on.pop(name, None)
            self._note_admitted(
                shard.admission(name).job, shard_name, immediate=False
            )
        self._sync_shard_queues()
        return admitted

    def _sync_shard_queues(self) -> None:
        """Reconcile the fleet map with shard queues after their own
        expiry/rejection passes dropped entries."""
        pending = {
            shard_name: set(shard.pending())
            for shard_name, shard in self.shards.items()
        }
        for name, shard_name in list(self._queued_on.items()):
            if name in self._resident_on:
                del self._queued_on[name]
            elif name not in pending[shard_name]:
                del self._queued_on[name]
                self._deadlines.pop(name, None)

    def _redistribute(self) -> Tuple[str, ...]:
        """Drain every queue tier to a fixpoint; returns admitted names.

        Three passes per round — each shard's own policy drain, then
        cross-shard migration of still-queued jobs, then the overflow
        queue — repeated while any pass admits (an admission can offer
        new lendable wires anywhere in the fleet).
        """
        admitted: List[str] = []
        progress = True
        while progress:
            progress = False
            for shard_name, shard in self.shards.items():
                drained = shard.drain()
                if drained:
                    progress = True
                    admitted.extend(drained)
                self._absorb_drained(shard_name)
            for name in list(self._queued_on):
                if self._migrate(name):
                    progress = True
                    admitted.append(name)
            for entry in list(self._overflow):
                if self._admit_overflow(entry):
                    progress = True
                    admitted.append(entry.name)
        return tuple(admitted)

    def _migrate(self, name: str) -> bool:
        """Try to admit shard-queued job ``name`` on another shard."""
        home = self._queued_on.get(name)
        if home is None:
            return False
        try:
            entry = self.shards[home].queue_entry(name)
        except CircuitError:
            self._sync_shard_queues()
            return False
        for target in self.placement.rank(entry.job, self._eligible(entry.job)):
            if target == home:
                continue
            try:
                self.shards[target].admit(entry.job, strategy=entry.strategy)
            except CapacityError:
                continue
            # Admitted on the target: withdraw the stale queue entry.
            self.shards[home].cancel(name)
            del self._queued_on[name]
            self._deadlines.pop(name, None)
            self._note_admitted(entry.job, target, immediate=False)
            self._stats.migrations += 1
            return True
        return False

    def _admit_overflow(self, entry: _OverflowEntry) -> bool:
        """Try to admit an overflow entry; drop it if provably stuck."""
        for target in self.placement.rank(entry.job, self._eligible(entry.job)):
            try:
                self.shards[target].admit(
                    entry.job, strategy=entry.strategy
                )
            except CapacityError:
                continue
            self._overflow.remove(entry)
            self._deadlines.pop(entry.name, None)
            self._note_admitted(entry.job, target, immediate=False)
            self._stats.overflow_admitted += 1
            return True
        if self.occupancy == 0:
            # The whole fleet is idle and it still fits nowhere: no
            # future lending can help (mirrors the single-machine
            # empty-drain rejection rule).
            self._overflow.remove(entry)
            self._deadlines.pop(entry.name, None)
            self._stats.rejected += 1
        return False

    def _check(self) -> None:
        if not self.check_invariants:
            return
        for checker in self._shard_checkers:
            checker.check()
        self._check_consistency()

    def _check_consistency(self) -> None:
        """The fleet's own silent-state contract, re-derived from the
        shards: routing maps agree with shard reality, nothing lives
        in two places."""
        from repro.errors import InvariantViolation

        seen: Dict[str, str] = {}
        for shard_name, shard in self.shards.items():
            for resident in shard.residents:
                if resident in seen:
                    raise InvariantViolation(
                        f"job {resident!r} resident on both "
                        f"{seen[resident]!r} and {shard_name!r}"
                    )
                seen[resident] = shard_name
        if seen != self._resident_on:
            raise InvariantViolation(
                "fleet resident map out of sync with shard residents: "
                f"{self._resident_on} != {seen}"
            )
        for name, shard_name in self._queued_on.items():
            if name not in self.shards[shard_name].pending():
                raise InvariantViolation(
                    f"job {name!r} tracked as queued on {shard_name!r} "
                    f"but absent from its queue"
                )
            if name in seen:
                raise InvariantViolation(
                    f"job {name!r} both queued and resident"
                )
        for entry in self._overflow:
            if entry.name in seen or entry.name in self._queued_on:
                raise InvariantViolation(
                    f"overflow job {entry.name!r} also lives on a shard"
                )


__all__ = [
    "FleetRouter",
    "FleetStats",
    "FleetSubmitOutcome",
    "PlacementPolicy",
    "ShardSpec",
    "available_placements",
    "make_placement",
    "placement_class",
    "register_placement",
]
