"""Fleet tier: route jobs across many :class:`MultiProgrammer` shards.

One :class:`MultiProgrammer` is one machine.  The paper's Section 7
result — multi-programming raises utilisation — compounds at the next
level up: a *fleet* of machines behind one front door, where placement
(which shard hosts which job) matters as much as packing within a
shard.  :class:`FleetRouter` owns N shards (heterogeneous
``machine_size``, each named by a :class:`ShardSpec` or prebuilt) and
routes every ``submit()`` through a pluggable :class:`PlacementPolicy`.

Shards hold residents only.  A job no shard admits on arrival waits in
the fleet's one queue, and every event that changes a shard — an
admission or a release — drains that queue against that shard alone,
earliest deadline first.  No other shard needs a retry: a shard
changes state only through its own admissions and releases, so each
waiting job has already failed against every other shard's current
state.

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

Timeouts count fleet events (one per routed submit or release), so
seeded traces replay identically.

All shards share one :class:`~repro.verify.batch.BatchVerifier`
(unless prebuilt programmers are handed in), so its in-memory verdict
memo spans the fleet — a family verified on shard A verifies for free
when it next lands on shard B.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CapacityError, CircuitError, VerificationError
from repro.multiprog.queueing import QueueEntry, QueueStats
from repro.multiprog.scheduler import (
    Admission,
    MultiProgrammer,
    QuantumJob,
)
from repro.registry import make_registry
from repro.verify.batch import BatchVerifier


@dataclass(frozen=True)
class ShardSpec:
    """Size and name of one shard of a fleet.

    A plain ``int`` in ``FleetRouter(shards=[...])`` is shorthand for
    ``ShardSpec(machine_size=that_int)``.  A shard that needs other
    scheduler settings is passed prebuilt, as a
    :class:`MultiProgrammer` sharing the fleet's verifier.
    """

    machine_size: int
    name: Optional[str] = None


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
    fresh wires).
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
    #: Hosting shard when admitted; ``None`` when queued (the fleet
    #: queue belongs to no shard).
    shard: Optional[str] = None
    admission: Optional[Admission] = None
    #: Queued jobs the admission let in on the same shard.
    backfilled: Tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.status == "admitted"


def _drain_order(entry: QueueEntry) -> Tuple[bool, int, int]:
    """Earliest deadline first; entries without one follow, oldest
    first."""
    return (entry.deadline is None, entry.deadline or 0, entry.seq)


class FleetRouter:
    """N machines behind one ``submit()``/``release()`` front door.

    Mirrors the single-machine :class:`MultiProgrammer` surface
    (``submit``/``release``/``cancel``/``residents``/``pending``/
    ``admission``/``stats``/``snapshot``), so trace replay and the
    invariant harness drive either interchangeably; the fleet-only
    surface (``fleet_stats``, ``shard_tables``, ``resident_shards``)
    adds the per-shard view.

    ``shards`` entries may be plain ints (machine sizes), full
    :class:`ShardSpec`\\ s, or prebuilt :class:`MultiProgrammer`\\ s
    (which must be empty and keep their own verifier).  The router
    admits on shards with :meth:`MultiProgrammer.admit` only, so no
    shard ever holds a queue of its own.
    """

    def __init__(
        self,
        shards: Sequence[Union[int, ShardSpec, MultiProgrammer]],
        placement: Union[str, PlacementPolicy] = "least-loaded",
        backend: str = "bdd",
        verifier: Optional[BatchVerifier] = None,
    ):
        if not shards:
            raise CircuitError("a fleet needs at least one shard")
        self.verifier = verifier or BatchVerifier(backend=backend)
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
                    spec.machine_size, backend=backend, verifier=self.verifier
                )
            if name in self.shards:
                raise CircuitError(f"duplicate shard name {name!r}")
            self.shards[name] = shard
        self.placement = (
            placement
            if isinstance(placement, PlacementPolicy)
            else make_placement(placement)
        )
        #: Resident job name -> hosting shard name.
        self._resident_on: Dict[str, str] = {}
        #: The fleet queue, kept in drain order (:func:`_drain_order`).
        self._queue: List[QueueEntry] = []
        self._stats = QueueStats()
        #: Fleet logical clock: one tick per routed submit/release.
        self._events = 0
        #: Names the most recent event admitted from the queue.
        self.last_backfilled: Tuple[str, ...] = ()

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
        """Queued names, in drain order (earliest deadline first)."""
        return tuple(entry.name for entry in self._queue)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def resident_shards(self) -> Dict[str, str]:
        """Resident job name -> hosting shard name (a copy)."""
        return dict(self._resident_on)

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
        """The fleet queue's counters plus every shard's own stats.

        Wait times count fleet events.  ``migrations`` is always 0:
        queued jobs belong to no shard, so none ever moves.
        """
        data = self._stats.as_dict()
        data["migrations"] = 0
        data["placement"] = self.placement.name
        data["events"] = self._events
        data["machine_size"] = self.machine_size
        data["occupancy"] = self.occupancy
        data["free_qubits"] = self.free_qubits
        data["residents"] = len(self._resident_on)
        data["pending"] = len(self._queue)
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
        if self._queue:
            lines.append(f"queued: {', '.join(self.pending())}")
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
    ) -> FleetSubmitOutcome:
        """Admit ``job`` on the best shard, or queue it fleet-wide.

        The placement policy ranks the statically eligible shards
        (those whose ``machine_size`` covers the job's width floor);
        the first that admits hosts the job, and the fleet queue then
        drains against that shard.  If none admits, the job joins the
        fleet queue, unless the whole fleet is idle: then every
        eligible shard has just refused it empty, and no co-tenant will
        ever lend.

        ``timeout`` counts fleet events: a queued job still waiting
        that many events later expires.  ``priority`` is accepted for
        surface parity with :meth:`MultiProgrammer.submit` and ignored;
        the queue drains earliest deadline first.
        """
        if timeout is not None and timeout < 1:
            raise CircuitError("timeout must be at least one event")
        if job.name in self._resident_on:
            raise CircuitError(f"job {job.name!r} is already resident")
        if self._queued(job.name) is not None:
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
        for shard_name in self.placement.rank(job, eligible):
            try:
                admission = self.shards[shard_name].admit(
                    job, strategy=strategy
                )
            except CapacityError:
                continue
            self._stats.admitted_immediately += 1
            self._note_admitted(job, shard_name)
            self.last_backfilled = self._drain(shard_name)
            return FleetSubmitOutcome(
                "admitted",
                shard=shard_name,
                admission=admission,
                backfilled=self.last_backfilled,
            )
        if self.occupancy == 0:
            self._stats.rejected += 1
            raise CapacityError(
                f"job {job.name!r} cannot be hosted by any empty shard "
                f"and the fleet is idle — queueing could never help"
            )
        self._queue.append(
            QueueEntry(
                job=job,
                strategy=strategy,
                enqueued_at=self._events,
                deadline=None if timeout is None else self._events + timeout,
                # One submission per event, so the event orders arrivals.
                seq=self._events,
                priority=priority,
            )
        )
        self._queue.sort(key=_drain_order)
        self._stats.queued += 1
        return FleetSubmitOutcome("queued")

    def release(self, name: str) -> Tuple[int, ...]:
        """Complete resident job ``name``; returns its shard's freed
        wires.

        The fleet queue then drains against the freed shard; the jobs
        it admits land in :attr:`last_backfilled` /
        ``fleet_stats()["last_backfilled"]``.  If the fleet is idle
        afterwards, every job still queued has failed on every empty
        shard and is rejected.  A name that is not resident raises
        before anything happens: a failed release is not a fleet event.
        """
        shard_name = self._resident_on.get(name)
        if shard_name is None:
            if self._queued(name) is not None:
                raise CircuitError(
                    f"job {name!r} is queued, not resident — use "
                    f"cancel() to withdraw it"
                )
            raise CircuitError(
                f"no resident job named {name!r} on any shard"
            )
        self._event()
        freed = self.shards[shard_name].release(name)
        del self._resident_on[name]
        self.last_backfilled = self._drain(shard_name)
        if self.occupancy == 0:
            self._stats.rejected += len(self._queue)
            self._queue.clear()
        return freed

    def cancel(self, name: str) -> QuantumJob:
        """Withdraw a queued job from the fleet queue; returns it."""
        entry = self._queued(name)
        if entry is None:
            if name in self._resident_on:
                raise CircuitError(
                    f"job {name!r} is resident on shard "
                    f"{self._resident_on[name]!r}, not queued — use "
                    f"release() to complete it"
                )
            raise CircuitError(f"no queued job named {name!r}")
        self._queue.remove(entry)
        self._stats.cancelled += 1
        return entry.job

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _queued(self, name: str) -> Optional[QueueEntry]:
        for entry in self._queue:
            if entry.name == name:
                return entry
        return None

    def _eligible(self, job: QuantumJob) -> Dict[str, MultiProgrammer]:
        """Shards whose machine covers the job's static width floor."""
        need = job.reduced_width
        return {
            name: shard
            for name, shard in self.shards.items()
            if need <= shard.machine_size
        }

    def _event(self) -> None:
        """One routed event: tick, then expire overdue queued jobs
        before anything is admitted."""
        self._events += 1
        self.last_backfilled = ()
        for entry in [
            entry
            for entry in self._queue
            if entry.deadline is not None and self._events >= entry.deadline
        ]:
            self._queue.remove(entry)
            self._stats.expired += 1
            self._stats.expired_names.append(entry.name)
            self._stats.total_wait += self._events - entry.enqueued_at

    def _note_admitted(self, job: QuantumJob, shard_name: str) -> None:
        self._resident_on[job.name] = shard_name
        self.placement.note_admitted(job, shard_name)

    def _drain(self, shard_name: str) -> Tuple[str, ...]:
        """Admit queued jobs on ``shard_name``, the one shard whose
        state just changed; returns their names.

        Passes over the queue in drain order repeat until one admits
        nothing, since an admission can offer new lendable wires.  An
        entry whose width floor exceeds the shard's free pool is skipped
        without calling ``admit``: that is the exact capacity test
        ``admit`` applies, and ``submit`` already ran its argument
        checks when it queued the entry.  An entry whose admission fails
        for a reason other than capacity is rejected rather than left to
        fail on every later drain.
        """
        shard = self.shards[shard_name]
        admitted: List[str] = []
        progress = True
        while progress:
            progress = False
            for entry in list(self._queue):
                if entry.job.reduced_width > shard.free_qubits:
                    continue
                try:
                    shard.admit(entry.job, strategy=entry.strategy)
                except CapacityError:
                    continue
                except (CircuitError, VerificationError):
                    self._queue.remove(entry)
                    self._stats.rejected += 1
                    continue
                self._queue.remove(entry)
                self._stats.admitted_from_queue += 1
                self._stats.total_wait += self._events - entry.enqueued_at
                self._note_admitted(entry.job, shard_name)
                admitted.append(entry.name)
                progress = True
        return tuple(admitted)


__all__ = [
    "FleetRouter",
    "FleetSubmitOutcome",
    "PlacementPolicy",
    "ShardSpec",
    "available_placements",
    "make_placement",
    "placement_class",
    "register_placement",
]
