"""Online multi-programming with verified cross-program borrowing.

The model: each job is a circuit over its own wires, some of which are
declared *dirty-ancilla requests*.  Jobs arrive over time
(QuCloud-style, the paper's Section 7 scenario):

* :meth:`MultiProgrammer.admit` places one arriving job against the
  machine's *live occupancy* — its circuit is first width-reduced by a
  registered allocation strategy (:mod:`repro.alloc`), then any safe
  ancilla still unplaced may borrow an idle wire a resident co-tenant
  lends out;
* lending is **time-sliced**: a lent wire carries a set of
  non-overlapping :class:`Lease`\\ s rather than a single guest.  Each
  lease covers exactly the ancilla's *lending window* — a
  :class:`~repro.circuits.intervals.WindowSet` of disjoint gate-index
  segments, straight from the interval model — mapped onto the machine
  timeline by the composite-interleave convention: every resident
  advances one gate per logical event round, so a job admitted at
  round ``t`` occupies a lent wire during ``window.shifted(t)``.  A
  new guest may therefore land on a wire that is *already lent out*,
  as long as its window set is disjoint from every existing lease.
  Under ``lending="segmented"`` the windows carry the restore-point
  segmentation (:func:`~repro.circuits.intervals.restore_segments`) —
  an ancilla idle *and restored* between its compute/uncompute
  segments releases the wire in the gap, so other guests interleave
  through it; ``lending="windowed"`` (the default) keeps whole-period
  windows.  Which feasible wire a new lease lands on is a registered
  :class:`~repro.multiprog.packing.LeasePacker` policy
  (``first-fit`` / ``best-fit`` / ``earliest-gap``), selectable per
  scheduler;
* verification is *lazy*: only ancillas with a candidate host (their
  own circuit's, or an offered co-tenant wire) pay solver time, in one
  batched :class:`~repro.verify.batch.BatchVerifier` call per
  admission, memoised for the scheduler's lifetime;
* :meth:`MultiProgrammer.release` returns a completed job's wires to
  the pool and retires *only that guest's* leases; wires lent to
  still-resident guests stay occupied until the last guest finishes;
* a policy knob picks the allocation strategy per admission, so light
  jobs can take greedy while width-critical ones pay for lookahead;
* :meth:`MultiProgrammer.submit` is the queueing front door: an arrival
  that does not fit *waits* (instead of bouncing), and every release —
  or any admission that creates new lendable wires — triggers a drain
  pass that re-attempts queued jobs under a registered
  :class:`~repro.multiprog.queueing.QueuePolicy` (``fifo`` strict
  head-of-line vs ``backfill`` out-of-order).  Queued jobs carry
  optional logical-clock timeouts, can be cancelled, and the queue is
  fully introspectable (:meth:`pending`, :meth:`stats`).

The historical batch entry point, :meth:`MultiProgrammer.schedule`, is
a thin replay over the online path: it admits every job in arrival
order on a fresh machine (sharing the memoising verifier), then merges
the batch into one composite circuit and runs the Figure 3.1 pass over
it — byte-for-byte the seed scheduler's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.alloc import (
    BorrowPlan,
    ConflictModel,
    allocate,
    build_model,
    strategy_class,
)
from repro.circuits.circuit import Circuit
from repro.circuits.intervals import (
    SegmentCheck,
    WindowSet,
    solver_restore_checker,
)
from repro.errors import CapacityError, CircuitError, VerificationError
from repro.multiprog.packing import LeasePacker, make_packer
from repro.multiprog.queueing import (
    QueueEntry,
    QueuePolicy,
    QueueStats,
    SubmitOutcome,
    make_policy,
)
from repro.verify.batch import BatchVerifier

#: Lending modes, loosest first: ``segmented`` leases restore-point
#: window sets, ``windowed`` leases whole-period windows.
LENDING_MODES = ("segmented", "windowed")


@dataclass(frozen=True)
class BorrowRequest:
    """One dirty-ancilla wire a job would like to outsource.

    ``certified`` marks a wire whose (6.1)/(6.2) safety was already
    proven statically — by the surface language's borrow checker
    (:func:`repro.lang.surface.elaborate.job_from_qbr` sets it from
    ``proven_wires``).  The scheduler treats a certified wire as safe
    without issuing a :class:`~repro.verify.batch.BatchVerifier`
    obligation and counts the skip in ``stats()['static_discharged']``
    (an admission attempt the capacity precheck refuses verifies
    nothing, so it counts nothing).
    """

    wire: int
    certified: bool = False


@dataclass(frozen=True)
class Lease:
    """One time-sliced tenancy of a guest ancilla on a lent wire.

    ``window`` is a :class:`WindowSet` expressed in *machine rounds* —
    the composite interleave executes one gate per resident per logical
    event round, so a guest admitted at round ``t`` whose ancilla has
    lending window ``w`` in its own circuit touches the wire exactly
    during ``w.shifted(t)``.  Under segmented lending the set carries
    several segments and the lease covers *only* those: the restore
    gaps between them are free rounds any other lease may use.  The
    scheduler admits a new lease onto a wire only when its window set
    is disjoint from every lease already on that wire, which is what
    lets one idle wire serve several concurrent guests.
    """

    guest: str
    ancilla: int
    wire: int
    window: WindowSet

    def overlaps(self, other: "Lease") -> bool:
        """True when the two leases compete for the same rounds."""
        return self.window.overlaps(other.window)

    def __str__(self) -> str:
        return (
            f"{self.guest}:a{self.ancilla} on m{self.wire} "
            f"rounds {self.window}"
        )


@dataclass
class QuantumJob:
    """A workload submitted to the multi-programmer."""

    name: str
    circuit: Circuit
    ancilla_requests: List[BorrowRequest] = field(default_factory=list)

    def __post_init__(self):
        for request in self.ancilla_requests:
            if not 0 <= request.wire < self.circuit.num_qubits:
                raise CircuitError(
                    f"job {self.name}: ancilla wire {request.wire} outside "
                    f"the circuit"
                )

    @property
    def request_wires(self) -> Tuple[int, ...]:
        return tuple(r.wire for r in self.ancilla_requests)

    @property
    def reduced_width(self) -> int:
        """Floor on the job's fresh-qubit need: each requested ancilla
        can save at most one fresh wire (removed internally or
        cross-borrowed), so the wire count minus the requests bounds
        what any placement can achieve.  The :meth:`MultiProgrammer.admit`
        capacity precheck, the submit fail-fast and the ``sjf`` queue
        policy all key off this."""
        return self.circuit.num_qubits - len(self.ancilla_requests)

    def check_verifiable(self):
        """Raise :class:`~repro.errors.VerificationError` when the job
        requests ancillas and one of its gates is not classical: the
        Section 6 checks decide classical circuits only, so nothing
        else may borrow."""
        if self.ancilla_requests and not all(
            gate.is_classical for gate in self.circuit.gates
        ):
            raise VerificationError(
                f"job {self.name}: only classical circuits can be "
                f"auto-verified for cross-program borrowing"
            )


@dataclass
class Admission:
    """Outcome of :meth:`MultiProgrammer.admit` — one resident job.

    Attributes
    ----------
    name / job:
        The admitted workload.
    plan:
        The job's internal width-reduction (:class:`BorrowPlan`) under
        the admission's strategy.
    wires:
        Machine wire of each reduced-circuit wire, in wire order.
    cross_hosts:
        Original ancilla wire -> machine wire borrowed from a resident
        co-tenant (ancillas the internal pass could not place).
    leases:
        Original ancilla wire -> the :class:`Lease` recording the
        gate-round window that borrow occupies on the machine timeline
        (same keys as ``cross_hosts``).
    gate_offset:
        Machine round this admission's gate 0 executes at (the logical
        clock at admission) — the offset its lending windows were
        shifted by.
    safety:
        Verified verdicts, by original ancilla wire.  Ancillas skipped
        by lazy verification (no candidate host anywhere) are absent.
    seq:
        Arrival number, for deterministic accounting.
    strategy:
        Allocation strategy used for this admission.
    """

    name: str
    job: QuantumJob
    plan: BorrowPlan
    wires: Tuple[int, ...]
    cross_hosts: Dict[int, int]
    safety: Dict[int, bool]
    seq: int
    strategy: str
    leases: Dict[int, Lease] = field(default_factory=dict)
    gate_offset: int = 0

    @property
    def fresh_wires(self) -> Tuple[int, ...]:
        """Machine wires taken from the free pool (not borrowed)."""
        borrowed = set(self.cross_hosts.values())
        return tuple(w for w in self.wires if w not in borrowed)

    @property
    def qubits_saved(self) -> int:
        """Free-pool qubits this job did not need, versus naive width."""
        return self.job.circuit.num_qubits - len(self.fresh_wires)

    def wire_of(self, original: int) -> int:
        """Machine wire an original job wire ended up on."""
        if original in self.cross_hosts:
            return self.cross_hosts[original]
        target = original
        if target in self.plan.assignment:
            target = self.plan.assignment[target]
        if target not in self.plan.wire_map:
            raise CircuitError(
                f"wire {original} of job {self.name} was eliminated"
            )
        return self.wires[self.plan.wire_map[target]]

    def summary(self) -> str:
        parts = [
            f"{self.name}: {self.job.circuit.num_qubits} wires -> "
            f"{len(self.fresh_wires)} fresh"
        ]
        if self.cross_hosts:
            borrows = ", ".join(
                f"a{a}->m{w}" for a, w in sorted(self.cross_hosts.items())
            )
            parts.append(f"borrowed [{borrows}]")
        return " ".join(parts)


@dataclass
class ScheduleResult:
    """Outcome of the batch :meth:`MultiProgrammer.schedule`."""

    composite: Circuit
    plan: BorrowPlan
    job_offsets: Dict[str, int]
    safety: Dict[Tuple[str, int], bool]
    naive_width: int
    final_width: int
    machine_size: int
    admissions: Optional[List[Admission]] = None

    @property
    def qubits_saved(self) -> int:
        return self.naive_width - self.final_width

    @property
    def fits_machine(self) -> bool:
        return self.final_width <= self.machine_size

    def summary(self) -> str:
        lines = [
            f"machine={self.machine_size} naive_width={self.naive_width} "
            f"final_width={self.final_width} saved={self.qubits_saved}",
        ]
        for (job, wire), safe in sorted(self.safety.items()):
            verdict = "safe" if safe else "UNSAFE (kept private)"
            lines.append(f"  {job} ancilla wire {wire}: {verdict}")
        return "\n".join(lines)


class MultiProgrammer:
    """An online machine packer with verified dirty-qubit borrowing.

    Parameters
    ----------
    machine_size:
        Physical wire count.
    backend:
        Verification backend for ancilla safety checks.
    strategy:
        Default allocation strategy for admissions and for the batch
        composite pass (any name in
        :func:`repro.alloc.available_strategies`).
    verifier:
        Optional shared :class:`BatchVerifier`; by default the
        scheduler owns one for its lifetime, so ancilla verdicts are
        memoised by circuit fingerprint and re-submitting a job costs
        no solver runs after the first admission.
    queue_policy:
        Admission-queue drain policy — a registered name
        (:func:`repro.multiprog.queueing.available_policies`: ``fifo``,
        ``backfill``, ``sjf`` or ``priority``) or a :class:`QueuePolicy`
        instance.  Governs :meth:`submit` / the backfill passes; plain
        :meth:`admit` never touches the queue.
    lending:
        ``"windowed"`` (default) — a lent wire carries any number of
        window-disjoint :class:`Lease`\\ s covering each guest's whole
        activity period, so several concurrent guests can multiplex one
        idle wire; ``"segmented"`` — windows are refined by the
        restore-point analysis into :class:`WindowSet`\\ s, so a lease
        covers only the guest's compute/uncompute segments and other
        guests interleave through the restore gaps.  Restore segments
        are certified by the structural ``C;C⁻¹`` palindrome check with
        a semantic fallback
        (:func:`~repro.circuits.intervals.solver_restore_checker`
        sharing this scheduler's memoised verifier), so identity blocks
        that are not palindromes still split into lease segments.
    lease_packer:
        Which feasible offered wire a new lease lands on — a registered
        name (:func:`repro.multiprog.packing.available_packers`:
        ``first-fit``, ``best-fit`` or ``earliest-gap``) or a
        :class:`LeasePacker` instance.

    Interval-conflict models are memoised by ``(circuit fingerprint,
    request wires)`` (the lending mode is fixed per scheduler, so that
    key identifies the model): drain passes and resubmissions pay a
    dict lookup instead of O(gates) per re-attempted queue entry, and
    the hit/miss counts show in :meth:`stats`.
    """

    def __init__(
        self,
        machine_size: int,
        backend: str = "bdd",
        strategy: str = "greedy",
        verifier: Optional[BatchVerifier] = None,
        queue_policy: Union[str, QueuePolicy] = "fifo",
        lending: str = "windowed",
        lease_packer: Union[str, LeasePacker] = "first-fit",
    ):
        if machine_size < 1:
            raise CircuitError("machine must have at least one qubit")
        if lending not in LENDING_MODES:
            raise CircuitError(
                f"lending must be one of {', '.join(LENDING_MODES)}, "
                f"got {lending!r}"
            )
        self.machine_size = machine_size
        self.backend = backend
        self.strategy = strategy
        self.lending = lending
        self.lease_packer = (
            lease_packer
            if isinstance(lease_packer, LeasePacker)
            else make_packer(lease_packer)
        )
        self.queue_policy = (
            queue_policy
            if isinstance(queue_policy, QueuePolicy)
            else make_policy(queue_policy)
        )
        self.verifier = verifier or BatchVerifier(backend=backend)
        #: The segment certifier handed to every model build (None
        #: outside segmented lending, which never segments).  Shared
        #: with the invariant checker, which must re-derive lease
        #: windows over the same analysis.
        self.segment_check: Optional[SegmentCheck] = (
            solver_restore_checker(verifier=self.verifier)
            if lending == "segmented"
            else None
        )
        #: (circuit fingerprint, request wires) -> memoised model.
        self._model_cache: Dict[
            Tuple[str, Tuple[int, ...]], ConflictModel
        ] = {}
        self.model_cache_hits = 0
        self.model_cache_misses = 0
        self._residents: Dict[str, Admission] = {}
        #: Machine wire -> resident names holding it (owner and guests).
        self._holders: Dict[int, Set[str]] = {}
        #: Set once an ``enforce_capacity=False`` admission takes a wire
        #: past the machine's end; until then every held wire is a
        #: machine wire and :attr:`free_qubits` is O(1).
        self._overflowed = False
        #: Idle machine wire -> owner offering it to co-tenant guests.
        self._idle_owner: Dict[int, str] = {}
        #: Lent machine wire -> its active leases, in grant order.
        self._leases: Dict[int, List[Lease]] = {}
        #: Lifetime count of leases granted (bench/introspection).
        self.total_leases = 0
        #: Lifetime count of solver obligations skipped because the
        #: requested ancilla arrived statically certified (one per
        #: certified wire per admission attempt that would otherwise
        #: have verified it; attempts the capacity precheck refuses
        #: verify nothing, so they do not count).
        self.static_discharged = 0
        self._seq = 0
        #: The admission wait queue, oldest entry first.
        self._queue: List[QueueEntry] = []
        self._queue_stats = QueueStats()
        #: Logical clock: one tick per submit/release event.  Timeouts
        #: are expressed in these ticks, so queue behaviour is
        #: deterministic and replayable.
        self._clock = 0
        self._queue_seq = 0
        #: Names the most recent event's backfill pass admitted from
        #: the queue (reset at the start of every submit/release).
        #: ``submit`` also returns them in its outcome; ``release``
        #: cannot without breaking the freed-wires contract, so this
        #: attribute (mirrored in ``stats()``) carries the provenance.
        self.last_backfilled: Tuple[str, ...] = ()
    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def residents(self) -> Tuple[str, ...]:
        """Names of the jobs currently on the machine, by arrival."""
        return tuple(self._residents)

    @property
    def occupancy(self) -> int:
        """Machine wires currently held by at least one resident."""
        return len(self._holders)

    @property
    def free_qubits(self) -> int:
        """Machine wires no resident holds: the pool :meth:`admit`
        takes fresh wires from.  Overflow wires past the machine's end
        (only an ``enforce_capacity=False`` admission takes them) are
        not machine wires, so they do not shrink it."""
        held = len(self._holders)
        if self._overflowed:
            held = sum(1 for wire in self._holders if wire < self.machine_size)
        return self.machine_size - held

    @property
    def lendable_wires(self) -> Tuple[int, ...]:
        """Offered wires with no active lease at all.

        Under windowed lending this understates availability — a wire
        that is already leased can still take any window-disjoint
        lease; :meth:`lease_table` (plus :meth:`idle_offers`) is the
        per-window truth.  Kept with its historical meaning as the
        "completely free to lend" view.
        """
        return tuple(
            sorted(
                w for w in self._idle_owner if not self._leases.get(w)
            )
        )

    def admission(self, name: str) -> Admission:
        adm = self._residents.get(name)
        if adm is None:
            raise CircuitError(f"no resident job named {name!r}")
        return adm

    def occupancy_table(self) -> Dict[int, Tuple[str, ...]]:
        """Machine wire -> sorted names of the residents holding it.

        A wire multiplexed across several guests lists them all; the
        per-window breakdown of *when* each guest holds it is
        :meth:`lease_table`.
        """
        return {
            wire: tuple(sorted(holders))
            for wire, holders in sorted(self._holders.items())
        }

    def idle_offers(self) -> Dict[int, str]:
        """Machine wire -> resident offering it to co-tenant guests.

        An offer stays live while the wire is leased: under windowed
        lending the wire can still host any window-disjoint lease, so
        availability is per gate-round window, not per wire.
        """
        return dict(sorted(self._idle_owner.items()))

    def lease_table(self) -> Dict[int, Tuple[Lease, ...]]:
        """Machine wire -> its active leases, by window start.

        The per-window availability report: the gaps between (and
        around) a wire's lease windows are exactly the rounds a new
        guest could still lease, provided the wire's owner offer is
        live (:meth:`idle_offers`).
        """
        return {
            wire: tuple(
                sorted(
                    leases,
                    key=lambda lease: (lease.window.first, lease.guest),
                )
            )
            for wire, leases in sorted(self._leases.items())
            if leases
        }

    def pending(self) -> Tuple[str, ...]:
        """Names of the queued (not yet admitted) jobs, oldest first."""
        return tuple(entry.name for entry in self._queue)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def stats(self) -> Dict[str, object]:
        """Lifetime queue counters plus a live snapshot (JSON-friendly).

        Wait times are in logical-clock events — the unit timeouts are
        expressed in — not wall seconds.
        """
        data = self._queue_stats.as_dict()
        data["policy"] = self.queue_policy.name
        data["lending"] = self.lending
        data["packer"] = self.lease_packer.name
        data["leases_granted"] = self.total_leases
        data["static_discharged"] = self.static_discharged
        data["pending"] = len(self._queue)
        data["residents"] = len(self._residents)
        data["clock"] = self._clock
        data["last_backfilled"] = list(self.last_backfilled)
        data["model_cache_hits"] = self.model_cache_hits
        data["model_cache_misses"] = self.model_cache_misses
        return data

    def snapshot(self) -> str:
        lines = [
            f"machine {self.machine_size} qubits: {self.occupancy} busy, "
            f"{self.free_qubits} free, "
            f"{len(self.lendable_wires)} lendable, "
            f"{len(self._queue)} queued"
        ]
        for adm in self._residents.values():
            lines.append(f"  {adm.summary()}")
        for wire, leases in self.lease_table().items():
            spans = ", ".join(
                f"{lease.guest}:a{lease.ancilla}@{lease.window}"
                for lease in leases
            )
            lines.append(f"  m{wire} leased [{spans}]")
        for entry in self._queue:
            lines.append(
                f"  {entry.name}: waiting since t={entry.enqueued_at}"
                + (
                    f" (expires t={entry.deadline})"
                    if entry.deadline is not None
                    else ""
                )
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Online path
    # ------------------------------------------------------------------ #

    def admit(
        self,
        job: QuantumJob,
        strategy: Optional[str] = None,
        enforce_capacity: bool = True,
        lazy_verify: bool = True,
    ) -> Admission:
        """Place an arriving job against live machine occupancy.

        Raises :class:`~repro.errors.CapacityError` when the job needs
        more free qubits than the machine has (the over-capacity
        rejection), unless ``enforce_capacity`` is off — the batch
        replay uses that to report non-fitting schedules instead of
        failing fast.

        The capacity check costs O(1) and runs right after the
        argument checks (already resident, a non-classical job with
        requests, unknown strategy name), before any verification,
        model, allocation, lease or materialise work:
        ``job.reduced_width > free_qubits`` refuses at once.  The
        refusal is exact.  An admission holds
        ``plan.final_width - len(cross_hosts)`` fresh wires, and its
        assigned, untouched and cross-hosted ancillas are disjoint
        subsets of its requests, so it never holds fewer than
        ``reduced_width``.  A refused attempt therefore never reaches
        the verifier or the strategy's planner.
        """
        if job.name in self._residents:
            raise CircuitError(f"job {job.name!r} is already resident")
        strategy = strategy or self.strategy
        job.check_verifiable()
        if isinstance(strategy, str):
            strategy_class(strategy)  # an unknown name raises CircuitError
        free = self.free_qubits
        if enforce_capacity and job.reduced_width > free:
            raise CapacityError(
                f"job {job.name!r} needs at least {job.reduced_width} "
                f"free qubits but the machine has {free}"
            )

        safety, model = self._verify_job(job, lazy_verify)
        # Every requested wire goes into the model (so an unsafe or
        # unverified ancilla stays OFF the host list, exactly like the
        # batch path); the gate then skips the unplaceable ones.  The
        # model built for the lazy-verification decision is reused.
        plan = allocate(
            job.circuit,
            job.request_wires,
            strategy=self._engine(
                strategy,
                frozenset(
                    r.wire for r in job.ancilla_requests if r.certified
                ),
            ),
            safety_check=lambda _, a: bool(safety.get(a)),
            on_unsafe="skip",
            model=model,
        )
        # Ancillas the internal pass could not place may lease a wire a
        # co-tenant lends out (safe ones only — an unverified ancilla
        # never crosses a program boundary).
        candidates = (
            (a, plan.windows[a]) for a in plan.unplaced if safety.get(a)
        )
        return self._place(
            job, plan, safety, candidates, strategy, enforce_capacity
        )

    # ------------------------------------------------------------------ #
    # Queueing path
    # ------------------------------------------------------------------ #

    def submit(
        self,
        job: QuantumJob,
        strategy: Optional[str] = None,
        timeout: Optional[int] = None,
        priority: int = 0,
    ) -> SubmitOutcome:
        """Admit an arriving job, or queue it until capacity frees up.

        The queueing alternative to :meth:`admit`: a job the machine
        cannot hold right now waits in the admission queue and is
        re-attempted by the backfill pass every :meth:`release` (and
        after any admission that creates new lendable wires) under the
        scheduler's :class:`QueuePolicy`.  Under strict ``fifo`` a new
        arrival never overtakes the queue — it is attempted only when
        the queue is empty; under ``backfill`` every arrival is tried
        immediately.

        ``priority`` orders the ``priority`` queue policy's drain
        passes (higher first; other policies ignore it).  ``timeout``
        is a logical-clock budget: the queued job expires
        (dropped, counted in :meth:`stats`) if still waiting after that
        many submit/release events.  A job that can never be admitted
        is rejected at submission rather than queued: one that provably
        cannot fit an empty machine (width minus ancilla requests
        exceeds the machine, or the immediate attempt fails with the
        machine already empty) raises
        :class:`~repro.errors.CapacityError`, and a job outside the
        verifiable fragment (non-classical with ancilla requests)
        raises :class:`~repro.errors.VerificationError` — queueing
        either could never help, and a FIFO queue must not be clogged
        by the unadmittable.
        """
        if timeout is not None and timeout < 1:
            raise CircuitError("timeout must be at least one event")
        if job.name in self._residents:
            raise CircuitError(f"job {job.name!r} is already resident")
        if any(entry.name == job.name for entry in self._queue):
            raise CircuitError(f"job {job.name!r} is already queued")
        # Every submission is one logical event, rejections included:
        # the clock ticks and overdue entries expire before any outcome
        # is decided, so a trace containing fail-fast rejects advances
        # queued timeouts exactly like one made of admissible jobs.
        self._clock += 1
        self._expire()
        self._queue_stats.submitted += 1
        self.last_backfilled = ()
        # Fail-fast checks that do not depend on machine state — they
        # must run even when the policy skips the immediate admit
        # attempt (fifo with a non-empty queue), or an unadmittable
        # job would silently head-block the queue.
        try:
            job.check_verifiable()
        except VerificationError:
            self._queue_stats.rejected += 1
            raise
        min_fresh = job.reduced_width
        if min_fresh > self.machine_size:
            self._queue_stats.rejected += 1
            raise CapacityError(
                f"job {job.name!r} needs at least {min_fresh} free "
                f"qubits but the machine has {self.machine_size} in "
                f"total"
            )
        if not self._queue or self.queue_policy.allows_overtaking:
            try:
                admission = self.admit(job, strategy=strategy)
            except CapacityError:
                if self.occupancy == 0:
                    # Even a fully empty machine cannot host this job.
                    self._queue_stats.rejected += 1
                    raise
            else:
                self._queue_stats.admitted_immediately += 1
                # This admission may have offered new lendable wires;
                # a queued job might fit through a cross-borrow now.
                backfilled = self._drain() if self._queue else ()
                return SubmitOutcome(
                    "admitted", admission=admission, backfilled=backfilled
                )
        self._queue_seq += 1
        entry = QueueEntry(
            job=job,
            strategy=strategy,
            enqueued_at=self._clock,
            deadline=None if timeout is None else self._clock + timeout,
            seq=self._queue_seq,
            priority=priority,
        )
        self._queue.append(entry)
        self._queue_stats.queued += 1
        return SubmitOutcome("queued", position=len(self._queue) - 1)

    def cancel(self, name: str) -> QuantumJob:
        """Withdraw a queued (not yet admitted) job; returns it.

        A *resident* job cannot be cancelled — it already holds wires
        and must run to completion via :meth:`release`; the error
        distinguishes that case from a name the scheduler has never
        heard of.
        """
        for entry in self._queue:
            if entry.name == name:
                self._queue.remove(entry)
                self._queue_stats.cancelled += 1
                return entry.job
        if name in self._residents:
            raise CircuitError(
                f"job {name!r} is resident, not queued — it already "
                f"holds machine wires; use release() to complete it"
            )
        raise CircuitError(f"no queued job named {name!r}")

    def _expire(self) -> Tuple[str, ...]:
        """Drop queued entries whose logical-clock deadline has passed."""
        expired = [
            entry
            for entry in self._queue
            if entry.deadline is not None and self._clock >= entry.deadline
        ]
        for entry in expired:
            self._queue.remove(entry)
            self._queue_stats.expired += 1
            self._queue_stats.expired_names.append(entry.name)
            # An expired job waited from enqueue to now; mean wait
            # must cover these, not just the lucky admitted-from-queue
            # entries, or it underreports congestion.
            self._queue_stats.total_wait += self._clock - entry.enqueued_at
        return tuple(entry.name for entry in expired)

    def _drain(self) -> Tuple[str, ...]:
        """Run policy drain passes to a fixpoint; returns admitted names.

        Each admission inside a pass can change what fits next (it may
        offer new lendable wires), so passes repeat until one admits
        nothing.  An entry that can never be admitted — it fails to fit
        on an *empty* machine, or its admission raises for a
        non-capacity reason (a bad strategy name, an unverifiable
        circuit) — is dropped as rejected rather than left to clog a
        FIFO queue (or poison every future drain pass) forever.
        """
        admitted_names: List[str] = []
        while self._queue:
            impossible: List[QueueEntry] = []

            def try_admit(entry: QueueEntry) -> Optional[Admission]:
                try:
                    return self.admit(entry.job, strategy=entry.strategy)
                except CapacityError:
                    if self.occupancy == 0:
                        impossible.append(entry)
                    return None
                except (CircuitError, VerificationError):
                    impossible.append(entry)
                    return None

            admitted = self.queue_policy.drain(self._queue, try_admit)
            for entry in admitted:
                self._queue_stats.admitted_from_queue += 1
                self._queue_stats.total_wait += (
                    self._clock - entry.enqueued_at
                )
                admitted_names.append(entry.name)
            for entry in impossible:
                if entry in self._queue:
                    self._queue.remove(entry)
                    self._queue_stats.rejected += 1
            if not admitted and not impossible:
                break
        self.last_backfilled = tuple(admitted_names)
        return tuple(admitted_names)

    def release(self, name: str) -> Tuple[int, ...]:
        """Complete a resident job; returns the machine wires freed.

        Only this guest's leases retire — a wire it shared with other
        window-disjoint guests stays occupied by them (and by its
        owner, if still resident) and is freed when the last of them
        releases.  Releasing also ticks the logical clock, expires
        overdue queued jobs, and runs a backfill pass admitting any
        queued job that now fits under the scheduler's
        :class:`QueuePolicy`.  The return value stays the freed wires
        (the historical contract); the names the backfill pass admitted
        are recorded in :attr:`last_backfilled` and
        ``stats()["last_backfilled"]`` so callers can attribute queue
        admissions to the release that caused them.
        """
        admission = self._residents.get(name)
        if admission is None:
            if any(entry.name == name for entry in self._queue):
                raise CircuitError(
                    f"job {name!r} is queued, not resident — it holds "
                    f"no wires yet; use cancel() to withdraw it"
                )
            raise CircuitError(f"no resident job named {name!r}")
        self._clock += 1
        self._expire()
        self.last_backfilled = ()
        freed = self._evict(admission)
        # Windows this job leased return to the owners' pools
        # automatically: the owners' _idle_owner entries persist and
        # the retired leases no longer block anyone.
        self._drain()
        return tuple(sorted(freed))

    # ------------------------------------------------------------------ #
    # Batch path (historical API, replayed over the online engine)
    # ------------------------------------------------------------------ #

    def schedule(
        self, jobs: Sequence[QuantumJob], require_fit: bool = True
    ) -> ScheduleResult:
        """Merge, verify, and borrow; raises if the result exceeds the
        machine and ``require_fit`` is set.

        Implemented as a replay over the online path: every job is
        admitted in arrival order on a fresh machine sharing this
        scheduler's memoising verifier (capacity unenforced, so
        ``require_fit=False`` can still report), and the resident batch
        is then compacted as one composite circuit — which reproduces
        the seed scheduler's results exactly.
        """
        if not jobs:
            raise CircuitError("no jobs to schedule")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise CircuitError("duplicate job names")

        replay = MultiProgrammer(
            self.machine_size,
            backend=self.backend,
            strategy=self.strategy,
            verifier=self.verifier,
            lending=self.lending,
            lease_packer=self.lease_packer,
        )
        admissions = [
            replay.admit(job, enforce_capacity=False, lazy_verify=False)
            for job in jobs
        ]
        safety = {
            (adm.name, wire): safe
            for adm in admissions
            for wire, safe in adm.safety.items()
        }

        composite, offsets = self._merge(jobs)
        borrowable = [
            offsets[job.name] + wire
            for job in jobs
            for wire in job.request_wires
            if safety[(job.name, wire)]
        ]
        plan = allocate(
            composite, borrowable, strategy=self._engine(self.strategy)
        )
        result = ScheduleResult(
            composite=plan.circuit,
            plan=plan,
            job_offsets=offsets,
            safety=safety,
            naive_width=composite.num_qubits,
            final_width=plan.final_width,
            machine_size=self.machine_size,
            admissions=admissions,
        )
        if require_fit and not result.fits_machine:
            raise CircuitError(
                f"schedule needs {result.final_width} qubits but the "
                f"machine has {self.machine_size}"
            )
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _place(
        self,
        job: QuantumJob,
        plan: BorrowPlan,
        safety: Dict[int, bool],
        candidates: Iterable[Tuple[int, WindowSet]],
        strategy: str,
        enforce_capacity: bool = True,
    ) -> Admission:
        """:meth:`admit`'s placement step: lease, take fresh wires,
        record.

        Each ``(ancilla, window)`` candidate — ``window`` in the job's
        own gate rounds — leases the offered wire :meth:`_lease_host`
        picks for it on the machine timeline, if any.  Each lease covers
        just the ancilla's lending window, so a wire that is already
        lent can serve this guest too as long as the windows are
        disjoint.  The job then takes ``plan.final_width`` minus its
        leases in fresh wires; when the pool is short every lease is
        rolled back and the :class:`~repro.errors.CapacityError`
        propagates.  Leased ancillas map onto their lent wires through
        ``plan.wire_map``, and the job's untouched fresh wires are
        offered to future guests.
        """
        gate_offset = self._clock
        cross_hosts: Dict[int, int] = {}
        leases: Dict[int, Lease] = {}
        for a, window in candidates:
            window = window.shifted(gate_offset)
            wire = self._lease_host(window)
            if wire is None:
                continue
            leases[a] = Lease(job.name, a, wire, window)
            cross_hosts[a] = wire
            self._grant(leases[a])
        try:
            fresh = self._take_free(
                job.name, plan.final_width - len(cross_hosts), enforce_capacity
            )
        except CircuitError:
            self._retire_leases(leases.values())
            self._drop_holds(job.name, set(cross_hosts.values()))
            raise
        # Reduced-circuit wire -> machine wire.
        borrowed = {plan.wire_map[a]: w for a, w in cross_hosts.items()}
        pool = iter(fresh)
        wires = tuple(
            borrowed[reduced] if reduced in borrowed else next(pool)
            for reduced in range(plan.final_width)
        )
        for reduced in plan.circuit.idle_qubits():
            if wires[reduced] in fresh:
                self._idle_owner[wires[reduced]] = job.name
        self._seq += 1
        self.total_leases += len(leases)
        admission = Admission(
            name=job.name,
            job=job,
            plan=plan,
            wires=wires,
            cross_hosts=cross_hosts,
            safety=safety,
            seq=self._seq,
            strategy=strategy,
            leases=leases,
            gate_offset=gate_offset,
        )
        self._residents[job.name] = admission
        return admission

    def _lease_host(self, window: WindowSet) -> Optional[int]:
        """The offered wire the scheduler's packer picks to host
        ``window``.

        Feasibility is decided here, once: an offered wire is feasible
        when its existing leases are all window-set-disjoint from
        ``window``.  The packer then expresses a pure preference among
        the feasible wires.
        """
        feasible: Dict[int, Tuple[Lease, ...]] = {}
        for wire in self._idle_owner:
            leases = tuple(self._leases.get(wire, ()))
            if not any(lease.window.overlaps(window) for lease in leases):
                feasible[wire] = leases
        return self.lease_packer.choose(window, feasible)

    def _grant(self, lease: Lease) -> None:
        """File ``lease`` under its wire; its guest now holds the wire."""
        self._leases.setdefault(lease.wire, []).append(lease)
        self._holders[lease.wire].add(lease.guest)

    def _retire_leases(self, leases) -> None:
        """Remove ``leases`` from the per-wire tables."""
        for lease in leases:
            active = self._leases.get(lease.wire)
            if active is None:
                continue
            active.remove(lease)
            if not active:
                del self._leases[lease.wire]

    def _drop_holds(self, name: str, wires: Iterable[int]) -> List[int]:
        """Drop ``name``'s hold on each of ``wires``; returns the wires
        no resident holds any more, which are back in the free pool
        and no longer offered."""
        freed: List[int] = []
        for wire in wires:
            holders = self._holders.get(wire)
            if holders is None:
                continue
            holders.discard(name)
            if not holders:
                del self._holders[wire]
                self._idle_owner.pop(wire, None)
                freed.append(wire)
        return freed

    def _evict(self, admission: Admission) -> List[int]:
        """End a residency: retire the admission's leases and drop its
        holds; returns the freed wires.  Wires it owned but could not
        free (guests still hold leases) stop being offered — the owner
        is gone."""
        name = admission.name
        del self._residents[name]
        self._retire_leases(admission.leases.values())
        freed = self._drop_holds(name, set(admission.wires))
        for wire, owner in list(self._idle_owner.items()):
            if owner == name:
                del self._idle_owner[wire]
        return freed

    def _engine(self, strategy: str, certified: FrozenSet[int] = frozenset()):
        """Resolve a strategy name, sharing the scheduler's memoising
        verifier with the ``verified`` wrapper (its re-checks of
        already-verified ancillas then cost cache hits, not solver
        runs).  ``certified`` wires — statically proven safe — are
        passed through so the wrapper never issues solver obligations
        for them either."""
        if strategy == "verified":
            from repro.alloc import VerifiedStrategy

            return VerifiedStrategy(
                verifier=self.verifier, precertified=certified
            )
        return strategy

    def _verdicts(
        self, job: QuantumJob, wires: Sequence[int]
    ) -> Dict[int, bool]:
        """Safety verdicts for ``wires``, plus every certified request.

        Ancillas whose :class:`BorrowRequest` arrived ``certified``
        (proven safe statically, e.g. by the surface language's borrow
        checker) are safe without a solver obligation; each such skip
        among ``wires`` bumps :attr:`static_discharged`.  The remaining
        wires go to the verifier in one batch.
        """
        certified = {r.wire for r in job.ancilla_requests if r.certified}
        safety = dict.fromkeys(certified, True)
        to_verify = tuple(a for a in wires if a not in certified)
        self.static_discharged += len(wires) - len(to_verify)
        if to_verify:
            report = self.verifier.verify_circuit(job.circuit, to_verify)
            safety.update({v.qubit: v.safe for v in report.verdicts})
        return safety

    def _verify_job(
        self, job: QuantumJob, lazy_verify: bool
    ) -> Tuple[Dict[int, bool], Optional[ConflictModel]]:
        """Batch-verify the job's requested ancillas.

        :meth:`admit` calls this only for a classical job that passed
        its capacity precheck, so refused attempts verify (and count)
        nothing.  Lazy mode skips ancillas that could never be placed
        anyway — no candidate host in the job's own circuit and no live
        co-tenant offer — so they pay no solver time at all.  Returns
        the verdicts plus the interval model (built with this
        scheduler's lending mode), so the caller hands it on to
        :func:`allocate` instead of rebuilding it — every admission
        path plans over the same window sets the leases will cover.
        The model itself comes from the fingerprint-keyed cache (see
        :meth:`_job_model`), so drain-pass re-attempts of a queued job
        cost a dict lookup.
        """
        requests = job.request_wires
        if not requests:
            return {}, None
        model = self._job_model(job)
        if lazy_verify:
            lendable = bool(self._idle_owner)
            requests = tuple(
                a for a in model.ancillas if model.candidates[a] or lendable
            )
        return self._verdicts(job, requests), model

    def _job_model(self, job: QuantumJob) -> ConflictModel:
        """The job's interval-conflict model, memoised.

        The lending mode is fixed for the scheduler's lifetime, so
        ``(circuit fingerprint, request wires)`` fully identifies the
        model — a drain pass re-attempting a queued entry, or a
        resubmission of an identical circuit, pays one dict lookup
        instead of an O(gates) rebuild.  Because
        :func:`repro.alloc.allocate` checks model/circuit *identity*,
        a hit for an equal-but-distinct circuit object rebinds the
        cached model onto the caller's circuit (same gates by
        fingerprint, so every derived structure stays valid).
        """
        requests = job.request_wires
        key = (job.circuit.fingerprint(), requests)
        model = self._model_cache.get(key)
        if model is None:
            self.model_cache_misses += 1
            model = build_model(
                job.circuit,
                requests,
                segmented=self.lending == "segmented",
                segment_check=self.segment_check,
            )
            self._model_cache[key] = model
        else:
            self.model_cache_hits += 1
            if model.circuit is not job.circuit:
                model = replace(model, circuit=job.circuit)
                self._model_cache[key] = model
        return model

    def _take_free(
        self, name: str, count: int, enforce_capacity: bool
    ) -> List[int]:
        free = [
            w for w in range(self.machine_size) if w not in self._holders
        ]
        if len(free) < count:
            if enforce_capacity:
                raise CapacityError(
                    f"job {name!r} needs {count} free qubits but the "
                    f"machine has {len(free)}"
                )
            self._overflowed = True
            overflow = self.machine_size
            while len(free) < count:
                if overflow not in self._holders:
                    free.append(overflow)
                overflow += 1
        taken = free[:count]
        for wire in taken:
            self._holders[wire] = {name}
        return taken

    def _merge(
        self, jobs: Sequence[QuantumJob]
    ) -> Tuple[Circuit, Dict[str, int]]:
        """Round-robin interleave jobs onto disjoint wire ranges."""
        offsets: Dict[str, int] = {}
        labels: List[str] = []
        total = 0
        for job in jobs:
            offsets[job.name] = total
            for w in range(job.circuit.num_qubits):
                labels.append(f"{job.name}.{job.circuit.label_of(w)}")
            total += job.circuit.num_qubits
        composite = Circuit(total, labels=labels)
        cursors = [0] * len(jobs)
        remaining = sum(len(job.circuit.gates) for job in jobs)
        while remaining:
            for idx, job in enumerate(jobs):
                if cursors[idx] >= len(job.circuit.gates):
                    continue
                gate = job.circuit.gates[cursors[idx]]
                shift = offsets[job.name]
                composite.append(
                    gate.remap({q: q + shift for q in gate.qubits})
                )
                cursors[idx] += 1
                remaining -= 1
        return composite, offsets
