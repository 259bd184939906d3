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
  through it; ``lending="windowed"`` keeps whole-period windows and
  ``lending="whole"`` the historical one-guest-per-wire rule, both as
  measured baselines.  Which feasible wire a new lease lands on is a
  registered :class:`~repro.multiprog.packing.LeasePacker` policy
  (``first-fit`` / ``best-fit`` / ``earliest-gap``), selectable per
  scheduler and per admission;
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
    LookaheadPolicy,
    StreamingAllocator,
    allocate,
    build_model,
    strategy_class,
)
from repro.circuits.circuit import Circuit
from repro.circuits.classical import is_classical_circuit
from repro.circuits.gates import Gate
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
#: window sets, ``windowed`` leases whole-period windows, ``whole``
#: dedicates a lent wire to one guest for its entire residency.
LENDING_MODES = ("segmented", "windowed", "whole")


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


class StreamAdmission:
    """A prefix-admitted gate stream: resident now, still arriving.

    Returned by :meth:`MultiProgrammer.admit_stream`.  The job became
    resident on the strength of its *prefix* — the gates fed before
    admission — and every later :meth:`feed` refines the admission in
    the same call, so the scheduler-wide occupancy contract
    (:class:`~repro.testing.invariants.OccupancyInvariantChecker`)
    holds between any two feeds:

    * a gate that touches a leased ancilla regrows that ancilla's
      lending window from the job's live
      :class:`~repro.alloc.StreamingAllocator`; the lease is replaced
      in place when the extension stays disjoint from its wire's other
      leases, *moved* to another offered wire when not, *revoked to a
      fresh wire* when no offer fits, and — with the free pool also
      exhausted — the whole job is **revoked to the queue**: residency
      ends, its wires return, and :meth:`close` resubmits the complete
      circuit through :meth:`MultiProgrammer.submit`;
    * the admission's internal placement is refreshed from the
      allocator after every gate (leased and unverified ancillas stay
      out of it), so the plan revalidates against a freshly rebuilt
      interval model at any point.

    Prefix admission is deliberately *optimistic*: safety verdicts are
    proven on the prefix (or carried by ``certified`` requests) and
    re-proven on the full circuit at :meth:`close`, which revokes any
    lease whose safety the tail broke.  A stream job offers no idle
    wires of its own — wires that look idle in the prefix may be busy
    one gate later.
    """

    def __init__(
        self,
        scheduler: "MultiProgrammer",
        job: QuantumJob,
        allocator: StreamingAllocator,
        packer: LeasePacker,
    ):
        self._mp = scheduler
        self.job = job
        #: The live online allocator; its ``stats`` carry the stream's
        #: throughput counters (gates, commits, re-plans, rollbacks).
        self.allocator = allocator
        self._packer = packer
        #: The live admission, ``None`` once revoked to the queue.
        self.admission: Optional[Admission] = None
        #: Outcome of the :meth:`close`-time resubmission, when the
        #: admission was revoked mid-stream.
        self.outcome: Optional[SubmitOutcome] = None
        self._closed = False
        self._revoked = False
        self._certified = frozenset(
            r.wire for r in job.ancilla_requests if r.certified
        )

    @property
    def name(self) -> str:
        return self.job.name

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def revoked(self) -> bool:
        """True once the admission was revoked to the queue."""
        return self._revoked

    # ------------------------------------------------------------------ #
    # The stream
    # ------------------------------------------------------------------ #

    def feed(self, gate: Gate) -> int:
        """Append one gate; returns its index in the job's circuit.

        The admission is refined *in the same call*: lease windows of
        touched leased ancillas regrow (extend / move / revoke, see the
        class docstring) and the internal placement is refreshed, so
        the occupancy invariants hold when this returns.  After a
        revocation the stream keeps accepting gates — the complete
        circuit is resubmitted at :meth:`close`.
        """
        if self._closed:
            raise CircuitError(
                f"stream job {self.job.name!r} is closed; no more gates"
            )
        if self.job.ancilla_requests and not gate.is_classical:
            raise VerificationError(
                f"job {self.job.name}: only classical circuits can be "
                f"auto-verified for cross-program borrowing"
            )
        self.job.circuit.append(gate)
        index = self.allocator.feed(gate)
        if not self._revoked:
            touched = sorted(set(gate.qubits) & set(self.admission.leases))
            for ancilla in touched:
                if self._revoked:
                    break
                self._refresh_lease(ancilla)
            if not self._revoked:
                self._refresh_plan()
        return index

    def extend(self, gates) -> int:
        """Feed many gates; returns the last index."""
        index = len(self.job.circuit.gates) - 1
        for gate in gates:
            index = self.feed(gate)
        return index

    def close(self) -> Optional[Admission]:
        """End the stream; returns the final admission (or ``None``).

        Closes the allocator (committing every open decision), then
        re-proves ancilla safety over the *complete* circuit: a lease
        whose prefix-time verdict the tail broke is revoked to a fresh
        wire, or — free pool exhausted — the whole job is revoked.  A
        job revoked at any point is resubmitted here through
        :meth:`MultiProgrammer.submit` (its outcome lands in
        :attr:`outcome`) and ``None`` is returned.  Idempotent.
        """
        if self._closed:
            return self.admission
        self._closed = True
        self.allocator.close()
        if not self._revoked:
            self._verify_full()
        if not self._revoked:
            self._refresh_plan()
            return self.admission
        self.outcome = self._mp.submit(self.job)
        return None

    # ------------------------------------------------------------------ #
    # Admission and refinement machinery
    # ------------------------------------------------------------------ #

    def _ingest(self, gate: Gate) -> int:
        """Feed a prefix gate (before admission: no leases to refine)."""
        if self.job.ancilla_requests and not gate.is_classical:
            raise VerificationError(
                f"job {self.job.name}: only classical circuits can be "
                f"auto-verified for cross-program borrowing"
            )
        self.job.circuit.append(gate)
        return self.allocator.feed(gate)

    def _verify_prefix(self) -> Dict[int, bool]:
        """Eagerly verify every requested wire on the prefix circuit.

        Eager (unlike :meth:`MultiProgrammer._verify_job`'s lazy mode)
        because the verdicts gate which ancillas may lease *and* which
        later internal placements count as sound — and the prefix is
        usually short, so the solver bill is small.  Certified wires
        skip the solver exactly like the offline path.
        """
        mp, job = self._mp, self.job
        if not job.request_wires:
            return {}
        safety = {a: True for a in self._certified}
        mp.static_discharged += len(self._certified)
        to_verify = tuple(
            a for a in job.request_wires if a not in self._certified
        )
        if to_verify:
            report = mp.verifier.verify_circuit(job.circuit, to_verify)
            safety.update({v.qubit: v.safe for v in report.verdicts})
        return safety

    def _admit_prefix(self, enforce_capacity: bool) -> None:
        """Admit the job on its prefix: leases, fresh wires, residency.

        Mirrors :meth:`MultiProgrammer.admit` with an identity layout —
        the stream's width is not reduced (future gates may touch any
        wire), so every non-leased original wire takes a fresh machine
        wire and ``wire_map`` is the identity.
        """
        mp, job = self._mp, self.job
        safety = self._verify_prefix()
        placement = self.allocator.placement()
        gate_offset = mp._clock
        placed = set(placement.assignment)
        cross_hosts: Dict[int, int] = {}
        leases: Dict[int, Lease] = {}
        for a in job.request_wires:
            if a in placed or a in cross_hosts or not safety.get(a):
                continue
            if a not in set(self.allocator.active):
                continue  # untouched so far: no window to lease yet
            window = self.allocator.window(a).shifted(gate_offset)
            wire = mp._lease_host(window, self._packer)
            if wire is None:
                continue
            lease = Lease(
                guest=job.name, ancilla=a, wire=wire, window=window
            )
            cross_hosts[a] = wire
            leases[a] = lease
            mp._leases.setdefault(wire, []).append(lease)
            mp._holders[wire].add(job.name)

        fresh_needed = job.circuit.num_qubits - len(cross_hosts)
        try:
            fresh = mp._take_free(job.name, fresh_needed, enforce_capacity)
        except CircuitError:
            mp._retire_leases(leases.values())
            for wire in set(cross_hosts.values()):
                mp._holders[wire].discard(job.name)
            raise
        pool = iter(fresh)
        wires = tuple(
            cross_hosts[q] if q in cross_hosts else next(pool)
            for q in range(job.circuit.num_qubits)
        )
        plan = BorrowPlan(
            circuit=job.circuit,
            assignment={},
            unplaced=sorted(job.request_wires),
            periods={},
            wire_map={q: q for q in range(job.circuit.num_qubits)},
            original_width=job.circuit.num_qubits,
            final_width=job.circuit.num_qubits,
            notes=[],
            strategy=self.allocator.name,
            windows={},
        )
        mp._seq += 1
        mp.total_leases += len(leases)
        self.admission = Admission(
            name=job.name,
            job=job,
            plan=plan,
            wires=wires,
            cross_hosts=cross_hosts,
            safety=safety,
            seq=mp._seq,
            strategy=self.allocator.name,
            leases=leases,
            gate_offset=gate_offset,
        )
        mp._residents[job.name] = self.admission
        self._refresh_plan()

    def _refresh_lease(self, ancilla: int) -> None:
        """Regrow one leased ancilla's window after a gate touched it.

        The refinement ladder: extend the lease in place when the new
        window stays disjoint from the wire's other leases; otherwise
        move it to whichever offered wire the packer picks; otherwise
        revoke the lease onto a fresh wire; and with the free pool
        exhausted too, revoke the whole job to the queue.
        """
        mp, adm = self._mp, self.admission
        lease = adm.leases[ancilla]
        window = self.allocator.window(ancilla).shifted(adm.gate_offset)
        if window.segments == lease.window.segments:
            return
        siblings = [
            other
            for other in mp._leases.get(lease.wire, ())
            if other is not lease
        ]
        if all(not window.overlaps(o.window) for o in siblings):
            grown = Lease(
                guest=adm.name,
                ancilla=ancilla,
                wire=lease.wire,
                window=window,
            )
            slot = mp._leases[lease.wire].index(lease)
            mp._leases[lease.wire][slot] = grown
            adm.leases[ancilla] = grown
            mp.stream_refinements += 1
            return
        target = mp._lease_host(window, self._packer)
        if target is not None:
            moved = Lease(
                guest=adm.name, ancilla=ancilla, wire=target, window=window
            )
            mp._retire_leases([lease])
            mp._leases.setdefault(target, []).append(moved)
            mp._holders[target].add(adm.name)
            adm.leases[ancilla] = moved
            adm.cross_hosts[ancilla] = target
            wires = list(adm.wires)
            wires[ancilla] = target
            adm.wires = tuple(wires)
            self._drop_hold(lease.wire)
            mp.stream_refinements += 1
            return
        if not self._revoke_lease(ancilla):
            self._revoke()

    def _revoke_lease(self, ancilla: int) -> bool:
        """Move a leased ancilla onto a fresh wire (lease revoked).

        Returns False when the free pool is empty — the caller then
        revokes the whole job.
        """
        mp, adm = self._mp, self.admission
        lease = adm.leases[ancilla]
        try:
            fresh = mp._take_free(adm.name, 1, True)
        except CapacityError:
            return False
        mp._retire_leases([lease])
        del adm.leases[ancilla]
        del adm.cross_hosts[ancilla]
        wires = list(adm.wires)
        wires[ancilla] = fresh[0]
        adm.wires = tuple(wires)
        self._drop_hold(lease.wire)
        mp.stream_lease_revocations += 1
        return True

    def _drop_hold(self, wire: int) -> None:
        """Release this job's hold on ``wire`` if nothing of its still
        uses it (neither the wire table nor another of its leases)."""
        mp, adm = self._mp, self.admission
        if wire in adm.wires:
            return
        if any(l.wire == wire for l in adm.leases.values()):
            return
        holders = mp._holders.get(wire)
        if holders is None:
            return
        holders.discard(adm.name)
        if not holders:
            del mp._holders[wire]
            mp._idle_owner.pop(wire, None)
            mp._drain()

    def _revoke(self) -> None:
        """Revoke the whole admission to the queue: residency ends, the
        job's wires return to the pool, and :meth:`close` resubmits the
        complete circuit.  The stream keeps accepting gates."""
        mp, adm = self._mp, self.admission
        self._revoked = True
        self.admission = None
        mp._residents.pop(adm.name, None)
        mp._retire_leases(adm.leases.values())
        for wire in set(adm.wires):
            holders = mp._holders.get(wire)
            if holders is None:
                continue
            holders.discard(adm.name)
            if not holders:
                del mp._holders[wire]
                mp._idle_owner.pop(wire, None)
        mp.stream_job_revocations += 1
        mp._drain()

    def _verify_full(self) -> None:
        """Re-prove ancilla safety over the complete circuit at close.

        Prefix-time verdicts are optimistic — the tail may touch a
        leased ancilla without restoring it.  Any lease whose wire is
        no longer proven safe is revoked (fresh wire, or the whole job
        when the pool is dry); the refreshed verdicts also re-gate the
        internal placement via :meth:`_refresh_plan`.
        """
        mp, adm = self._mp, self.admission
        job = self.job
        if not job.request_wires:
            return
        safety = {a: True for a in self._certified}
        to_verify = tuple(
            a for a in job.request_wires if a not in self._certified
        )
        if to_verify:
            report = mp.verifier.verify_circuit(job.circuit, to_verify)
            safety.update({v.qubit: v.safe for v in report.verdicts})
        adm.safety.clear()
        adm.safety.update(safety)
        for ancilla in sorted(adm.leases):
            if safety.get(ancilla) is True:
                continue
            if not self._revoke_lease(ancilla):
                self._revoke()
                return

    def _refresh_plan(self) -> None:
        """Refresh the admission's plan from the live allocator.

        Leased and not-proven-safe ancillas are withheld from the
        assignment (a lease and an internal placement for the same
        ancilla would double-count it; an unsafe placement would break
        the no-unverified-placement rule); everything else mirrors the
        allocator's current committed+tentative placement, which is
        sound against the prefix model by the allocator's own
        invariant.
        """
        adm = self.admission
        placement = self.allocator.placement()
        assignment = {
            a: h
            for a, h in placement.assignment.items()
            if a not in adm.leases and adm.safety.get(a) is True
        }
        plan = adm.plan
        plan.assignment = assignment
        plan.unplaced = sorted(
            set(self.job.request_wires) - set(assignment)
        )
        plan.notes = list(placement.notes)
        plan.windows = {
            a: self.allocator.window(a) for a in self.allocator.active
        }


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
    cache_path:
        Opt-in disk persistence for those verdicts
        (:class:`~repro.verify.cache.DiskVerdictCache`), making
        repeated service runs free across processes.
    queue_policy:
        Admission-queue drain policy — a registered name
        (:func:`repro.multiprog.queueing.available_policies`: ``fifo``
        or ``backfill``) or a :class:`QueuePolicy` instance.  Governs
        :meth:`submit` / the backfill passes; plain :meth:`admit` never
        touches the queue.
    lending:
        ``"windowed"`` (default) — a lent wire carries any number of
        window-disjoint :class:`Lease`\\ s covering each guest's whole
        activity period, so several concurrent guests can multiplex one
        idle wire; ``"segmented"`` — windows are refined by the
        restore-point analysis into :class:`WindowSet`\\ s, so a lease
        covers only the guest's compute/uncompute segments and other
        guests interleave through the restore gaps; ``"whole"`` — the
        historical behaviour, one guest per lent wire for its entire
        residency.  The two stricter modes are kept as the measured
        baselines the benchmark and the differential tests compare
        against.
    lease_packer:
        Which feasible offered wire a new lease lands on — a registered
        name (:func:`repro.multiprog.packing.available_packers`:
        ``first-fit``, ``best-fit`` or ``earliest-gap``) or a
        :class:`LeasePacker` instance; overridable per admission via
        ``admit(job, packer=...)``.
    restore_check:
        How segmented lending certifies an ancilla's restore segments:
        ``"structural"`` accepts only the syntactic ``C;C⁻¹``
        palindromes; ``"solver"`` adds the semantic fallback
        (:func:`~repro.circuits.intervals.solver_restore_checker`
        sharing this scheduler's memoised verifier), so
        semantically-identity blocks that are not palindromes still
        split into lease segments.  ``None`` (the default) resolves to
        ``"solver"`` under ``lending="segmented"`` and
        ``"structural"`` otherwise — the benchmark's ``restore_check``
        record measures the solver certifier's admission overhead on
        the pinned lending trace at ~0%, so segmented mode gets the
        stronger certifier for free.  Irrelevant outside
        ``lending="segmented"``.
    memoise_models:
        Cache interval-conflict models by circuit fingerprint (the
        lending mode and restore check are fixed per scheduler, so the
        fingerprint plus the request wires identify the model).  Drain
        passes and resubmissions then stop paying O(gates) per
        re-attempted queue entry; hit/miss counts show in
        :meth:`stats`.  Off only for differential testing.
    """

    def __init__(
        self,
        machine_size: int,
        backend: str = "bdd",
        strategy: str = "greedy",
        max_workers: Optional[int] = None,
        verifier: Optional[BatchVerifier] = None,
        cache_path: Optional[str] = None,
        queue_policy: Union[str, QueuePolicy] = "fifo",
        lending: str = "windowed",
        lease_packer: Union[str, LeasePacker] = "first-fit",
        restore_check: Optional[str] = None,
        memoise_models: bool = True,
    ):
        if machine_size < 1:
            raise CircuitError("machine must have at least one qubit")
        if lending not in LENDING_MODES:
            raise CircuitError(
                f"lending must be one of {', '.join(LENDING_MODES)}, "
                f"got {lending!r}"
            )
        if restore_check is None:
            restore_check = (
                "solver" if lending == "segmented" else "structural"
            )
        if restore_check not in ("structural", "solver"):
            raise CircuitError(
                f"restore_check must be 'structural' or 'solver', "
                f"got {restore_check!r}"
            )
        self.machine_size = machine_size
        self.backend = backend
        self.strategy = strategy
        self.lending = lending
        self.lease_packer = self._resolve_packer(lease_packer)
        self.queue_policy = (
            queue_policy
            if isinstance(queue_policy, QueuePolicy)
            else make_policy(queue_policy)
        )
        self.verifier = verifier or BatchVerifier(
            backend=backend, max_workers=max_workers, cache_path=cache_path
        )
        self.restore_check = restore_check
        #: The segment certifier handed to every model build (None for
        #: the structural default).  Shared with the invariant checker,
        #: which must re-derive lease windows over the same analysis.
        self.segment_check: Optional[SegmentCheck] = (
            solver_restore_checker(verifier=self.verifier)
            if restore_check == "solver"
            else None
        )
        self.memoise_models = memoise_models
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
        #: Prefix-admission lifetime counters (see :meth:`admit_stream`
        #: and ``stats()["streaming"]``).
        self.stream_admissions = 0
        self.stream_refinements = 0
        self.stream_lease_revocations = 0
        self.stream_job_revocations = 0
        #: Job name -> its :class:`StreamAdmission` handle, kept for
        #: the per-job throughput counters in :meth:`stats`.
        self._streams: Dict[str, "StreamAdmission"] = {}

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
        data["restore_check"] = self.restore_check
        data["leases_granted"] = self.total_leases
        data["static_discharged"] = self.static_discharged
        data["pending"] = len(self._queue)
        data["residents"] = len(self._residents)
        data["clock"] = self._clock
        data["last_backfilled"] = list(self.last_backfilled)
        data["model_cache_hits"] = self.model_cache_hits
        data["model_cache_misses"] = self.model_cache_misses
        data["streaming"] = {
            "admissions": self.stream_admissions,
            "refinements": self.stream_refinements,
            "lease_revocations": self.stream_lease_revocations,
            "revoked_to_queue": self.stream_job_revocations,
            "jobs": {
                name: stream.allocator.stats.as_dict()
                for name, stream in self._streams.items()
            },
        }
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
        packer: Optional[Union[str, LeasePacker]] = None,
    ) -> Admission:
        """Place an arriving job against live machine occupancy.

        ``packer`` overrides the scheduler's lease-packing policy for
        this admission only (a registered name or a
        :class:`LeasePacker` instance).  Raises
        :class:`~repro.errors.CapacityError` when the job needs more
        free qubits than the machine has (the over-capacity
        rejection), unless ``enforce_capacity`` is off — the batch
        replay uses that to report non-fitting schedules instead of
        failing fast.

        The capacity check costs O(1) and runs right after the
        argument checks (already resident, unknown packer, a
        non-classical job with requests, unknown strategy name),
        before any verification, model, allocation, lease or
        materialise work: ``job.reduced_width > free_qubits`` refuses
        at once.  The refusal is exact.  An admission holds
        ``plan.final_width - len(cross_hosts)`` fresh wires, and its
        assigned, untouched and cross-hosted ancillas are disjoint
        subsets of its requests, so it never holds fewer than
        ``reduced_width``.  A refused attempt therefore never reaches
        the verifier or the strategy's planner.
        """
        if job.name in self._residents:
            raise CircuitError(f"job {job.name!r} is already resident")
        strategy = strategy or self.strategy
        packer = (
            self.lease_packer if packer is None else self._resolve_packer(packer)
        )
        if job.request_wires and not is_classical_circuit(job.circuit):
            raise VerificationError(
                f"job {job.name}: only classical circuits can be "
                f"auto-verified for cross-program borrowing"
            )
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
        # never crosses a program boundary).  Each lease covers just
        # the ancilla's lending window on the machine timeline, so a
        # wire that is already lent can serve this guest too as long as
        # the windows are disjoint.
        gate_offset = self._clock
        cross_hosts: Dict[int, int] = {}
        leases: Dict[int, Lease] = {}
        for a in plan.unplaced:
            if not safety.get(a):
                continue
            window = plan.windows[a].shifted(gate_offset)
            wire = self._lease_host(window, packer)
            if wire is None:
                continue
            lease = Lease(
                guest=job.name, ancilla=a, wire=wire, window=window
            )
            cross_hosts[a] = wire
            leases[a] = lease
            self._leases.setdefault(wire, []).append(lease)
            self._holders[wire].add(job.name)

        fresh_needed = plan.final_width - len(cross_hosts)
        try:
            fresh = self._take_free(job.name, fresh_needed, enforce_capacity)
        except CircuitError:
            self._retire_leases(leases.values())  # roll back the borrows
            for wire in set(cross_hosts.values()):
                self._holders[wire].discard(job.name)
            raise

        # Reduced-circuit wire -> machine wire.
        wires: List[int] = []
        pool = iter(fresh)
        borrowed_by_reduced = {
            plan.wire_map[a]: w for a, w in cross_hosts.items()
        }
        for reduced in range(plan.final_width):
            if reduced in borrowed_by_reduced:
                wires.append(borrowed_by_reduced[reduced])
            else:
                wires.append(next(pool))

        # Offer this job's untouched fresh wires to future guests.
        idle_reduced = plan.circuit.idle_qubits()
        for reduced in idle_reduced:
            wire = wires[reduced]
            if wire in fresh:
                self._idle_owner[wire] = job.name

        self._seq += 1
        self.total_leases += len(leases)
        admission = Admission(
            name=job.name,
            job=job,
            plan=plan,
            wires=tuple(wires),
            cross_hosts=cross_hosts,
            safety=safety,
            seq=self._seq,
            strategy=strategy,
            leases=leases,
            gate_offset=gate_offset,
        )
        self._residents[job.name] = admission
        return admission

    def admit_stream(
        self,
        name: str,
        num_qubits: int,
        ancilla_requests: Sequence[Union[int, BorrowRequest]] = (),
        prefix: Sequence[Gate] = (),
        lookahead: Union[None, int, float, str, LookaheadPolicy] = "adaptive",
        packer: Optional[Union[str, LeasePacker]] = None,
        enforce_capacity: bool = True,
    ) -> StreamAdmission:
        """Admit a still-open gate stream on its prefix.

        The parse-while-allocate front door: instead of a finished
        :class:`QuantumJob`, the caller declares the register width and
        ancilla requests up front, optionally feeds a ``prefix`` of
        gates, and receives a :class:`StreamAdmission` handle — the job
        is *resident from this call on*, holding fresh wires for every
        non-leased original wire (no width reduction: the unseen tail
        may touch anything) plus cross-program leases for requested
        ancillas the prefix already proves safe.  Each later
        ``handle.feed(gate)`` refines the admission in the same call
        (lease windows regrow; extend → move → fresh wire → revoke to
        the queue), so the global occupancy contract holds between any
        two gates; ``handle.close()`` re-proves safety over the
        complete circuit and resubmits a revoked job via
        :meth:`submit`.  Time to first lease is therefore one prefix,
        not one full parse — the overlap the streaming-front-end bench
        section measures.

        ``lookahead`` configures the handle's internal
        :class:`~repro.alloc.StreamingAllocator` (a horizon, a
        registered policy name — default ``"adaptive"`` — or a
        :class:`~repro.alloc.LookaheadPolicy` instance).  ``prefix``
        gates count into the admission's safety verdicts and leases;
        an empty prefix admits on width alone.  Raises
        :class:`~repro.errors.CapacityError` when the machine cannot
        host the width right now (nothing is queued — use
        :meth:`submit` with the finished circuit for queueing
        semantics).
        """
        if name in self._residents:
            raise CircuitError(f"job {name!r} is already resident")
        if any(entry.name == name for entry in self._queue):
            raise CircuitError(f"job {name!r} is already queued")
        requests = [
            r if isinstance(r, BorrowRequest) else BorrowRequest(int(r))
            for r in ancilla_requests
        ]
        job = QuantumJob(
            name=name,
            circuit=Circuit(num_qubits),
            ancilla_requests=requests,
        )
        allocator = StreamingAllocator(
            num_qubits,
            job.request_wires,
            lookahead=lookahead,
            segmented=self.lending == "segmented",
            segment_check=self.segment_check,
        )
        stream = StreamAdmission(
            self,
            job,
            allocator,
            self.lease_packer if packer is None else self._resolve_packer(packer),
        )
        for gate in prefix:
            stream._ingest(gate)
        stream._admit_prefix(enforce_capacity)
        self.stream_admissions += 1
        self._streams[name] = stream
        return stream

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
        if job.request_wires and not is_classical_circuit(job.circuit):
            self._queue_stats.rejected += 1
            raise VerificationError(
                f"job {job.name}: only classical circuits can be "
                f"auto-verified for cross-program borrowing"
            )
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

    def drain(self) -> Tuple[str, ...]:
        """Run queue-policy drain passes right now; returns admitted names.

        Normally drains run automatically on every :meth:`release` (and
        after an admission that frees lendable capacity), but a caller
        that changes what this machine can observe *indirectly* — the
        fleet router, after admitting a co-tenant via :meth:`admit` —
        can trigger one explicitly.  Does not tick the logical clock:
        a drain is part of the event that caused it, not an event of
        its own.
        """
        if not self._queue:
            self.last_backfilled = ()
            return ()
        return self._drain()

    def queue_entry(self, name: str) -> QueueEntry:
        """The live :class:`QueueEntry` for a queued job (by name).

        Read-only introspection for callers that need the original
        submission context — job, strategy, priority — e.g. the fleet
        router deciding whether the entry would fit another shard.
        """
        for entry in self._queue:
            if entry.name == name:
                return entry
        raise CircuitError(f"no queued job named {name!r}")

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
        admission = self._residents.pop(name, None)
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
        self._retire_leases(admission.leases.values())
        freed: List[int] = []
        for wire in set(admission.wires):
            holders = self._holders.get(wire)
            if holders is None:
                continue
            holders.discard(name)
            if not holders:
                del self._holders[wire]
                self._idle_owner.pop(wire, None)
                freed.append(wire)
        # Wires this job owned but could not free (guests still hold
        # leases) stop being offered — the owner is gone.
        for wire, owner in list(self._idle_owner.items()):
            if owner == name:
                del self._idle_owner[wire]
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
            restore_check=self.restore_check,
            memoise_models=self.memoise_models,
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

    @staticmethod
    def _resolve_packer(packer: Union[str, LeasePacker]) -> LeasePacker:
        if isinstance(packer, LeasePacker):
            return packer
        return make_packer(packer)

    def _lease_host(
        self, window: WindowSet, packer: LeasePacker
    ) -> Optional[int]:
        """The offered wire ``packer`` picks to host ``window``.

        Feasibility is decided here, once, and is mode-dependent:
        windowed/segmented lending accepts any offered wire whose
        existing leases are all window-set-disjoint from ``window``;
        whole-residency lending only accepts a wire with no lease at
        all (the historical one-guest-per-wire rule).  The packer then
        expresses a pure preference among the feasible wires.
        """
        feasible: Dict[int, Tuple[Lease, ...]] = {}
        for wire in self._idle_owner:
            leases = tuple(self._leases.get(wire, ()))
            if self.lending == "whole":
                if leases:
                    continue
            elif any(lease.window.overlaps(window) for lease in leases):
                continue
            feasible[wire] = leases
        return packer.choose(window, feasible)

    def _retire_leases(self, leases) -> None:
        """Remove ``leases`` from the per-wire tables."""
        for lease in leases:
            active = self._leases.get(lease.wire)
            if active is None:
                continue
            active.remove(lease)
            if not active:
                del self._leases[lease.wire]

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

    def _verify_job(
        self, job: QuantumJob, lazy_verify: bool
    ) -> Tuple[Dict[int, bool], Optional[ConflictModel]]:
        """Batch-verify the job's requested ancillas.

        :meth:`admit` calls this only for a classical job that passed
        its capacity precheck.  Lazy mode skips ancillas that could
        never be placed anyway — no candidate host in the job's own
        circuit and no lendable co-tenant wire — so they pay no solver
        time at all.  Returns
        the verdicts plus the interval model (built with this
        scheduler's lending mode: segmented windows under
        ``lending="segmented"``, certified by ``restore_check``), so
        the caller hands it on to :func:`allocate` instead of
        rebuilding it — every admission path plans over the same
        window sets the leases will cover.  The model itself comes
        from the fingerprint-keyed cache (see :meth:`_job_model`), so
        drain-pass re-attempts of a queued job cost a dict lookup.

        Ancillas whose :class:`BorrowRequest` arrived ``certified``
        (proven safe statically, e.g. by the surface language's borrow
        checker) are marked safe without a solver obligation; each such
        skip of an otherwise-due verification bumps
        :attr:`static_discharged`.  Attempts the precheck refused never
        get here, so they never count.
        """
        requests = job.request_wires
        if not requests:
            return {}, None
        certified = {
            r.wire for r in job.ancilla_requests if r.certified
        }
        model = self._job_model(job)
        if lazy_verify:
            # Any live offer can potentially host a window under
            # windowed/segmented lending; whole-residency needs a
            # lease-free one.
            if self.lending == "whole":
                lendable = bool(self.lendable_wires)
            else:
                lendable = bool(self._idle_owner)
            to_verify = tuple(
                a
                for a in model.ancillas
                if model.candidates[a] or lendable
            )
        else:
            to_verify = requests
        safety = {a: True for a in certified}
        self.static_discharged += sum(
            1 for a in to_verify if a in certified
        )
        to_verify = tuple(a for a in to_verify if a not in certified)
        if not to_verify:
            return safety, model
        report = self.verifier.verify_circuit(job.circuit, to_verify)
        safety.update({v.qubit: v.safe for v in report.verdicts})
        return safety, model

    def _job_model(self, job: QuantumJob) -> ConflictModel:
        """The job's interval-conflict model, memoised.

        Lending mode and restore check are fixed for the scheduler's
        lifetime, so ``(circuit fingerprint, request wires)`` fully
        identifies the model — a drain pass re-attempting a queued
        entry, or a resubmission of an identical circuit, pays one
        dict lookup instead of an O(gates) rebuild.  Because
        :func:`repro.alloc.allocate` checks model/circuit *identity*,
        a hit for an equal-but-distinct circuit object rebinds the
        cached model onto the caller's circuit (same gates by
        fingerprint, so every derived structure stays valid).
        """
        requests = job.request_wires
        segmented = self.lending == "segmented"
        if not self.memoise_models:
            return build_model(
                job.circuit,
                requests,
                segmented=segmented,
                segment_check=self.segment_check,
            )
        key = (job.circuit.fingerprint(), requests)
        model = self._model_cache.get(key)
        if model is None:
            self.model_cache_misses += 1
            model = build_model(
                job.circuit,
                requests,
                segmented=segmented,
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
