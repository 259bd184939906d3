"""Seeded workload and circuit generators.

Everything here is driven by :class:`random.Random` with an explicit
seed, so the same seed produces byte-identical circuits, jobs and
traces on every run and every supported Python version (the Mersenne
Twister and the ``sample``/``shuffle``/``randrange`` algorithms are
stable across CPython 3.10–3.13) — a failing property test is
reproducible from its seed alone.

The circuit generator has a *constructive safety guarantee*: each
requested ancilla ``a`` is touched only inside its own
``C_a ; C_a^{-1}`` segment (classical gates are self-inverse, so the
inverse is just the reversed gate list).  The segment composes to the
identity, so the whole circuit restores ``a`` for **every** input and
never leaks it into other wires — the ancilla is dirty-borrowable by
Definition 3.1 and clean by the (6.1) contract, and a verifier must
*prove* that (the identity is invisible syntactically).  Passing an
ancilla in ``spoiled`` appends a final ``X`` on it, producing a
known-unsafe ancilla with a machine-checkable counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, cnot, toffoli, x
from repro.errors import CircuitError
from repro.multiprog import BorrowRequest, QuantumJob

SeedLike = Union[int, random.Random]


def _rng(seed: SeedLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _random_classical_gate(rng: random.Random, wires: Sequence[int]) -> Gate:
    """One X / CX / CCX over ``wires`` (arity capped by the pool size)."""
    arity = rng.randint(1, min(3, len(wires)))
    picked = rng.sample(list(wires), arity)
    if arity == 1:
        return x(picked[0])
    if arity == 2:
        return cnot(picked[0], picked[1])
    return toffoli(picked[0], picked[1], picked[2])


def random_reversible_circuit(
    seed: SeedLike,
    num_data: int = 4,
    num_ancillas: int = 1,
    segment_gates: int = 3,
    middle_gates: int = 4,
    spoiled: Sequence[int] = (),
) -> Tuple[Circuit, Tuple[int, ...]]:
    """A random classical circuit whose ancillas are known-safe.

    Wires ``0 .. num_data-1`` are data (labelled ``d0..``); the last
    ``num_ancillas`` wires (labelled ``a0..``) are the returned ancilla
    targets.  Each ancilla gets its own compute/uncompute segment over
    a random data subset; a pure-data "middle" segment provides
    unrelated activity, and segment order is shuffled so ancilla
    activity periods land at varied gate indices (some with candidate
    hosts, some without).  Ancillas listed in ``spoiled`` get a
    trailing ``X`` and are therefore known-**unsafe**.
    """
    if num_data < 1 or num_ancillas < 0:
        raise CircuitError("need at least one data wire")
    rng = _rng(seed)
    total = num_data + num_ancillas
    ancillas = tuple(range(num_data, total))
    for wire in spoiled:
        if wire not in ancillas:
            raise CircuitError(f"spoiled wire {wire} is not an ancilla")
    data = list(range(num_data))
    labels = [f"d{i}" for i in range(num_data)] + [
        f"a{i}" for i in range(num_ancillas)
    ]

    segments: List[List[Gate]] = []
    for ancilla in ancillas:
        pool = rng.sample(data, rng.randint(1, min(3, num_data)))
        wires = pool + [ancilla]
        # The first gate always touches the ancilla so it has a real
        # activity period (an untouched ancilla is trivially removed).
        compute: List[Gate] = [cnot(rng.choice(pool), ancilla)]
        for _ in range(segment_gates):
            compute.append(_random_classical_gate(rng, wires))
        segments.append(compute + list(reversed(compute)))
    middle = [
        _random_classical_gate(rng, data) for _ in range(middle_gates)
    ]
    if middle:
        segments.append(middle)
    rng.shuffle(segments)

    circuit = Circuit(total, labels=labels)
    for segment in segments:
        circuit.extend(segment)
    for wire in sorted(spoiled):
        circuit.append(x(wire))
    return circuit, ancillas


def random_job(
    seed: SeedLike,
    name: Optional[str] = None,
    max_data: int = 4,
    max_ancillas: int = 2,
    spoil_probability: float = 0.2,
) -> QuantumJob:
    """A random :class:`QuantumJob` requesting all its ancillas.

    Sizes are drawn from the rng (2..``max_data`` data wires,
    1..``max_ancillas`` ancillas); each ancilla is independently
    spoiled — left flipped, hence unsafe to lend — with
    ``spoil_probability``.
    """
    rng = _rng(seed)
    if name is None:
        if isinstance(seed, random.Random):
            raise CircuitError("random_job needs a name when given an rng")
        name = f"job-{seed}"
    num_data = rng.randint(2, max_data)
    num_ancillas = rng.randint(1, max_ancillas)
    spoiled = tuple(
        wire
        for wire in range(num_data, num_data + num_ancillas)
        if rng.random() < spoil_probability
    )
    circuit, ancillas = random_reversible_circuit(
        rng,
        num_data=num_data,
        num_ancillas=num_ancillas,
        segment_gates=rng.randint(1, 3),
        middle_gates=rng.randint(1, 4),
        spoiled=spoiled,
    )
    return QuantumJob(
        name, circuit, [BorrowRequest(wire) for wire in ancillas]
    )


@dataclass(frozen=True)
class TraceEvent:
    """One step of a seeded arrival trace.

    ``kind`` is ``"submit"`` (then ``job``/``timeout`` are set) or
    ``"release"`` (then ``pick`` selects among the residents *at replay
    time*: index ``pick % len(residents)``; the event is a no-op when
    the machine is empty).  Deferring the resident choice is what lets
    a single trace replay faithfully under different queue policies —
    who is resident at each step depends on the policy.
    """

    kind: str
    job: Optional[QuantumJob] = None
    timeout: Optional[int] = None
    pick: int = 0
    #: Submission priority (the ``priority`` queue policy's sort key;
    #: other policies ignore it).
    priority: int = 0


def lender_job(
    name: str, width: int = 5, touched: int = 3
) -> QuantumJob:
    """A job whose last ``width - touched`` wires are idle — they
    become the scheduler's lendable offers.  No ancilla requests."""
    if not 2 <= touched <= width:
        raise CircuitError("need 2 <= touched <= width")
    circuit = Circuit(width)
    circuit.extend([cnot(i, i + 1) for i in range(touched - 1)])
    return QuantumJob(name, circuit, [])


def windowed_guest_job(
    name: str,
    prelude: int = 0,
    span: int = 1,
    num_ancillas: int = 1,
) -> QuantumJob:
    """A job whose ancillas can only be hosted by a cross-program lease.

    Wire 0 is padded with ``prelude`` ``X`` gates, then each requested
    ancilla gets its own ``(CX;CX) * span`` segment — restored for
    every input (verified safe), with lending window exactly
    ``[prelude + 2*span*k, prelude + 2*span*(k+1) - 1]`` for the k-th
    ancilla.  Wire 0 participates in every segment, so no ancilla ever
    has an internal candidate host: placement happens through the
    multi-programmer's window-disjoint leases or not at all.
    """
    if prelude < 0 or span < 1 or num_ancillas < 1:
        raise CircuitError("need prelude >= 0, span >= 1, ancillas >= 1")
    circuit = Circuit(1 + num_ancillas)
    circuit.extend([x(0)] * prelude)
    for k in range(num_ancillas):
        circuit.extend([cnot(0, 1 + k), cnot(0, 1 + k)] * span)
    return QuantumJob(
        name, circuit, [BorrowRequest(1 + k) for k in range(num_ancillas)]
    )


def segmented_guest_job(
    name: str,
    prelude: int = 0,
    span: int = 1,
    gap: int = 6,
    blocks: int = 2,
) -> QuantumJob:
    """A job whose single ancilla has ``blocks`` disjoint restore
    segments — the workload shape segmented lending exists for.

    Wire 0 is padded with ``prelude`` ``X`` gates, then the requested
    ancilla gets ``blocks`` ``(CX;CX) * span`` identity blocks
    separated by ``gap`` ``X`` gates on wire 0.  Each block restores
    the ancilla for every input, so every inter-block gap is a valid
    release point: the restore-point analysis yields the ``blocks``-
    segment :class:`~repro.circuits.intervals.WindowSet` with segment
    ``k`` at ``[prelude + k*(2*span + gap), … + 2*span - 1]``.  Wire 0
    participates in every gate, so the ancilla never has an internal
    candidate host — under windowed lending a lease must cover the
    whole (mostly idle) hull, under segmented lending only the blocks.
    """
    if prelude < 0 or span < 1 or gap < 1 or blocks < 1:
        raise CircuitError(
            "need prelude >= 0, span >= 1, gap >= 1, blocks >= 1"
        )
    circuit = Circuit(2)
    circuit.extend([x(0)] * prelude)
    for block in range(blocks):
        if block:
            circuit.extend([x(0)] * gap)
        circuit.extend([cnot(0, 1), cnot(0, 1)] * span)
    return QuantumJob(name, circuit, [BorrowRequest(1)])


def random_lending_trace(
    seed: SeedLike,
    num_jobs: int = 50,
    lender_every: int = 8,
    lender_width: int = 5,
    lender_touched: int = 3,
    lender_guard: int = 3,
    max_prelude: int = 10,
    max_span: int = 3,
    max_ancillas: int = 2,
    min_timeout: int = 2,
    max_timeout: int = 3,
    release_probability: float = 0.2,
    segmented_fraction: float = 0.7,
    min_gap: int = 6,
    max_gap: int = 14,
    timeouts: bool = True,
    drain: bool = True,
) -> List[TraceEvent]:
    """A seeded trace shaped for the time-sliced lending regime.

    Every ``lender_every``-th submission is a :func:`lender_job` (its
    idle wires are the only offers in the system); the rest are guest
    arrivals with randomized window positions/spans and tight
    logical-clock timeouts — a ``segmented_fraction`` of them
    :func:`segmented_guest_job`\\ s whose two identity blocks straddle a
    long restore gap, the rest contiguous
    :func:`windowed_guest_job`\\ s.  Release bursts are suppressed for
    ``lender_guard`` submissions after each lender so the offers
    survive long enough to be contended.  The result is a workload
    where offers are scarce, windowed lending multiplexes them, and
    segmented lending additionally threads guests through the
    segmented guests' idle gaps — the regime the ``lending``
    benchmark section and its CI gate measure.  ``timeouts=False``
    emits the same arrival shape with no deadlines (the differential
    tests' drained comparisons).
    """
    rng = _rng(seed)
    events: List[TraceEvent] = []
    cooldown = 0
    for index in range(num_jobs):
        if index % lender_every == 0:
            events.append(
                TraceEvent(
                    "submit",
                    job=lender_job(
                        f"L{index}", lender_width, lender_touched
                    ),
                )
            )
            cooldown = lender_guard
        else:
            if rng.random() < segmented_fraction:
                job = segmented_guest_job(
                    f"g{index}",
                    prelude=rng.randint(0, max_prelude),
                    span=rng.randint(1, max_span),
                    gap=rng.randint(min_gap, max_gap),
                )
            else:
                job = windowed_guest_job(
                    f"g{index}",
                    prelude=rng.randint(0, max_prelude),
                    span=rng.randint(1, max_span),
                    num_ancillas=rng.randint(1, max_ancillas),
                )
            timeout = rng.randint(min_timeout, max_timeout)
            events.append(
                TraceEvent(
                    "submit",
                    job=job,
                    timeout=timeout if timeouts else None,
                )
            )
        if cooldown > 0:
            cooldown -= 1
            continue
        while rng.random() < release_probability:
            events.append(
                TraceEvent("release", pick=rng.randrange(1 << 16))
            )
    if drain:
        for _ in range(2 * num_jobs):
            events.append(
                TraceEvent("release", pick=rng.randrange(1 << 16))
            )
    return events


def random_arrival_trace(
    seed: SeedLike,
    num_jobs: int = 10,
    release_probability: float = 0.45,
    timeout_probability: float = 0.3,
    max_timeout: int = 6,
    spoil_probability: float = 0.2,
    max_data: int = 4,
    max_ancillas: int = 2,
    drain: bool = True,
) -> List[TraceEvent]:
    """A seeded submit/release event sequence over random jobs.

    Emits ``num_jobs`` submissions (geometric bursts of releases in
    between), each with a ``timeout_probability`` chance of carrying a
    logical-clock timeout.  ``max_data``/``max_ancillas`` bound the job
    widths (wider jobs against a small machine produce the head-of-line
    blocking that separates the queue policies).  With ``drain`` (the
    default) the trace ends with ``2 * num_jobs`` release events,
    enough to empty the machine and flush the queue — admitted counts
    are then comparable across queue policies.
    """
    rng = _rng(seed)
    events: List[TraceEvent] = []
    for index in range(num_jobs):
        job = random_job(
            rng,
            name=f"j{index}",
            max_data=max_data,
            max_ancillas=max_ancillas,
            spoil_probability=spoil_probability,
        )
        timeout = (
            rng.randint(1, max_timeout)
            if rng.random() < timeout_probability
            else None
        )
        events.append(TraceEvent("submit", job=job, timeout=timeout))
        while rng.random() < release_probability:
            events.append(TraceEvent("release", pick=rng.randrange(1 << 16)))
    if drain:
        for _ in range(2 * num_jobs):
            events.append(TraceEvent("release", pick=rng.randrange(1 << 16)))
    return events


def random_fleet_trace(
    seed: SeedLike,
    num_jobs: int = 50,
    repeat_probability: float = 0.35,
    release_probability: float = 0.35,
    timeout_probability: float = 0.3,
    max_timeout: int = 6,
    spoil_probability: float = 0.15,
    max_data: int = 6,
    max_ancillas: int = 2,
    drain: bool = True,
) -> List[TraceEvent]:
    """A seeded arrival trace shaped for multi-shard routing.

    Same submit/release skeleton as :func:`random_arrival_trace`, with
    one fleet-relevant twist: with ``repeat_probability`` a submission
    *reuses an earlier job's circuit* under a fresh name, so the trace
    contains recurring circuit families — the signal the
    ``family-affinity`` placement policy routes on and the
    model/verdict memoisation pays off for.  Deferred release picks
    (``pick % len(residents)`` at replay time) keep one trace
    replayable across shard layouts and placement policies alike.
    """
    rng = _rng(seed)
    events: List[TraceEvent] = []
    families: List[QuantumJob] = []
    for index in range(num_jobs):
        if families and rng.random() < repeat_probability:
            template = families[rng.randrange(len(families))]
            job = QuantumJob(
                f"f{index}",
                template.circuit,
                [BorrowRequest(wire) for wire in template.request_wires],
            )
        else:
            job = random_job(
                rng,
                name=f"f{index}",
                max_data=max_data,
                max_ancillas=max_ancillas,
                spoil_probability=spoil_probability,
            )
            families.append(job)
        timeout = (
            rng.randint(1, max_timeout)
            if rng.random() < timeout_probability
            else None
        )
        events.append(TraceEvent("submit", job=job, timeout=timeout))
        while rng.random() < release_probability:
            events.append(TraceEvent("release", pick=rng.randrange(1 << 16)))
    if drain:
        for _ in range(2 * num_jobs):
            events.append(TraceEvent("release", pick=rng.randrange(1 << 16)))
    return events


__all__ = [
    "TraceEvent",
    "lender_job",
    "random_arrival_trace",
    "random_fleet_trace",
    "random_job",
    "random_lending_trace",
    "random_reversible_circuit",
    "segmented_guest_job",
    "windowed_guest_job",
]
