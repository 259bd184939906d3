"""Seeded inputs and closed-loop passes for the three workloads.

One client in one process sends each request only after the previous
one returned.  The program sees only what the generators make: ``.qbr``
text for the verify workloads, ``QuantumJob``\\ s for the fleet.  The
amount of work is a function of the seed and ``--seconds`` alone, so
two runs with the same arguments do identical work and the counts in
their work fingerprints must match exactly.

A run replays the same inputs in ``PASSES`` passes, each on fresh
objects, and a request's time is its best over the passes (see
:func:`best_of`).
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.errors import CapacityError
from repro.lang.surface.elaborate import verify_qbr
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.multiprog import FleetRouter
from repro.testing.generators import random_fleet_trace, random_job
from repro.testing.invariants import FleetInvariantChecker

#: Passes over the same inputs in an untraced run.  The host's CPU runs
#: fast or up to 2x slower in phases of 0.1 s to seconds; a request's
#: best of three passes ~10 s apart is rarely slow in all three.
PASSES = 3

#: Program sizes of one verify block; every size appears ``FAULT_EVERY``
#: times per block and exactly one of those copies is fault-injected, so
#: the size mix and the fault rate are the same for every seed.
ADDER_SIZES = (6, 8, 10, 12, 14)
MCX_SIZES = (20, 40, 60, 80, 100)
FAULT_EVERY = 4
#: p90 needs ten programs beyond it, so a pass verifies at least 100.
MIN_PROGRAMS = 100
#: Measured cost of one block (20 programs) on a 2-vCPU x86 host.
BLOCK_SECONDS = 2.0

FLEET_SHARDS = (11, 11)
#: Submissions replayed untimed first, so the timed phase starts with
#: the backlog already at its steady depth.
RAMP_JOBS = 300
#: p99 needs ten releases beyond it: ~2000 jobs give ~1000 releases.
MIN_FLEET_JOBS = 2000
#: Measured timed-phase rate on a 2-vCPU x86 host.
FLEET_JOBS_PER_SECOND = 200

VERIFY_BACKENDS = {"verify-adder-cdcl": "cdcl", "verify-mcx-bdd": "bdd"}


@dataclass(frozen=True)
class Program:
    size: int
    source: str
    #: Labels of the wires the generator made unsafe (empty: all safe).
    unsafe: FrozenSet[str]


@dataclass
class Run:
    """What one pass of a workload did."""

    latencies: List[float] = field(default_factory=list)
    #: Fleet only: ``"submit"`` or ``"release"`` per timed request.
    kinds: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Verify: requests answered with a report / attempted.  Fleet: jobs
    #: admitted / submitted over the timed phase.
    served: float = 0.0
    #: Seconds spent inside timed requests.
    busy: float = 0.0
    #: Median ``tick()`` over a paced pass: the host's speed during it.
    tick: float = 0.0
    fingerprint: Dict[str, int] = field(default_factory=dict)
    #: Fleet only: backlog after each timed event, and counter deltas.
    queue: List[int] = field(default_factory=list)
    jobs: int = 0
    deltas: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def verify_programs(workload: str, seed: int, seconds: int) -> List[Program]:
    """Shuffled blocks of paper programs, one in four fault-injected.

    Adders get ``X[a[k]];`` appended for a seeded ``k``, which makes
    exactly ``a[k]`` unsafe; MCX programs get ``X[anc];`` before
    ``release anc;``, which makes ``anc`` unsafe.
    """
    rng = random.Random(seed)
    adder = workload == "verify-adder-cdcl"
    sizes = ADDER_SIZES if adder else MCX_SIZES
    block = [(size, copy == 0) for size in sizes for copy in range(FAULT_EVERY)]
    blocks = max(
        -(-MIN_PROGRAMS // len(block)),
        round(seconds / PASSES / BLOCK_SECONDS),
    )
    programs = []
    for _ in range(blocks):
        rng.shuffle(block)
        for size, faulted in block:
            if adder:
                source, unsafe = adder_qbr_source(size), frozenset()
                if faulted:
                    k = rng.randint(1, size - 1)
                    source += f"X[a[{k}]];\n"
                    unsafe = frozenset({f"a[{k}]"})
            else:
                source, unsafe = mcx_qbr_source(size), frozenset()
                if faulted:
                    source = source.replace(
                        "release anc;", "X[anc];\nrelease anc;"
                    )
                    unsafe = frozenset({"anc"})
            programs.append(Program(size, source, unsafe))
    return programs


def fleet_trace(seed: int, seconds: int) -> list:
    """Ramp-up plus timed submissions of one seeded fleet trace.

    Every job carries a logical timeout, so the backlog stays bounded
    and per-job work stays flat however long the trace runs.
    """
    jobs = max(MIN_FLEET_JOBS, round(FLEET_JOBS_PER_SECOND * seconds / PASSES))
    return random_fleet_trace(
        seed,
        num_jobs=RAMP_JOBS + jobs,
        timeout_probability=1.0,
        max_timeout=48,
        release_probability=0.35,
        drain=False,
    )


# --------------------------------------------------------------------- #
# Set-up: construction plus one throwaway warm-up call
# --------------------------------------------------------------------- #


def setup(workload: str) -> list:
    """Build what the timed passes need and warm the code paths on
    objects they never reuse.  Returns one router per pass (fleet) or
    an empty list (verify: each request builds its own objects)."""
    if workload in VERIFY_BACKENDS:
        backend = VERIFY_BACKENDS[workload]
        warm = adder_qbr_source(6) if backend == "cdcl" else mcx_qbr_source(6)
        verify_qbr(warm, backend=backend)
        return []
    routers = [FleetRouter(list(FLEET_SHARDS)) for _ in range(PASSES)]
    throwaway = FleetRouter(list(FLEET_SHARDS))
    job = random_job(0)
    throwaway.submit(job)
    throwaway.release(job.name)
    return routers


# --------------------------------------------------------------------- #
# Passes.  ``play(start, stop, wrap)`` runs requests ``start:stop``, so
# an untraced run can time the host between chunks and the traced run
# can alternate chunks of an untraced and a traced pass; ``wrap`` (the
# tracer's request span) wraps each request.
# --------------------------------------------------------------------- #


class VerifyPass:
    """Verify every program; a request fails when it raises or when its
    set of unsafe wires differs from the constructed one."""

    #: Requests per chunk.
    chunk = 1

    def __init__(self, programs: Sequence[Program], backend: str) -> None:
        self.programs, self.backend = programs, backend
        self.units = len(programs)
        self.run = Run()
        self._answered = self._gates = self._obligations = self._unsafe = 0

    def play(self, start: int, stop: int, wrap: Optional[Callable] = None):
        verify = wrap(verify_qbr) if wrap is not None else verify_qbr
        run, clock = self.run, time.perf_counter
        for program in self.programs[start:stop]:
            begin = clock()
            try:
                report = verify(program.source, backend=self.backend)
            except Exception:
                run.latencies.append(clock() - begin)
                run.failed += 1
                traceback.print_exc()
                continue
            run.latencies.append(clock() - begin)
            found = frozenset(v.name for v in report.verdicts if not v.safe)
            if found != program.unsafe:
                run.failed += 1
                print(
                    f"size {program.size}: unsafe {sorted(found)}, "
                    f"expected {sorted(program.unsafe)}",
                    file=sys.stderr,
                )
            self._answered += 1
            self._gates += report.num_gates
            self._obligations += len(report.verdicts)
            self._unsafe += len(found)

    def finish(self) -> Run:
        run = self.run
        run.attempted = len(run.latencies)
        run.served = self._answered / run.attempted
        run.busy = sum(run.latencies)
        run.fingerprint = {
            "programs": run.attempted,
            "obligations": self._obligations,
            "unsafe": self._unsafe,
            "gates": self._gates,
        }
        return run


def split_ramp(trace: list) -> tuple:
    """(ramp events, timed events): the timed phase starts at the
    submission after the first ``RAMP_JOBS``."""
    submits = 0
    for index, event in enumerate(trace):
        if event.kind == "submit":
            if submits == RAMP_JOBS:
                return trace[:index], trace[index:]
            submits += 1
    return trace, []


def _counters(router) -> Dict[str, float]:
    """The fleet counters the benchmark reads.  A migration cancels the
    job at its home shard, so shard ``submitted``/``cancelled`` are never
    summed; expirations are every shard's plus the overflow queue's."""
    stats = router.fleet_stats()
    shards = stats["shards"].values()
    return {
        "submitted": stats["submitted"],
        "admitted": stats["admitted"],
        "migrations": stats["migrations"],
        "expired": stats["expired"] + sum(s["expired"] for s in shards),
        "wait_events": sum(s["total_wait_events"] for s in shards),
        "waited": sum(s["admitted_from_queue"] + s["expired"] for s in shards),
        "model_hits": sum(s["model_cache_hits"] for s in shards),
        "model_misses": sum(s["model_cache_misses"] for s in shards),
    }


def _replay(router, events, submit, release, run: Run, timed: bool) -> None:
    clock = time.perf_counter
    for event in events:
        if event.kind == "submit":
            kind = "submit"
            begin = clock()
            try:
                submit(event.job, timeout=event.timeout, priority=event.priority)
            except CapacityError:
                pass  # a refusal: it counts against served_frac only
            except Exception:
                run.failed += 1
                traceback.print_exc()
        else:
            residents = router.residents
            if not residents:
                continue
            name = residents[event.pick % len(residents)]
            kind = "release"
            begin = clock()
            try:
                release(name)
            except Exception:
                run.failed += 1
                traceback.print_exc()
        latency = clock() - begin
        if timed:
            run.latencies.append(latency)
            run.kinds.append(kind)
            run.queue.append(router.queue_length)
            run.jobs += kind == "submit"


class FleetPass:
    """Replay the ramp untimed on construction, then time each
    ``submit``/``release`` of the rest.

    The trace's logical clock is its arrival schedule, so every replay
    rebuilds the same queue and makes the same admissions.
    """

    #: Events per chunk (~0.1 s).
    chunk = 25

    def __init__(self, trace: list, router) -> None:
        ramp, self.events = split_ramp(trace)
        self.router = router
        self.units = len(self.events)
        self.run = Run()
        _replay(router, ramp, router.submit, router.release, self.run,
                timed=False)
        self._before = _counters(router)

    def play(self, start: int, stop: int, wrap: Optional[Callable] = None):
        submit, release = self.router.submit, self.router.release
        if wrap is not None:
            submit, release = wrap(submit), wrap(release)
        _replay(self.router, self.events[start:stop], submit, release,
                self.run, timed=True)

    def finish(self) -> Run:
        """Counters, then one invariant check outside timing."""
        router, run = self.router, self.run
        after = _counters(router)
        run.deltas = {key: after[key] - self._before[key] for key in after}
        run.attempted = len(run.latencies)
        run.busy = sum(run.latencies)
        run.served = run.deltas["admitted"] / run.deltas["submitted"]
        try:
            FleetInvariantChecker(router).check()
        except Exception:
            traceback.print_exc()
            run.failed += 1
        run.fingerprint = {
            "jobs": after["submitted"],
            "admitted": after["admitted"],
            "expired": after["expired"],
            "migrations": after["migrations"],
            "verify_hits": router.verifier.cache_hits,
            "verify_misses": router.verifier.cache_misses,
        }
        return run


def best_of(runs: Sequence[Run]) -> Run:
    """The passes as one run: each request's time is its best over the
    passes, and attempts and failures add up.  The passes replayed the
    same inputs on fresh objects, so they must have done the same work;
    a pass whose fingerprint or request sequence differs fails."""
    first = runs[0]
    best = Run(
        latencies=[min(times) for times in zip(*(r.latencies for r in runs))],
        kinds=first.kinds,
        attempted=sum(r.attempted for r in runs),
        failed=sum(r.failed for r in runs),
        served=first.served,
        fingerprint=first.fingerprint,
        queue=first.queue,
        jobs=first.jobs,
        deltas=first.deltas,
    )
    for other in runs[1:]:
        if (other.fingerprint, other.kinds) != (first.fingerprint, first.kinds):
            print("a pass did other work than the first", file=sys.stderr)
            best.failed += other.attempted - other.failed
    best.busy = sum(best.latencies)
    return best
