"""The batch verification engine — the Section 6 pipeline at throughput.

Every caller used to re-track and re-encode each circuit per call;
:class:`BatchVerifier` is the shared engine behind
:func:`repro.verify.pipeline.verify_circuit`, the program verifier and
the multi-programming scheduler.  For a batch of jobs it

* tracks each distinct circuit once (:func:`track_circuit`) and builds
  one backend checker per (circuit, backend) pair, so Tseitin tables and
  compiled BDDs are shared across every qubit check on that circuit;
* fans the per-qubit checks out over a ``concurrent.futures`` thread
  pool (``max_workers``), serialising backends that are not
  ``parallel_safe`` through their per-instance lock;
* memoises verdicts keyed by ``(circuit fingerprint, qubit, backend)``
  so repeated borrows of the same ancilla — the scheduler-time hot path
  — are cache hits, not solver runs.

The memo cache holds raw :class:`BooleanCheckOutcome` records; verdict
construction (and counterexample replay) happens per request, so a
cached unsafe outcome is still re-validated on the simulator unless the
caller opts out of replay.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.errors import VerificationError
from repro.verify.backends import CheckerBackend, make_checker
from repro.verify.backends.base import BooleanCheckOutcome
from repro.verify.report import (
    VerificationReport,
    outcome_to_verdict,
)
from repro.verify.tracking import TrackedFormulas, track_circuit

#: (circuit fingerprint, qubit, backend, simplify_xor) -> outcome.
VerdictCache = Dict[Tuple[str, int, str, bool], BooleanCheckOutcome]

#: Per-process checker cache for the process-pool executor.  Workers
#: receive (circuit, qubit) jobs and rebuild tracking + checker once
#: per (circuit, backend, simplify_xor); later jobs on the same circuit
#: — including the incremental SAT backend's long-lived solver — reuse
#: the warm instance for the lifetime of the worker process.
_WORKER_CHECKERS: Dict[Tuple[str, str, bool], CheckerBackend] = {}


def _process_check(
    circuit: Circuit,
    qubits: Sequence[int],
    backend: str,
    simplify_xor: bool,
    cache_path: Optional[str] = None,
) -> Tuple[List[BooleanCheckOutcome], int]:
    """Top-level (picklable) worker: check a chunk of qubits in this
    process.  Chunks are per-circuit so the tracking rebuild — and the
    incremental SAT backend's shared instance — amortise over every
    qubit in the chunk.

    When the parent verifier's memo is a
    :class:`~repro.verify.cache.DiskVerdictCache`, ``cache_path``
    points at its file and the worker joins the share *mid-batch*: it
    re-reads the file at chunk start (picking up verdicts other
    workers — of this verifier or any concurrent one — flushed since),
    solves only the remainder, and flushes its fresh verdicts before
    returning (a read-merge-write under the cache's sidecar lock, so
    chunks racing their flushes union rather than clobber).  Returns
    the outcomes in ``qubits`` order plus how many came from disk.
    """
    fingerprint = circuit.fingerprint()
    cache = None
    if cache_path is not None:
        from repro.verify.cache import DiskVerdictCache

        cache = DiskVerdictCache(cache_path, autosave=False)
    checker = None
    outcomes: List[BooleanCheckOutcome] = []
    disk_hits = 0
    solved = False
    for qubit in qubits:
        key = (fingerprint, qubit, backend, simplify_xor)
        if cache is not None and key in cache:
            outcomes.append(cache[key])
            disk_hits += 1
            continue
        if checker is None:
            warm_key = (fingerprint, backend, simplify_xor)
            checker = _WORKER_CHECKERS.get(warm_key)
            if checker is None:
                tracked = track_circuit(circuit, simplify_xor=simplify_xor)
                checker = make_checker(tracked, backend)
                _WORKER_CHECKERS[warm_key] = checker
        outcome = checker.check_qubit(qubit)
        outcomes.append(outcome)
        if cache is not None:
            cache[key] = outcome
            solved = True
    if cache is not None and solved:
        cache.flush()
    return outcomes, disk_hits


@dataclass(frozen=True)
class VerificationJob:
    """One circuit plus the dirty qubits to check on it.

    ``backend=None`` inherits the verifier's default, so heterogeneous
    batches (e.g. BDD for adders, SAT for MCX) can ride in one call.
    """

    circuit: Circuit
    dirty_qubits: Tuple[int, ...]
    backend: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "dirty_qubits", tuple(self.dirty_qubits))


JobLike = Union[VerificationJob, Tuple[Circuit, Sequence[int]]]


def _as_job(job: JobLike) -> VerificationJob:
    if isinstance(job, VerificationJob):
        return job
    circuit, qubits = job
    return VerificationJob(circuit, tuple(qubits))


class BatchVerifier:
    """Reusable verification engine with shared structures and memoisation.

    Parameters
    ----------
    backend:
        Default backend name for jobs that do not pin their own.
    max_workers:
        Worker count for fanning out per-qubit checks; ``None`` uses
        the CPU count.  ``1`` degenerates to the sequential loop.
    executor:
        ``"thread"`` (default) fans out over a thread pool — cheap,
        shares every in-process structure, but pure-Python solver
        backends serialise on the GIL.  ``"process"`` fans out over a
        persistent :class:`~concurrent.futures.ProcessPoolExecutor`
        for true multi-core solving: each worker process rebuilds
        tracking and its own checker per circuit (cached for the
        worker's lifetime) and results merge back into this verifier's
        memo and any shared :class:`~repro.verify.cache.DiskVerdictCache`.
        With a disk cache the workers also share it *mid-batch*: each
        chunk re-reads the file before solving (skipping verdicts any
        other worker or verifier already flushed — counted in
        :attr:`worker_disk_hits`) and flushes its own fresh verdicts
        under the cache's writer lock before returning, so concurrent
        verifiers on one ``cache_path`` converge while their batches
        are still in flight, not only at flush boundaries.
        Call :meth:`close` (or use the verifier as a context manager)
        to reap the pool.
    simplify_xor:
        Apply the Figure 6.1 ``x ⊕ x = 0`` rule while tracking.
    replay:
        Re-execute counterexamples on the classical simulator and raise
        if they do not actually violate the claimed condition.
    cache:
        Optional externally shared verdict cache (a mutable mapping);
        by default each verifier owns a private one.  Pass a
        :class:`repro.verify.cache.DiskVerdictCache` to persist
        verdicts across processes.
    cache_path:
        Convenience for the disk cache: a path here constructs a
        :class:`~repro.verify.cache.DiskVerdictCache` over it (mutually
        exclusive with ``cache``).
    """

    def __init__(
        self,
        backend: str = "cdcl",
        max_workers: Optional[int] = None,
        simplify_xor: bool = True,
        replay: bool = True,
        cache: Optional[VerdictCache] = None,
        cache_path: Optional[str] = None,
        executor: str = "thread",
    ):
        if max_workers is not None and max_workers < 1:
            raise VerificationError("max_workers must be at least 1")
        if executor not in ("thread", "process"):
            raise VerificationError(
                f"unknown executor {executor!r}: pick 'thread' or 'process'"
            )
        if cache is not None and cache_path is not None:
            raise VerificationError(
                "pass either cache or cache_path, not both"
            )
        if cache_path is not None:
            from repro.verify.cache import DiskVerdictCache

            cache = DiskVerdictCache(cache_path)
        self.backend = backend
        self.max_workers = max_workers or os.cpu_count() or 1
        self.executor = executor
        self.simplify_xor = simplify_xor
        self.replay = replay
        self.cache: VerdictCache = {} if cache is None else cache
        self.cache_hits = 0
        self.cache_misses = 0
        #: Verdicts process-pool workers pulled from a shared
        #: :class:`~repro.verify.cache.DiskVerdictCache` *mid-batch* —
        #: solver runs another worker (possibly of another verifier)
        #: had already paid for before this verifier's own memo or
        #: flush cycle could see them.
        self.worker_disk_hits = 0
        self._tracked: Dict[str, TrackedFormulas] = {}
        self._track_seconds: Dict[str, float] = {}
        self._build_seconds: Dict[Tuple[str, str], float] = {}
        self._checkers: Dict[Tuple[str, str], CheckerBackend] = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut down the process pool, if one was ever started.

        Idempotent; the verifier remains usable afterwards (a later
        process-executor batch lazily starts a fresh pool).
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "BatchVerifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear(self) -> None:
        """Drop memoised verdicts and per-circuit structures.

        Per-circuit trackers, checkers (compiled BDDs, Tseitin tables,
        portfolio pools) and cached verdicts are retained for the
        verifier's lifetime; a long-running service cycling through many
        *distinct* circuits should call this periodically to bound
        memory.
        """
        self.cache.clear()
        self._tracked.clear()
        self._track_seconds.clear()
        self._build_seconds.clear()
        self._checkers.clear()

    def verify_circuit(
        self,
        circuit: Circuit,
        dirty_qubits: Sequence[int],
        backend: Optional[str] = None,
    ) -> VerificationReport:
        """Verify one circuit (a batch of size one)."""
        job = VerificationJob(circuit, tuple(dirty_qubits), backend)
        return self.verify_circuits([job])[0]

    def verify_circuits(self, jobs: Iterable[JobLike]) -> List[VerificationReport]:
        """Verify a batch of jobs, sharing structures and memoised verdicts.

        Returns one :class:`VerificationReport` per job, in input order.
        Because work is shared and may overlap across jobs, per-job wall
        time is not well-defined: each report's ``total_seconds`` is the
        elapsed time of the *whole* call (do not sum it over a batch);
        per-qubit ``solve_seconds`` carries the attribution.
        """
        started = time.perf_counter()
        batch = [_as_job(job) for job in jobs]
        for job in batch:
            for qubit in job.dirty_qubits:
                if not 0 <= qubit < job.circuit.num_qubits:
                    raise VerificationError(
                        f"dirty qubit {qubit} outside the register"
                    )

        # Shared per-circuit structures: one tracking pass, one checker.
        plan: List[Tuple[VerificationJob, str, str]] = []
        for job in batch:
            backend = job.backend or self.backend
            fingerprint = job.circuit.fingerprint()
            self._ensure_checker(job.circuit, fingerprint, backend)
            plan.append((job, fingerprint, backend))

        # Deduplicate against the memo cache and within the batch.
        pending: Dict[
            Tuple[str, int, str, bool], Tuple[CheckerBackend, int, Circuit]
        ] = {}
        hits: Dict[int, int] = {}
        misses: Dict[int, int] = {}
        for index, (job, fingerprint, backend) in enumerate(plan):
            for qubit in job.dirty_qubits:
                key = (fingerprint, qubit, backend, self.simplify_xor)
                if key in self.cache:
                    hits[index] = hits.get(index, 0) + 1
                elif key in pending:
                    hits[index] = hits.get(index, 0) + 1
                else:
                    checker = self._checkers[(fingerprint, backend)]
                    pending[key] = (checker, qubit, job.circuit)
                    misses[index] = misses.get(index, 0) + 1
        self._execute(pending)

        # Assemble per-job reports (replay happens here, on this thread).
        reports: List[VerificationReport] = []
        for index, (job, fingerprint, backend) in enumerate(plan):
            tracked = self._tracked[fingerprint]
            verdicts = [
                outcome_to_verdict(
                    job.circuit,
                    tracked.names,
                    self.cache[(fingerprint, qubit, backend, self.simplify_xor)],
                    self.replay,
                )
                for qubit in job.dirty_qubits
            ]
            reports.append(
                VerificationReport(
                    backend=backend,
                    num_qubits=job.circuit.num_qubits,
                    num_gates=len(job.circuit.gates),
                    verdicts=verdicts,
                    track_seconds=self._track_seconds[fingerprint],
                    build_seconds=self._build_seconds[(fingerprint, backend)],
                    total_seconds=time.perf_counter() - started,
                    cache_hits=hits.get(index, 0),
                    cache_misses=misses.get(index, 0),
                )
            )
        self.cache_hits += sum(hits.values())
        self.cache_misses += sum(misses.values())
        return reports

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _ensure_checker(
        self, circuit: Circuit, fingerprint: str, backend: str
    ) -> CheckerBackend:
        tracked = self._tracked.get(fingerprint)
        if tracked is None:
            track_start = time.perf_counter()
            tracked = track_circuit(circuit, simplify_xor=self.simplify_xor)
            self._track_seconds[fingerprint] = (
                time.perf_counter() - track_start
            )
            self._tracked[fingerprint] = tracked
        key = (fingerprint, backend)
        checker = self._checkers.get(key)
        if checker is None:
            build_start = time.perf_counter()
            checker = make_checker(tracked, backend)
            self._build_seconds[key] = time.perf_counter() - build_start
            self._checkers[key] = checker
        return checker

    @staticmethod
    def _run_check(checker: CheckerBackend, qubit: int) -> BooleanCheckOutcome:
        if checker.parallel_safe:
            return checker.check_qubit(qubit)
        with checker.serial_lock:
            return checker.check_qubit(qubit)

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _execute_process(
        self,
        pending: Dict[
            Tuple[str, int, str, bool], Tuple[CheckerBackend, int, Circuit]
        ],
    ) -> None:
        """Fan pending checks out over the process pool.

        Work ships as per-circuit chunks, not per-qubit tasks: each
        chunk pays one tracking rebuild in its worker and then runs all
        its qubits against the worker's warm checker.  When the batch
        holds fewer circuits than workers, each circuit's qubit list is
        split so every worker still gets work.
        """
        groups: Dict[
            Tuple[str, str, bool], Tuple[Circuit, List[Tuple[tuple, int]]]
        ] = {}
        for key, (_, qubit, circuit) in pending.items():
            fingerprint, _, backend, simplify_xor = key
            group = groups.setdefault(
                (fingerprint, backend, simplify_xor), (circuit, [])
            )
            group[1].append((key, qubit))
        # Oversubscribe chunks 2x so heterogeneous circuits load-balance
        # (the largest circuit otherwise pins the makespan); tracking
        # rebuilds cost milliseconds, so extra chunks are cheap.
        chunks_per_group = max(1, -(-2 * self.max_workers // len(groups)))
        pool = self._process_pool()
        futures = []
        cache_path = getattr(self.cache, "path", None)
        for (_, backend, simplify_xor), (circuit, items) in groups.items():
            splits = min(chunks_per_group, len(items))
            size = -(-len(items) // splits)
            for offset in range(0, len(items), size):
                chunk = items[offset : offset + size]
                futures.append(
                    (
                        chunk,
                        pool.submit(
                            _process_check,
                            circuit,
                            [qubit for _, qubit in chunk],
                            backend,
                            simplify_xor,
                            cache_path,
                        ),
                    )
                )
        for chunk, future in futures:
            outcomes, disk_hits = future.result()
            self.worker_disk_hits += disk_hits
            for (key, _), outcome in zip(chunk, outcomes):
                self.cache[key] = outcome

    def _execute(
        self,
        pending: Dict[
            Tuple[str, int, str, bool], Tuple[CheckerBackend, int, Circuit]
        ],
    ) -> None:
        if not pending:
            return
        # A persistent cache flushes once per batch, not per verdict
        # (duck-typed so plain dicts keep working).
        deferred = getattr(self.cache, "deferred", None)
        store = deferred() if deferred is not None else nullcontext()
        with store:
            if self.max_workers == 1 or len(pending) == 1:
                for key, (checker, qubit, _) in pending.items():
                    self.cache[key] = checker.check_qubit(qubit)
                return
            if self.executor == "process":
                self._execute_process(pending)
                return
            workers = min(self.max_workers, len(pending))
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="verify"
            ) as pool:
                futures = {
                    key: pool.submit(self._run_check, checker, qubit)
                    for key, (checker, qubit, _) in pending.items()
                }
                for key, future in futures.items():
                    self.cache[key] = future.result()
