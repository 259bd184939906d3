"""The batch verification engine — the Section 6 pipeline at throughput.

Every caller used to re-track and re-encode each circuit per call;
:class:`BatchVerifier` is the shared engine behind
:func:`repro.verify.pipeline.verify_circuit`, the program verifier and
the multi-programming scheduler.  It serves both allocation contracts:
a job's dirty (``borrow``) wires owe Theorem 6.4's (6.1) and (6.2),
its clean (``alloc``) wires (6.1) alone.  For a batch of jobs it

* memoises verdicts keyed by ``(circuit fingerprint, qubit, backend,
  simplify_xor, clean)`` so repeated borrows of the same ancilla — the
  scheduler-time hot path — are cache hits, not solver runs;
* tracks a circuit (:func:`track_circuit`) and builds its backend
  checker only when one of its obligations misses the memo and runs in
  this process, then shares both — Tseitin tables, compiled BDDs —
  across every later check on that circuit;
* runs the per-qubit checks in the caller's thread, or, with
  ``max_workers > 1``, ships them in per-circuit chunks to a process
  pool (every engine is pure Python and holds the GIL, so processes
  are the only way to use a second core).

The memo cache holds raw :class:`BooleanCheckOutcome` records; verdict
construction (and counterexample replay) happens per request, so a
cached unsafe outcome is still re-validated on the simulator unless the
caller opts out of replay.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.errors import VerificationError
from repro.verify.backends import CheckerBackend, backend_class, make_checker
from repro.verify.backends.base import BooleanCheckOutcome
from repro.verify.cache import CacheKey, DiskVerdictCache
from repro.verify.report import (
    VerificationReport,
    outcome_to_verdict,
)
from repro.verify.tracking import TrackedFormulas, track_circuit

#: The verdict memo: (circuit fingerprint, qubit, backend, simplify_xor,
#: clean) -> outcome.
VerdictCache = Dict[CacheKey, BooleanCheckOutcome]

#: Per-process checker cache for the process pool.  Workers
#: receive (circuit, obligations) chunks and rebuild tracking + checker
#: once per (circuit, backend, simplify_xor); later jobs on the same circuit
#: — including the incremental SAT backend's long-lived solver — reuse
#: the warm instance for the lifetime of the worker process.
_WORKER_CHECKERS: Dict[Tuple[str, str, bool], CheckerBackend] = {}


def _process_check(
    circuit: Circuit,
    obligations: Sequence[Tuple[int, bool]],
    backend: str,
    simplify_xor: bool,
    cache_path: Optional[str] = None,
) -> Tuple[List[BooleanCheckOutcome], int]:
    """Top-level (picklable) worker: check a chunk of ``(qubit, clean)``
    obligations in this process.  Chunks are per-circuit so the tracking
    rebuild — and the incremental SAT backend's shared instance —
    amortise over every obligation in the chunk.

    When the parent verifier's memo is a
    :class:`~repro.verify.cache.DiskVerdictCache`, ``cache_path``
    points at its file and the worker joins the share *mid-batch*: it
    re-reads the file at chunk start (picking up verdicts other
    workers — of this verifier or any concurrent one — flushed since),
    solves only the remainder, and flushes its fresh verdicts before
    returning (a read-merge-write under the cache's sidecar lock, so
    chunks racing their flushes union rather than clobber).  Returns
    the outcomes in ``obligations`` order plus how many came from disk.
    """
    fingerprint = circuit.fingerprint()
    cache = None
    if cache_path is not None:
        cache = DiskVerdictCache(cache_path, autosave=False)
    checker = None
    outcomes: List[BooleanCheckOutcome] = []
    disk_hits = 0
    solved = False
    for qubit, clean in obligations:
        key = (fingerprint, qubit, backend, simplify_xor, clean)
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
        outcome = checker.check_qubit(qubit, clean=clean)
        outcomes.append(outcome)
        if cache is not None:
            cache[key] = outcome
            solved = True
    if cache is not None and solved:
        cache.flush()
    return outcomes, disk_hits


@dataclass(frozen=True)
class VerificationJob:
    """One circuit plus the wires to check on it.

    ``dirty_qubits`` are ``borrow`` wires, checked against both
    Theorem 6.4 conditions; ``clean_qubits`` are ``alloc`` wires, which
    start in ``|0>`` and owe only the |0>-restoration condition (6.1).
    The job's report lists the dirty verdicts first, then the clean
    ones.  ``backend=None`` inherits the verifier's default, so
    heterogeneous batches (e.g. BDD for adders, SAT for MCX) can ride in
    one call.
    """

    circuit: Circuit
    dirty_qubits: Tuple[int, ...]
    backend: Optional[str] = None
    clean_qubits: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dirty_qubits", tuple(self.dirty_qubits))
        object.__setattr__(self, "clean_qubits", tuple(self.clean_qubits))


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
        Default backend name for jobs that do not pin their own; an
        unregistered name raises :class:`~repro.errors.SolverError`
        here rather than at the first verification.
    max_workers:
        ``1`` (the default) checks every obligation in the caller's
        thread.  A larger count fans batches of more than one pending
        check out over a persistent
        :class:`~concurrent.futures.ProcessPoolExecutor` of that many
        workers for multi-core solving: each worker process rebuilds
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
        max_workers: int = 1,
        simplify_xor: bool = True,
        replay: bool = True,
        cache: Optional[VerdictCache] = None,
        cache_path: Optional[str] = None,
    ):
        backend_class(backend)  # SolverError for an unregistered name
        if max_workers < 1:
            raise VerificationError("max_workers must be at least 1")
        if cache is not None and cache_path is not None:
            raise VerificationError(
                "pass either cache or cache_path, not both"
            )
        if cache_path is not None:
            cache = DiskVerdictCache(cache_path)
        self.backend = backend
        self.max_workers = max_workers
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
        pooled batch lazily starts a fresh pool).
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

        Per-circuit trackers, checkers (compiled BDDs, Tseitin tables)
        and cached verdicts are retained for the verifier's lifetime; a
        long-running service cycling through many *distinct* circuits
        should call this periodically to bound memory.  Pool workers
        keep their own checkers, so this also reaps the process pool
        (:meth:`close`); the next pooled batch starts fresh workers.
        """
        self.close()
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
        per-qubit ``solve_seconds`` carries the attribution.  A report's
        ``track_seconds`` and ``build_seconds`` stay 0 until one of its
        circuit's obligations has run in this process.
        """
        started = time.perf_counter()
        plan: List[Tuple[VerificationJob, str, str, List[Tuple[int, bool]]]] = []
        for job in map(_as_job, jobs):
            obligations = [(q, False) for q in job.dirty_qubits] + [
                (q, True) for q in job.clean_qubits
            ]
            for qubit, clean in obligations:
                if not 0 <= qubit < job.circuit.num_qubits:
                    kind = "clean" if clean else "dirty"
                    raise VerificationError(
                        f"{kind} qubit {qubit} outside the register"
                    )
            backend = job.backend or self.backend
            plan.append((job, job.circuit.fingerprint(), backend, obligations))

        # Deduplicate against the memo cache and within the batch.
        pending: Dict[CacheKey, Circuit] = {}
        hits: Dict[int, int] = {}
        misses: Dict[int, int] = {}
        for index, (job, fingerprint, backend, obligations) in enumerate(plan):
            for qubit, clean in obligations:
                key = (fingerprint, qubit, backend, self.simplify_xor, clean)
                if key in self.cache or key in pending:
                    hits[index] = hits.get(index, 0) + 1
                else:
                    pending[key] = job.circuit
                    misses[index] = misses.get(index, 0) + 1
        self._execute(pending)

        # Assemble per-job reports (replay happens here, in this process).
        reports: List[VerificationReport] = []
        for index, (job, fingerprint, backend, obligations) in enumerate(plan):
            verdicts = [
                outcome_to_verdict(
                    job.circuit,
                    self.cache[
                        (fingerprint, qubit, backend, self.simplify_xor, clean)
                    ],
                    self.replay,
                )
                for qubit, clean in obligations
            ]
            reports.append(
                VerificationReport(
                    backend=backend,
                    num_qubits=job.circuit.num_qubits,
                    num_gates=len(job.circuit.gates),
                    verdicts=verdicts,
                    track_seconds=self._track_seconds.get(fingerprint, 0.0),
                    build_seconds=self._build_seconds.get(
                        (fingerprint, backend), 0.0
                    ),
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

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _execute_process(self, pending: Dict[CacheKey, Circuit]) -> None:
        """Fan pending checks out over the process pool.

        Work ships as per-circuit chunks, not per-qubit tasks: each
        chunk pays one tracking rebuild in its worker and then runs all
        its obligations against the worker's warm checker.  When the
        batch holds fewer circuits than workers, each circuit's
        obligation list is split so every worker still gets work.
        """
        groups: Dict[Tuple[str, str, bool], Tuple[Circuit, List[CacheKey]]] = {}
        for key, circuit in pending.items():
            fingerprint, _, backend, simplify_xor, _ = key
            group = groups.setdefault(
                (fingerprint, backend, simplify_xor), (circuit, [])
            )
            group[1].append(key)
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
                            [(qubit, clean) for _, qubit, _, _, clean in chunk],
                            backend,
                            simplify_xor,
                            cache_path,
                        ),
                    )
                )
        for chunk, future in futures:
            outcomes, disk_hits = future.result()
            self.worker_disk_hits += disk_hits
            for key, outcome in zip(chunk, outcomes):
                self.cache[key] = outcome

    def _execute(self, pending: Dict[CacheKey, Circuit]) -> None:
        if not pending:
            return
        # A persistent cache flushes once per batch, not per verdict
        # (duck-typed so plain dicts keep working).
        deferred = getattr(self.cache, "deferred", None)
        store = deferred() if deferred is not None else nullcontext()
        with store:
            if self.max_workers > 1 and len(pending) > 1:
                self._execute_process(pending)
                return
            for key, circuit in pending.items():
                fingerprint, qubit, backend, _, clean = key
                checker = self._ensure_checker(circuit, fingerprint, backend)
                self.cache[key] = checker.check_qubit(qubit, clean=clean)
