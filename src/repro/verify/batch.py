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
* runs each dirty obligation through the dependence sweep
  (:mod:`repro.verify.sweep`) before the engine: when the sweep proves
  (6.2), the engine checks (6.1) alone (stage order: track → sweep →
  engine);
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
from collections import defaultdict
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
from repro.verify.sweep import decides_62
from repro.verify.tracking import TrackedFormulas, track_circuit

#: The verdict memo: (circuit fingerprint, qubit, backend, simplify_xor,
#: clean) -> outcome.
VerdictCache = Dict[CacheKey, BooleanCheckOutcome]

#: One discharged obligation: its outcome, the sweep's seconds, and
#: whether the sweep decided (6.2).
Discharged = Tuple[BooleanCheckOutcome, float, bool]

#: A call's memo misses: key -> (circuit, index of the job that owns it).
_Pending = Dict[CacheKey, Tuple[Circuit, int]]

#: Per-process checker cache for the process pool.  Workers
#: receive (circuit, obligations) chunks and rebuild tracking + checker
#: once per (circuit, backend, simplify_xor); later jobs on the same circuit
#: — including the incremental SAT backend's long-lived solver — reuse
#: the warm instance for the lifetime of the worker process.
_WORKER_CHECKERS: Dict[Tuple[str, str, bool], CheckerBackend] = {}


def _discharge(
    checker: CheckerBackend, qubit: int, clean: bool, sweep: bool
) -> Discharged:
    """Decide one obligation on ``checker``, the sweep first.

    When the sweep proves a dirty wire's (6.2), the engine checks (6.1)
    alone (``check_qubit(qubit, clean=True)``); otherwise it decides
    the obligation as it would without the sweep, so every
    counterexample still comes from an engine.
    """
    if not sweep or clean:
        return checker.check_qubit(qubit, clean=clean), 0.0, False
    start = time.perf_counter()
    swept = decides_62(checker.tracked, qubit)
    sweep_seconds = time.perf_counter() - start
    return checker.check_qubit(qubit, clean=swept), sweep_seconds, swept


def _process_check(
    circuit: Circuit,
    obligations: Sequence[Tuple[int, bool]],
    backend: str,
    simplify_xor: bool,
    sweep: bool,
    cache_path: Optional[str] = None,
) -> Tuple[List[Discharged], int]:
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
    the discharged obligations in ``obligations`` order plus how many
    came from disk.
    """
    fingerprint = circuit.fingerprint()
    cache = None
    if cache_path is not None:
        cache = DiskVerdictCache(cache_path, autosave=False)
    checker = None
    results: List[Discharged] = []
    disk_hits = 0
    solved = False
    for qubit, clean in obligations:
        key = (fingerprint, qubit, backend, simplify_xor, clean)
        if cache is not None and key in cache:
            results.append((cache[key], 0.0, False))
            disk_hits += 1
            continue
        if checker is None:
            warm_key = (fingerprint, backend, simplify_xor)
            checker = _WORKER_CHECKERS.get(warm_key)
            if checker is None:
                tracked = track_circuit(circuit, simplify_xor=simplify_xor)
                checker = make_checker(tracked, backend)
                _WORKER_CHECKERS[warm_key] = checker
        result = _discharge(checker, qubit, clean, sweep)
        results.append(result)
        if cache is not None:
            cache[key] = result[0]
            solved = True
    if cache is not None and solved:
        cache.flush()
    return results, disk_hits


@dataclass
class _Spent:
    """The work one call did for one job: tracking and checker-build
    seconds (in-process runs only), sweep seconds, and how many of its
    obligations the sweep decided."""

    track: float = 0.0
    build: float = 0.0
    sweep: float = 0.0
    swept: int = 0


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
    sweep:
        Run the dependence sweep (:mod:`repro.verify.sweep`) on every
        dirty obligation before the engine.  It changes how a verdict
        is reached, never the verdict, so it is not part of the memo
        key; ``sweep=False`` runs the engine alone (the ablation that
        engine comparisons need).
    """

    def __init__(
        self,
        backend: str = "cdcl",
        max_workers: int = 1,
        simplify_xor: bool = True,
        replay: bool = True,
        cache: Optional[VerdictCache] = None,
        cache_path: Optional[str] = None,
        sweep: bool = True,
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
        self.sweep = sweep
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
        elapsed time of the *whole* call (do not sum it over a batch).
        Its stage columns count only the work this call did for that
        job: the job whose memo miss first needs a circuit pays its
        tracking and checker build, and a memo hit (a verdict cached
        before, or computed for an earlier job of the batch) costs
        nothing, although its verdict keeps the ``solve_seconds`` it
        was decided in.  Tracking and build done in pool workers are
        not reported.
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

        # Deduplicate against the memo cache and within the batch; each
        # pending obligation belongs to the job that missed it first.
        pending: _Pending = {}
        missed: List[List[bool]] = []
        for index, (job, fingerprint, backend, obligations) in enumerate(plan):
            flags = []
            for qubit, clean in obligations:
                key = (fingerprint, qubit, backend, self.simplify_xor, clean)
                miss = key not in self.cache and key not in pending
                if miss:
                    pending[key] = (job.circuit, index)
                flags.append(miss)
            missed.append(flags)
        spent = self._execute(pending)

        # Assemble per-job reports (replay happens here, in this process).
        reports: List[VerificationReport] = []
        for index, (job, fingerprint, backend, obligations) in enumerate(plan):
            verdicts = []
            solver_seconds = 0.0
            for (qubit, clean), miss in zip(obligations, missed[index]):
                key = (fingerprint, qubit, backend, self.simplify_xor, clean)
                outcome = self.cache[key]
                verdicts.append(
                    outcome_to_verdict(job.circuit, outcome, self.replay)
                )
                if miss:
                    solver_seconds += outcome.solve_seconds
            stages = spent.get(index, _Spent())
            hits = missed[index].count(False)
            reports.append(
                VerificationReport(
                    backend=backend,
                    num_qubits=job.circuit.num_qubits,
                    num_gates=len(job.circuit.gates),
                    verdicts=verdicts,
                    track_seconds=stages.track,
                    build_seconds=stages.build,
                    sweep_seconds=stages.sweep,
                    solver_seconds=solver_seconds,
                    total_seconds=time.perf_counter() - started,
                    cache_hits=hits,
                    cache_misses=len(obligations) - hits,
                    swept=stages.swept,
                )
            )
        self.cache_hits += sum(flags.count(False) for flags in missed)
        self.cache_misses += len(pending)
        return reports

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _ensure_checker(
        self, circuit: Circuit, fingerprint: str, backend: str, spent: _Spent
    ) -> CheckerBackend:
        tracked = self._tracked.get(fingerprint)
        if tracked is None:
            track_start = time.perf_counter()
            tracked = track_circuit(circuit, simplify_xor=self.simplify_xor)
            spent.track += time.perf_counter() - track_start
            self._tracked[fingerprint] = tracked
        key = (fingerprint, backend)
        checker = self._checkers.get(key)
        if checker is None:
            build_start = time.perf_counter()
            checker = make_checker(tracked, backend)
            spent.build += time.perf_counter() - build_start
            self._checkers[key] = checker
        return checker

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _execute_process(
        self, pending: _Pending
    ) -> Iterable[Tuple[CacheKey, Discharged]]:
        """Fan pending checks out over the process pool.

        Work ships as per-circuit chunks, not per-qubit tasks: each
        chunk pays one tracking rebuild in its worker and then runs all
        its obligations against the worker's warm checker.  When the
        batch holds fewer circuits than workers, each circuit's
        obligation list is split so every worker still gets work.
        """
        groups: Dict[Tuple[str, str, bool], Tuple[Circuit, List[CacheKey]]] = {}
        for key, (circuit, _) in pending.items():
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
                            self.sweep,
                            cache_path,
                        ),
                    )
                )
        for chunk, future in futures:
            results, disk_hits = future.result()
            self.worker_disk_hits += disk_hits
            yield from zip(chunk, results)

    def _execute_here(
        self, pending: _Pending, spent: Dict[int, _Spent]
    ) -> Iterable[Tuple[CacheKey, Discharged]]:
        """Discharge pending obligations in this process, charging each
        circuit's tracking and checker build to the job that owns the
        first obligation to need them."""
        for key, (circuit, index) in pending.items():
            fingerprint, qubit, backend, _, clean = key
            checker = self._ensure_checker(
                circuit, fingerprint, backend, spent[index]
            )
            yield key, _discharge(checker, qubit, clean, self.sweep)

    def _execute(self, pending: _Pending) -> Dict[int, _Spent]:
        """Discharge every pending obligation into the memo; returns the
        work done, by owning job."""
        spent: Dict[int, _Spent] = defaultdict(_Spent)
        if not pending:
            return spent
        if self.max_workers > 1 and len(pending) > 1:
            results = self._execute_process(pending)
        else:
            results = self._execute_here(pending, spent)
        # A persistent cache flushes once per batch, not per verdict
        # (duck-typed so plain dicts keep working).
        deferred = getattr(self.cache, "deferred", None)
        with deferred() if deferred is not None else nullcontext():
            for key, (outcome, sweep_seconds, swept) in results:
                self.cache[key] = outcome
                stages = spent[pending[key][1]]
                stages.sweep += sweep_seconds
                stages.swept += swept
        return spent
