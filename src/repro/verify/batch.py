"""The batch verification engine — the Section 6 pipeline at throughput.

Every caller used to re-track and re-encode each circuit per call;
:class:`BatchVerifier` is the shared engine behind
:func:`repro.verify.pipeline.verify_circuit`, the program verifier and
the multi-programming scheduler.  It serves both allocation contracts:
a job's dirty (``borrow``) wires owe Theorem 6.4's (6.1) and (6.2),
its clean (``alloc``) wires (6.1) alone.  For a batch of jobs it

* memoises verdicts keyed by ``(circuit fingerprint, qubit, backend,
  clean)`` so repeated borrows of the same ancilla — the
  scheduler-time hot path — are cache hits, not solver runs;
* tracks a circuit (:func:`track_circuit`) and builds its backend
  checker only when one of its obligations misses the memo, then
  shares both — Tseitin tables, compiled BDDs — across every later
  check on that circuit;
* runs each dirty obligation through the dependence sweep
  (:mod:`repro.verify.sweep`) before the engine: when the sweep proves
  (6.2), the engine checks (6.1) alone (stage order: track → sweep →
  engine).

Every check runs in the caller's thread.

The memo cache holds raw :class:`BooleanCheckOutcome` records; verdict
construction (and counterexample replay) happens per request, so a
cached unsafe outcome is still re-validated on the simulator unless the
caller opts out of replay.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.errors import VerificationError
from repro.verify.backends import CheckerBackend, backend_class, make_checker
from repro.verify.backends.base import BooleanCheckOutcome
from repro.verify.report import (
    VerificationReport,
    outcome_to_verdict,
)
from repro.verify.sweep import decides_62
from repro.verify.tracking import TrackedFormulas, track_circuit

#: The verdict memo's key: (circuit fingerprint, qubit, backend, clean).
CacheKey = Tuple[str, int, str, bool]

#: A call's memo misses: key -> (circuit, index of the job that owns it).
_Pending = Dict[CacheKey, Tuple[Circuit, int]]


@dataclass
class _Spent:
    """The work one call did for one job: tracking and checker-build
    seconds, sweep seconds, and how many of its obligations the sweep
    decided."""

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
    simplify_xor:
        Apply the Figure 6.1 ``x ⊕ x = 0`` rule while tracking.  It is
        fixed for the verifier's lifetime, so it is not part of the
        memo key.
    replay:
        Re-execute counterexamples on the classical simulator and raise
        if they do not actually violate the claimed condition.
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
        simplify_xor: bool = True,
        replay: bool = True,
        sweep: bool = True,
    ):
        backend_class(backend)  # SolverError for an unregistered name
        self.backend = backend
        self.simplify_xor = simplify_xor
        self.sweep = sweep
        self.replay = replay
        self.cache: Dict[CacheKey, BooleanCheckOutcome] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._tracked: Dict[str, TrackedFormulas] = {}
        self._checkers: Dict[Tuple[str, str], CheckerBackend] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop memoised verdicts and per-circuit structures.

        Per-circuit trackers, checkers (compiled BDDs, Tseitin tables)
        and cached verdicts are retained for the verifier's lifetime; a
        long-running service cycling through many *distinct* circuits
        should call this periodically to bound memory.
        """
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
        was decided in.
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
                key = (fingerprint, qubit, backend, clean)
                miss = key not in self.cache and key not in pending
                if miss:
                    pending[key] = (job.circuit, index)
                flags.append(miss)
            missed.append(flags)
        spent = self._execute(pending)

        # Assemble per-job reports (replay happens here).
        reports: List[VerificationReport] = []
        for index, (job, fingerprint, backend, obligations) in enumerate(plan):
            verdicts = []
            solver_seconds = 0.0
            for (qubit, clean), miss in zip(obligations, missed[index]):
                key = (fingerprint, qubit, backend, clean)
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

    def _execute(self, pending: _Pending) -> Dict[int, _Spent]:
        """Discharge every pending obligation into the memo, the sweep
        first; returns the work done, by owning job.

        A circuit's tracking and checker build are charged to the job
        that owns the first obligation to need them.  When the sweep
        proves a dirty wire's (6.2), the engine checks (6.1) alone
        (``check_qubit(qubit, clean=True)``); otherwise it decides the
        obligation as it would without the sweep, so every
        counterexample still comes from an engine.
        """
        spent: Dict[int, _Spent] = defaultdict(_Spent)
        for key, (circuit, index) in pending.items():
            fingerprint, qubit, backend, clean = key
            stages = spent[index]
            checker = self._ensure_checker(circuit, fingerprint, backend, stages)
            engine_clean = clean
            if self.sweep and not clean:
                sweep_start = time.perf_counter()
                engine_clean = decides_62(checker.tracked, qubit)
                stages.sweep += time.perf_counter() - sweep_start
                stages.swept += engine_clean
            self.cache[key] = checker.check_qubit(qubit, clean=engine_clean)
        return spent
