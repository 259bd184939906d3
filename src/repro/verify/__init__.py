"""Safe-uncomputation verification — system S10, the paper's contribution.

Checkers, from most semantic to most scalable:

* :mod:`repro.verify.unitary` — Definition 3.1 on explicit unitaries;
* :mod:`repro.verify.channel` — Definition 5.1 on quantum operations and
  whole programs (plus the Theorem 5.5 determinism test);
* :mod:`repro.verify.basis` — the finite-state refinements of Theorem 6.1
  (conditions 2 and 3);
* :mod:`repro.verify.classical` — Theorem 6.2's two-state criterion,
  decided exactly by truth-table enumeration (the small-scale oracle);
* :mod:`repro.verify.tracking` — the Section 6.1 reduction: tracked
  Boolean formulas and the (6.1)/(6.2) obligations;
* :mod:`repro.verify.backends` — the pluggable decision procedures
  behind Theorem 6.4: a ``@register_backend`` registry with one module
  per engine (``cdcl`` — incremental by default, probing each
  obligation off one long-lived shared solver; ``dpll``; ``brute``;
  ``bitset`` — vectorised truth tables, also ``brute``'s fast path
  under its cone-width threshold; ``bdd`` — ROBDDs over the order in
  which the circuit first touches its wires; ``bdd-reversed`` — the
  reverse of that order) plus ``portfolio``, which races the
  recorded-best SAT engine against BDD and returns the first verdict;
* :mod:`repro.verify.batch` — :class:`BatchVerifier`, the throughput
  engine: one tracking pass and one checker per circuit, per-qubit
  checks fanned out over a worker pool (``executor="thread"`` shares
  checkers in-process; ``executor="process"`` ships per-circuit chunks
  to a ``ProcessPoolExecutor`` for true multi-core scaling), verdicts
  memoised by ``(circuit fingerprint, qubit, backend)``;
* :mod:`repro.verify.cache` — :class:`DiskVerdictCache`, the opt-in
  JSON persistence of that memo (``cache_path=`` on the verifier), so
  repeated service runs skip solver work across processes;
* :mod:`repro.verify.report` — per-qubit verdicts and reports with
  simulator-replayed counterexamples;
* :mod:`repro.verify.pipeline` — :func:`verify_circuit`, the
  single-circuit shim over the batch engine;
* :mod:`repro.verify.booltrace` — the Figure 6.1 construction trace;
* :mod:`repro.verify.boolean` — compatibility façade over tracking +
  backends for pre-refactor imports.
"""

from repro.verify.unitary import factor_unitary, unitary_acts_identity_on
from repro.verify.channel import (
    borrow_statement_safe,
    operation_acts_identity_on,
    program_is_safe,
    program_safely_uncomputes,
)
from repro.verify.basis import (
    restores_basis_states,
    preserves_bell_entanglement,
)
from repro.verify.classical import classical_safe_uncomputation
from repro.verify.tracking import (
    TrackedFormulas,
    formula_61,
    formula_62,
    track_circuit,
)
from repro.verify.backends import (
    BooleanCheckOutcome,
    CheckerBackend,
    available_backends,
    make_checker,
    register_backend,
)
from repro.verify.batch import BatchVerifier, VerificationJob
from repro.verify.cache import DiskVerdictCache
from repro.verify.booltrace import formula_trace
from repro.verify.clean import check_clean_uncomputation, verify_clean_wires
from repro.verify.demonstrate import (
    ViolationDemo,
    demonstrate,
    demonstrate_entanglement_violation,
    demonstrate_plus_violation,
    demonstrate_zero_violation,
)
from repro.verify.report import (
    Counterexample,
    QubitVerdict,
    VerificationReport,
)
from repro.verify.pipeline import verify_circuit
from repro.verify.program import (
    BorrowVerdict,
    ProgramSafetyReport,
    verify_borrows_in_program,
)

__all__ = [
    "BatchVerifier",
    "BooleanCheckOutcome",
    "BorrowVerdict",
    "CheckerBackend",
    "Counterexample",
    "DiskVerdictCache",
    "ProgramSafetyReport",
    "QubitVerdict",
    "TrackedFormulas",
    "VerificationJob",
    "VerificationReport",
    "ViolationDemo",
    "available_backends",
    "borrow_statement_safe",
    "check_clean_uncomputation",
    "classical_safe_uncomputation",
    "demonstrate",
    "demonstrate_entanglement_violation",
    "demonstrate_plus_violation",
    "demonstrate_zero_violation",
    "factor_unitary",
    "formula_61",
    "formula_62",
    "formula_trace",
    "make_checker",
    "operation_acts_identity_on",
    "preserves_bell_entanglement",
    "program_is_safe",
    "program_safely_uncomputes",
    "register_backend",
    "restores_basis_states",
    "track_circuit",
    "unitary_acts_identity_on",
    "verify_borrows_in_program",
    "verify_circuit",
    "verify_clean_wires",
]
