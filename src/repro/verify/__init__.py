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
  obligation off one long-lived shared solver; ``brute`` — the
  enumeration oracle; ``bitset`` — vectorised truth tables, also
  ``brute``'s fast path under its cone-width threshold; ``bdd`` —
  ROBDDs over the order in which the circuit first touches its wires;
  ``bdd-reversed`` — the reverse of that order);
* :mod:`repro.verify.sweep` — the dependence sweep, which proves (6.2)
  on small cones by truth tables before any backend runs;
* :mod:`repro.verify.batch` — :class:`BatchVerifier`, the throughput
  engine for both allocation contracts: dirty (``borrow``) wires owe
  (6.1) and (6.2), clean (``alloc``) wires (6.1) alone, through the
  same checkers, each dirty obligation through the sweep first
  (``sweep=False`` turns it off).  Verdicts are memoised by
  ``(circuit fingerprint, qubit, backend, clean)``; a circuit is
  tracked and its checker built once, on its first memo miss.  Checks
  run in the caller's thread;
* :mod:`repro.verify.report` — per-qubit verdicts and reports with
  simulator-replayed counterexamples;
* :mod:`repro.verify.pipeline` — :func:`verify_circuit` and
  :func:`verify_clean_wires`, the single-circuit shims over the batch
  engine for dirty and clean wires;
* :mod:`repro.verify.booltrace` — the Figure 6.1 construction trace.
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
from repro.verify.booltrace import formula_trace
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
from repro.verify.pipeline import verify_circuit, verify_clean_wires
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
    "ProgramSafetyReport",
    "QubitVerdict",
    "TrackedFormulas",
    "VerificationJob",
    "VerificationReport",
    "ViolationDemo",
    "available_backends",
    "borrow_statement_safe",
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
