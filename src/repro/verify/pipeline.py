"""End-to-end verification of borrowed and allocated wires in classical
circuits.

:func:`verify_circuit` is the single-circuit entry point of the Section
6 pipeline — formula tracking, the Theorem 6.4 reduction, a registered
backend — returning a structured report with replayable
counterexamples.  :func:`verify_clean_wires` is its counterpart for
``alloc`` wires, which owe only formula (6.1).  Both are thin shims over
:class:`repro.verify.batch.BatchVerifier` (a batch of one job, in the
caller's thread); callers with many circuits or qubits, or with both
kinds of wire on one circuit, should use the batch engine directly for
shared tracking, one checker per circuit and verdict memoisation.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.circuit import Circuit
from repro.verify.batch import BatchVerifier, VerificationJob
from repro.verify.report import Counterexample, QubitVerdict, VerificationReport


def verify_circuit(
    circuit: Circuit,
    dirty_qubits: Sequence[int],
    backend: str = "cdcl",
    simplify_xor: bool = True,
    replay: bool = True,
    sweep: bool = True,
) -> VerificationReport:
    """Verify safe uncomputation of each dirty qubit (Theorem 6.4).

    Parameters
    ----------
    circuit:
        A classical circuit (X / multi-controlled-NOT gates only).
    dirty_qubits:
        Wire indices whose safe uncomputation must be checked.
    backend:
        Any name in :func:`repro.verify.backends.available_backends`,
        e.g. ``"cdcl"`` or ``"bdd"``.
    simplify_xor:
        Apply the Figure 6.1 ``x ⊕ x = 0`` simplification while tracking
        (ablation A1 turns this off).
    replay:
        Re-execute every counterexample on the classical simulator and
        raise if it does not actually violate the claimed condition.
    sweep:
        Decide (6.2) with the dependence sweep before the engine where
        it can (ablation A4 turns this off; engine comparisons need
        ``sweep=False``).
    """
    verifier = BatchVerifier(
        backend=backend, simplify_xor=simplify_xor, sweep=sweep, replay=replay
    )
    return verifier.verify_circuit(circuit, dirty_qubits)


def verify_clean_wires(
    circuit: Circuit,
    clean_wires: Sequence[int],
    backend: str = "cdcl",
) -> VerificationReport:
    """Check that every ``alloc`` wire returns to ``|0>`` when it starts
    there.

    A clean ancilla owes only formula (6.1), half of the Theorem 6.4
    check: it may influence other wires while in use, so the Figure 1.4
    circuit passes this check and fails the dirty one.
    """
    job = VerificationJob(circuit, (), clean_qubits=clean_wires)
    return BatchVerifier(backend=backend).verify_circuits([job])[0]


__all__ = [
    "Counterexample",
    "QubitVerdict",
    "VerificationReport",
    "verify_circuit",
    "verify_clean_wires",
]
