"""Clean-qubit uncomputation checks (the ``alloc`` contract).

A *clean* ancilla starts in ``|0>`` and must be returned to ``|0>`` —
the weaker, classical-only contract the paper contrasts with dirty-qubit
safety (Sections 1 and 3).  For a classical circuit this is: for every
input with the ancilla bit clear, the output ancilla bit is clear —
exactly the unsatisfiability of formula (6.1), i.e. *half* of the
Theorem 6.4 check.

This module gives `alloc` registers of ``.qbr`` programs a verification
story symmetric to ``borrow``:

* :func:`check_clean_uncomputation` — one qubit, any backend;
* :func:`verify_clean_wires` — a report over many clean wires.

Note the deliberate asymmetry with dirty qubits: a clean ancilla may
legitimately *influence other qubits while in use* and may be checked
only on the ``|0>`` slice of inputs; the Figure 1.4 circuit passes this
check and fails the dirty one.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.bdd.robdd import Bdd
from repro.boolfn.bitset import bitset_solve
from repro.boolfn.cnf import TseitinEncoder
from repro.circuits.circuit import Circuit
from repro.errors import SolverError, VerificationError
from repro.sat.brute import brute_force_solve
from repro.sat.cdcl import CdclSolver
from repro.verify.backends.bdd import variable_order
from repro.verify.report import Counterexample, QubitVerdict, VerificationReport
from repro.verify.tracking import TrackedFormulas, formula_61, track_circuit


def check_clean_uncomputation(
    tracked: TrackedFormulas, qubit: int, backend: str = "cdcl"
):
    """Decide formula (6.1) only; returns ``(clean, model_or_None)``."""
    expr = formula_61(tracked, qubit)
    if backend == "bdd" or backend == "bdd-reversed":
        order = [tracked.names[q] for q in variable_order(tracked.circuit)]
        if backend == "bdd-reversed":
            order.reverse()
        bdd = Bdd(order)
        node = bdd.from_expr(expr)
        if bdd.is_false(node):
            return True, None
        return False, bdd.any_sat(node) or {}
    if backend == "bitset":
        result, model = bitset_solve(expr)
        return (True, None) if result.is_unsat else (False, model)
    if backend in ("cdcl", "brute"):
        encoder = TseitinEncoder()
        encoder.assert_true(expr)
        if backend == "cdcl":
            result = CdclSolver(encoder.cnf).solve()
        else:
            result = brute_force_solve(encoder.cnf)
        if result.is_unsat:
            return True, None
        return False, encoder.decode_model(result.model)
    raise SolverError(f"unknown backend {backend!r}")


def verify_clean_wires(
    circuit: Circuit,
    clean_wires: Sequence[int],
    backend: str = "cdcl",
) -> VerificationReport:
    """Check every ``alloc`` wire returns to ``|0>`` (given it starts
    there)."""
    started = time.perf_counter()
    tracked = track_circuit(circuit)
    verdicts: List[QubitVerdict] = []
    for wire in clean_wires:
        if not 0 <= wire < circuit.num_qubits:
            raise VerificationError(f"clean wire {wire} outside the register")
        check_start = time.perf_counter()
        clean, model = check_clean_uncomputation(tracked, wire, backend)
        elapsed = time.perf_counter() - check_start
        name = tracked.names[wire]
        if clean:
            verdicts.append(QubitVerdict(wire, name, True, solve_seconds=elapsed))
            continue
        bits = [
            1 if model.get(tracked.names[q], False) else 0
            for q in range(circuit.num_qubits)
        ]
        bits[wire] = 0
        verdicts.append(
            QubitVerdict(
                wire,
                name,
                False,
                failed_condition="zero-restoration",
                counterexample=Counterexample("zero-restoration", model, bits),
                solve_seconds=elapsed,
            )
        )
    return VerificationReport(
        backend=f"{backend} (clean)",
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit.gates),
        verdicts=verdicts,
        total_seconds=time.perf_counter() - started,
    )
