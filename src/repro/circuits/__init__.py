"""Quantum-circuit intermediate representation — system S3.

Circuits are flat gate lists over integer-indexed qubits.  The IR supports
the two execution models the paper needs:

* **unitary extraction** (:mod:`repro.circuits.unitary`) for small registers,
  used by the semantic checkers of Section 5; and
* **classical permutation simulation** (:mod:`repro.circuits.classical`) for
  circuits built from X and multi-controlled-NOT gates — the fragment in
  which Section 6 verifies safe uncomputation at scale.

:mod:`repro.circuits.intervals` computes per-qubit activity periods and
their refinement into segmented lending windows: the restore-point
analysis (:func:`restore_segments`) splits an ancilla's period at the
gaps where the prefix provably restores it, yielding the
:class:`WindowSet` of disjoint segments a borrowed host is actually
occupied for.  The Figure 3.1 width-reduction pass that borrows idle
working qubits as dirty ancillas lives in :mod:`repro.alloc`, whose
:func:`~repro.alloc.allocate` reads these intervals once per circuit.
"""

from repro.circuits.gates import (
    Gate,
    ccnot,
    cnot,
    cphase,
    gate_from_name,
    hadamard,
    mcx,
    phase,
    s_gate,
    swap,
    t_gate,
    toffoli,
    unitary_gate,
    x,
)
from repro.circuits.circuit import Circuit
from repro.circuits.classical import (
    apply_to_bits,
    is_classical_circuit,
    truth_table,
)
from repro.circuits.intervals import (
    ActivityInterval,
    WindowSet,
    activity_intervals,
    idle_qubits_during,
    restore_segments,
    solver_restore_checker,
    touch_indices,
)
from repro.circuits.metrics import CircuitCosts, circuit_costs, depth, size
from repro.circuits.unitary import circuit_unitary
from repro.circuits.statevector import (
    apply_gate_to_ket,
    run_on_basis_state,
    run_statevector,
)
from repro.circuits.draw import draw_circuit
from repro.circuits.qasm import from_qasm, to_qasm

__all__ = [
    "ActivityInterval",
    "WindowSet",
    "Circuit",
    "CircuitCosts",
    "Gate",
    "activity_intervals",
    "apply_gate_to_ket",
    "apply_to_bits",
    "ccnot",
    "circuit_costs",
    "circuit_unitary",
    "cnot",
    "cphase",
    "depth",
    "draw_circuit",
    "from_qasm",
    "gate_from_name",
    "hadamard",
    "idle_qubits_during",
    "restore_segments",
    "solver_restore_checker",
    "touch_indices",
    "is_classical_circuit",
    "mcx",
    "phase",
    "run_on_basis_state",
    "run_statevector",
    "s_gate",
    "size",
    "swap",
    "t_gate",
    "to_qasm",
    "toffoli",
    "truth_table",
    "unitary_gate",
    "x",
]
