"""Property-based differential testing of the Theorem 6.4 reduction.

For random classical circuits, every scalable backend (SAT via CDCL,
BDD in both orders) must agree with the exhaustive Theorem 6.2
truth-table oracle on every qubit — and, since Theorem 6.2 is itself
proven equivalent to Definition 3.1, every backend's verdict through
:class:`BatchVerifier` must equal the unitary factorisation check on
small registers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, circuit_unitary, unitary_gate
from repro.circuits.gates import CLASSICAL_NAMES
from repro.errors import CircuitError, VerificationError
from repro.verify import (
    BatchVerifier,
    available_backends,
    classical_safe_uncomputation,
    track_circuit,
    make_checker,
    unitary_acts_identity_on,
)
from tests.conftest import classical_circuit_strategy, reversible_pair_circuit

#: One-qubit matrices for a custom gate: a NOT that only its name could
#: reveal as classical, and a Hadamard that is not classical at all.
CUSTOM_MATRICES = {
    "not": np.array([[0, 1], [1, 0]]),
    "hadamard": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
}


@st.composite
def circuits_with_custom_gate(draw):
    """A classical circuit on 3 or 4 wires and, sometimes, a custom-matrix
    gate to insert into it: ``(position, name, matrix key, wire)``."""
    num_qubits = draw(st.sampled_from([3, 4]))
    circuit = draw(classical_circuit_strategy(num_qubits, max_gates=8))
    custom = draw(
        st.none()
        | st.tuples(
            st.integers(0, len(circuit.gates)),
            st.sampled_from(["U", *sorted(CLASSICAL_NAMES)]),
            st.sampled_from(sorted(CUSTOM_MATRICES)),
            st.integers(0, num_qubits - 1),
        )
    )
    return circuit, custom


@settings(max_examples=40, deadline=None)
@given(classical_circuit_strategy(4, max_gates=10))
def test_sat_and_bdd_match_truth_table_oracle(circuit):
    tracked = track_circuit(circuit)
    checkers = {
        backend: make_checker(tracked, backend)
        for backend in ("cdcl", "bdd", "bdd-reversed")
    }
    for qubit in range(circuit.num_qubits):
        expected = classical_safe_uncomputation(circuit, qubit).safe
        for backend, checker in checkers.items():
            assert checker.check_qubit(qubit).safe == expected, (
                backend,
                qubit,
            )


@settings(max_examples=40, deadline=None)
@given(circuits_with_custom_gate())
def test_reduction_matches_definition_31(case):
    """Solver-safe is unitary-safe, through the batch engine: every
    backend's dirty verdict, with the sweep on and off, equals
    Definition 3.1 on the circuit's unitary.  A custom-matrix gate is
    refused, never read as safe: ``Gate`` rejects one under a classical
    name, and the verifier rejects a circuit holding any other."""
    circuit, custom = case
    num_qubits = circuit.num_qubits
    if custom is not None:
        position, name, key, wire = custom
        matrix = CUSTOM_MATRICES[key]
        if name in CLASSICAL_NAMES:
            with pytest.raises(CircuitError):
                unitary_gate(matrix, [wire], name=name)
        else:
            gates = list(circuit.gates)
            gates.insert(position, unitary_gate(matrix, [wire], name=name))
            circuit = Circuit(num_qubits, gates)
    classical = all(gate.is_classical for gate in circuit.gates)
    if classical:
        unitary = circuit_unitary(circuit)
        semantic = [
            unitary_acts_identity_on(unitary, qubit, num_qubits)
            for qubit in range(num_qubits)
        ]
    job = (circuit, range(num_qubits))
    for backend in available_backends():
        for sweep in (True, False):
            verifier = BatchVerifier(backend=backend, sweep=sweep)
            if not classical:
                with pytest.raises(VerificationError):
                    verifier.verify_circuits([job])
                continue
            (report,) = verifier.verify_circuits([job])
            verdicts = [verdict.safe for verdict in report.verdicts]
            assert verdicts == semantic, (backend, sweep)


@settings(max_examples=25, deadline=None)
@given(reversible_pair_circuit(4, max_gates=6))
def test_compute_uncompute_pairs_are_safe_everywhere(circuit):
    """C ; C⁻¹ is the identity, hence safe on every qubit."""
    tracked = track_circuit(circuit)
    checker = make_checker(tracked, "cdcl")
    for qubit in range(circuit.num_qubits):
        assert checker.check_qubit(qubit).safe


@settings(max_examples=30, deadline=None)
@given(classical_circuit_strategy(4, max_gates=10))
def test_simplification_ablation_preserves_verdicts(circuit):
    """Ablation A1: verdicts must not depend on the x⊕x=0 rule."""
    with_simpl = track_circuit(circuit, simplify_xor=True)
    without = track_circuit(circuit, simplify_xor=False)
    for qubit in range(circuit.num_qubits):
        a = make_checker(with_simpl, "cdcl").check_qubit(qubit).safe
        b = make_checker(without, "cdcl").check_qubit(qubit).safe
        assert a == b
