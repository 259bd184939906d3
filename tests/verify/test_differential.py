"""Property-based differential testing of the Theorem 6.4 reduction.

For random classical circuits, every scalable backend (SAT via CDCL,
BDD in both orders) must agree with the exhaustive Theorem 6.2
truth-table oracle on every qubit — and, since Theorem 6.2 is itself
proven equivalent to Definition 3.1, with the unitary factorisation
check on small registers.
"""

from hypothesis import given, settings

from repro.circuits import circuit_unitary
from repro.verify import (
    classical_safe_uncomputation,
    track_circuit,
    make_checker,
    unitary_acts_identity_on,
)
from tests.conftest import classical_circuit_strategy, reversible_pair_circuit


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


@settings(max_examples=25, deadline=None)
@given(classical_circuit_strategy(3, max_gates=8))
def test_reduction_matches_definition_31(circuit):
    unitary = circuit_unitary(circuit)
    tracked = track_circuit(circuit)
    checker = make_checker(tracked, "bdd")
    for qubit in range(circuit.num_qubits):
        semantic = unitary_acts_identity_on(unitary, qubit, 3)
        assert checker.check_qubit(qubit).safe == semantic


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
