"""Experiment E2: the Figure 1.3 CCCNOT identity."""

import numpy as np

from repro.circuits import Circuit, circuit_unitary, mcx, truth_table
from repro.verify import (
    classical_safe_uncomputation,
    unitary_acts_identity_on,
    verify_circuit,
)
from tests.conftest import fig13_circuit


class TestFigure13:
    def test_equals_cccnot_tensor_identity(self):
        """Example 3.2: the 4-Toffoli circuit *is* CCCNOT ⊗ I_a."""
        u = circuit_unitary(fig13_circuit())
        reference = circuit_unitary(
            Circuit(5).append(mcx([0, 1, 3], 4))
        )
        assert np.allclose(u, reference)

    def test_dirty_qubit_satisfies_definition_31(self):
        u = circuit_unitary(fig13_circuit())
        assert unitary_acts_identity_on(u, 2, 5)

    def test_working_qubits_are_not_identity(self):
        u = circuit_unitary(fig13_circuit())
        assert not unitary_acts_identity_on(u, 4, 5)  # the target

    def test_classical_two_state_check(self):
        assert classical_safe_uncomputation(fig13_circuit(), 2).safe

    def test_all_backends_agree_safe(self):
        for backend in ("cdcl", "bdd", "bdd-reversed", "brute"):
            report = verify_circuit(fig13_circuit(), [2], backend=backend)
            assert report.all_safe, backend

    def test_truth_table_restores_dirty_bit(self):
        table = truth_table(fig13_circuit())
        for state in range(32):
            assert ((state >> 2) & 1) == ((int(table[state]) >> 2) & 1)

    def test_implements_three_controlled_not_on_basis(self):
        table = truth_table(fig13_circuit())
        for state in range(32):
            controls_on = all((state >> (4 - w)) & 1 for w in (0, 1, 3))
            flipped = int(table[state]) != state
            assert flipped == controls_on
