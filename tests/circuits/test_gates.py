"""Tests for gate objects."""

import numpy as np
import pytest

from repro.circuits import (
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
from repro.errors import CircuitError


class TestConstruction:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(CircuitError):
            cnot(1, 1)

    def test_empty_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Gate("X", ())

    def test_mcx_degenerates(self):
        assert mcx([], 0).name == "X"
        assert mcx([1], 0).name == "CX"
        assert mcx([1, 2], 0).name == "CCX"
        assert mcx([1, 2, 3], 0).name == "MCX"

    def test_ccnot_alias(self):
        assert ccnot(0, 1, 2) == toffoli(0, 1, 2)


class TestClassification:
    def test_classical_gates(self):
        assert x(0).is_classical
        assert cnot(0, 1).is_classical
        assert toffoli(0, 1, 2).is_classical
        assert mcx([0, 1, 2], 3).is_classical
        assert not hadamard(0).is_classical

    def test_controls_and_target(self):
        gate = mcx([3, 1, 2], 0)
        assert gate.controls == (3, 1, 2)
        assert gate.target == 0

    def test_non_classical_has_no_split(self):
        with pytest.raises(CircuitError):
            _ = hadamard(0).controls


class TestMatrices:
    def test_x_matrix(self):
        assert np.allclose(x(0).local_matrix(), [[0, 1], [1, 0]])

    def test_toffoli_matrix_is_permutation(self):
        mat = toffoli(0, 1, 2).local_matrix()
        assert np.allclose(mat @ mat, np.eye(8))
        assert np.allclose(np.abs(mat).sum(axis=0), np.ones(8))

    def test_mcx_matrix_swaps_last_rows(self):
        mat = mcx([0, 1, 2], 3).local_matrix()
        assert mat[14, 15] == 1 and mat[15, 14] == 1
        assert np.allclose(mat[:14, :14], np.eye(14))

    def test_phase_matrix(self):
        mat = phase(np.pi, 0).local_matrix()
        assert np.allclose(mat, np.diag([1, -1]))

    def test_cphase_matrix(self):
        mat = cphase(np.pi / 2, 0, 1).local_matrix()
        assert np.allclose(mat, np.diag([1, 1, 1, 1j]))

    def test_s_squared_is_z(self):
        s = s_gate(0).local_matrix()
        assert np.allclose(s @ s, np.diag([1, -1]))

    def test_t_fourth_is_z(self):
        t = t_gate(0).local_matrix()
        assert np.allclose(np.linalg.matrix_power(t, 4), np.diag([1, -1]))

    def test_unknown_gate_has_no_matrix(self):
        with pytest.raises(CircuitError):
            Gate("FROB", (0,)).local_matrix()


class TestDagger:
    def test_self_inverse_gates(self):
        for gate in (x(0), cnot(0, 1), toffoli(0, 1, 2), swap(0, 1), hadamard(0)):
            assert gate.dagger() == gate

    def test_s_dagger(self):
        assert s_gate(0).dagger().name == "SDG"
        assert s_gate(0).dagger().dagger() == s_gate(0)

    def test_phase_dagger_negates(self):
        assert phase(0.5, 0).dagger().params == (-0.5,)

    def test_custom_matrix_dagger(self):
        mat = np.diag([1, 1j])
        gate = unitary_gate(mat, [0], "SQ")
        dag = gate.dagger()
        assert np.allclose(dag.local_matrix(), mat.conj().T)

    def test_dagger_matrix_is_inverse(self):
        for gate in (s_gate(0), t_gate(0), phase(0.7, 0), cphase(1.1, 0, 1)):
            product = gate.local_matrix() @ gate.dagger().local_matrix()
            assert np.allclose(product, np.eye(product.shape[0]))


class TestRemapAndNames:
    def test_remap(self):
        gate = toffoli(0, 1, 2).remap({0: 5, 2: 7})
        assert gate.qubits == (5, 1, 7)

    def test_gate_from_name_aliases(self):
        assert gate_from_name("CNOT", [0, 1]).name == "CX"
        assert gate_from_name("CCNOT", [0, 1, 2]).name == "CCX"
        assert gate_from_name("x", [0]).name == "X"

    def test_gate_from_name_arity_check(self):
        with pytest.raises(CircuitError):
            gate_from_name("CX", [0])
        with pytest.raises(CircuitError):
            gate_from_name("NOPE", [0])
        with pytest.raises(CircuitError):
            gate_from_name("MCX", [0])

    def test_str(self):
        assert str(cnot(0, 1)) == "CX[0, 1]"
        assert "PHASE" in str(phase(0.5, 2))


class TestUnitaryGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(CircuitError):
            unitary_gate(np.ones((2, 2)), [0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(CircuitError):
            unitary_gate(np.eye(2), [0, 1])

    @pytest.mark.parametrize(
        "name, wires", [("X", 1), ("CX", 2), ("CCX", 3), ("MCX", 4)]
    )
    def test_classical_name_takes_no_matrix(self, name, wires):
        # Classification goes by name: a Z named X would be verified as
        # an X, and fingerprint like one.
        matrix = np.diag([1.0] * (2**wires - 1) + [-1.0])
        with pytest.raises(CircuitError, match="takes no explicit matrix"):
            unitary_gate(matrix, range(wires), name=name)
