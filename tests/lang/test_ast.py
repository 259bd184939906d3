"""Tests for the QBorrow core AST: builders, substitution, well-formedness."""

import numpy as np
import pytest

from repro.errors import CircuitError, SemanticsError
from repro.lang import (
    Seq,
    Skip,
    basis_measurement_on,
    borrow,
    check_well_formed,
    init,
    mentioned_qubits,
    placeholders,
    seq,
    skip,
    substitute,
    to_circuit,
    unitary,
    unitary_matrix,
)
from repro.lang.ast import If, Measurement, While


class TestBuilders:
    def test_seq_flattens(self):
        s = seq(unitary("X", "q"), seq(unitary("X", "p"), unitary("X", "r")))
        assert isinstance(s, Seq)
        assert len(s.items) == 3

    def test_seq_drops_skip(self):
        assert seq(skip(), skip()) == Skip()
        assert seq(skip(), unitary("X", "q")) == unitary("X", "q")

    def test_unitary_validates_arity(self):
        with pytest.raises(Exception):
            unitary("CX", "q")

    def test_unitary_matrix_validates(self):
        with pytest.raises(SemanticsError):
            unitary_matrix(np.ones((2, 2)), "BAD", "q")
        with pytest.raises(SemanticsError):
            unitary_matrix(np.eye(2), "I", "q", "p")

    def test_measurement_completeness_checked(self):
        with pytest.raises(SemanticsError):
            Measurement("bad", ("q",), np.eye(2), np.eye(2))

    def test_basis_measurement(self):
        m = basis_measurement_on("q")
        assert m.qubits == ("q",)


class TestAnalyses:
    def test_mentioned_qubits(self):
        s = seq(
            init("q1"),
            unitary("CX", "q2", "q3"),
            If(basis_measurement_on("q4"), unitary("X", "q5"), skip()),
            While(basis_measurement_on("q6"), unitary("X", "q7")),
            borrow("a", unitary("X", "a")),
        )
        assert mentioned_qubits(s) == frozenset(
            {"q1", "q2", "q3", "q4", "q5", "q6", "q7", "a"}
        )

    def test_placeholders(self):
        s = borrow("a", unitary("X", "a"), borrow("b", unitary("X", "b")))
        assert placeholders(s) == frozenset({"a", "b"})


class TestSubstitution:
    def test_renames_operands(self):
        s = seq(unitary("CX", "a", "q"), init("a"))
        renamed = substitute(s, {"a": "q3"})
        assert mentioned_qubits(renamed) == frozenset({"q3", "q"})

    def test_renames_measurement_guards(self):
        s = If(basis_measurement_on("a"), skip(), skip())
        renamed = substitute(s, {"a": "q1"})
        assert renamed.measurement.qubits == ("q1",)

    def test_capture_rejected(self):
        s = borrow("a", unitary("X", "a"))
        with pytest.raises(SemanticsError):
            substitute(s, {"a": "q1"})
        with pytest.raises(SemanticsError):
            substitute(s, {"q1": "a"})

    def test_empty_mapping_is_identity(self):
        s = unitary("X", "q")
        assert substitute(s, {}) is s


class TestWellFormedness:
    UNIVERSE = ["q1", "q2", "q3"]

    def test_accepts_valid(self):
        s = borrow("a", unitary("CX", "a", "q1"))
        check_well_formed(s, self.UNIVERSE)

    def test_unknown_qubit_rejected(self):
        with pytest.raises(SemanticsError):
            check_well_formed(unitary("X", "zz"), self.UNIVERSE)

    def test_placeholder_outside_scope_rejected(self):
        s = seq(borrow("a", skip()), unitary("X", "a"))
        with pytest.raises(SemanticsError):
            check_well_formed(s, self.UNIVERSE)

    def test_nested_same_placeholder_rejected(self):
        s = borrow("a", borrow("a", skip()))
        with pytest.raises(SemanticsError):
            check_well_formed(s, self.UNIVERSE)

    def test_placeholder_shadowing_universe_rejected(self):
        s = borrow("q1", skip())
        with pytest.raises(SemanticsError):
            check_well_formed(s, self.UNIVERSE)

    def test_branches_checked(self):
        bad = If(basis_measurement_on("q1"), unitary("X", "nope"), skip())
        with pytest.raises(SemanticsError):
            check_well_formed(bad, self.UNIVERSE)


class TestToCircuit:
    def test_lowering(self):
        s = seq(unitary("CX", "a", "b"), unitary("X", "b"))
        circuit = to_circuit(s, ["a", "b"])
        assert [g.name for g in circuit] == ["CX", "X"]
        assert circuit.labels == ["a", "b"]

    def test_rejects_control_flow(self):
        s = If(basis_measurement_on("a"), skip(), skip())
        with pytest.raises(SemanticsError):
            to_circuit(s, ["a"])

    def test_rejects_unknown_name(self):
        with pytest.raises(SemanticsError):
            to_circuit(unitary("X", "zz"), ["a"])

    def test_rejects_duplicate_order(self):
        with pytest.raises(SemanticsError):
            to_circuit(skip(), ["a", "a"])

    def test_custom_matrix_gate(self):
        mat = np.diag([1.0, 1.0j])
        s = unitary_matrix(mat, "SQ", "a")
        circuit = to_circuit(s, ["a"])
        assert np.allclose(circuit.gates[0].local_matrix(), mat)

    def test_classical_name_with_a_matrix_is_refused(self):
        # A Z lowered under the name X would verify as an X.
        z = np.diag([1.0, -1.0])
        with pytest.raises(CircuitError, match="takes no explicit matrix"):
            to_circuit(unitary_matrix(z, "X", "q"), ["q"])
