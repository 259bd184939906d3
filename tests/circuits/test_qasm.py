"""Tests for OpenQASM 2.0 interchange."""

import re

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuits import Circuit, circuit_unitary, cnot, hadamard, mcx, x
from repro.circuits.gates import cphase, phase, s_gate, swap, toffoli
from repro.circuits.circuit import MAX_WIRES
from repro.circuits.qasm import from_qasm, to_qasm
from repro.errors import CircuitError
from tests.conftest import classical_circuit_strategy, fig13_circuit


class TestExport:
    def test_header(self):
        text = to_qasm(Circuit(3))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[3];" in text

    def test_standard_gates(self):
        circuit = Circuit(3).extend(
            [x(0), hadamard(1), cnot(0, 1), toffoli(0, 1, 2), swap(0, 2)]
        )
        text = to_qasm(circuit)
        for expected in ("x q[0];", "h q[1];", "cx q[0],q[1];",
                         "ccx q[0],q[1],q[2];", "swap q[0],q[2];"):
            assert expected in text

    def test_parametric_gates(self):
        circuit = Circuit(2).extend([phase(0.5, 0), cphase(0.25, 0, 1)])
        text = to_qasm(circuit)
        assert "p(0.5) q[0];" in text
        assert "cp(0.25) q[0],q[1];" in text

    def test_wide_mcx_rejected(self):
        with pytest.raises(CircuitError):
            to_qasm(Circuit(5).append(mcx([0, 1, 2, 3], 4)))

    def test_custom_matrix_rejected(self):
        from repro.circuits import unitary_gate

        gate = unitary_gate(np.eye(2), [0], "CUSTOM")
        with pytest.raises(CircuitError):
            to_qasm(Circuit(1).append(gate))


class TestImport:
    def test_round_trip_fig13(self):
        original = fig13_circuit()
        restored = from_qasm(to_qasm(original))
        assert [(g.name, g.qubits) for g in restored.gates] == [
            (g.name, g.qubits) for g in original.gates
        ]

    def test_round_trip_unitary_equal(self):
        circuit = Circuit(2).extend(
            [hadamard(0), cnot(0, 1), s_gate(1), phase(0.7, 0)]
        )
        restored = from_qasm(to_qasm(circuit))
        assert np.allclose(
            circuit_unitary(restored), circuit_unitary(circuit)
        )

    def test_pi_expressions(self):
        text = (
            "OPENQASM 2.0;\nqreg q[1];\np(pi/2) q[0];\n"
        )
        circuit = from_qasm(text)
        assert circuit.gates[0].params[0] == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize(
        "param, angle",
        [
            ("-pi/4", -np.pi / 4),
            ("2*pi/3", 2 * np.pi / 3),
            ("1e-3", 0.001),
            ("1-2*0.25", 0.5),
            ("1.5E2", 150.0),
        ],
    )
    def test_arithmetic_parameters_accepted(self, param, angle):
        # Refusing ``**`` and non-finite results leaves every other
        # float, ``pi`` and ``+ - * /`` expression readable.
        text = f"OPENQASM 2.0;\nqreg q[1];\nrz({param}) q[0];\n"
        assert from_qasm(text).gates[0].params[0] == pytest.approx(angle)

    @pytest.mark.parametrize(
        "param, angle",
        [
            ("pi", np.pi),
            ("2*pi", 2 * np.pi),
            ("-pi/2", -np.pi / 2),
            ("pi*pi", np.pi * np.pi),
        ],
    )
    def test_pi_as_a_whole_word_parses(self, param, angle):
        text = f"OPENQASM 2.0;\nqreg q[1];\nrz({param}) q[0];\n"
        assert from_qasm(text).gates[0].params[0] == pytest.approx(angle)

    @pytest.mark.parametrize("param", ["2pi", "pi2", "pipi", "2pi/3"])
    def test_pi_inside_a_word_rejected(self, param):
        # Read as text, ``2pi`` was 23.14... and ``pi2`` 3.14...
        text = f"OPENQASM 2.0;\nqreg q[1];\nrz({param}) q[0];\n"
        with pytest.raises(CircuitError, match="line 3: bad parameter"):
            from_qasm(text)

    def test_nested_parentheses_in_parameters(self):
        text = (
            "OPENQASM 2.0;\nqreg q[2];\n"
            "rz((1+2)*0.25) q[0];\ncp(-(pi/2)) q[0],q[1];\n"
        )
        rz, cp = from_qasm(text).gates
        assert (rz.name, rz.qubits, rz.params) == ("RZ", (0,), (0.75,))
        assert (cp.name, cp.qubits) == ("CPHASE", (0, 1))
        assert cp.params[0] == pytest.approx(-np.pi / 2)

    @pytest.mark.parametrize("param", ["(1+2", "1+2)", "((0.5)", "()"])
    def test_unbalanced_parentheses_rejected(self, param):
        text = f"OPENQASM 2.0;\nqreg q[1];\nrz({param}) q[0];\n"
        with pytest.raises(CircuitError, match="line 3"):
            from_qasm(text)

    def test_comments_and_blank_lines(self):
        text = "OPENQASM 2.0;\n// c\n\nqreg q[2];\ncx q[0],q[1]; // tail\n"
        assert len(from_qasm(text).gates) == 1

    def test_errors(self):
        with pytest.raises(CircuitError):
            from_qasm("x q[0];")  # gate before qreg
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\nfrob q[0];")
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\ncx q[0];")
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];")
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\np(import) q[0];")
        with pytest.raises(CircuitError):
            from_qasm("")

    @pytest.mark.parametrize(
        "param",
        ["2**3", "1e999", "1e999-1e999", "-1e999", "1e308*10", "1e999*0"],
    )
    def test_power_and_non_finite_parameters_rejected(self, param):
        # ``**`` could build an unbounded integer (``9**9**9``), and an
        # infinite or NaN angle gives an all-NaN unitary.
        text = f"OPENQASM 2.0;\nqreg q[1];\nrz({param}) q[0];\n"
        with pytest.raises(CircuitError, match="line 3"):
            from_qasm(text)

    @settings(max_examples=25, deadline=None)
    @given(classical_circuit_strategy(4, max_gates=8))
    def test_random_classical_round_trips(self, circuit):
        # MCX with 3 controls exists in the strategy; skip those circuits.
        if any(len(g.qubits) > 3 for g in circuit.gates):
            return
        restored = from_qasm(to_qasm(circuit))
        assert [(g.name, g.qubits) for g in restored.gates] == [
            (g.name, g.qubits) for g in circuit.gates
        ]


class TestErrorLines:
    """An error names the line that causes it; a text that never
    declares its register is refused at its end."""

    def test_bad_line_after_gates_names_its_line(self):
        text = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\nfrob q[0];\n"
        with pytest.raises(CircuitError, match="line 4"):
            from_qasm(text)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("x q[0];", "line 2: gate before qreg declaration"),
            ("qreg q[2];\nqreg q[3];", "line 3: multiple qreg declarations"),
            (
                "qreg q[2];\nx q[0];\nx q[5];",
                "line 4: gate X[5] uses qubit 5 outside a 2-qubit register",
            ),
            (
                "qreg q[2];\ncx q[0],q[0];",
                "line 3: gate CX has duplicate qubits (0, 0)",
            ),
        ],
        ids=["gate-before-qreg", "second-qreg", "out-of-range", "repeated"],
    )
    def test_register_errors_name_their_line(self, body, message):
        with pytest.raises(CircuitError, match=re.escape(message)):
            from_qasm("OPENQASM 2.0;\n" + body + "\n")

    def test_missing_qreg_reported_at_the_end(self):
        with pytest.raises(CircuitError, match="no qreg"):
            from_qasm("OPENQASM 2.0;\n// empty\n")

    def test_register_at_the_wire_limit_reads(self):
        text = f"OPENQASM 2.0;\nqreg q[{MAX_WIRES}];\nx q[{MAX_WIRES - 1}];\n"
        assert from_qasm(text).num_qubits == MAX_WIRES

    @pytest.mark.parametrize(
        "body, line", [("qreg q[{n}];", 2), ("qreg q[2];\nx q[{n}];", 3)]
    )
    def test_overlong_numbers_refused_at_their_line(self, body, line):
        # int() refuses more than 4,300 digits with a ValueError.
        text = "OPENQASM 2.0;\n" + body.format(n="9" * 5000) + "\n"
        with pytest.raises(CircuitError, match=f"line {line}: number of 5000"):
            from_qasm(text)

    @pytest.mark.parametrize("width", [MAX_WIRES + 1, 10**12])
    def test_register_past_the_wire_limit_refused(self, width):
        # Refused before any wire exists: the text is only a few bytes.
        text = f"OPENQASM 2.0;\nqreg q[{width}];\n"
        with pytest.raises(CircuitError, match=f"line 2: qreg of {width} qubits"):
            from_qasm(text)
