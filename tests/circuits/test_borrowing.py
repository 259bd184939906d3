"""Tests for the Figure 3.1 width-reduction pass (experiment E4),
through its front door :func:`repro.alloc.allocate` with the default
greedy first-fit strategy."""

import numpy as np
import pytest

from repro.alloc import allocate
from repro.circuits import (
    Circuit,
    circuit_unitary,
    cnot,
    toffoli,
    x,
)
from repro.errors import CircuitError
from repro.verify import classical_safe_uncomputation
from tests.conftest import fig31_circuit


def _unitary_on_kept_wires(circuit, kept):
    """Full unitary restricted by tracing nothing — used for equivalence."""
    return circuit_unitary(circuit)


class TestFigure31:
    def test_width_drops_from_seven_to_five(self):
        plan = allocate(fig31_circuit(), ancillas=[5, 6])
        assert plan.original_width == 7
        assert plan.final_width == 5
        assert not plan.unplaced

    def test_q3_hosts_both_ancillas(self):
        plan = allocate(fig31_circuit(), ancillas=[5, 6])
        assert plan.assignment == {5: 2, 6: 2}

    def test_rewritten_circuit_equivalent_on_working_qubits(self):
        original = fig31_circuit()
        plan = allocate(original, ancillas=[5, 6])
        # The rewritten circuit must act on q1..q5 exactly like the
        # original does (for any dirty value, since ancillas are safe).
        u_new = circuit_unitary(plan.circuit)
        # Build the reference: original unitary with ancillas in |0>.
        u_old = circuit_unitary(original)
        # Compare action on all basis states of the 5 working qubits
        # with ancillas fixed to zero: index layout: q1..q5,a1,a2.
        for s in range(2**5):
            old_in = s << 2  # a1 = a2 = 0
            col_old = u_old[:, old_in]
            out_old = int(np.argmax(np.abs(col_old)))
            assert abs(abs(col_old[out_old]) - 1) < 1e-9
            # ancillas restored to zero
            assert out_old & 0b11 == 0
            col_new = u_new[:, s]
            out_new = int(np.argmax(np.abs(col_new)))
            assert out_new == out_old >> 2

    def test_safety_check_hook_accepts_safe(self):
        plan = allocate(
            fig31_circuit(),
            ancillas=[5, 6],
            safety_check=lambda c, q: classical_safe_uncomputation(c, q).safe,
        )
        assert plan.final_width == 5


class TestSafetyGating:
    def _unsafe_circuit(self):
        # The ancilla (wire 2) is flipped and never restored.
        return Circuit(3).extend([cnot(0, 1), x(2)])

    def test_unsafe_errors_by_default(self):
        with pytest.raises(CircuitError):
            allocate(
                self._unsafe_circuit(),
                ancillas=[2],
                safety_check=lambda c, q: classical_safe_uncomputation(c, q).safe,
            )

    def test_unsafe_skip_keeps_wire(self):
        plan = allocate(
            self._unsafe_circuit(),
            ancillas=[2],
            safety_check=lambda c, q: classical_safe_uncomputation(c, q).safe,
            on_unsafe="skip",
        )
        assert plan.unplaced == [2]
        assert plan.final_width == 3

    def test_invalid_on_unsafe(self):
        with pytest.raises(CircuitError):
            allocate(Circuit(1), [0], on_unsafe="ignore")


class TestPlacementRules:
    def test_no_host_available(self):
        # Every working qubit is busy throughout.
        c = Circuit(3)
        c.extend([cnot(0, 1), toffoli(0, 1, 2), cnot(0, 1)])
        plan = allocate(c, ancillas=[2])
        assert plan.unplaced == [2]
        assert plan.final_width == 3

    def test_untouched_ancilla_simply_removed(self):
        c = Circuit(3).extend([cnot(0, 1)])
        plan = allocate(c, ancillas=[2])
        assert plan.final_width == 2
        assert plan.assignment == {}

    def test_overlapping_ancillas_need_distinct_hosts(self):
        # Two ancillas busy at the same time: one host cannot serve both.
        c = Circuit(5)
        c.extend(
            [
                cnot(0, 3),  # ancilla 3 period begins
                cnot(1, 4),  # ancilla 4 period begins (overlaps)
                cnot(0, 3),
                cnot(1, 4),
            ]
        )
        plan = allocate(c, ancillas=[3, 4])
        hosts = set(plan.assignment.values())
        assert len(hosts) == len(plan.assignment)

    def test_ancilla_out_of_range(self):
        with pytest.raises(CircuitError):
            allocate(Circuit(2), [5])

    def test_wire_map_is_compact(self):
        plan = allocate(fig31_circuit(), ancillas=[5, 6])
        assert sorted(plan.wire_map.values()) == list(range(5))

    def test_labels_follow_survivors(self):
        plan = allocate(fig31_circuit(), ancillas=[5, 6])
        assert plan.circuit.labels == ["q1", "q2", "q3", "q4", "q5"]

    def test_report_renders(self):
        plan = allocate(fig31_circuit(), ancillas=[5, 6])
        text = str(plan)
        assert "width 7 -> 5" in text
