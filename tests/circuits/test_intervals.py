"""Tests for activity intervals and idle windows."""

from repro.circuits import (
    ActivityInterval,
    Circuit,
    activity_intervals,
    cnot,
    idle_qubits_during,
    touch_indices,
    x,
)


class TestActivityIntervals:
    def test_untouched_qubits_absent(self):
        c = Circuit(3).append(x(0))
        intervals = activity_intervals(c)
        assert set(intervals) == {0}

    def test_first_and_last(self):
        c = Circuit(3).extend([x(0), cnot(0, 1), x(0), x(2)])
        intervals = activity_intervals(c)
        assert intervals[0] == ActivityInterval(0, 2)
        assert intervals[1] == ActivityInterval(1, 1)
        assert intervals[2] == ActivityInterval(3, 3)

    def test_touch_indices_list_each_wires_gates_in_order(self):
        c = Circuit(4).extend([x(0), cnot(0, 1), x(0), x(2)])
        assert touch_indices(c) == {0: [0, 1, 2], 1: [1], 2: [3]}


class TestOverlap:
    def test_overlapping(self):
        assert ActivityInterval(0, 3).overlaps(ActivityInterval(3, 5))
        assert ActivityInterval(2, 4).overlaps(ActivityInterval(0, 9))

    def test_disjoint(self):
        assert not ActivityInterval(0, 2).overlaps(ActivityInterval(3, 4))

    def test_contains_index(self):
        assert ActivityInterval(1, 3).contains_index(2)
        assert not ActivityInterval(1, 3).contains_index(4)


class TestIdleWindows:
    def test_fig31_q3_idle_during_both_routines(self):
        from tests.conftest import fig31_circuit

        c = fig31_circuit()
        intervals = activity_intervals(c)
        a1_period = intervals[5]
        a2_period = intervals[6]
        working = set(range(5))
        # q3 (wire 2) is busy only in the opening CNOT, so it is idle in
        # both ancilla periods — the paper's reuse argument.
        assert 2 in idle_qubits_during(c, a1_period, working)
        assert 2 in idle_qubits_during(c, a2_period, working)
        # The engaged working qubits are not idle.
        assert 0 not in idle_qubits_during(c, a1_period, working)
        assert 3 not in idle_qubits_during(c, a1_period, working)

    def test_untouched_qubit_always_idle(self):
        c = Circuit(3).extend([x(0), x(0)])
        idle = idle_qubits_during(c, ActivityInterval(0, 1))
        assert idle == {1, 2}

    def test_candidates_filter(self):
        c = Circuit(3).extend([x(0)])
        idle = idle_qubits_during(c, ActivityInterval(0, 0), candidates={0, 1})
        assert idle == {1}
