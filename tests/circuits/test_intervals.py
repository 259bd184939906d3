"""Tests for activity intervals and idle windows."""

from repro.circuits import (
    ActivityInterval,
    Circuit,
    activity_intervals,
    cnot,
    idle_qubits_during,
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


class TestIncrementalTouchIndex:
    """The incremental touch index must match the offline functions on
    every prefix — the parity that keeps the incremental conflict
    model honest."""

    def _corpus(self):
        from repro.testing import random_reversible_circuit

        for seed in range(40, 46):
            yield random_reversible_circuit(
                seed, num_data=5, num_ancillas=2, segment_gates=3,
                middle_gates=6,
            )[0]

    def test_matches_offline_on_every_prefix(self):
        from repro.circuits import (
            IncrementalTouchIndex,
            WindowSet,
            touch_indices,
        )

        for circuit in self._corpus():
            index = IncrementalTouchIndex(circuit.num_qubits)
            prefix = Circuit(circuit.num_qubits)
            for gate in circuit.gates:
                index.append(gate)
                prefix.append(gate)
                offline_touches = touch_indices(prefix)
                offline_intervals = activity_intervals(prefix)
                for q in range(circuit.num_qubits):
                    touches = offline_touches.get(q, [])
                    busy = [
                        i
                        for i in range(len(prefix.gates))
                        if index.busy_in(q, WindowSet.of((i, i)))
                    ]
                    assert busy == touches
                    assert index.interval(q) == offline_intervals.get(q)

    def test_busy_in_matches_interval_probe(self):
        from repro.circuits import IncrementalTouchIndex, WindowSet

        index = IncrementalTouchIndex(3)
        for gate in [x(0), cnot(0, 1), x(2), x(0)]:
            index.append(gate)
        assert index.busy_in(0, WindowSet.of((0, 1)))
        assert not index.busy_in(2, WindowSet.of((0, 1)))
        assert index.busy_in(2, WindowSet.of((0, 0), (2, 3)))
        assert not index.busy_in(1, WindowSet.of((2, 3)))

    def test_interval_of_untouched_wire_is_none(self):
        from repro.circuits import IncrementalTouchIndex

        index = IncrementalTouchIndex(2)
        assert index.interval(1) is None
        index.append(x(0))
        assert index.interval(0) == ActivityInterval(0, 0)
        assert index.interval(1) is None


class TestRestoreScanParity:
    """restore_segments replays a RestoreScan, so the two agree by
    construction — these tests pin the replayed scan's own contract."""

    def test_streaming_window_matches_offline_on_prefixes(self):
        from repro.circuits import RestoreScan, restore_segments
        from repro.testing import random_reversible_circuit

        for seed in range(40, 46):
            circuit, ancillas = random_reversible_circuit(
                seed, num_data=5, num_ancillas=2, segment_gates=3,
                middle_gates=6,
            )
            for a in ancillas:
                scan = RestoreScan(circuit.num_qubits, circuit.gates, a)
                prefix = Circuit(circuit.num_qubits)
                for i, gate in enumerate(circuit.gates):
                    prefix.append(gate)
                    if a in gate.qubits:
                        scan.observe(i)
                        assert scan.window() == restore_segments(
                            prefix, a
                        )

    def test_repeated_index_is_a_no_op(self):
        from repro.circuits import RestoreScan

        gates = [x(1), x(0), x(1)]
        scan = RestoreScan(2, gates, 1)
        scan.observe(0)
        scan.observe(0)
        scan.observe(2)
        assert scan.window() is not None

    def test_descending_index_raises(self):
        import pytest

        from repro.circuits import RestoreScan
        from repro.errors import CircuitError

        scan = RestoreScan(2, [x(1), x(1)], 1)
        scan.observe(1)
        with pytest.raises(CircuitError):
            scan.observe(0)
