"""Lending-window structure of the interval model and the
window-set-disjointness contract of ``validate_placement``."""

import pytest

from repro.alloc import (
    Placement,
    allocate,
    build_model,
    validate_placement,
)
from repro.circuits import Circuit, WindowSet, cnot, x
from repro.errors import CircuitError


def staircase_circuit():
    """Wire 4 is busy throughout; ancillas 1 and 2 have disjoint
    windows [0,1] and [2,3], and wires 0/3 stay idle (hosts)."""
    c = Circuit(5)
    c.extend([cnot(4, 1), cnot(4, 1)])  # ancilla 1: window [0, 1]
    c.extend([cnot(4, 2), cnot(4, 2)])  # ancilla 2: window [2, 3]
    return c


def gapped_circuit():
    """Ancilla 1 has two identity blocks [0,1] and [5,6] straddling a
    gap in which wire 0 (the only potential host) is busy."""
    c = Circuit(3)
    c.extend([cnot(2, 1), cnot(2, 1)])  # block 1 on the ancilla
    c.extend([x(0), x(0), x(0)])  # the host is busy only in the gap
    c.extend([cnot(2, 1), cnot(2, 1)])  # block 2
    return c


class TestModelWindows:
    def test_windows_cover_activity_periods(self):
        model = build_model(staircase_circuit(), [1, 2])
        assert set(model.windows) == {1, 2}
        assert model.segmented is False
        for a in model.ancillas:
            assert isinstance(model.windows[a], WindowSet)
            assert len(model.windows[a]) == 1
            assert model.windows[a].hull == model.periods[a]
        assert (model.windows[1].first, model.windows[1].last) == (0, 1)
        assert (model.windows[2].first, model.windows[2].last) == (2, 3)

    def test_conflicts_are_window_overlaps(self):
        model = build_model(staircase_circuit(), [1, 2])
        assert model.conflicts[1] == frozenset()
        assert model.conflicts[2] == frozenset()

    def test_restrict_keeps_windows(self):
        model = build_model(staircase_circuit(), [1, 2])
        sub = model.restrict([2])
        assert set(sub.windows) == {2}
        assert sub.windows[2] == model.windows[2]
        assert sub.segmented is model.segmented

    def test_shifted_window(self):
        model = build_model(staircase_circuit(), [1])
        shifted = model.windows[1].shifted(7)
        assert (shifted.first, shifted.last) == (7, 8)
        assert model.windows[1].overlaps(shifted) is False


class TestSegmentedModel:
    def test_segmented_windows_split_at_restore_points(self):
        model = build_model(gapped_circuit(), [1], segmented=True)
        assert model.segmented is True
        assert model.windows[1] == WindowSet.of((0, 1), (5, 6))
        assert model.periods[1].first == 0 and model.periods[1].last == 6

    def test_gap_busy_host_becomes_candidate_under_segmentation(self):
        """Wire 0 is busy only inside the restore gap, so it is a
        candidate exactly when windows are segmented."""
        whole = build_model(gapped_circuit(), [1])
        assert whole.candidates[1] == ()
        segmented = build_model(gapped_circuit(), [1], segmented=True)
        assert segmented.candidates[1] == (0,)

    def test_segmented_allocate_places_through_the_gap(self):
        c = gapped_circuit()
        plan = allocate(c, [1], model=build_model(c, [1], segmented=True))
        assert plan.assignment == {1: 0}
        assert plan.final_width == 2
        assert plan.windows[1] == WindowSet.of((0, 1), (5, 6))
        whole_plan = allocate(gapped_circuit(), [1])
        assert whole_plan.unplaced == [1]

    def test_interleaved_sets_share_a_host(self):
        """Two ancillas whose segment sets interleave (each inside the
        other's gap) pack onto one host under segmentation."""
        c = Circuit(4)
        c.extend([cnot(3, 1), cnot(3, 1)])  # a1 block 1: [0, 1]
        c.extend([cnot(3, 2), cnot(3, 2)])  # a2 block 1: [2, 3]
        c.extend([cnot(3, 1), cnot(3, 1)])  # a1 block 2: [4, 5]
        c.extend([cnot(3, 2), cnot(3, 2)])  # a2 block 2: [6, 7]
        model = build_model(c, [1, 2], segmented=True)
        assert model.conflicts[1] == frozenset()
        plan = allocate(c, [1, 2], model=model)
        assert plan.assignment == {1: 0, 2: 0}
        assert plan.final_width == 2


class TestWindowDisjointness:
    def test_disjoint_windows_may_share_a_host(self):
        model = build_model(staircase_circuit(), [1, 2])
        placement = Placement(assignment={1: 0, 2: 0})
        validate_placement(model, placement)  # must not raise

    def test_overlapping_windows_on_one_host_rejected(self):
        # Ancillas 1 and 2 both active over [0, 3]: same window.
        c = Circuit(4).extend(
            [cnot(3, 1), cnot(3, 2), cnot(3, 2), cnot(3, 1)]
        )
        model = build_model(c, [1, 2])
        placement = Placement(assignment={1: 0, 2: 0})
        with pytest.raises(CircuitError, match="share host"):
            validate_placement(model, placement)

    def test_nonadjacent_set_overlap_rejected(self):
        """The sweep must catch an overlap between sets that are not
        adjacent in first-segment order: a1 = {[0,1], [8,9]} and
        a3 = {[8,9]} clash even though a2 = {[4,5]} sorts between
        them (a whole-set adjacent-pair check would miss it)."""
        c = Circuit(5)
        c.extend([cnot(4, 1), cnot(4, 1)])  # a1 block 1: [0, 1]
        c.extend([x(4), x(4)])
        c.extend([cnot(4, 2), cnot(4, 2)])  # a2: [4, 5]
        c.extend([x(4), x(4)])
        c.extend([cnot(1, 3), cnot(1, 3)])  # a1 block 2 == a3: [8, 9]
        model = build_model(c, [1, 2, 3], segmented=True)
        assert model.windows[1] == WindowSet.of((0, 1), (8, 9))
        assert model.windows[3] == WindowSet.of((8, 9))
        # a2 alone fits a1's gap on a shared host.
        validate_placement(
            model, Placement(assignment={1: 0, 2: 0}, unplaced=[3])
        )
        with pytest.raises(CircuitError, match="share host"):
            validate_placement(
                model, Placement(assignment={1: 0, 2: 0, 3: 0})
            )

    def test_allocate_packs_disjoint_windows_onto_one_host(self):
        plan = allocate(staircase_circuit(), [1, 2], strategy="greedy")
        assert plan.assignment == {1: 0, 2: 0}
        assert plan.final_width == 3
        assert set(plan.windows) == {1, 2}

    def test_plan_carries_windows_for_unplaced_ancillas(self):
        # No idle host at all: both wires busy during the window.
        c = Circuit(2).extend([cnot(0, 1), cnot(0, 1)])
        plan = allocate(c, [1], strategy="greedy")
        assert plan.unplaced == [1]
        assert (plan.windows[1].first, plan.windows[1].last) == (0, 1)
