"""The lease-packer registry and the three built-in packing policies.

Packers see only *feasible* offers (the scheduler enforces window
disjointness before asking), so these tests drive them two ways: as
pure preference functions over crafted offer tables, and end-to-end
through ``MultiProgrammer`` admissions where the policy choice changes
which wire a lease lands on.
"""

import pytest

from repro.circuits import Circuit, WindowSet, cnot, x
from repro.errors import CircuitError
from repro.multiprog import (
    BorrowRequest,
    Lease,
    LeasePacker,
    MultiProgrammer,
    QuantumJob,
    available_packers,
    make_packer,
    packer_class,
    register_packer,
)
from repro.testing import OccupancyInvariantChecker


def lease(wire, *spans, guest="g", ancilla=1):
    return Lease(
        guest=guest, ancilla=ancilla, wire=wire, window=WindowSet.of(*spans)
    )


class TestPackerRegistry:
    def test_builtin_packers_registered(self):
        assert available_packers() == (
            "best-fit",
            "earliest-gap",
            "first-fit",
        )
        assert packer_class("first-fit").name == "first-fit"
        assert isinstance(make_packer("best-fit"), LeasePacker)

    def test_unknown_packer_rejected(self):
        with pytest.raises(CircuitError, match="registered"):
            make_packer("tetris")
        with pytest.raises(CircuitError):
            MultiProgrammer(4, lease_packer="tetris")

    def test_non_packer_class_rejected(self):
        with pytest.raises(CircuitError, match="subclass"):
            register_packer("bad")(dict)


class TestPackerChoices:
    WINDOW = WindowSet.of((10, 12))

    def test_all_decline_empty_offers(self):
        for name in available_packers():
            assert make_packer(name).choose(self.WINDOW, {}) is None

    def test_first_fit_takes_smallest_wire(self):
        offers = {7: (), 3: (lease(3, (0, 1)),), 5: ()}
        assert make_packer("first-fit").choose(self.WINDOW, offers) == 3

    def test_best_fit_takes_most_loaded_wire(self):
        offers = {
            3: (lease(3, (0, 1)),),
            5: (lease(5, (0, 4)), lease(5, (20, 24))),
            7: (),
        }
        assert make_packer("best-fit").choose(self.WINDOW, offers) == 5

    def test_best_fit_counts_rounds_not_leases(self):
        offers = {
            3: (lease(3, (0, 1)), lease(3, (4, 5))),  # 4 rounds
            5: (lease(5, (0, 8)),),  # 9 rounds
        }
        assert make_packer("best-fit").choose(self.WINDOW, offers) == 5

    def test_best_fit_tie_breaks_to_smallest_wire(self):
        offers = {5: (lease(5, (0, 1)),), 3: (lease(3, (4, 5)),)}
        assert make_packer("best-fit").choose(self.WINDOW, offers) == 3

    def test_earliest_gap_packs_after_latest_predecessor(self):
        offers = {
            3: (lease(3, (0, 1)),),  # gap since round 2
            5: (lease(5, (6, 8)),),  # gap since round 9: tighter
            7: (),  # no predecessor at all
        }
        assert make_packer("earliest-gap").choose(self.WINDOW, offers) == 5

    def test_earliest_gap_ignores_segments_after_the_window(self):
        offers = {
            3: (lease(3, (0, 1), (20, 21)),),
            5: (lease(5, (4, 5)),),
        }
        assert make_packer("earliest-gap").choose(self.WINDOW, offers) == 5


def lender_job(name="lender"):
    circuit = Circuit(4).extend([cnot(0, 1), x(0)])
    return QuantumJob(name, circuit, [])


def guest_job(name, pre, post=0):
    circuit = Circuit(2)
    circuit.extend([x(0)] * pre)
    circuit.extend([cnot(0, 1), cnot(0, 1)])
    circuit.extend([x(0)] * post)
    return QuantumJob(name, circuit, [BorrowRequest(1)])


class TestPackerInScheduler:
    def setup_machine(self, packer):
        mp = MultiProgrammer(12, lease_packer=packer)
        mp.admit(lender_job("l1"))  # offers two wires
        mp.admit(lender_job("l2"))  # offers two more
        a = mp.admit(guest_job("A", 0, post=6))  # [0, 1] on first wire
        return mp, a

    def test_first_fit_reuses_smallest_wire(self):
        mp, a = self.setup_machine("first-fit")
        b = mp.admit(guest_job("B", 4))  # disjoint [4, 5]
        assert b.cross_hosts[1] == a.cross_hosts[1]
        OccupancyInvariantChecker(mp).check()

    def test_best_fit_also_stacks_onto_loaded_wire(self):
        mp, a = self.setup_machine("best-fit")
        b = mp.admit(guest_job("B", 4))
        assert b.cross_hosts[1] == a.cross_hosts[1]
        OccupancyInvariantChecker(mp).check()

    def test_stats_report_packer(self):
        mp = MultiProgrammer(4, lease_packer="earliest-gap")
        assert mp.stats()["packer"] == "earliest-gap"

    def test_packer_instance_accepted(self):
        packer = make_packer("best-fit")
        mp = MultiProgrammer(4, lease_packer=packer)
        assert mp.lease_packer is packer
