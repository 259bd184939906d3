"""Deterministic tests for time-sliced (windowed) lending.

The jobs here are built so their lending windows land at known gate
indices: a *guest* is a 2-wire circuit whose requested ancilla is
touched only by a ``CX;CX`` segment (restored for every input, hence
verified safe) at a controlled position, while wire 0 stays busy
throughout so the ancilla never has an internal candidate host.  A
*lender* is a 4-wire job whose wires 2 and 3 are idle and therefore
offered to co-tenants.
"""

import pytest

from repro.circuits import Circuit, cnot, x
from repro.errors import CircuitError
from repro.multiprog import (
    BorrowRequest,
    Lease,
    MultiProgrammer,
    QuantumJob,
)
from repro.testing import OccupancyInvariantChecker


def lender_job(name="lender"):
    """4 wires, only 0 and 1 touched: wires 2 and 3 become offers."""
    circuit = Circuit(4).extend([cnot(0, 1), x(0)])
    return QuantumJob(name, circuit, [])


def guest_job(name, pre, post=0):
    """One safe ancilla with lending window exactly ``[pre, pre+1]``.

    ``pre``/``post`` pad wire 0 with ``X`` gates around the ancilla's
    ``CX;CX`` segment, so wire 0 is active across the whole circuit and
    the ancilla has no internal host — its only hope is a lease.
    """
    circuit = Circuit(2)
    circuit.extend([x(0)] * pre)
    circuit.extend([cnot(0, 1), cnot(0, 1)])
    circuit.extend([x(0)] * post)
    return QuantumJob(name, circuit, [BorrowRequest(1)])


def two_ancilla_guest(name="twin"):
    """Two safe ancillas with disjoint windows [0,1] and [2,3] and no
    internal host (wire 0 busy throughout)."""
    circuit = Circuit(3).extend(
        [cnot(0, 1), cnot(0, 1), cnot(0, 2), cnot(0, 2)]
    )
    return QuantumJob(
        name, circuit, [BorrowRequest(1), BorrowRequest(2)]
    )


class TestWindowedLeases:
    def test_disjoint_windows_share_one_wire(self):
        mp = MultiProgrammer(9)
        mp.admit(lender_job())
        a = mp.admit(guest_job("A", 0, post=6))  # window [0, 1]
        b = mp.admit(guest_job("B", 4))  # window [4, 5]
        # Both lease the same (smallest) offered wire.
        assert a.cross_hosts == b.cross_hosts
        wire = a.cross_hosts[1]
        leases = mp.lease_table()[wire]
        assert [lease.guest for lease in leases] == ["A", "B"]
        assert [(lease.window.first, lease.window.last) for lease in leases] == [
            (0, 1),
            (4, 5),
        ]
        OccupancyInvariantChecker(mp).check()

    def test_overlapping_window_takes_another_wire(self):
        mp = MultiProgrammer(9)
        mp.admit(lender_job())
        a = mp.admit(guest_job("A", 0, post=6))  # window [0, 1]
        c = mp.admit(guest_job("C", 1, post=4))  # window [1, 2]
        assert a.cross_hosts[1] != c.cross_hosts[1]
        OccupancyInvariantChecker(mp).check()

    def test_bad_lending_mode_rejected(self):
        with pytest.raises(CircuitError, match="lending"):
            MultiProgrammer(4, lending="sometimes")

    def test_one_guest_multiplexes_two_ancillas_onto_one_wire(self):
        mp = MultiProgrammer(8)
        mp.admit(lender_job())
        adm = mp.admit(two_ancilla_guest())
        assert set(adm.cross_hosts) == {1, 2}
        assert len(set(adm.cross_hosts.values())) == 1
        assert adm.qubits_saved == 2
        assert mp.total_leases == 2
        OccupancyInvariantChecker(mp).check()

    def test_release_retires_only_that_guests_leases(self):
        mp = MultiProgrammer(9)
        mp.admit(lender_job())
        a = mp.admit(guest_job("A", 0, post=6))
        mp.admit(guest_job("B", 4))
        wire = a.cross_hosts[1]
        mp.release("A")
        leases = mp.lease_table()[wire]
        assert [lease.guest for lease in leases] == ["B"]
        # The freed window is leasable again.
        d = mp.admit(guest_job("D", 0, post=6))  # window [0, 1]
        assert d.cross_hosts[1] == wire
        OccupancyInvariantChecker(mp).check()

    def test_shared_wire_freed_only_after_last_holder_leaves(self):
        mp = MultiProgrammer(9)
        mp.admit(lender_job())
        a = mp.admit(guest_job("A", 0, post=6))
        wire = a.cross_hosts[1]
        mp.admit(guest_job("B", 4))
        assert wire not in mp.release("lender")  # guests still on it
        assert wire not in mp.release("A")  # B still on it
        assert wire in mp.release("B")
        assert mp.occupancy == 0

    def test_submit_clock_offsets_windows(self):
        """Two guests with identical local windows share a wire once
        their admission rounds push the windows apart."""
        mp = MultiProgrammer(9)
        mp.submit(lender_job())  # round 1
        a = mp.submit(guest_job("A", 0)).admission  # round 2: [2, 3]
        for name in ("p1", "p2", "p3"):  # tick the clock along
            mp.submit(QuantumJob(name, Circuit(1).extend([x(0)]), []))
        b = mp.submit(guest_job("B", 0)).admission  # round 6: [6, 7]
        assert a.gate_offset == 2 and b.gate_offset == 6
        assert a.cross_hosts[1] == b.cross_hosts[1]
        windows = [
            (lease.window.first, lease.window.last)
            for lease in mp.lease_table()[a.cross_hosts[1]]
        ]
        assert windows == [(2, 3), (6, 7)]
        OccupancyInvariantChecker(mp).check()

    def test_unsafe_ancilla_never_leases(self):
        circuit = Circuit(2).extend([cnot(0, 1), x(1), x(0), x(0)])
        rogue = QuantumJob("rogue", circuit, [BorrowRequest(1)])
        mp = MultiProgrammer(9)
        mp.admit(lender_job())
        adm = mp.admit(rogue)
        assert adm.leases == {} and adm.cross_hosts == {}
        OccupancyInvariantChecker(mp).check()

    def test_lendable_wires_lists_only_lease_free_offers(self):
        mp = MultiProgrammer(9)
        mp.admit(lender_job())
        before = mp.lendable_wires
        assert len(before) == 2
        a = mp.admit(guest_job("A", 0, post=6))
        assert mp.lendable_wires == tuple(
            w for w in before if w != a.cross_hosts[1]
        )
        # The leased wire is still *offered* (per-window availability).
        assert set(before) <= set(mp.idle_offers())

    def test_lease_is_introspectable(self):
        mp = MultiProgrammer(9)
        mp.admit(lender_job())
        adm = mp.admit(guest_job("A", 2, post=2))
        lease = adm.leases[1]
        assert isinstance(lease, Lease)
        assert lease.guest == "A" and lease.ancilla == 1
        assert (lease.window.first, lease.window.last) == (2, 3)
        assert "A:a1" in str(lease)


class TestSegmentedLeases:
    """Deterministic segmented-lending semantics: a lease covers only
    its guest's restore segments, and other guests thread the gaps."""

    def segmented_guest(self, name):
        from repro.testing import segmented_guest_job

        # Segments [0, 1] and [8, 9] around a 6-round restore gap.
        return segmented_guest_job(name, prelude=0, span=1, gap=6)

    def test_lease_covers_only_the_segments(self):
        mp = MultiProgrammer(9, lending="segmented")
        mp.admit(lender_job())
        adm = mp.admit(self.segmented_guest("A"))
        lease = adm.leases[1]
        assert [
            (seg.first, seg.last) for seg in lease.window.segments
        ] == [(0, 1), (8, 9)]
        OccupancyInvariantChecker(mp).check()

    def test_guest_threads_through_the_restore_gap(self):
        mp = MultiProgrammer(9, lending="segmented")
        mp.admit(lender_job())
        a = mp.admit(self.segmented_guest("A"))
        b = mp.admit(guest_job("B", 3, post=2))  # window [3, 4]: the gap
        assert a.cross_hosts[1] == b.cross_hosts[1]
        OccupancyInvariantChecker(mp).check()

    def test_windowed_mode_blocks_the_gap(self):
        mp = MultiProgrammer(9, lending="windowed")
        mp.admit(lender_job())
        a = mp.admit(self.segmented_guest("A"))
        assert len(a.leases[1].window) == 1  # hull, not segments
        b = mp.admit(guest_job("B", 3, post=2))
        assert a.cross_hosts[1] != b.cross_hosts[1]
        OccupancyInvariantChecker(mp).check()

    def test_segment_clash_takes_another_wire(self):
        mp = MultiProgrammer(9, lending="segmented")
        mp.admit(lender_job())
        a = mp.admit(self.segmented_guest("A"))
        c = mp.admit(guest_job("C", 1, post=4))  # window [1, 2] hits [0, 1]
        assert a.cross_hosts[1] != c.cross_hosts[1]
        OccupancyInvariantChecker(mp).check()

    def test_release_frees_segmented_lease(self):
        mp = MultiProgrammer(9, lending="segmented")
        mp.admit(lender_job())
        a = mp.admit(self.segmented_guest("A"))
        wire = a.cross_hosts[1]
        mp.release("A")
        assert wire not in mp.lease_table()
        d = mp.admit(self.segmented_guest("D"))
        assert d.cross_hosts[1] == wire
        OccupancyInvariantChecker(mp).check()


class TestLendingTrace:
    """The seeded lending-regime trace (the ``lending`` benchmark
    workload) under the invariant checker and the throughput claim."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lending", ["windowed", "segmented"])
    def test_invariants_hold_through_lending_trace(self, seed, lending):
        from repro.testing import (
            random_lending_trace,
            replay_trace,
        )

        mp = MultiProgrammer(11, queue_policy="backfill", lending=lending)
        checker = OccupancyInvariantChecker(mp)
        trace = random_lending_trace(seed, num_jobs=20)
        replay_trace(mp, trace, checker=checker)
        assert checker.checks == len(trace)

    def test_lending_modes_strictly_ordered_on_bench_trace(self):
        """Pins the benchmark acceptance live: seed-1, 50 jobs, 11
        qubits, fifo — segmented lending admits strictly more than
        windowed, and no policy inverts the non-strict ordering."""
        from repro.testing import random_lending_trace, replay_trace

        admitted = {}
        for policy in ("fifo", "backfill"):
            for lending in ("windowed", "segmented"):
                mp = MultiProgrammer(11, queue_policy=policy, lending=lending)
                log = replay_trace(
                    mp, random_lending_trace(1, num_jobs=50)
                )
                admitted[(policy, lending)] = len(log.admitted)
        assert (
            admitted[("fifo", "segmented")] > admitted[("fifo", "windowed")]
        ), admitted
        assert (
            admitted[("backfill", "segmented")] >= admitted[("backfill", "windowed")]
        ), admitted
