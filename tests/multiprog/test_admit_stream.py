"""Prefix admission: :meth:`MultiProgrammer.admit_stream` end to end.

Deterministic fixtures walk the whole refinement ladder — extend a
lease in place, move it to another offered wire, revoke it onto a
fresh wire, revoke the job to the queue — and the close-time full
re-verification that catches a tail breaking a prefix-proven lease.
A seeded property test then drives random reversible circuits through
the stream gate by gate, with the occupancy invariant checker run
after *every* feed: the scheduler-wide contract must hold between any
two gates, not just at admission boundaries.

The guests mirror ``test_lending_windows``: a lender whose untouched
wires become offers, and guests whose requested ancilla is touched
only by a restoring ``CX;CX`` segment at a controlled position.
"""

import random

import pytest

from repro.circuits import Circuit, cnot, hadamard, x
from repro.errors import CircuitError, VerificationError
from repro.multiprog import BorrowRequest, MultiProgrammer, QuantumJob
from repro.testing import OccupancyInvariantChecker, random_reversible_circuit

#: A safe, restoring prefix for a 2-wire guest requesting ancilla 1.
SAFE_PREFIX = [cnot(0, 1), cnot(0, 1)]


def lender(width=5, name="lender"):
    """Touches wires 0..2 only: wires 3..width-1 become offers."""
    circuit = Circuit(width).extend([cnot(0, 1), cnot(1, 2)])
    return QuantumJob(name, circuit, [])


def late_guest(name="B", pre=4):
    """Offline guest whose ancilla window is exactly [pre, pre+1]."""
    circuit = Circuit(2)
    circuit.extend([x(0)] * pre)
    circuit.extend([cnot(0, 1), cnot(0, 1)])
    return QuantumJob(name, circuit, [BorrowRequest(1)])


class TestPrefixAdmission:
    @pytest.mark.parametrize("lending", ["windowed", "segmented"])
    def test_safe_prefix_earns_a_lease(self, lending):
        mp = MultiProgrammer(9, lending=lending)
        mp.admit(lender())
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        assert handle.name == "guest"
        assert not handle.closed and not handle.revoked
        assert list(handle.admission.leases) == [1]
        assert "guest" in mp.residents
        assert mp.stats()["streaming"]["admissions"] == 1
        OccupancyInvariantChecker(mp).check()

    def test_empty_prefix_admits_on_width_alone(self):
        mp = MultiProgrammer(6)
        handle = mp.admit_stream("bare", 3)
        assert handle.admission.leases == {}
        assert len(handle.admission.wires) == 3
        handle.feed(x(0))
        assert handle.close() is handle.admission
        OccupancyInvariantChecker(mp).check()

    def test_duplicate_names_rejected(self):
        mp = MultiProgrammer(4)
        mp.admit(QuantumJob("busy", Circuit(3).extend([cnot(0, 1)]), []))
        with pytest.raises(CircuitError, match="already resident"):
            mp.admit_stream("busy", 1)
        assert mp.submit(
            QuantumJob("dup", Circuit(2).extend([x(0)]), [])
        ).status == "queued"
        with pytest.raises(CircuitError, match="already queued"):
            mp.admit_stream("dup", 1)

    def test_feed_after_close_rejected(self):
        mp = MultiProgrammer(4)
        handle = mp.admit_stream("g", 1, prefix=[x(0)])
        first = handle.close()
        assert handle.close() is first  # idempotent
        with pytest.raises(CircuitError, match="closed"):
            handle.feed(x(0))

    def test_release_ends_an_open_stream(self):
        """Releasing a job whose stream is still open ends the stream:
        a later feed raises, even on the formerly leased ancilla, and
        close() returns None without resubmitting anything."""
        mp = MultiProgrammer(9)
        mp.admit(lender())
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        assert handle.admission.leases
        mp.release("guest")
        assert handle.admission is None and handle.closed
        assert mp.lease_table() == {}
        with pytest.raises(CircuitError, match="released"):
            handle.feed(cnot(0, 1))
        assert handle.close() is None
        assert handle.outcome is None
        assert "guest" not in mp.residents and "guest" not in mp.pending()
        OccupancyInvariantChecker(mp).check()

    def test_release_drops_the_stream_handle(self):
        """A released stream job keeps no handle: its allocator leaves
        ``stats()``'s per-job counters, whether it was released closed
        or still open, while the lifetime counters stay."""
        mp = MultiProgrammer(9)
        mp.admit(lender())
        for cycle in range(20):
            handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
            if cycle % 2:
                handle.close()
            assert list(mp.stats()["streaming"]["jobs"]) == ["guest"]
            mp.release("guest")
            assert mp.stats()["streaming"]["jobs"] == {}
        assert mp.stats()["streaming"]["admissions"] == 20
        assert mp.residents == ("lender",)

    def test_non_classical_gate_rejected_when_borrowing(self):
        mp = MultiProgrammer(9)
        mp.admit(lender())
        handle = mp.admit_stream("g", 2, [1], prefix=SAFE_PREFIX)
        with pytest.raises(VerificationError, match="classical"):
            handle.feed(hadamard(0))


class TestRefinementLadder:
    def test_lease_extends_in_place(self):
        mp = MultiProgrammer(9)
        mp.admit(lender())
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        wire = handle.admission.cross_hosts[1]
        before = handle.admission.leases[1].window
        handle.extend([x(0), x(0)])  # untouched ancilla: no refinement
        assert mp.stats()["streaming"]["refinements"] == 0
        handle.extend([cnot(0, 1), cnot(0, 1)])
        after = handle.admission.leases[1]
        assert after.wire == wire  # same host, larger window
        assert after.window.last > before.last
        assert mp.stats()["streaming"]["refinements"] == 2
        OccupancyInvariantChecker(mp).check()
        assert handle.close() is handle.admission
        OccupancyInvariantChecker(mp).check()

    def test_overlap_with_a_sibling_moves_the_lease(self):
        mp = MultiProgrammer(9)
        mp.admit(lender())  # offers wires for leases
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        shared = handle.admission.cross_hosts[1]
        sibling = mp.admit(late_guest())  # window [4, 5], same wire
        assert sibling.cross_hosts[1] == shared
        handle.extend([x(0), x(0)])
        # Touching the ancilla at index 4 grows the window into the
        # sibling's [4, 5]: extend-in-place fails, the lease moves.
        handle.feed(cnot(0, 1))
        moved = handle.admission.leases[1]
        assert moved.wire != shared
        assert handle.admission.cross_hosts[1] == moved.wire
        assert [l.guest for l in mp.lease_table()[shared]] == ["B"]
        assert mp.stats()["streaming"]["refinements"] >= 1
        OccupancyInvariantChecker(mp).check()
        handle.feed(cnot(0, 1))  # restore before close
        assert handle.close() is handle.admission
        OccupancyInvariantChecker(mp).check()

    def test_no_host_revokes_the_lease_to_a_fresh_wire(self):
        # A 4-wide lender offers exactly one wire, so when the grown
        # window collides with the sibling there is nowhere to move.
        mp = MultiProgrammer(8)
        mp.admit(lender(width=4))
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        leased = handle.admission.cross_hosts[1]
        mp.admit(late_guest())
        handle.extend([x(0), x(0), cnot(0, 1)])
        assert handle.admission.leases == {}
        assert handle.admission.cross_hosts == {}
        assert handle.admission.wires[1] != leased
        assert mp.stats()["streaming"]["lease_revocations"] == 1
        OccupancyInvariantChecker(mp).check()
        handle.feed(cnot(0, 1))
        assert handle.close() is handle.admission
        OccupancyInvariantChecker(mp).check()

    def test_dry_pool_revokes_the_job_to_the_queue(self):
        # Machine exactly full: lender 4 + guest fresh 1 + sibling
        # fresh 1.  The collision finds no move target and no fresh
        # wire, so the whole job is revoked — and close() resubmits
        # the complete circuit, which queues behind the residents.
        mp = MultiProgrammer(6)
        mp.admit(lender(width=4))
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        mp.admit(late_guest())
        handle.extend([x(0), x(0), cnot(0, 1)])
        assert handle.revoked
        assert handle.admission is None
        assert "guest" not in mp.residents
        assert mp.stats()["streaming"]["revoked_to_queue"] == 1
        OccupancyInvariantChecker(mp).check()
        handle.feed(cnot(0, 1))  # the stream keeps accepting gates
        assert handle.close() is None
        assert handle.outcome.status == "queued"
        assert "guest" in mp.pending()
        mp.release("B")
        assert "guest" in mp.last_backfilled
        assert "guest" in mp.residents
        OccupancyInvariantChecker(mp).check()
        mp.release("guest")  # the resubmitted job drops the handle too
        assert mp.stats()["streaming"]["jobs"] == {}

    def test_cancelled_resubmission_drops_the_handle(self):
        mp = MultiProgrammer(6)
        mp.admit(lender(width=4))
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        mp.admit(late_guest())
        handle.extend([x(0), x(0), cnot(0, 1)])
        assert handle.close() is None
        assert "guest" in mp.pending()
        mp.cancel("guest")
        assert mp.stats()["streaming"]["jobs"] == {}

    def test_close_revokes_a_lease_the_tail_broke(self):
        mp = MultiProgrammer(9)
        mp.admit(lender())
        handle = mp.admit_stream("guest", 2, [1], prefix=SAFE_PREFIX)
        leased = handle.admission.cross_hosts[1]
        handle.feed(cnot(0, 1))  # third CX: the ancilla stays flipped
        admission = handle.close()
        assert admission is handle.admission
        assert admission.safety[1] is False
        assert admission.leases == {}
        assert admission.wires[1] != leased
        assert mp.stats()["streaming"]["lease_revocations"] == 1
        OccupancyInvariantChecker(mp).check()


class TestStreamInvariantProperty:
    """Random circuits, invariant-checked between every two gates."""

    @pytest.mark.parametrize("lending", ["windowed", "segmented"])
    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_hold_at_every_feed(self, seed, lending):
        rng = random.Random(seed)
        mp = MultiProgrammer(16, lending=lending)
        mp.admit(lender())
        circuit, ancillas = random_reversible_circuit(
            seed + 300,
            num_data=4,
            num_ancillas=2,
            segment_gates=2,
            middle_gates=4,
        )
        split = rng.randrange(1, len(circuit.gates))
        handle = mp.admit_stream(
            "stream",
            circuit.num_qubits,
            list(ancillas),
            prefix=circuit.gates[:split],
        )
        OccupancyInvariantChecker(mp).check()
        tenants = []
        for step, gate in enumerate(circuit.gates[split:]):
            handle.feed(gate)
            OccupancyInvariantChecker(mp).check()
            if step % 3 == 2 and len(tenants) < 3:
                name = f"t{step}"
                mp.admit(
                    QuantumJob(name, Circuit(1).extend([x(0)]), [])
                )
                tenants.append(name)
                OccupancyInvariantChecker(mp).check()
            elif step % 5 == 4 and tenants:
                mp.release(tenants.pop(0))
                OccupancyInvariantChecker(mp).check()
        handle.close()
        OccupancyInvariantChecker(mp).check()
        streaming = mp.stats()["streaming"]
        assert streaming["admissions"] == 1
        assert streaming["jobs"]["stream"]["gates"] == len(circuit.gates)
