"""Tests for the online multi-programming path: admit / release /
cross-program lending / lazy verification / batch replay."""

import pytest

from repro.alloc import allocate
from repro.circuits import Circuit, cnot, x
from repro.errors import CircuitError
from repro.mcx import cccnot_with_dirty_ancilla
from repro.multiprog import BorrowRequest, MultiProgrammer, QuantumJob


def cccnot_job(name="alpha"):
    circuit = Circuit(5, labels=["q1", "q2", "a", "q3", "q4"]).extend(
        cccnot_with_dirty_ancilla([0, 1, 3], 4, 2)
    )
    return QuantumJob(name, circuit, [BorrowRequest(2)])


def sampler_job(name="beta", width=4):
    circuit = Circuit(width).extend([cnot(0, 1), x(0)])
    return QuantumJob(name, circuit, [])


def rogue_job(name="rogue"):
    """An ancilla that is NOT safely uncomputed (left flipped)."""
    circuit = Circuit(2, labels=["w", "anc"]).extend([cnot(0, 1), x(1)])
    return QuantumJob(name, circuit, [BorrowRequest(1)])


class TestAdmit:
    def test_admission_occupies_machine_wires(self):
        mp = MultiProgrammer(8)
        admission = mp.admit(sampler_job())
        assert mp.residents == ("beta",)
        assert mp.occupancy == 4
        assert mp.free_qubits == 4
        assert all(0 <= w < 8 for w in admission.wires)

    def test_untouched_wires_become_lendable(self):
        mp = MultiProgrammer(8)
        mp.admit(sampler_job())  # wires 2, 3 of the job are idle
        assert len(mp.lendable_wires) == 2

    def test_safe_ancilla_borrows_cotenant_wire(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job())
        admission = mp.admit(cccnot_job())
        # the CCCNOT job has no internal idle host, so its verified
        # ancilla lands on a lent co-tenant wire: 4 fresh wires, not 5
        assert len(admission.cross_hosts) == 1
        assert len(admission.fresh_wires) == 4
        assert admission.qubits_saved == 1
        assert mp.occupancy == 8

    def test_without_cotenant_no_cross_borrow(self):
        mp = MultiProgrammer(12)
        admission = mp.admit(cccnot_job())
        assert admission.cross_hosts == {}
        assert len(admission.fresh_wires) == 5

    def test_unsafe_ancilla_never_crosses_program_boundary(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job())
        admission = mp.admit(rogue_job())
        assert admission.safety == {1: False}
        assert admission.cross_hosts == {}
        assert len(admission.fresh_wires) == 2

    def test_unsafe_request_wire_never_hosts_a_guest(self):
        # Wire 2 is an unsafe ancilla (left flipped); wire 3 is a safe
        # one whose only idle window sits over wire 2.  The admission
        # must match the batch path: a requested-but-unplaceable wire
        # stays OFF the host list, so neither ancilla is placed.
        circuit = Circuit(4).extend(
            [cnot(0, 2), x(2), cnot(0, 3), x(1), x(1), cnot(0, 3)]
        )
        job = QuantumJob(
            "mixed", circuit, [BorrowRequest(2), BorrowRequest(3)]
        )
        mp = MultiProgrammer(8)
        admission = mp.admit(job, lazy_verify=False)
        assert admission.plan.assignment == {}
        assert admission.plan.final_width == 4

    def test_over_capacity_rejected(self):
        mp = MultiProgrammer(6)
        mp.admit(sampler_job())
        with pytest.raises(CircuitError, match="free qubits"):
            mp.admit(cccnot_job())
        # the failed admission left no residue
        assert mp.residents == ("beta",)
        assert mp.occupancy == 4

    def test_duplicate_resident_rejected(self):
        mp = MultiProgrammer(10)
        mp.admit(sampler_job())
        with pytest.raises(CircuitError, match="already resident"):
            mp.admit(sampler_job())

    def test_strategy_knob_per_admission(self):
        mp = MultiProgrammer(10, strategy="greedy")
        admission = mp.admit(cccnot_job(), strategy="interval-graph")
        assert admission.strategy == "interval-graph"
        assert admission.plan.strategy == "interval-graph"

    def test_lazy_verification_skips_hostless_ancillas(self):
        # Empty machine, no lendable wires, and the CCCNOT circuit has
        # no internal idle host: the ancilla cannot be placed anywhere,
        # so no solver runs at all.
        mp = MultiProgrammer(10)
        admission = mp.admit(cccnot_job())
        assert admission.safety == {}
        assert mp.verifier.cache_misses == 0

    def test_eager_verification_on_request(self):
        mp = MultiProgrammer(10)
        admission = mp.admit(cccnot_job(), lazy_verify=False)
        assert admission.safety == {2: True}
        assert mp.verifier.cache_misses == 1

    def test_wire_of_maps_original_wires(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job())
        admission = mp.admit(cccnot_job())
        seen = {admission.wire_of(w) for w in range(5)}
        assert len(seen) == 5  # distinct machine wires incl. the borrow
        borrowed = set(admission.cross_hosts.values())
        assert borrowed <= seen


class TestRelease:
    def test_release_frees_wires(self):
        mp = MultiProgrammer(8)
        mp.admit(sampler_job())
        freed = mp.release("beta")
        assert len(freed) == 4
        assert mp.occupancy == 0
        assert mp.residents == ()

    def test_release_unknown_job(self):
        with pytest.raises(CircuitError, match="no resident"):
            MultiProgrammer(4).release("ghost")

    def test_release_makes_room_for_next_arrival(self):
        mp = MultiProgrammer(6)
        mp.admit(sampler_job())
        with pytest.raises(CircuitError):
            mp.admit(cccnot_job())
        mp.release("beta")
        admission = mp.admit(cccnot_job())
        assert len(admission.fresh_wires) == 5

    def test_lent_wire_stays_occupied_until_guest_leaves(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job())
        guest = mp.admit(cccnot_job())
        lent = set(guest.cross_hosts.values())
        freed = set(mp.release("beta"))
        assert lent.isdisjoint(freed)  # guest still on the lent wire
        assert mp.occupancy == 5  # 4 fresh + the lent wire
        freed_later = set(mp.release("alpha"))
        assert lent <= freed_later
        assert mp.occupancy == 0

    def test_owner_release_withdraws_lendable_offer(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job())
        assert mp.lendable_wires
        mp.release("beta")
        assert mp.lendable_wires == ()

    def test_guest_release_restores_lendable_offer(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job())
        before = mp.lendable_wires
        mp.admit(cccnot_job())
        assert len(mp.lendable_wires) == len(before) - 1
        mp.release("alpha")
        assert mp.lendable_wires == before


class TestSnapshot:
    def test_snapshot_renders(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job())
        mp.admit(cccnot_job())
        text = mp.snapshot()
        assert "busy" in text and "beta" in text and "alpha" in text

    def test_admission_lookup(self):
        mp = MultiProgrammer(8)
        mp.admit(sampler_job())
        assert mp.admission("beta").name == "beta"
        with pytest.raises(CircuitError):
            mp.admission("ghost")


class TestBatchReplay:
    def test_schedule_round_trips_allocate(self):
        """Acceptance: the batch path reproduces the composite pass
        that :func:`allocate` makes of the merged circuit."""
        jobs = [cccnot_job(), sampler_job()]
        mp = MultiProgrammer(10)
        result = mp.schedule(jobs)

        composite, offsets = mp._merge(jobs)
        reference = allocate(composite, [offsets["alpha"] + 2])
        assert result.plan.assignment == reference.assignment
        assert result.final_width == reference.final_width
        assert result.plan.wire_map == reference.wire_map
        assert [str(g) for g in result.composite.gates] == [
            str(g) for g in reference.circuit.gates
        ]

    def test_schedule_leaves_live_machine_untouched(self):
        mp = MultiProgrammer(12)
        mp.admit(sampler_job("resident"))
        mp.schedule([cccnot_job(), sampler_job()])
        assert mp.residents == ("resident",)
        assert mp.occupancy == 4

    def test_schedule_records_admissions(self):
        mp = MultiProgrammer(10)
        result = mp.schedule([cccnot_job(), sampler_job()])
        assert [a.name for a in result.admissions] == ["alpha", "beta"]

    def test_schedule_with_strategy(self):
        mp = MultiProgrammer(10, strategy="lookahead")
        result = mp.schedule([cccnot_job(), sampler_job()])
        assert result.plan.strategy == "lookahead"
        assert result.qubits_saved >= 1

    def test_scheduler_verdicts_memoised_across_calls(self):
        mp = MultiProgrammer(10)
        mp.schedule([cccnot_job(), sampler_job()])
        misses = mp.verifier.cache_misses
        mp.schedule([cccnot_job(), sampler_job()])
        assert mp.verifier.cache_misses == misses
        assert mp.verifier.cache_hits >= 1
