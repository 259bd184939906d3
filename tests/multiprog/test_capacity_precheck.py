"""The O(1) capacity precheck in :meth:`MultiProgrammer.admit`.

An admission never holds fewer fresh wires than its job's
``reduced_width``, so ``reduced_width > free_qubits`` refuses before
any verification, model or allocation work.  These tests pin three
things: the argument checks still raise in their historical order
ahead of the precheck, a refused attempt does no verifier or model
work, and seeded fleet replays admit, expire and migrate exactly what
they did before the precheck while making far fewer verifier lookups.
"""

import pytest

from repro.circuits import Circuit, cnot, hadamard, x
from repro.errors import CapacityError, CircuitError, VerificationError
from repro.mcx import cccnot_with_dirty_ancilla
from repro.multiprog import (
    BorrowRequest,
    FleetRouter,
    MultiProgrammer,
    QuantumJob,
)
from repro.testing import random_fleet_trace, replay_trace


def busy_job(name, width):
    circuit = Circuit(width).extend([cnot(i, i + 1) for i in range(width - 1)])
    return QuantumJob(name, circuit, [])


def cccnot_job(name="oracle"):
    """Width 5, one safe dirty ancilla: reduced width 4."""
    circuit = Circuit(5).extend(cccnot_with_dirty_ancilla([0, 1, 3], 4, 2))
    return QuantumJob(name, circuit, [BorrowRequest(2)])


def full_machine():
    mp = MultiProgrammer(4)
    mp.admit(busy_job("hog", 4))
    assert mp.free_qubits == 0
    return mp


class TestErrorPrecedence:
    """Each argument check still beats the capacity refusal."""

    def test_already_resident_first(self):
        mp = full_machine()
        with pytest.raises(CircuitError, match="already resident"):
            mp.admit(busy_job("hog", 2))

    def test_unknown_packer_beats_capacity(self):
        mp = full_machine()
        with pytest.raises(CircuitError, match="unknown lease packer") as info:
            mp.admit(cccnot_job(), packer="nope")
        assert not isinstance(info.value, CapacityError)

    @pytest.mark.parametrize("strategy", [None, "nope"])
    def test_non_classical_job_with_requests_beats_capacity(self, strategy):
        """The VerificationError also beats an unknown strategy name."""
        mp = full_machine()
        circuit = Circuit(2).extend([hadamard(0), cnot(0, 1)])
        job = QuantumJob("quantum", circuit, [BorrowRequest(1)])
        with pytest.raises(VerificationError, match="only classical"):
            mp.admit(job, strategy=strategy)

    @pytest.mark.parametrize(
        "default, override", [("greedy", "nope"), ("nope", None)]
    )
    def test_unknown_strategy_beats_capacity_on_admit(self, default, override):
        mp = MultiProgrammer(4, strategy=default)
        mp.admit(busy_job("hog", 4), strategy="greedy")
        with pytest.raises(
            CircuitError, match="unknown allocation strategy"
        ) as info:
            mp.admit(busy_job("late", 2), strategy=override)
        assert not isinstance(info.value, CapacityError)

    def test_unknown_strategy_is_raised_by_submit_not_queued(self):
        mp = full_machine()
        with pytest.raises(
            CircuitError, match="unknown allocation strategy"
        ) as info:
            mp.submit(busy_job("late", 2), strategy="nope")
        assert not isinstance(info.value, CapacityError)
        assert mp.pending() == ()


class TestRefusalDoesNoWork:
    def test_refused_attempt_skips_verifier_and_model_cache(self):
        mp = MultiProgrammer(8)
        mp.admit(busy_job("hog", 5))  # 3 free, the oracle needs >= 4
        with pytest.raises(CapacityError, match="free qubits"):
            mp.admit(cccnot_job())
        assert (mp.verifier.cache_hits, mp.verifier.cache_misses) == (0, 0)
        assert (mp.model_cache_hits, mp.model_cache_misses) == (0, 0)
        assert mp.residents == ("hog",)
        assert mp.lease_table() == {}

    def test_precheck_is_tight_at_reduced_width(self):
        """A job whose reduced width equals the free pool is attempted
        (and here admitted through a co-tenant lease)."""
        mp = MultiProgrammer(8)
        sampler = QuantumJob("sampler", Circuit(4).extend([cnot(0, 1), x(0)]))
        mp.admit(sampler)  # wires 2, 3 of the sampler idle: offered
        assert mp.free_qubits == cccnot_job().reduced_width == 4
        admission = mp.admit(cccnot_job())
        assert len(admission.fresh_wires) == 4
        assert len(admission.cross_hosts) == 1

    def test_unenforced_overflow_wires_do_not_shrink_free_pool(self):
        """Wires an enforce_capacity=False admission took past the
        machine's end are not machine wires: once the in-range wires
        free up, a job that fits them is admitted, not refused."""
        mp = MultiProgrammer(4)
        mp.admit(busy_job("first", 3))
        mp.admit(busy_job("spill", 3), enforce_capacity=False)
        assert mp.occupancy == 6
        mp.release("first")
        assert mp.free_qubits == 3
        admission = mp.admit(busy_job("fits", 3))
        assert all(wire < 4 for wire in admission.wires)


#: seed -> (admitted, expired on the fleet and its shards, migrations),
#: the counts these replays produced before the precheck existed.
FLEET_COUNTS = {1: (233, 158, 131), 1009: (245, 137, 137)}


@pytest.mark.parametrize("seed", sorted(FLEET_COUNTS))
def test_fleet_replay_counts_unchanged_with_fewer_lookups(seed):
    trace = random_fleet_trace(
        seed,
        num_jobs=400,
        timeout_probability=1.0,
        max_timeout=48,
        release_probability=0.35,
        drain=False,
    )
    router = FleetRouter([11, 11])
    stats = replay_trace(router, trace).stats
    expired = stats["expired"] + sum(
        shard["expired"] for shard in stats["shards"].values()
    )
    counts = (stats["admitted"], expired, stats["migrations"])
    assert counts == FLEET_COUNTS[seed]
    # Before the precheck every failed retry paid a verifier memo
    # lookup: ~25-29 per job on these traces.
    lookups = router.verifier.cache_hits + router.verifier.cache_misses
    assert lookups <= 2 * stats["submitted"]
