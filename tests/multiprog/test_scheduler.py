"""Tests for the Section 7 multi-programming scheduler."""

import pytest

from repro.circuits import Circuit, cnot, hadamard, x
from repro.errors import CircuitError, VerificationError
from repro.mcx import cccnot_with_dirty_ancilla
from repro.multiprog import (
    BorrowRequest,
    FleetRouter,
    MultiProgrammer,
    QuantumJob,
)
from repro.verify import BatchVerifier


def cccnot_job(name="alpha"):
    circuit = Circuit(5, labels=["q1", "q2", "a", "q3", "q4"]).extend(
        cccnot_with_dirty_ancilla([0, 1, 3], 4, 2)
    )
    return QuantumJob(name, circuit, [BorrowRequest(2)])


def light_job(name="beta", width=3):
    circuit = Circuit(width).append(cnot(0, 1))
    return QuantumJob(name, circuit, [])


class TestScheduling:
    def test_safe_ancilla_borrows_cotenant_qubit(self):
        result = MultiProgrammer(8).schedule([cccnot_job(), light_job()])
        assert result.qubits_saved == 1
        assert result.safety[("alpha", 2)] is True
        assert result.fits_machine

    def test_unsafe_ancilla_kept_private(self):
        bad = QuantumJob(
            "gamma",
            Circuit(2, labels=["w", "anc"]).append(x(1)),
            [BorrowRequest(1)],
        )
        result = MultiProgrammer(12).schedule([cccnot_job(), bad])
        assert result.safety[("gamma", 1)] is False
        # the unsafe ancilla wire survives as a private wire
        assert result.final_width == result.naive_width - 1  # only alpha's

    def test_machine_capacity_enforced(self):
        with pytest.raises(CircuitError):
            MultiProgrammer(4).schedule([cccnot_job(), light_job()])

    def test_require_fit_false_reports_anyway(self):
        result = MultiProgrammer(4).schedule(
            [cccnot_job(), light_job()], require_fit=False
        )
        assert not result.fits_machine

    def test_summary_text(self):
        result = MultiProgrammer(10).schedule([cccnot_job(), light_job()])
        text = result.summary()
        assert "saved=" in text and "alpha" in text

    def test_gate_counts_preserved(self):
        jobs = [cccnot_job(), light_job()]
        result = MultiProgrammer(10).schedule(jobs)
        assert len(result.composite.gates) == sum(
            len(j.circuit.gates) for j in jobs
        )

    def test_labels_are_namespaced(self):
        result = MultiProgrammer(10).schedule([cccnot_job(), light_job()])
        assert any(
            label.startswith("alpha.") for label in result.composite.labels
        )


class TestSharedVerifier:
    """A verifier passed in as ``verifier=`` outlives the scheduler that
    filled its memo: a later scheduler or router built on it answers
    the same borrow from the memo instead of verifying it again."""

    @pytest.mark.parametrize(
        "later",
        [
            lambda verifier: MultiProgrammer(10, verifier=verifier),
            lambda verifier: FleetRouter([10], verifier=verifier),
        ],
        ids=["multiprogrammer", "fleet_router"],
    )
    def test_later_owner_answers_from_the_memo(self, later):
        verifier = BatchVerifier()
        first = MultiProgrammer(10, verifier=verifier)
        assert first.schedule([cccnot_job()]).safety[("alpha", 2)] is True
        assert (verifier.cache_hits, verifier.cache_misses) == (0, 1)

        owner = later(verifier)
        owner.submit(light_job())
        outcome = owner.submit(cccnot_job())
        assert outcome.admission.safety == {2: True}
        assert (verifier.cache_hits, verifier.cache_misses) == (1, 1)


class TestValidation:
    def test_no_jobs(self):
        with pytest.raises(CircuitError):
            MultiProgrammer(4).schedule([])

    def test_duplicate_names(self):
        with pytest.raises(CircuitError):
            MultiProgrammer(12).schedule([light_job("x"), light_job("x")])

    def test_bad_ancilla_wire(self):
        with pytest.raises(CircuitError):
            QuantumJob("j", Circuit(2), [BorrowRequest(5)])

    def test_non_classical_job_with_requests_rejected(self):
        circuit = Circuit(2).append(hadamard(0))
        job = QuantumJob("h", circuit, [BorrowRequest(1)])
        with pytest.raises(VerificationError):
            MultiProgrammer(4).schedule([job])

    def test_machine_size_positive(self):
        with pytest.raises(CircuitError):
            MultiProgrammer(0)

    def test_non_classical_job_without_requests_ok(self):
        circuit = Circuit(2).append(hadamard(0))
        job = QuantumJob("h", circuit, [])
        result = MultiProgrammer(8).schedule([job, light_job()])
        assert result.fits_machine
