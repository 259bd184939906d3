"""Model memoisation and the solver-backed restore-point certifier.

The scheduler would rebuild an interval-conflict model for every
admission attempt of a job; on drain-heavy traces (the same job
re-tried each release event) that dominated admission cost, so models
are cached by ``(circuit fingerprint, request wires)`` and the
hit/miss counts show in ``stats()``.  Segmented lending certifies
restore segments with the scheduler's shared solver-backed certifier,
which also splits windows at non-palindromic identity blocks."""

from repro.alloc import build_model
from repro.circuits import Circuit, cnot, x
from repro.mcx import cccnot_with_dirty_ancilla
from repro.multiprog import BorrowRequest, MultiProgrammer, QuantumJob
from repro.testing import OccupancyInvariantChecker


def cccnot_job(name="alpha"):
    circuit = Circuit(5, labels=["q1", "q2", "a", "q3", "q4"]).extend(
        cccnot_with_dirty_ancilla([0, 1, 3], 4, 2)
    )
    return QuantumJob(name, circuit, [BorrowRequest(2)])


def sampler_job(name="beta", width=4):
    circuit = Circuit(width).extend([cnot(0, 1), x(0)])
    return QuantumJob(name, circuit, [])


def semantic_identity_job(name="sem"):
    """Ancilla restored twice by *semantic* (non-palindromic) identity
    blocks: ``X a; CX d,a; X a; CX d,a`` is the identity on ``a`` but
    no mirror palindrome, so the structural certifier sees one whole
    window while the solver certifier finds the release point."""
    gates = [
        x(2), cnot(0, 2), x(2), cnot(0, 2),
        cnot(0, 1),
        x(2), cnot(0, 2), x(2), cnot(0, 2),
    ]
    return QuantumJob(
        name,
        Circuit(3, labels=["d", "w", "anc"]).extend(gates),
        [BorrowRequest(2)],
    )


class TestMemoisation:
    def test_cache_hits_on_requeued_job(self):
        """A queued job re-tried at each release event reuses one
        model: misses stay at the number of distinct jobs."""
        mp = MultiProgrammer(6)
        mp.submit(cccnot_job("a1"))
        mp.submit(cccnot_job("a2"))  # queued: machine full
        mp.submit(cccnot_job("a3"))  # queued
        assert mp.pending() == ("a2", "a3")
        mp.release("a1")  # a2 admitted, a3 re-tried
        mp.release("a2")  # a3 admitted
        stats = mp.stats()
        assert stats["model_cache_hits"] >= 1
        # one miss per distinct (fingerprint, requests) — the three
        # jobs share a circuit, so exactly one miss.
        assert stats["model_cache_misses"] == 1

    def test_identical_circuits_share_one_model(self):
        mp = MultiProgrammer(16)
        mp.admit(cccnot_job("a1"))
        mp.admit(cccnot_job("a2"))
        assert mp.stats()["model_cache_misses"] == 1
        assert mp.stats()["model_cache_hits"] == 1

    def test_distinct_circuits_do_not_collide(self):
        """Different fingerprints get different cache rows (a job with
        no borrow request never builds a model at all)."""
        mp = MultiProgrammer(16)
        mp.admit(cccnot_job())
        mp.admit(sampler_job())  # no requests: no model, no miss
        mp.admit(semantic_identity_job())
        stats = mp.stats()
        assert stats["model_cache_misses"] == 2
        assert stats["model_cache_hits"] == 0

    def test_invariants_hold_with_memoised_models(self):
        mp = MultiProgrammer(12, lending="segmented")
        check = OccupancyInvariantChecker(mp)
        mp.submit(sampler_job())
        check()
        mp.submit(cccnot_job("a1"))
        check()
        mp.submit(cccnot_job("a2"))
        check()
        mp.release("beta")
        check()
        assert mp.stats()["model_cache_hits"] >= 1


class TestSegmentCertifier:
    """Segmented lending certifies restore segments with the
    scheduler's shared solver-backed certifier; the other mode never
    segments, so it carries none."""

    def test_only_segmented_lending_carries_a_certifier(self):
        assert MultiProgrammer(8).segment_check is None
        assert MultiProgrammer(8, lending="segmented").segment_check

    def test_solver_certifier_segments_semantic_identity(self):
        """The segmented scheduler must split the non-palindromic
        identity job's window where the structural check alone cannot
        — observable as the lease window's segment count."""
        job = semantic_identity_job()
        structural = build_model(job.circuit, [2], segmented=True)
        solver = MultiProgrammer(8, lending="segmented")._job_model(job)
        assert len(structural.windows[2]) == 1
        assert len(solver.windows[2]) == 2

    def test_solver_scheduler_passes_invariants(self):
        """The invariant checker re-derives lease windows with the
        scheduler's own certifier — a solver-backed trace must pass."""
        mp = MultiProgrammer(12, lending="segmented")
        check = OccupancyInvariantChecker(mp)
        mp.submit(sampler_job())
        check()
        mp.submit(semantic_identity_job())
        check()
        mp.submit(cccnot_job())
        check()
        mp.release("beta")
        check()
        assert check.checks == 4

    def test_structural_and_solver_agree_on_palindromes(self):
        """Mirror-palindrome uncomputation is certified by both: the
        solver fallback changes no window of a palindromic job."""
        job = cccnot_job()
        structural = build_model(job.circuit, [2], segmented=True)
        solver = MultiProgrammer(12, lending="segmented")._job_model(job)
        assert structural.windows == solver.windows
