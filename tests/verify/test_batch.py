"""Tests for the batch verification engine (repro.verify.batch)."""

import pytest

from repro.circuits import Circuit, cnot, x
from repro.errors import VerificationError
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source
from repro.verify import BatchVerifier, VerificationJob, verify_circuit
from tests.conftest import fig13_circuit


def adder_program(n=14):
    return elaborate(adder_qbr_source(n))


def verdict_tuples(report):
    return [
        (v.qubit, v.name, v.safe, v.failed_condition) for v in report.verdicts
    ]


class TestParallelMatchesSequential:
    @pytest.mark.parametrize("backend", ("bdd", "cdcl"))
    def test_fig63_adder_suite_identical_verdicts(self, backend):
        """Acceptance: max_workers>1 == the sequential shim on adder.qbr."""
        program = adder_program()
        assert len(program.dirty_wires) >= 12
        sequential = verify_circuit(
            program.circuit, program.dirty_wires, backend=backend
        )
        parallel = BatchVerifier(backend=backend, max_workers=4).verify_circuit(
            program.circuit, program.dirty_wires
        )
        assert verdict_tuples(parallel) == verdict_tuples(sequential)
        assert parallel.all_safe

    @pytest.mark.parametrize("backend", ("bdd", "cdcl", "portfolio"))
    def test_unsafe_circuit_identical_verdicts(self, backend):
        circuit = Circuit(4, labels=["w", "d1", "d2", "d3"]).extend(
            [cnot(0, 1), cnot(0, 1), x(2), cnot(3, 0)]
        )
        sequential = verify_circuit(circuit, [1, 2, 3], backend=backend)
        parallel = BatchVerifier(backend=backend, max_workers=4).verify_circuit(
            circuit, [1, 2, 3]
        )
        assert verdict_tuples(parallel) == verdict_tuples(sequential)
        assert not parallel.all_safe


class TestMemoisation:
    def test_repeat_circuit_is_all_cache_hits(self):
        verifier = BatchVerifier(backend="bdd")
        circuit = fig13_circuit()
        first = verifier.verify_circuit(circuit, [2])
        again = verifier.verify_circuit(circuit, [2])
        assert first.cache_misses == 1 and first.cache_hits == 0
        assert again.cache_hits == 1 and again.cache_misses == 0
        assert verdict_tuples(first) == verdict_tuples(again)
        assert verifier.cache_hits == 1 and verifier.cache_misses == 1

    def test_equal_circuits_share_verdicts_across_objects(self):
        verifier = BatchVerifier(backend="cdcl")
        a = fig13_circuit()
        b = fig13_circuit()  # distinct object, same fingerprint
        assert a.fingerprint() == b.fingerprint()
        verifier.verify_circuit(a, [2])
        report = verifier.verify_circuit(b, [2])
        assert report.cache_hits == 1

    def test_dedup_within_one_batch(self):
        verifier = BatchVerifier(backend="bdd")
        circuit = fig13_circuit()
        reports = verifier.verify_circuits(
            [(circuit, [2]), (circuit, [2]), (circuit, [0, 2])]
        )
        assert [r.cache_misses for r in reports] == [1, 0, 1]
        assert [r.cache_hits for r in reports] == [0, 1, 1]

    def test_shared_external_cache(self):
        cache = {}
        BatchVerifier(backend="bdd", cache=cache).verify_circuit(
            fig13_circuit(), [2]
        )
        report = BatchVerifier(backend="bdd", cache=cache).verify_circuit(
            fig13_circuit(), [2]
        )
        assert report.cache_hits == 1

    def test_different_backend_not_conflated(self):
        verifier = BatchVerifier()
        circuit = fig13_circuit()
        verifier.verify_circuit(circuit, [2], backend="bdd")
        report = verifier.verify_circuit(circuit, [2], backend="cdcl")
        assert report.cache_misses == 1
        assert report.backend == "cdcl"

    def test_cached_unsafe_verdict_still_replays(self):
        verifier = BatchVerifier(backend="cdcl")
        circuit = Circuit(2).append(x(1))
        first = verifier.verify_circuit(circuit, [1])
        again = verifier.verify_circuit(circuit, [1])
        for report in (first, again):
            cex = report.verdicts[0].counterexample
            assert cex is not None and cex.kind == "zero-restoration"


class TestApi:
    def test_job_normalisation_and_mixed_backends(self):
        verifier = BatchVerifier(backend="bdd")
        jobs = [
            (fig13_circuit(), [2]),
            VerificationJob(Circuit(2).append(x(1)), (1,), backend="cdcl"),
        ]
        reports = verifier.verify_circuits(jobs)
        assert [r.backend for r in reports] == ["bdd", "cdcl"]
        assert reports[0].all_safe and not reports[1].all_safe

    def test_empty_batch(self):
        assert BatchVerifier().verify_circuits([]) == []

    def test_out_of_range_qubit(self):
        with pytest.raises(VerificationError):
            BatchVerifier().verify_circuit(fig13_circuit(), [9])

    def test_bad_max_workers(self):
        with pytest.raises(VerificationError):
            BatchVerifier(max_workers=0)

    def test_simplify_xor_ablation_keyed_separately(self):
        cache = {}
        BatchVerifier(backend="cdcl", cache=cache).verify_circuit(
            fig13_circuit(), [2]
        )
        report = BatchVerifier(
            backend="cdcl", simplify_xor=False, cache=cache
        ).verify_circuit(fig13_circuit(), [2])
        assert report.cache_misses == 1  # not a hit: different tracking

    def test_report_timings(self):
        report = BatchVerifier(backend="bdd", max_workers=1).verify_circuit(
            fig13_circuit(), [2]
        )
        assert report.total_seconds >= report.solver_seconds >= 0
        assert report.track_seconds >= 0
        # A fresh verifier compiles the circuit's BDD inside the call.
        assert report.build_seconds > 0
        assert (
            report.track_seconds + report.build_seconds + report.solver_seconds
            <= report.total_seconds
        )


class TestFingerprint:
    def test_fingerprint_sensitive_to_gates_labels_width(self):
        base = fig13_circuit()
        assert base.fingerprint() == fig13_circuit().fingerprint()
        wider = Circuit(6, labels=["q1", "q2", "a", "q3", "q4", "e"]).extend(
            base.gates
        )
        assert base.fingerprint() != wider.fingerprint()
        relabeled = Circuit(5, labels=["z1", "q2", "a", "q3", "q4"]).extend(
            base.gates
        )
        assert base.fingerprint() != relabeled.fingerprint()
        shorter = Circuit(5, base.gates[:-1], labels=base.labels)
        assert base.fingerprint() != shorter.fingerprint()

    def test_label_concatenation_not_ambiguous(self):
        a = Circuit(2, labels=["al", "x"])
        b = Circuit(2, labels=["a", "lx"])
        assert a.fingerprint() != b.fingerprint()


class TestClear:
    def test_clear_drops_memoised_state(self):
        verifier = BatchVerifier(backend="bdd")
        verifier.verify_circuit(fig13_circuit(), [2])
        verifier.clear()
        report = verifier.verify_circuit(fig13_circuit(), [2])
        assert report.cache_misses == 1 and report.cache_hits == 0
