"""Tests for the batch verification engine (repro.verify.batch)."""

import pytest

from repro.circuits import Circuit, cnot, x
from repro.errors import VerificationError
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.testing.generators import random_reversible_circuit
from repro.verify import (
    BatchVerifier,
    VerificationJob,
    available_backends,
)
from tests.conftest import fig13_circuit


def adder_program(n=14):
    return elaborate(adder_qbr_source(n))


def verdict_tuples(report):
    return [
        (v.qubit, v.name, v.safe, v.failed_condition) for v in report.verdicts
    ]


def unsafe_circuit():
    """Wire 1 is restored, wire 2 is flipped (fails (6.1)) and wire 3
    steers wire 0 (fails (6.2))."""
    return Circuit(4, labels=["w", "d1", "d2", "d3"]).extend(
        [cnot(0, 1), cnot(0, 1), x(2), cnot(3, 0)]
    )


def one_wire_at_a_time(circuit, qubits, **options):
    """The verdicts of a fresh verifier per wire: no shared tracking,
    checker or memo between two checks."""
    return [
        verdict
        for qubit in qubits
        for verdict in verdict_tuples(
            BatchVerifier(**options).verify_circuit(circuit, [qubit])
        )
    ]


class TestSharedStateMatchesFresh:
    """A verifier shares one tracked circuit, one checker and one memo
    across every obligation of a call and of later calls; none of that
    sharing may change a verdict against fresh verifiers."""

    @pytest.mark.parametrize("backend", ("bdd", "cdcl"))
    def test_fig63_adder_suite_identical_verdicts(self, backend):
        program = adder_program(8)
        assert len(program.dirty_wires) >= 6
        options = dict(backend=backend, sweep=False)
        shared = BatchVerifier(**options).verify_circuit(
            program.circuit, program.dirty_wires
        )
        assert verdict_tuples(shared) == one_wire_at_a_time(
            program.circuit, program.dirty_wires, **options
        )
        assert shared.all_safe

    @pytest.mark.parametrize("backend", available_backends())
    def test_unsafe_circuit_identical_verdicts(self, backend):
        circuit = unsafe_circuit()
        shared = BatchVerifier(backend=backend).verify_circuit(
            circuit, [1, 2, 3]
        )
        assert verdict_tuples(shared) == one_wire_at_a_time(
            circuit, [1, 2, 3], backend=backend
        )
        assert [v.safe for v in shared.verdicts] == [True, False, False]
        assert all(
            v.counterexample is not None for v in shared.verdicts[1:]
        )

    def test_mixed_batch_matches_one_job_per_call(self):
        jobs = [
            random_reversible_circuit(seed, num_ancillas=2)
            for seed in range(3)
        ] + [random_reversible_circuit(60, num_ancillas=2, spoiled=(5,))]
        reports = BatchVerifier(backend="bitset").verify_circuits(jobs)
        alone = [
            BatchVerifier(backend="bitset").verify_circuits([job])[0]
            for job in jobs
        ]
        assert [verdict_tuples(r) for r in reports] == [
            verdict_tuples(r) for r in alone
        ]
        assert [r.all_safe for r in reports] == [True, True, True, False]


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

    def test_different_backend_not_conflated(self):
        verifier = BatchVerifier()
        circuit = fig13_circuit()
        verifier.verify_circuit(circuit, [2], backend="bdd")
        report = verifier.verify_circuit(circuit, [2], backend="cdcl")
        assert report.cache_misses == 1
        assert report.backend == "cdcl"

    def test_clean_and_dirty_obligations_keyed_apart(self):
        """Wire 0 controls a CNOT: restored from |0> (clean-safe) but
        steering wire 1 when dirty, so a memo that conflated the two
        contracts would hand one of them the wrong verdict."""
        circuit = Circuit(2).append(cnot(0, 1))
        verifier = BatchVerifier(backend="bdd")
        dirty, clean = verifier.verify_circuits(
            [
                VerificationJob(circuit, (0,)),
                VerificationJob(circuit, (), clean_qubits=(0,)),
            ]
        )
        assert (dirty.cache_misses, clean.cache_misses) == (1, 1)
        assert not dirty.all_safe and clean.all_safe
        again = verifier.verify_circuits(
            [VerificationJob(circuit, (), clean_qubits=(0,))]
        )[0]
        assert again.cache_hits == 1 and again.all_safe

    @pytest.mark.parametrize("backend", available_backends())
    def test_simplify_xor_ablation_gives_the_same_verdicts(self, backend):
        """``simplify_xor`` changes the tracked formulas, never a
        verdict, so it stays out of the memo key."""
        jobs = [(fig13_circuit(), [2]), (unsafe_circuit(), [1, 2, 3])]
        plain, bloated = (
            BatchVerifier(backend=backend, simplify_xor=simplify).verify_circuits(
                jobs
            )
            for simplify in (True, False)
        )
        assert [verdict_tuples(r) for r in plain] == [
            verdict_tuples(r) for r in bloated
        ]

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

    @pytest.mark.parametrize("sweep", [True, False], ids=["sweep", "engine"])
    @pytest.mark.parametrize("backend", available_backends())
    def test_report_timings(self, backend, sweep):
        """The stage times of a fresh multi-qubit batch add up to no
        more than its wall time: no obligation's ``solve_seconds``
        overlaps another's."""
        program = adder_program(8)
        assert len(program.dirty_wires) > 1
        report = BatchVerifier(backend=backend, sweep=sweep).verify_circuit(
            program.circuit, program.dirty_wires
        )
        assert report.total_seconds >= report.solver_seconds >= 0
        assert report.track_seconds > 0
        # A fresh verifier builds the circuit's checker inside the call.
        assert report.build_seconds > 0
        assert (report.sweep_seconds > 0) == sweep
        assert report.swept == (len(program.dirty_wires) if sweep else 0)
        assert (
            report.track_seconds
            + report.build_seconds
            + report.sweep_seconds
            + report.solver_seconds
            <= report.total_seconds
        )

    @pytest.mark.parametrize("backend", ["bdd", "cdcl"])
    def test_all_hit_call_reports_no_stage_work(self, backend):
        """A repeated call does no tracking, build, sweep or solving, so
        every stage column reads 0 (mcx m=100 used to report a second
        call's track 12.0 + build 7.3 ms against a 1.7 ms total)."""
        program = elaborate(mcx_qbr_source(100))
        verifier = BatchVerifier(backend=backend)
        first = verifier.verify_circuit(program.circuit, program.dirty_wires)
        again = verifier.verify_circuit(program.circuit, program.dirty_wires)
        assert first.cache_misses == again.cache_hits == 1
        assert first.swept == 1 and first.sweep_seconds > 0
        assert (
            again.track_seconds,
            again.build_seconds,
            again.sweep_seconds,
            again.solver_seconds,
            again.swept,
        ) == (0, 0, 0, 0, 0)
        assert verdict_tuples(again) == verdict_tuples(first)

    def test_shared_circuit_work_is_charged_once(self):
        """Two jobs on one circuit: the first job's miss pays tracking
        and build; the second job's fresh obligation pays only its own
        sweep and engine time, and its repeated one nothing."""
        program = adder_program(8)
        first, second = program.dirty_wires[:2]
        verifier = BatchVerifier(backend="cdcl")
        a, b = verifier.verify_circuits(
            [(program.circuit, [first]), (program.circuit, [first, second])]
        )
        assert a.track_seconds > 0 and a.build_seconds > 0
        assert b.track_seconds == b.build_seconds == 0
        assert (a.swept, b.swept) == (1, 1)
        assert (b.cache_hits, b.cache_misses) == (1, 1)


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

    def test_clear_drops_tracking_and_checkers(self):
        """After ``clear()`` the next miss tracks the circuit and builds
        its checker again: no per-circuit structure outlives it."""
        verifier = BatchVerifier(backend="bdd")
        verifier.verify_circuit(fig13_circuit(), [2])
        verifier.clear()
        report = verifier.verify_circuit(fig13_circuit(), [2])
        assert report.track_seconds > 0 and report.build_seconds > 0
