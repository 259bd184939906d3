"""Differential suites locking in the solver-speed overhaul.

Three fronts, three agreements that must hold exactly:

* the ``bitset`` kernel backend, the old enumeration path of ``brute``
  (``bitset_max_vars=0``) and the ``cdcl`` solver return identical
  verdicts over a seeded corpus of random reversible circuits,
  including deliberately spoiled (known-unsafe) ancillas;
* the incremental probe-based ``cdcl`` backend and its historical
  fresh-instance-per-check mode agree verdict-for-verdict;
* the batch engine's process pool matches the in-process loop,
  including when four process-pool verifiers hammer one shared
  on-disk verdict cache.
"""

import pytest

from repro.circuits import Circuit, cnot, x
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source
from repro.testing.generators import random_reversible_circuit
from repro.verify import BatchVerifier, make_checker, track_circuit, verify_circuit
from repro.verify.backends.brute import BruteCheckerBackend
from repro.verify.backends.cdcl import CdclCheckerBackend

CORPUS = [
    random_reversible_circuit(seed, num_ancillas=2)
    for seed in range(6)
] + [
    random_reversible_circuit(seed + 50, num_ancillas=2, spoiled=(5,))
    for seed in range(4)
]


def verdict_tuples(report):
    return [
        (v.qubit, v.name, v.safe, v.failed_condition) for v in report.verdicts
    ]


class TestBitsetDifferential:
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_bitset_old_brute_and_cdcl_agree(self, index):
        circuit, ancillas = CORPUS[index]
        tracked = track_circuit(circuit)
        bitset = make_checker(tracked, "bitset")
        old_brute = BruteCheckerBackend(tracked, bitset_max_vars=0)
        cdcl = make_checker(tracked, "cdcl")
        for qubit in ancillas:
            reference = old_brute.check_qubit(qubit)
            for checker in (bitset, cdcl):
                outcome = checker.check_qubit(qubit)
                assert outcome.safe == reference.safe, (checker.name, qubit)
                assert outcome.failed_condition == (
                    reference.failed_condition
                ), (checker.name, qubit)

    def test_spoiled_ancillas_actually_flagged(self):
        circuit, ancillas = random_reversible_circuit(
            99, num_ancillas=2, spoiled=(5,)
        )
        tracked = track_circuit(circuit)
        checker = make_checker(tracked, "bitset")
        assert not checker.check_qubit(5).safe
        assert 5 in ancillas


class TestIncrementalMatchesFresh:
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_identical_verdicts_on_corpus(self, index):
        circuit, ancillas = CORPUS[index]
        tracked = track_circuit(circuit)
        incremental = CdclCheckerBackend(tracked, incremental=True)
        fresh = CdclCheckerBackend(tracked, incremental=False)
        for qubit in ancillas:
            a = incremental.check_qubit(qubit)
            b = fresh.check_qubit(qubit)
            assert a.safe == b.safe, qubit
            assert a.failed_condition == b.failed_condition, qubit

    def test_adder_suite_identical_verdicts(self):
        program = elaborate(adder_qbr_source(8))
        tracked = track_circuit(program.circuit)
        incremental = CdclCheckerBackend(tracked, incremental=True)
        fresh = CdclCheckerBackend(tracked, incremental=False)
        for qubit in program.dirty_wires:
            assert (
                incremental.check_qubit(qubit).safe
                == fresh.check_qubit(qubit).safe
            ), qubit


class TestProcessExecutor:
    def test_fig63_adder_matches_sequential(self):
        program = elaborate(adder_qbr_source(8))
        sequential = verify_circuit(
            program.circuit, program.dirty_wires, backend="cdcl"
        )
        with BatchVerifier(backend="cdcl", max_workers=4) as verifier:
            processed = verifier.verify_circuit(
                program.circuit, program.dirty_wires
            )
        assert verdict_tuples(processed) == verdict_tuples(sequential)
        assert processed.all_safe

    def test_unsafe_verdicts_cross_the_process_boundary(self):
        circuit = Circuit(4, labels=["w", "d1", "d2", "d3"]).extend(
            [cnot(0, 1), cnot(0, 1), x(2), cnot(3, 0)]
        )
        sequential = verify_circuit(circuit, [1, 2, 3], backend="cdcl")
        with BatchVerifier(backend="cdcl", max_workers=2) as verifier:
            processed = verifier.verify_circuit(circuit, [1, 2, 3])
        assert verdict_tuples(processed) == verdict_tuples(sequential)
        assert not processed.all_safe
        cex = processed.verdicts[1].counterexample
        assert cex is not None  # counterexamples pickle back intact

    def test_mixed_circuit_batch(self):
        jobs = [
            (circuit, list(ancillas))
            for circuit, ancillas in CORPUS[:4]
        ]
        with BatchVerifier(backend="bitset", max_workers=2) as verifier:
            reports = verifier.verify_circuits(jobs)
        baseline = BatchVerifier(backend="bitset").verify_circuits(jobs)
        assert [verdict_tuples(r) for r in reports] == [
            verdict_tuples(r) for r in baseline
        ]

    def test_memoisation_still_applies(self):
        circuit, ancillas = CORPUS[0]
        with BatchVerifier(backend="cdcl", max_workers=2) as verifier:
            first = verifier.verify_circuit(circuit, list(ancillas))
            again = verifier.verify_circuit(circuit, list(ancillas))
        assert first.cache_misses == len(ancillas)
        assert again.cache_hits == len(ancillas)

    def test_close_is_idempotent_and_pool_restarts(self):
        circuit, ancillas = CORPUS[1]
        verifier = BatchVerifier(backend="cdcl", max_workers=2)
        verifier.verify_circuit(circuit, list(ancillas))
        verifier.close()
        verifier.close()
        # A closed verifier lazily starts a fresh pool on next use.
        report = verifier.verify_circuit(circuit, [ancillas[0]])
        assert report.cache_hits == 1
        verifier.close()


class TestProcessDiskCacheHammer:
    def test_four_process_verifiers_share_one_path(self, tmp_path):
        from repro.verify import DiskVerdictCache

        path = str(tmp_path / "verdicts.json")
        jobs = [
            (circuit, list(ancillas))
            for circuit, ancillas in CORPUS[:4]
        ]
        verifiers = [
            BatchVerifier(backend="cdcl", max_workers=2, cache_path=path)
            for _ in range(4)
        ]
        try:
            # Interleave: every verifier flushes while the others'
            # verdicts are already on disk.
            for step, job in enumerate(jobs):
                for verifier in verifiers[step % 2 :: 2]:
                    verifier.verify_circuit(*job)
        finally:
            for verifier in verifiers:
                verifier.close()

        merged = DiskVerdictCache(path)
        assert merged.load_error is None
        expected = sum(len(qubits) for _, qubits in jobs)
        assert len(merged) == expected
        # A late reader sees every verdict as a hit, no solver runs.
        late = BatchVerifier(backend="cdcl", cache_path=path)
        for job in jobs:
            late.verify_circuit(*job)
        assert late.cache_misses == 0

    def test_workers_share_the_disk_cache_mid_batch(self, tmp_path):
        """Two process-pool verifiers on one path converge through
        their *workers'* chunk flushes alone: neither parent cache ever
        flushes (``autosave=False``, no ``flush()`` call), yet the
        second verifier's workers find the first's verdicts on disk —
        cross-process hits before any parent flush boundary."""
        from repro.verify import DiskVerdictCache

        path = str(tmp_path / "verdicts.json")
        program = elaborate(adder_qbr_source(8))
        dirty = list(program.dirty_wires)

        first = BatchVerifier(
            backend="cdcl",
            max_workers=2,
            cache=DiskVerdictCache(path, autosave=False),
        )
        second = BatchVerifier(
            backend="cdcl",
            max_workers=2,
            cache=DiskVerdictCache(path, autosave=False),
        )
        try:
            baseline = first.verify_circuit(program.circuit, dirty)
            hammered = second.verify_circuit(program.circuit, dirty)
        finally:
            first.close()
            second.close()
        assert verdict_tuples(hammered) == verdict_tuples(baseline)
        # Every one of the second verifier's checks was already on
        # disk, put there by the first verifier's worker processes.
        assert second.worker_disk_hits == len(dirty)
        # The file's contents came from workers, not a parent flush.
        merged = DiskVerdictCache(path)
        assert len(merged) == len(dirty)
