"""Tests for the disk-persistent verdict cache."""

import json

import pytest

from repro.circuits import Circuit, cnot, toffoli, x
from repro.errors import VerificationError
from repro.verify import BatchVerifier, DiskVerdictCache
from tests.conftest import fig31_circuit


def safe_circuit():
    return fig31_circuit()


def unsafe_circuit():
    return Circuit(3).extend([cnot(0, 1), x(2), toffoli(0, 1, 2)])


class TestPersistence:
    def test_verdicts_survive_the_process_boundary(self, tmp_path):
        path = str(tmp_path / "verdicts.json")
        first = BatchVerifier(backend="bdd", cache_path=path)
        report = first.verify_circuit(safe_circuit(), [5, 6])
        assert report.all_safe
        assert first.cache_misses == 2

        # A brand-new verifier (fresh process, same file) is all hits.
        second = BatchVerifier(backend="bdd", cache_path=path)
        report = second.verify_circuit(safe_circuit(), [5, 6])
        assert report.all_safe
        assert second.cache_misses == 0
        assert second.cache_hits == 2

    def test_unsafe_counterexample_round_trips(self, tmp_path):
        path = str(tmp_path / "verdicts.json")
        first = BatchVerifier(backend="bdd", cache_path=path)
        report = first.verify_circuit(unsafe_circuit(), [2])
        assert not report.all_safe

        # Replay of the cached counterexample must still validate on
        # the simulator in the second process.
        second = BatchVerifier(backend="bdd", cache_path=path)
        report = second.verify_circuit(unsafe_circuit(), [2])
        assert not report.all_safe
        assert second.cache_misses == 0
        verdict = report.verdicts[0]
        assert verdict.counterexample is not None

    def test_different_backend_is_a_miss(self, tmp_path):
        path = str(tmp_path / "verdicts.json")
        BatchVerifier(backend="bdd", cache_path=path).verify_circuit(
            safe_circuit(), [5]
        )
        other = BatchVerifier(backend="cdcl", cache_path=path)
        other.verify_circuit(safe_circuit(), [5])
        assert other.cache_misses == 1

    def test_cache_and_cache_path_mutually_exclusive(self, tmp_path):
        with pytest.raises(VerificationError):
            BatchVerifier(cache={}, cache_path=str(tmp_path / "v.json"))


class TestCorruption:
    def test_garbage_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "verdicts.json"
        path.write_text("{not json at all")
        cache = DiskVerdictCache(str(path))
        assert len(cache) == 0
        assert "unreadable" in cache.load_error

        # The verifier still works and repairs the file.
        verifier = BatchVerifier(backend="bdd", cache=cache)
        verifier.verify_circuit(safe_circuit(), [5])
        assert verifier.cache_misses == 1
        repaired = DiskVerdictCache(str(path))
        assert repaired.load_error is None
        assert len(repaired) == 1

    def test_wrong_schema_discarded(self, tmp_path):
        path = tmp_path / "verdicts.json"
        path.write_text(json.dumps({"schema": "other/v9", "verdicts": {}}))
        cache = DiskVerdictCache(str(path))
        assert len(cache) == 0
        assert "schema" in cache.load_error

    def test_v1_file_discarded(self, tmp_path):
        # v1 keys lack the clean flag, so a v1 verdict could answer a
        # clean wire's (6.1)-only question with a dirty verdict or back.
        path = tmp_path / "verdicts.json"
        verdicts = {"fp:0:bdd:1": {"qubit": 0, "safe": True}}
        path.write_text(
            json.dumps({"schema": "verdict-cache/v1", "verdicts": verdicts})
        )
        cache = DiskVerdictCache(str(path))
        assert len(cache) == 0
        assert "schema" in cache.load_error

    def test_malformed_payload_discarded(self, tmp_path):
        path = tmp_path / "verdicts.json"
        path.write_text(
            json.dumps(
                {"schema": "verdict-cache/v2", "verdicts": {"bad-key": {}}}
            )
        )
        cache = DiskVerdictCache(str(path))
        assert len(cache) == 0
        assert "malformed" in cache.load_error

    def test_missing_file_is_fine(self, tmp_path):
        cache = DiskVerdictCache(str(tmp_path / "nope" / "verdicts.json"))
        assert len(cache) == 0
        assert cache.load_error is None


class TestMappingContract:
    def test_mutable_mapping_operations(self, tmp_path):
        from repro.verify.backends.base import BooleanCheckOutcome

        path = str(tmp_path / "verdicts.json")
        cache = DiskVerdictCache(path)
        key = ("fp", 3, "bdd", True, False)
        cache[key] = BooleanCheckOutcome(qubit=3, safe=True)
        assert key in cache
        assert len(cache) == 1
        assert list(cache) == [key]

        reloaded = DiskVerdictCache(path)
        assert reloaded[key].safe is True
        del reloaded[key]
        assert len(DiskVerdictCache(path)) == 0

    def test_clear_persists(self, tmp_path):
        from repro.verify.backends.base import BooleanCheckOutcome

        path = str(tmp_path / "verdicts.json")
        cache = DiskVerdictCache(path)
        cache[("fp", 0, "bdd", True, False)] = BooleanCheckOutcome(
            qubit=0, safe=True
        )
        cache.clear()
        assert len(DiskVerdictCache(path)) == 0

    def test_batch_of_misses_flushes_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "verdicts.json")
        cache = DiskVerdictCache(path)
        writes = []
        original = DiskVerdictCache.flush

        def counting_flush(self):
            writes.append(1)
            original(self)

        monkeypatch.setattr(DiskVerdictCache, "flush", counting_flush)
        verifier = BatchVerifier(backend="bdd", cache=cache)
        verifier.verify_circuit(safe_circuit(), [5, 6])
        assert verifier.cache_misses == 2
        assert sum(writes) == 1  # one write for the whole batch

    def test_autosave_off_until_flush(self, tmp_path):
        from repro.verify.backends.base import BooleanCheckOutcome

        path = str(tmp_path / "verdicts.json")
        cache = DiskVerdictCache(path, autosave=False)
        cache[("fp", 0, "bdd", True, False)] = BooleanCheckOutcome(
            qubit=0, safe=True
        )
        assert len(DiskVerdictCache(path)) == 0
        cache.flush()
        assert len(DiskVerdictCache(path)) == 1


class TestConcurrentWriters:
    """Two verifiers sharing one cache_path must not clobber each other:
    a flush is a read-merge-write under an advisory lock, so the store
    converges on the union of everyone's verdicts."""

    def test_interleaved_stores_merge_instead_of_clobbering(self, tmp_path):
        from repro.verify.backends.base import BooleanCheckOutcome

        path = str(tmp_path / "verdicts.json")
        first = DiskVerdictCache(path)
        second = DiskVerdictCache(path)  # opened before first stores
        first[("fp1", 0, "bdd", True, False)] = BooleanCheckOutcome(
            qubit=0, safe=True
        )
        second[("fp2", 0, "bdd", True, False)] = BooleanCheckOutcome(
            qubit=0, safe=False
        )
        final = DiskVerdictCache(path)
        assert final.load_error is None
        assert len(final) == 2  # the classic lost update
        assert final[("fp1", 0, "bdd", True, False)].safe is True
        assert final[("fp2", 0, "bdd", True, False)].safe is False

    def test_deleted_key_not_resurrected_by_merge(self, tmp_path):
        from repro.verify.backends.base import BooleanCheckOutcome

        path = str(tmp_path / "verdicts.json")
        cache = DiskVerdictCache(path)
        key = ("fp", 0, "bdd", True, False)
        cache[key] = BooleanCheckOutcome(qubit=0, safe=True)
        del cache[key]  # the merge pass must honour the tombstone
        assert len(DiskVerdictCache(path)) == 0

    def test_clear_wipes_despite_other_writers(self, tmp_path):
        from repro.verify.backends.base import BooleanCheckOutcome

        path = str(tmp_path / "verdicts.json")
        first = DiskVerdictCache(path)
        second = DiskVerdictCache(path)
        second[("fp2", 0, "bdd", True, False)] = BooleanCheckOutcome(
            qubit=0, safe=True
        )
        first.clear()  # a wipe is a wipe, not a merge
        assert len(DiskVerdictCache(path)) == 0

    def test_two_batch_verifiers_share_one_path(self, tmp_path):
        path = str(tmp_path / "verdicts.json")
        first = BatchVerifier(backend="bdd", cache_path=path)
        second = BatchVerifier(backend="bdd", cache_path=path)
        # Interleave: each verifier flushes while the other's verdicts
        # are already on disk.
        first.verify_circuit(safe_circuit(), [5])
        second.verify_circuit(unsafe_circuit(), [2])
        first.verify_circuit(safe_circuit(), [6])

        merged = DiskVerdictCache(path)
        assert merged.load_error is None
        assert len(merged) == 3
        # A third process sees everything as hits.
        third = BatchVerifier(backend="bdd", cache_path=path)
        third.verify_circuit(safe_circuit(), [5, 6])
        third.verify_circuit(unsafe_circuit(), [2])
        assert third.cache_misses == 0
        assert third.cache_hits == 3

    def test_threaded_writers_converge_on_union(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        from repro.verify.backends.base import BooleanCheckOutcome

        path = str(tmp_path / "verdicts.json")
        caches = [DiskVerdictCache(path) for _ in range(4)]

        def hammer(index):
            cache = caches[index]
            for step in range(10):
                key = (f"fp{index}", step, "bdd", True, False)
                cache[key] = BooleanCheckOutcome(qubit=step, safe=True)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, range(4)))

        final = DiskVerdictCache(path)
        assert final.load_error is None  # never torn, never malformed
        assert len(final) == 40  # no writer lost a single verdict


class TestSchedulerIntegration:
    def test_multiprogrammer_cache_path(self, tmp_path):
        from repro.multiprog import (
            BorrowRequest,
            MultiProgrammer,
            QuantumJob,
        )
        from repro.mcx import cccnot_with_dirty_ancilla

        def job():
            circuit = Circuit(5).extend(
                cccnot_with_dirty_ancilla([0, 1, 3], 4, 2)
            )
            return QuantumJob("alpha", circuit, [BorrowRequest(2)])

        path = str(tmp_path / "scheduler-verdicts.json")
        first = MultiProgrammer(10, cache_path=path)
        first.schedule([job()])
        assert first.verifier.cache_misses == 1

        second = MultiProgrammer(10, cache_path=path)
        second.schedule([job()])
        assert second.verifier.cache_misses == 0
        assert second.verifier.cache_hits == 1
