"""The scheduler and verifier surface that no workload or benchmark row
used is gone: whole-residency lending, the restore-check and model-memo
knobs, the per-admission packer, the ``FleetService`` burst buffer,
the verifier's thread pool with its ``executor=`` and scheduler
``max_workers=`` knobs, the clean-wire checker's own backend dispatch
(``repro.verify.clean``), the fleet's per-shard queues with their
wall-clock deadlines, injectable clock, built-in invariant check and
the scheduler's ``drain``/``queue_entry`` hooks they needed, the
per-shard strategy, lending and packer fields of ``ShardSpec``, the
lookahead-policy registry with its ``adaptive`` policy, the verifier's
process pool and disk verdict cache (``repro.verify.cache``) with their
``max_workers=``, ``cache=`` and ``cache_path=`` knobs, four exports
nothing called (``permutation_of``, ``solve_cnf``,
``random_product_density`` and ``StuckProgramError``), the
parse-while-allocate stack (the streaming allocator, prefix admission
with its ``stats()`` counters, and the gate iterators of both
readers), the gate-at-a-time conflict-model engine, and the
``borrow_dirty_qubits`` façade with ``allocate``'s ``segmented=`` and
``segment_check=`` pass-throughs.  Each now fails loudly instead of
being silently accepted."""

import importlib
import threading

import pytest

import repro
import repro.alloc
import repro.alloc.model
import repro.circuits
import repro.circuits.intervals
import repro.lang.surface
import repro.multiprog
import repro.verify
from repro.alloc import allocate, build_model
from repro.circuits import Circuit, cnot, x
from repro.errors import CircuitError
from repro.multiprog import FleetRouter, MultiProgrammer, QuantumJob, ShardSpec
from repro.multiprog.scheduler import LENDING_MODES
from repro.verify import BatchVerifier
from tests.conftest import fig13_circuit


def test_lending_modes_are_segmented_and_windowed():
    assert LENDING_MODES == ("segmented", "windowed")
    with pytest.raises(CircuitError, match="lending"):
        MultiProgrammer(4, lending="whole")


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiProgrammer(4, restore_check="solver"),
        lambda: MultiProgrammer(4, memoise_models=False),
        lambda: FleetRouter([4], memoise_models=False),
        lambda: ShardSpec(4, restore_check="solver"),
        lambda: BatchVerifier(executor="thread"),
        lambda: MultiProgrammer(4, max_workers=2),
        lambda: FleetRouter([4], max_workers=2),
        lambda: FleetRouter([4], clock=lambda: 0.0),
        lambda: FleetRouter([4], check_invariants=True),
        lambda: ShardSpec(4, queue_policy="fifo"),
        lambda: ShardSpec(4, lending="segmented"),
        lambda: BatchVerifier(max_workers=2),
        lambda: BatchVerifier(cache={}),
        lambda: BatchVerifier(cache_path="verdicts.json"),
        lambda: MultiProgrammer(4, cache_path="verdicts.json"),
        lambda: FleetRouter([4], cache_path="verdicts.json"),
    ],
    ids=[
        "restore_check",
        "memoise_models",
        "fleet_memoise_models",
        "shard_spec",
        "executor",
        "max_workers",
        "fleet_max_workers",
        "fleet_clock",
        "fleet_check_invariants",
        "shard_queue_policy",
        "shard_lending",
        "verifier_max_workers",
        "verifier_cache",
        "verifier_cache_path",
        "cache_path",
        "fleet_cache_path",
    ],
)
def test_retired_constructor_options_raise(build):
    with pytest.raises(TypeError):
        build()


def test_retired_call_options_raise():
    mp = MultiProgrammer(6)
    job = QuantumJob("j", Circuit(1).extend([x(0)]), [])
    with pytest.raises(TypeError):
        mp.admit(job, packer="best-fit")
    assert mp.residents == ()


def test_fleet_deadlines_and_shard_queue_hooks_are_gone():
    router = FleetRouter([4])
    job = QuantumJob("j", Circuit(1).extend([x(0)]), [])
    with pytest.raises(TypeError):
        router.submit(job, deadline_s=1.0)
    assert router.events == 0
    assert not hasattr(MultiProgrammer, "drain")
    assert not hasattr(MultiProgrammer, "queue_entry")


def test_lookahead_policies_are_gone():
    for name in (
        "LookaheadPolicy",
        "FixedLookahead",
        "AdaptiveLookahead",
        "register_lookahead",
        "make_lookahead_policy",
        "lookahead_policy_class",
        "available_lookahead_policies",
    ):
        assert not hasattr(repro.alloc, name), name


@pytest.mark.parametrize(
    "owner, name",
    [
        (repro.alloc, "StreamingAllocator"),
        (repro.alloc, "StreamingStats"),
        (repro.alloc, "stream_allocate"),
        (MultiProgrammer, "admit_stream"),
        (repro.multiprog, "StreamAdmission"),
        (repro.lang.surface, "iter_program"),
        (repro.lang.surface, "ProgramStream"),
        (repro.circuits, "iter_qasm_gates"),
        (repro.circuits, "QasmStream"),
    ],
)
def test_parse_while_allocate_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_streaming_module_and_counters_are_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.alloc.streaming")
    mp = MultiProgrammer(4)
    mp.admit(QuantumJob("j", Circuit(1).extend([x(0)]), []))
    assert "streaming" not in mp.stats()


@pytest.mark.parametrize(
    "owner, name",
    [
        (repro.alloc, "IncrementalConflictModel"),
        (repro.alloc.model, "IncrementalConflictModel"),
        (repro.circuits, "IncrementalTouchIndex"),
        (repro.circuits.intervals, "IncrementalTouchIndex"),
        (repro.circuits, "RestoreScan"),
        (repro.circuits.intervals, "RestoreScan"),
        (repro.circuits, "BorrowPlan"),
        (repro.circuits, "borrow_dirty_qubits"),
        (repro, "borrow_dirty_qubits"),
    ],
)
def test_incremental_engine_and_facade_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_borrowing_module_is_gone_and_alloc_keeps_the_plan_types():
    with pytest.raises(ImportError):
        importlib.import_module("repro.circuits.borrowing")
    assert repro.alloc.BorrowPlan.__module__ == "repro.alloc.api"
    assert {"BorrowPlan", "SafetyCheck"} <= set(repro.alloc.__all__)


@pytest.mark.parametrize("option", ["segmented", "segment_check"])
def test_allocate_window_options_are_gone(option):
    circuit = Circuit(3).extend([cnot(0, 2), cnot(0, 2)])
    with pytest.raises(TypeError):
        allocate(circuit, [2], **{option: True})
    # A segmented plan comes from a segmented model instead.
    model = build_model(circuit, [2], segmented=True)
    assert allocate(circuit, [2], model=model).assignment == {2: 1}


def test_service_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.multiprog.service")


def test_clean_dispatch_is_gone():
    # Clean wires are checked through BatchVerifier (verify_clean_wires).
    with pytest.raises(ImportError):
        importlib.import_module("repro.verify.clean")
    with pytest.raises(ImportError):
        from repro.verify import check_clean_uncomputation  # noqa: F401


def test_verifier_pool_and_disk_cache_are_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.verify.cache")
    assert not hasattr(BatchVerifier, "close")
    assert not hasattr(repro.verify, "DiskVerdictCache")


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.circuits", "permutation_of"),
        ("repro.circuits.classical", "permutation_of"),
        ("repro.sat.cdcl", "solve_cnf"),
        ("repro.linalg", "random_product_density"),
        ("repro.linalg.random", "random_product_density"),
        ("repro.errors", "StuckProgramError"),
    ],
)
def test_unused_exports_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_default_verifiers_start_no_thread(monkeypatch):
    """Every engine holds the GIL, so a default verifier checks in the
    caller's thread: a multi-circuit batch on the default verifier of
    ``BatchVerifier``, ``MultiProgrammer`` and ``FleetRouter`` starts
    no thread (a pool joined before the call returns would leave
    ``threading.enumerate()`` unchanged, so starts are counted too)."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    unsafe = Circuit(3).extend([x(1), cnot(0, 2), cnot(0, 2)])
    jobs = [(fig13_circuit(), [2]), (unsafe, [1, 2])]
    before = threading.enumerate()
    verifiers = (
        BatchVerifier(),
        MultiProgrammer(4).verifier,
        FleetRouter([4]).verifier,
    )
    for verifier in verifiers:
        reports = verifier.verify_circuits(jobs)
        assert [r.cache_misses for r in reports] == [1, 2]
        assert [v.safe for r in reports for v in r.verdicts] == [
            True,
            False,
            True,
        ]
    assert threading.enumerate() == before
    assert started == []
