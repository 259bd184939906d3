"""The streaming allocator's differential and soundness contracts.

Three invariants from the module contract, replayed over seeded random
circuits and hand-built adversarial streams:

* **∞-lookahead differential** — ``stream_allocate(lookahead=None)``
  equals offline ``allocate(strategy="greedy")`` gate-for-gate
  (assignment, unplaced, notes, windows, rewritten circuit), spoiled
  and segmented corpora included; any finite ``K >= len(gates)`` is
  equivalent to ∞.
* **Per-prefix soundness** — at every stream point, for every horizon,
  the current placement passes ``validate_placement`` against the
  current prefix's model; the incremental model itself equals a fresh
  ``build_model`` of the prefix.
* **Revision accounting** — tentative placements displaced inside the
  horizon count as rollbacks; committed placements broken by a
  post-horizon reactivation are revoked to unplaced (never left
  unsound) and counted.  The bench corpus pins the exact totals at
  ``K=0`` and ``K=8`` (the horizon ``admit_stream`` runs).
"""

import pytest

from repro.alloc import (
    StreamingAllocator,
    allocate,
    build_model,
    stream_allocate,
    validate_placement,
)
from repro.circuits import Circuit, cnot, x
from repro.errors import CircuitError
from repro.testing import random_reversible_circuit

SEEDS = range(100, 112)
LOOKAHEADS = (0, 2, 8, None)
#: The 20-circuit corpus of the ``streaming`` bench section.
BENCH_SEEDS = range(100, 120)


def corpus_case(seed, spoiled=()):
    return random_reversible_circuit(
        seed,
        num_data=6,
        num_ancillas=3,
        segment_gates=4,
        middle_gates=8,
        spoiled=spoiled,
    )


def plans_equal(streamed, offline):
    assert streamed.assignment == offline.assignment
    assert streamed.unplaced == offline.unplaced
    assert streamed.notes == offline.notes
    assert streamed.windows == offline.windows
    assert streamed.final_width == offline.final_width
    assert streamed.circuit.fingerprint() == offline.circuit.fingerprint()


class TestInfinityEqualsGreedy:
    """The differential contract: ∞-lookahead == offline greedy."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain_corpus(self, seed):
        circuit, ancillas = corpus_case(seed)
        streamed = stream_allocate(circuit, ancillas)
        offline = allocate(circuit, ancillas, strategy="greedy")
        plans_equal(streamed, offline)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spoiled_corpus(self, seed):
        """Spoiled (unsafe) ancillas never segment and often go
        unplaced — the note streams must still match."""
        circuit, ancillas = corpus_case(seed, spoiled=(6,))  # first ancilla
        streamed = stream_allocate(circuit, ancillas)
        offline = allocate(circuit, ancillas, strategy="greedy")
        plans_equal(streamed, offline)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segmented_corpus(self, seed):
        circuit, ancillas = corpus_case(seed)
        streamed = stream_allocate(circuit, ancillas, segmented=True)
        offline = allocate(
            circuit, ancillas, strategy="greedy", segmented=True
        )
        plans_equal(streamed, offline)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_horizon_past_stream_end_equals_infinity(self, seed):
        """Any K >= len(gates) can never commit mid-stream, so the plan
        must equal the ∞ (and hence the offline) plan."""
        circuit, ancillas = corpus_case(seed)
        streamed = stream_allocate(
            circuit, ancillas, lookahead=len(circuit.gates)
        )
        offline = allocate(circuit, ancillas, strategy="greedy")
        plans_equal(streamed, offline)

    def test_float_infinity_normalises_to_none(self):
        allocator = StreamingAllocator(4, [3], lookahead=float("inf"))
        assert allocator.lookahead is None
        assert allocator.name == "streaming(lookahead=inf)"


class TestPerPrefixSoundness:
    """validate_placement holds at *every* stream point, and the
    incremental model never drifts from a fresh offline build."""

    @pytest.mark.parametrize("lookahead", LOOKAHEADS)
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_every_stream_point_validates(self, seed, lookahead):
        circuit, ancillas = corpus_case(seed)
        allocator = StreamingAllocator(
            circuit.num_qubits,
            ancillas,
            lookahead=lookahead,
            labels=circuit.labels,
        )
        for gate in circuit.gates:
            allocator.feed(gate)
            validate_placement(allocator.model(), allocator.placement())
        plan = allocator.close()
        validate_placement(allocator.model(), allocator.placement())
        assert plan.final_width <= circuit.num_qubits

    @pytest.mark.parametrize("segmented", [False, True])
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_incremental_model_equals_offline_at_prefixes(
        self, seed, segmented
    ):
        circuit, ancillas = corpus_case(seed)
        allocator = StreamingAllocator(
            circuit.num_qubits,
            ancillas,
            segmented=segmented,
            labels=circuit.labels,
        )
        for i, gate in enumerate(circuit.gates):
            allocator.feed(gate)
            if i % 5 and i != len(circuit.gates) - 1:
                continue  # every 5th prefix plus both ends
            snapshot = allocator.model()
            prefix = Circuit(circuit.num_qubits, labels=circuit.labels)
            prefix.extend(circuit.gates[: i + 1])
            offline = build_model(prefix, ancillas, segmented=segmented)
            assert snapshot.windows == offline.windows
            assert snapshot.periods == offline.periods
            assert snapshot.candidates == offline.candidates
            assert snapshot.conflicts == offline.conflicts
            assert snapshot.untouched == offline.untouched
            assert (
                snapshot.circuit.fingerprint() == prefix.fingerprint()
            )

    def test_snapshot_is_stable_under_further_feeding(self):
        circuit, ancillas = corpus_case(SEEDS[0])
        allocator = StreamingAllocator(
            circuit.num_qubits, ancillas, labels=circuit.labels
        )
        half = len(circuit.gates) // 2
        for gate in circuit.gates[:half]:
            allocator.feed(gate)
        frozen = allocator.model()
        before = (len(frozen.circuit), dict(frozen.windows))
        for gate in circuit.gates[half:]:
            allocator.feed(gate)
        assert len(frozen.circuit) == before[0]
        assert frozen.windows == before[1]


class TestRevisionAccounting:
    """Rollbacks (tentative) and revocations (committed) are observable
    and leave the stream sound."""

    def test_tentative_rollback_on_host_conflict(self):
        """Wire 3 is first placed on host 0; host 0 then turns busy
        inside the grown window, so the buffered decision rolls back to
        host 2 — nothing was emitted, only the suffix moved."""
        allocator = StreamingAllocator(4, [3])  # lookahead=∞
        allocator.feed(cnot(1, 3))
        assert allocator.tentative() == {3: 0}
        allocator.feed(x(0))  # host 0 busy — window not yet grown
        assert allocator.tentative() == {3: 0}
        allocator.feed(cnot(1, 3))  # window [0,2] now covers gate 1
        assert allocator.tentative() == {3: 2}
        assert allocator.stats.rollbacks == 1
        assert allocator.stats.revocations == 0
        plan = allocator.close()
        assert plan.assignment == {3: 2}
        offline = allocate(
            Circuit(4).extend([cnot(1, 3), x(0), cnot(1, 3)]),
            [3],
            strategy="greedy",
        )
        assert plan.assignment == offline.assignment

    def test_committed_placement_revoked_on_reactivation(self):
        """With K=1 the placement goes final one gate after the last
        touch; a later reactivation that breaks it is revoked to
        unplaced — sound, never silently wrong."""
        allocator = StreamingAllocator(4, [3], lookahead=1)
        allocator.feed(cnot(1, 3))
        assert allocator.committed() == {}
        allocator.feed(x(0))  # horizon reached: commit 3 -> host 0
        assert allocator.committed() == {3: 0}
        allocator.feed(cnot(1, 3))  # window grows over gate 1: conflict
        assert allocator.committed() == {3: None}
        assert allocator.stats.revocations == 1
        plan = allocator.close()
        assert plan.assignment == {}
        assert plan.unplaced == [3]
        assert any("revoked" in note for note in plan.notes)
        validate_placement(allocator.model(), allocator.placement())

    def test_unbroken_commitment_survives_reactivation(self):
        """A reactivation that stays compatible keeps its host."""
        allocator = StreamingAllocator(4, [3], lookahead=1)
        allocator.feed(cnot(1, 3))
        allocator.feed(x(1))  # commit 3 -> host 0; host untouched
        assert allocator.committed() == {3: 0}
        allocator.feed(cnot(1, 3))
        assert allocator.committed() == {3: 0}
        assert allocator.stats.revocations == 0
        plan = allocator.close()
        assert plan.assignment == {3: 0}

    def test_lookahead_zero_commits_at_first_sight(self):
        allocator = StreamingAllocator(4, [3], lookahead=0)
        assert allocator.name == "streaming(lookahead=0)"
        allocator.feed(cnot(1, 3))
        assert allocator.committed() == {3: 0}
        assert allocator.tentative() == {}
        assert allocator.stats.commits == 1

    @pytest.mark.parametrize(
        "lookahead, totals",
        [
            # width, rollbacks, revocations, replans
            (0, (128, 0, 8, 440)),
            (8, (120, 8, 0, 466)),
        ],
    )
    def test_bench_corpus_totals(self, lookahead, totals):
        """Commit at first sight revokes; a horizon of 8 rolls back
        instead, and reaches the offline width (120)."""
        width = rollbacks = revocations = replans = 0
        for seed in BENCH_SEEDS:
            circuit, ancillas = corpus_case(seed)
            allocator = StreamingAllocator(
                circuit.num_qubits, ancillas, lookahead=lookahead
            )
            allocator.extend(circuit.gates)
            width += allocator.close().final_width
            stats = allocator.stats.as_dict()
            rollbacks += stats["rollbacks"]
            revocations += stats["revocations"]
            replans += stats["replans"]
        assert (width, rollbacks, revocations, replans) == totals

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_stats_gate_count_and_commit_totals(self, seed):
        circuit, ancillas = corpus_case(seed)
        allocator = StreamingAllocator(
            circuit.num_qubits, ancillas, lookahead=4
        )
        for gate in circuit.gates:
            allocator.feed(gate)
        allocator.close()
        assert allocator.stats.gates == len(circuit.gates)
        assert allocator.stats.commits == len(allocator.committed())
        assert allocator.stats.as_dict()["gates"] == len(circuit.gates)


class TestStreamLifecycle:
    def test_feed_after_close_raises(self):
        allocator = StreamingAllocator(4, [3])
        allocator.feed(cnot(1, 3))
        allocator.close()
        with pytest.raises(CircuitError, match="closed stream"):
            allocator.feed(x(0))

    def test_close_is_idempotent(self):
        allocator = StreamingAllocator(4, [3])
        allocator.feed(cnot(1, 3))
        assert allocator.close() is allocator.close()

    @pytest.mark.parametrize("bad", [-1, 2.5, "soon"])
    def test_bad_lookahead_raises(self, bad):
        with pytest.raises(CircuitError, match="lookahead"):
            StreamingAllocator(4, [3], lookahead=bad)

    def test_extend_matches_per_gate_feeding(self):
        circuit, ancillas = corpus_case(SEEDS[0])
        one = StreamingAllocator(
            circuit.num_qubits, ancillas, labels=circuit.labels
        )
        many = StreamingAllocator(
            circuit.num_qubits, ancillas, labels=circuit.labels
        )
        for gate in circuit.gates:
            one.feed(gate)
        many.extend(circuit.gates)
        plans_equal(one.close(), many.close())

    def test_untouched_ancilla_never_appears_in_placement(self):
        allocator = StreamingAllocator(5, [3, 4])
        allocator.feed(cnot(1, 3))  # wire 4 never touched
        placement = allocator.placement()
        assert 4 not in placement.assignment
        assert 4 not in placement.unplaced
        plan = allocator.close()
        assert 4 not in plan.assignment
        assert 4 not in plan.unplaced
