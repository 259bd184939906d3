"""The streaming allocator's commit horizon, replayed gate by gate.

``lookahead`` is a plain gate count ``K`` (or ``None`` for ∞).  Over a
seeded corpus (plain, spoiled and segmented alike), whose ancilla
periods run one after another, plus ripple-carry adder programs, whose
dirty carries overlap, and several horizons, every stream point is
checked against the two tiers of the module contract:

* **finality** — a committed host never moves to another host; it can
  only be revoked to unplaced, once, and every revocation is counted,
  noted and left unplaced in the closed plan;
* **the horizon** — the committed ancillas are always a prefix of the
  active ones in (first touch, wire) order, each was a full ``K``
  gates behind the head when it committed, and at the endpoints
  ``K=0`` never buffers (so never rolls back) while ``K=∞`` commits
  nothing before :meth:`~repro.alloc.StreamingAllocator.close` (so
  never revokes).
"""

import pytest

from repro.alloc import StreamingAllocator
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source
from repro.testing import random_reversible_circuit

#: The random corpus: 12 seeds, three flavours each.
SEEDS = range(200, 212)
FLAVOURS = ("plain", "spoiled", "segmented")
#: Adder widths; their overlapping carries make the barrier bind.
ADDER_WIDTHS = (4, 6, 8)
HORIZONS = (0, 1, 4, 8, None)


def corpus_case(seed, flavour):
    circuit, ancillas = random_reversible_circuit(
        seed,
        num_data=5,
        num_ancillas=3,
        segment_gates=3,
        middle_gates=6,
        spoiled=(5,) if flavour == "spoiled" else (),  # first ancilla
    )
    return circuit, ancillas, flavour == "segmented"


def adder_case(n):
    program = elaborate(adder_qbr_source(n))
    return program.circuit, sorted(program.dirty_wires), False


CASES = [
    pytest.param(*corpus_case(seed, flavour), id=f"{flavour}-{seed}")
    for flavour in FLAVOURS
    for seed in SEEDS
] + [pytest.param(*adder_case(n), id=f"adder{n}") for n in ADDER_WIDTHS]


def replay(circuit, ancillas, lookahead, segmented):
    """Feed the circuit gate by gate; yield ``(index, allocator,
    committed_before)`` after every feed."""
    allocator = StreamingAllocator(
        circuit.num_qubits,
        ancillas,
        lookahead=lookahead,
        segmented=segmented,
        labels=circuit.labels,
    )
    for gate in circuit.gates:
        before = allocator.committed()
        index = allocator.feed(gate)
        yield index, allocator, before


@pytest.mark.parametrize("circuit, ancillas, segmented", CASES)
def test_final_decisions_only_revoke(circuit, ancillas, segmented):
    for lookahead in HORIZONS:
        revoked = set()
        allocator = None
        for _, allocator, before in replay(
            circuit, ancillas, lookahead, segmented
        ):
            after = allocator.committed()
            for a, host in before.items():
                assert after[a] in (host, None), (lookahead, a)
                if host is not None and after[a] is None:
                    revoked.add(a)
            assert allocator.stats.revocations == len(revoked)
        plan = allocator.close()
        assert allocator.stats.revocations == len(revoked)
        assert revoked <= set(plan.unplaced)
        assert not revoked & set(plan.assignment)
        revocation_notes = [n for n in plan.notes if "revoked" in n]
        assert len(revocation_notes) == len(revoked)
        if lookahead is None:
            assert not revoked


@pytest.mark.parametrize("circuit, ancillas, segmented", CASES)
def test_commits_wait_out_the_horizon(circuit, ancillas, segmented):
    for lookahead in HORIZONS:
        seen = {}  # wire -> last gate index that touched it
        allocator = None
        for index, allocator, before in replay(
            circuit, ancillas, lookahead, segmented
        ):
            for q in circuit.gates[index].qubits:
                seen[q] = index
            committed = list(allocator.committed())
            active = list(allocator.active)
            assert committed == active[: len(committed)], lookahead
            if lookahead is None:
                assert not committed
                continue
            for a in committed[len(before):]:
                assert index - seen[a] >= lookahead, (lookahead, a)
            if lookahead == 0:
                assert committed == active
                assert allocator.tentative() == {}
                assert allocator.stats.rollbacks == 0
        allocator.close()
        assert list(allocator.committed()) == list(allocator.active)
        assert allocator.stats.commits == len(allocator.active)
