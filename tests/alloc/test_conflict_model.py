"""The offline conflict model, held to its contract at every prefix.

:func:`build_model` reads a finished circuit once.  Here it is run on
every prefix of seeded random circuits (whose ancilla periods run one
after another), seeded interleavings of identity blocks (whose windows
segmentation splits) and ripple-carry adder programs (whose dirty
carries overlap), and each model is held to the contract:

* it equals the model's definition computed straight from the gate
  list (periods, windows via :func:`restore_segments`, idle candidate
  hosts, overlapping ancillas), and it holds the caller's circuit;
* restore-point segmentation only relaxes the model: same periods,
  candidate hosts a superset and conflicts a subset of the whole-period
  model's;
* a gate changes only what it touches: the windows and candidates of
  every ancilla it does not touch stay as they were, and with
  whole-period windows the touched ones only grow and only lose hosts;
* every strategy that plans from the model alone places soundly;
* :func:`allocate` plans over a supplied model exactly as the strategy
  does, and builds the same whole-period model when given none;
* a ``segment_check`` is asked about each gate slice at most once.
"""

import random

import pytest

from repro.alloc import (
    allocate,
    build_model,
    make_strategy,
    validate_placement,
)
from repro.circuits import (
    ActivityInterval,
    Circuit,
    Gate,
    WindowSet,
    cnot,
    restore_segments,
    toffoli,
    x,
)
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source
from repro.testing import random_reversible_circuit

SEEDS = range(100, 104)

#: The prefix corpus: 12 seeds in three flavours, 12 gapped circuits in
#: both window modes, and adders.
CORPUS_SEEDS = range(200, 212)
FLAVOURS = ("plain", "spoiled", "segmented")
GAPPED_SEEDS = range(300, 312)
ADDER_WIDTHS = (4, 6, 8)
#: The strategies that plan from the model alone ("verified" runs a
#: solver per ancilla in front of "greedy").
STRATEGIES = ("greedy", "interval-graph", "lookahead")


@pytest.mark.parametrize("segmented", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_model_ignores_how_ancillas_are_listed(seed, segmented):
    circuit, ancillas = random_reversible_circuit(
        seed,
        num_data=6,
        num_ancillas=3,
        segment_gates=4,
        middle_gates=8,
    )
    model = build_model(circuit, ancillas, segmented=segmented)
    assert model.circuit is circuit
    for listed in (list(reversed(ancillas)), set(ancillas), [*ancillas, *ancillas]):
        again = build_model(circuit, listed, segmented=segmented)
        assert again == model
    assert build_model(circuit, (), segmented=segmented).ancillas == ()


def gapped_circuit(seed):
    """Two or three identity blocks per ancilla (wires 4..6), each a
    ``CX;CX`` or ``CX;CCX;CCX;CX`` palindrome on random data wires
    (0..3), shuffled among each other and among single ``X`` gates on
    the data wires.  Segmentation splits each window at the gaps
    between blocks, so a data wire busy only in a gap becomes a
    candidate host and ancillas whose blocks interleave stop
    conflicting; until a block's last gate arrives, the tail does not
    certify and the window is the whole period again."""
    rng = random.Random(seed)
    data, ancillas = range(4), (4, 5, 6)
    items = []
    for a in ancillas:
        for _ in range(rng.randint(2, 3)):
            control, other = rng.sample(data, 2)
            half = [cnot(control, a)]
            if rng.random() < 0.5:
                half.append(toffoli(control, other, a))
            items.append(half + half[::-1])
    items += [[x(rng.choice(data))] for _ in range(8)]
    rng.shuffle(items)
    circuit = Circuit(7)
    for gates in items:
        circuit.extend(gates)
    return circuit, ancillas


def _cases():
    for flavour in FLAVOURS:
        for seed in CORPUS_SEEDS:
            circuit, ancillas = random_reversible_circuit(
                seed,
                num_data=5,
                num_ancillas=3,
                segment_gates=3,
                middle_gates=6,
                spoiled=(5,) if flavour == "spoiled" else (),  # first ancilla
            )
            segmented = flavour == "segmented"
            yield pytest.param(circuit, ancillas, segmented, id=f"{flavour}-{seed}")
    for segmented in (False, True):
        for seed in GAPPED_SEEDS:
            mode = "segmented" if segmented else "whole"
            circuit, ancillas = gapped_circuit(seed)
            yield pytest.param(circuit, ancillas, segmented, id=f"gapped-{mode}-{seed}")
    for n in ADDER_WIDTHS:
        program = elaborate(adder_qbr_source(n))
        dirty = tuple(sorted(program.dirty_wires))
        yield pytest.param(program.circuit, dirty, False, id=f"adder{n}")


CASES = list(_cases())
#: Each corpus circuit once, for the tests that feed it in both modes.
CIRCUITS = [
    pytest.param(*case.values[:2], id=case.id) for case in CASES if not case.values[2]
]


def prefixes(circuit, ancillas, segmented):
    """Yield ``(prefix, build_model(prefix))`` for every prefix."""
    for i in range(1, len(circuit.gates) + 1):
        prefix = Circuit(circuit.num_qubits, circuit.gates[:i], circuit.labels)
        yield prefix, build_model(prefix, ancillas, segmented=segmented)


def covered(window):
    """The gate indices a window covers."""
    return {i for seg in window for i in range(seg.first, seg.last + 1)}


def assert_matches_definition(model, prefix, ancillas, segmented):
    """Recompute every field of the model from the prefix's gate list."""
    touches = {
        q: [i for i, gate in enumerate(prefix.gates) if q in gate.qubits]
        for q in range(prefix.num_qubits)
    }
    active = sorted(
        (a for a in ancillas if touches[a]), key=lambda a: (touches[a][0], a)
    )
    periods = {a: ActivityInterval(touches[a][0], touches[a][-1]) for a in active}
    windows = {
        a: restore_segments(prefix, a) if segmented else WindowSet.whole(periods[a])
        for a in active
    }
    spans = {a: covered(windows[a]) for a in active}
    hosts = tuple(q for q in range(prefix.num_qubits) if q not in ancillas)
    assert model.ancillas == tuple(active)
    assert model.untouched == tuple(sorted(a for a in ancillas if not touches[a]))
    assert model.periods == periods
    assert model.windows == windows
    assert model.hosts == hosts
    assert model.candidates == {
        a: tuple(h for h in hosts if spans[a].isdisjoint(touches[h])) for a in active
    }
    assert model.conflicts == {
        a: frozenset(b for b in active if b != a and spans[a] & spans[b])
        for a in active
    }
    assert model.segmented is segmented
    assert model.circuit is prefix


@pytest.mark.parametrize("circuit, ancillas, segmented", CASES)
def test_models_match_the_definition_at_every_prefix(circuit, ancillas, segmented):
    for prefix, model in prefixes(circuit, ancillas, segmented):
        assert_matches_definition(model, prefix, ancillas, segmented)


@pytest.mark.parametrize("circuit, ancillas", CIRCUITS)
def test_segmentation_only_relaxes_the_model(circuit, ancillas):
    for (_, whole), (_, split) in zip(
        prefixes(circuit, ancillas, False), prefixes(circuit, ancillas, True)
    ):
        assert split.ancillas == whole.ancillas
        assert split.periods == whole.periods
        for a in whole.ancillas:
            assert split.windows[a].hull == whole.periods[a]
            assert covered(split.windows[a]) <= covered(whole.windows[a])
            assert set(whole.candidates[a]) <= set(split.candidates[a])
            assert split.conflicts[a] <= whole.conflicts[a]


@pytest.mark.parametrize("circuit, ancillas, segmented", CASES)
def test_a_gate_changes_only_what_it_touches(circuit, ancillas, segmented):
    before = None
    for prefix, after in prefixes(circuit, ancillas, segmented):
        if before is not None:
            touched = set(prefix.gates[-1].qubits)
            assert after.ancillas[: len(before.ancillas)] == before.ancillas
            for a in before.ancillas:
                if a not in touched:
                    assert after.periods[a] == before.periods[a]
                    assert after.windows[a] == before.windows[a]
                    assert after.candidates[a] == before.candidates[a]
                    assert after.conflicts[a] ^ before.conflicts[a] <= touched
                    continue
                assert after.periods[a].first == before.periods[a].first
                assert after.periods[a].last == len(prefix.gates) - 1
                if not segmented:
                    assert covered(before.windows[a]) <= covered(after.windows[a])
                    assert set(after.candidates[a]) <= set(before.candidates[a])
                    assert before.conflicts[a] <= after.conflicts[a]
        before = after


@pytest.mark.parametrize("circuit, ancillas, segmented", CASES)
def test_every_strategy_plans_soundly_at_every_prefix(circuit, ancillas, segmented):
    strategies = {name: make_strategy(name) for name in STRATEGIES}
    for _, model in prefixes(circuit, ancillas, segmented):
        placements = {
            name: strategy.plan(model) for name, strategy in strategies.items()
        }
        for placement in placements.values():
            validate_placement(model, placement)
        # The exact search starts from the greedy plan.
        assert len(placements["lookahead"].assignment) >= len(
            placements["greedy"].assignment
        )


@pytest.mark.parametrize("circuit, ancillas, segmented", CASES)
def test_allocate_plans_over_the_model(circuit, ancillas, segmented):
    model = build_model(circuit, ancillas, segmented=segmented)
    for strategy in ("greedy", "lookahead"):
        placement = make_strategy(strategy).plan(model)
        plan = allocate(circuit, ancillas, strategy, model=model)
        assert plan.assignment == placement.assignment
        assert plan.unplaced == sorted(placement.unplaced)
        assert plan.notes == placement.notes
        assert plan.windows == model.windows
        assert plan.final_width == (
            circuit.num_qubits - len(plan.assignment) - len(model.untouched)
        )
        if not segmented:
            rebuilt = allocate(circuit, ancillas, strategy)
            assert rebuilt.assignment == plan.assignment
            assert rebuilt.circuit.fingerprint() == plan.circuit.fingerprint()


def test_a_segment_check_sees_each_slice_once():
    """Every gate gets its own object, so a slice's gate ids name its
    position.  The check certifies only slices whose length is a
    multiple of 3, so the greedy split both cuts and merges."""
    asked = []

    def check(piece, ancilla):
        asked.append((ancilla, tuple(map(id, piece.gates))))
        return len(piece.gates) % 3 == 0

    total = 0
    for case in CIRCUITS:
        circuit, ancillas = case.values
        fresh = Circuit(
            circuit.num_qubits, [Gate(g.name, g.qubits, g.params) for g in circuit]
        )
        asked.clear()
        build_model(fresh, ancillas, segmented=True, segment_check=check)
        assert len(set(asked)) == len(asked), case.id
        total += len(asked)
    assert total > len(CIRCUITS)
