"""Differential soundness tests for the dependence sweep (repro.verify.sweep).

The sweep may only ever say "formula (6.2) is unsatisfiable": every
decision is checked against the exhaustive truth-table oracle, and
every verifier verdict with the sweep on must equal the engine's alone.
"""

import random

import pytest

from repro.boolfn.bitset import bitset_solve
from repro.circuits import Circuit, cnot, toffoli, x
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.testing import random_reversible_circuit
from repro.verify import BatchVerifier, formula_62, track_circuit
from repro.verify.sweep import decides_62, wire_masks
from tests.conftest import fig13_circuit


def random_corpus(count=300):
    """Seeded circuits: 2-6 data wires, 1-3 ancillas, ~30% spoiled."""
    for seed in range(count):
        rng = random.Random(seed)
        num_data, num_ancillas = rng.randint(2, 6), rng.randint(1, 3)
        spoiled = [num_data + i for i in range(num_ancillas) if rng.random() < 0.3]
        circuit, _ = random_reversible_circuit(
            seed, num_data=num_data, num_ancillas=num_ancillas, spoiled=spoiled
        )
        yield circuit


def holds_62(tracked, qubit):
    result, _ = bitset_solve(formula_62(tracked, qubit))
    return not result.is_sat


class TestRandomCorpus:
    @pytest.mark.parametrize(
        "simplify_xor, expected",
        [(True, (1799, 1094, 1094)), (False, (1799, 1094, 1025))],
        ids=["xor-rule", "no-xor-rule"],
    )
    def test_every_decision_is_sound(self, simplify_xor, expected):
        """(total, holding, decided): with the x ⊕ x = 0 rule the sweep
        decides every obligation that holds; without it, cones grow
        and some fall through to the engine."""
        total = holding = decided = 0
        for circuit in random_corpus():
            tracked = track_circuit(circuit, simplify_xor=simplify_xor)
            for qubit in range(circuit.num_qubits):
                holds = holds_62(tracked, qubit)
                swept = decides_62(tracked, qubit)
                assert holds or not swept, (circuit.gates, qubit)
                total += 1
                holding += holds
                decided += swept
        assert (total, holding, decided) == expected


class TestHandBuilt:
    def test_cnot_target_is_not_its_own_free_input(self):
        # b_t = t ⊕ q.  Were the node under test one of its own free
        # inputs, its row would not change with q and the sweep would
        # wrongly report independence.
        tracked = track_circuit(Circuit(2, [cnot(0, 1)]))
        assert not holds_62(tracked, 0)
        assert not decides_62(tracked, 0)

    def test_fig13_dirty_wire_decided_semantically(self):
        """The Figure 1.3 circuit leaves ``a`` in q4's final formula
        (no x ⊕ x = 0 cancellation removes it); the sweep proves the
        formula independent of ``a`` all the same."""
        tracked = track_circuit(fig13_circuit())
        masks = wire_masks(tracked)
        assert masks[tracked.formulas[4].uid] & (1 << 2)
        assert decides_62(tracked, 2)

    def test_undecided_is_not_a_verdict(self):
        """b_u = u ⊕ qc ⊕ q(c ⊕ 1) ⊕ q is independent of q, but c and
        c ⊕ 1 enter the cone as unrelated free inputs, so the sweep
        cannot tell; the engine still proves the wire safe."""
        circuit = Circuit(3, labels=["q", "c", "u"]).extend(
            [toffoli(0, 1, 2), x(1), toffoli(0, 1, 2), x(1), cnot(0, 2)]
        )
        tracked = track_circuit(circuit)
        assert holds_62(tracked, 0)
        assert not decides_62(tracked, 0)
        report = BatchVerifier(backend="bdd").verify_circuit(circuit, [0])
        assert report.all_safe and report.swept == 0

    def test_no_root_reaches_the_wire(self):
        tracked = track_circuit(Circuit(3, [cnot(1, 2)]))
        assert decides_62(tracked, 0)

    def test_masks_live_on_the_tracked_circuit(self):
        tracked = track_circuit(fig13_circuit())
        assert tracked.masks is None
        masks = wire_masks(tracked)
        assert tracked.masks is masks and wire_masks(tracked) is masks


def faulted(circuit, dirty, index):
    """``circuit`` with a seeded fault; kind cycles over no fault, an X
    on a dirty wire at the end ((6.1) fails), and a CNOT from a dirty
    wire onto another wire at the end or mid-circuit ((6.2) fails)."""
    rng = random.Random(index)
    kind = index % 4
    if kind == 0:
        return circuit
    wire = rng.choice(list(dirty))
    gates = list(circuit.gates)
    if kind == 1:
        gates.append(x(wire))
    else:
        other = rng.choice([w for w in range(circuit.num_qubits) if w != wire])
        at = len(gates) if kind == 2 else rng.randrange(len(gates) + 1)
        gates.insert(at, cnot(wire, other))
    return Circuit(circuit.num_qubits, gates, labels=circuit.labels)


#: (family, sizes, largest size the bitset engine decides alone: its
#: cones cap at 20 variables).
FAMILIES = [
    (adder_qbr_source, (3, 4, 5, 6, 8, 10, 12, 16, 20, 30), 12),
    (mcx_qbr_source, (4, 5, 6, 8, 10, 13, 17, 24, 32, 40), 10),
]


def verdicts(report):
    return [(v.qubit, v.safe, v.failed_condition) for v in report.verdicts]


class TestVerifierAgreement:
    @pytest.mark.parametrize("backend", ["cdcl", "bdd", "bitset"])
    @pytest.mark.parametrize(
        "source, sizes, bitset_cap",
        FAMILIES,
        ids=["adder", "mcx"],
    )
    def test_sweep_on_and_off_agree(self, backend, source, sizes, bitset_cap):
        unsafe = swept = 0
        for index, size in enumerate(sizes):
            if backend == "bitset" and size > bitset_cap:
                continue
            program = elaborate(source(size))
            dirty = program.dirty_wires
            circuit = faulted(program.circuit, dirty, index)
            on = BatchVerifier(backend=backend).verify_circuit(circuit, dirty)
            off = BatchVerifier(backend=backend, sweep=False).verify_circuit(
                circuit, dirty
            )
            assert verdicts(on) == verdicts(off), size
            assert off.swept == 0
            unsafe += not on.all_safe
            swept += on.swept
        assert unsafe and swept
