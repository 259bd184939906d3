"""Hash-consed gates: one :class:`Gate` object per distinct gate.

An elaboration emits one ``Gate`` per distinct ``(name, qubits)``, so
the loops and uncompute halves of ``adder.qbr`` and ``mcx.qbr`` share
gate objects.  ``Circuit.fingerprint`` formats each distinct object
once; these tests pin that its digest is byte-identical to the
per-gate ``digest.update`` loop kept below as the oracle, whether or
not the gates share objects.
"""

import hashlib

import pytest

from repro.circuits import Circuit
from repro.circuits.gates import Gate, cnot, cphase, phase, toffoli, x
from repro.lang.surface.elaborate import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.testing.generators import random_reversible_circuit

SOURCES = [
    pytest.param(adder_qbr_source(n), id=f"adder-{n}") for n in range(4, 15)
] + [pytest.param(mcx_qbr_source(m), id=f"mcx-{m}") for m in range(5, 41)]


def reference_fingerprint(circuit: Circuit) -> str:
    """The fingerprint as one ``digest.update`` per label and per gate."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{circuit.num_qubits}".encode())
    for label in circuit.labels or ():
        encoded = label.encode()
        digest.update(f"l{len(encoded)}:".encode() + encoded)
    for gate in circuit.gates:
        digest.update(
            f"|{gate.name}:{','.join(map(str, gate.qubits))}"
            f":{','.join(map(str, gate.params))}".encode()
        )
    return digest.hexdigest()


def unshared(circuit: Circuit) -> Circuit:
    """The same circuit rebuilt from a fresh ``Gate`` per slot."""
    gates = [Gate(g.name, g.qubits, g.params) for g in circuit.gates]
    return Circuit(circuit.num_qubits, gates, circuit.labels)


@pytest.mark.parametrize("source", SOURCES)
def test_one_gate_object_per_distinct_gate(source):
    gates = elaborate(source).circuit.gates
    objects = {id(gate) for gate in gates}  # `gates` keeps them alive
    assert len(objects) == len({(g.name, g.qubits) for g in gates})
    assert len(objects) < len(gates)  # the programs do repeat gates


def test_no_gate_object_is_shared_across_elaborations():
    first = elaborate(mcx_qbr_source(8)).circuit.gates
    second = elaborate(mcx_qbr_source(8)).circuit.gates
    assert first == second
    assert {id(g) for g in first}.isdisjoint(id(g) for g in second)


@pytest.mark.parametrize("source", SOURCES)
def test_fingerprint_matches_reference_shared_or_not(source):
    circuit = elaborate(source).circuit
    fresh = unshared(circuit)
    assert len({id(g) for g in fresh.gates}) == len(fresh.gates)
    expected = reference_fingerprint(circuit)
    assert circuit.fingerprint() == expected
    assert fresh.fingerprint() == expected


def test_fingerprint_matches_reference_on_random_circuits():
    for seed in range(200):
        circuit, _ = random_reversible_circuit(seed)
        assert circuit.fingerprint() == reference_fingerprint(circuit)


def test_fingerprint_matches_reference_with_parameters_and_labels():
    shared = phase(0.25, 1)
    circuit = Circuit(3, labels=["ψ", "a[1]", "a[2]"]).extend(
        [
            shared,
            cphase(-1.5, 0, 2),
            Gate("RZ", (2,), (3.0e-7,)),
            x(0),
            cnot(0, 1),
            shared,
            toffoli(0, 1, 2),
            shared,
        ]
    )
    assert circuit.fingerprint() == reference_fingerprint(circuit)
    assert unshared(circuit).fingerprint() == circuit.fingerprint()
    # The parameter is part of the hash, not only the name and wires.
    moved = Circuit(3, labels=circuit.labels).extend(
        [phase(0.5, 1) if g is shared else g for g in circuit.gates]
    )
    assert moved.fingerprint() != circuit.fingerprint()
    assert moved.fingerprint() == reference_fingerprint(moved)
