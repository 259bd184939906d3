"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.circuits import Circuit, cnot, mcx, toffoli


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need different streams reseed."""
    return np.random.default_rng(20260611)


def classical_gate_strategy(num_qubits: int):
    """One random X / CX / CCX / MCX gate on ``num_qubits`` wires."""

    def build(data):
        qubits, fanin = data
        controls = qubits[: fanin - 1]
        target = qubits[fanin - 1]
        return mcx(controls, target)

    return st.tuples(
        st.permutations(range(num_qubits)),
        st.integers(min_value=1, max_value=min(4, num_qubits)),
    ).map(build)


def classical_circuit_strategy(num_qubits: int, max_gates: int = 12):
    """A random classical circuit (the Theorem 6.2 fragment)."""
    return st.lists(
        classical_gate_strategy(num_qubits), min_size=0, max_size=max_gates
    ).map(lambda gates: Circuit(num_qubits, gates))


def reversible_pair_circuit(num_qubits: int, max_gates: int = 8):
    """A circuit of the form C ; C⁻¹ — always safe on every qubit."""
    return st.lists(
        classical_gate_strategy(num_qubits), min_size=1, max_size=max_gates
    ).map(
        lambda gates: Circuit(
            num_qubits, gates + [g.dagger() for g in reversed(gates)]
        )
    )


def fig13_circuit() -> Circuit:
    """The Figure 1.3 CCCNOT-with-dirty-qubit circuit (wires q1,q2,a,q3,q4)."""
    return Circuit(5, labels=["q1", "q2", "a", "q3", "q4"]).extend(
        [toffoli(0, 1, 2), toffoli(2, 3, 4), toffoli(0, 1, 2), toffoli(2, 3, 4)]
    )


def fig31_circuit() -> Circuit:
    """The Figure 3.1a circuit: CNOT then two CCCNOT routines with dirty
    ancillas a1 (wire 5) and a2 (wire 6) over working qubits q1..q5.

    The paper's Figure 4.4 listing writes the second routine's first
    Toffoli as ``Toffoli[q4, q5, q2]`` — with ``q2`` as accumulator and
    ``a2`` a *control*, which would make a2 genuinely unsafe (our
    verifier finds the counterexample).  Figure 3.1's caption asserts a2
    is safely uncomputed, so the intended accumulator must be ``a2``;
    this builder uses that corrected reading (see docs/reproduction.md,
    deviation D2).
    """
    c = Circuit(7, labels=["q1", "q2", "q3", "q4", "q5", "a1", "a2"])
    c.append(cnot(1, 2))
    # First routine: CCCNOT(q1,q2,q4 -> q5) borrowing a1.
    c.extend(
        [toffoli(0, 1, 5), toffoli(5, 3, 4), toffoli(0, 1, 5), toffoli(5, 3, 4)]
    )
    # Second routine: CCCNOT(q4,q5,q2 -> q1) borrowing a2 as accumulator.
    c.extend(
        [toffoli(3, 4, 6), toffoli(6, 1, 0), toffoli(3, 4, 6), toffoli(6, 1, 0)]
    )
    return c


def fig44_verbatim_second_routine() -> Circuit:
    """Figure 4.4's S2 exactly as printed (``Toffoli[q4, q5, q2]`` —
    the a2-as-control reading).  Kept to document that this variant's a2
    fails safe uncomputation while the program semantics still collapses
    to a singleton."""
    c = Circuit(7, labels=["q1", "q2", "q3", "q4", "q5", "a1", "a2"])
    c.append(cnot(1, 2))
    c.extend(
        [toffoli(0, 1, 5), toffoli(5, 3, 4), toffoli(0, 1, 5), toffoli(5, 3, 4)]
    )
    c.extend(
        [toffoli(3, 4, 1), toffoli(6, 1, 0), toffoli(3, 4, 1), toffoli(6, 1, 0)]
    )
    return c
