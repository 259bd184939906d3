"""Classical permutation simulation of X / multi-controlled-NOT circuits.

Circuits "implementing a classical function" (Theorem 6.2's fragment)
permute computational-basis states, so they can be executed on bitstrings
directly.  Two simulators are provided:

* :func:`apply_to_bits` — one input at a time, cost ``O(gates)`` per input,
  works for thousands of qubits (used for counterexample replay and
  large-scale functional tests of the adder / MCX libraries);
* :func:`truth_table` — all ``2**n`` inputs at once, vectorised over numpy
  integer arrays (used as the brute-force verification oracle for small n).

Bit convention: qubit 0 is the most significant bit, matching
:mod:`repro.linalg`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import VerificationError


def is_classical_circuit(circuit: Circuit) -> bool:
    """True when every gate is X or a multi-controlled NOT."""
    return all(gate.is_classical for gate in circuit.gates)


def _require_classical(circuit: Circuit) -> None:
    for gate in circuit.gates:
        if not gate.is_classical:
            raise VerificationError(
                f"gate {gate} is not classical; Theorem 6.2 does not apply"
            )


def apply_to_bits(circuit: Circuit, bits: Sequence[int]) -> List[int]:
    """Run the circuit on one classical input, returning the output bits."""
    _require_classical(circuit)
    if len(bits) != circuit.num_qubits:
        raise VerificationError(
            f"{len(bits)} input bits for a {circuit.num_qubits}-qubit circuit"
        )
    state = [int(b) for b in bits]
    for b in state:
        if b not in (0, 1):
            raise VerificationError(f"input bit {b!r} is not 0 or 1")
    for gate in circuit.gates:
        if all(state[c] for c in gate.controls):
            state[gate.target] ^= 1
    return state


def truth_table(circuit: Circuit) -> np.ndarray:
    """Return ``f`` as an array: ``f[x]`` is the output index for input ``x``.

    Vectorised over all ``2**n`` basis states; capped at 22 qubits to keep
    memory bounded.
    """
    _require_classical(circuit)
    n = circuit.num_qubits
    if n > 22:
        raise VerificationError(
            f"truth-table simulation caps at 22 qubits; circuit has {n}"
        )
    states = np.arange(2**n, dtype=np.int64)
    for gate in circuit.gates:
        mask = np.ones(2**n, dtype=bool)
        for c in gate.controls:
            bit = 1 << (n - 1 - c)
            mask &= (states & bit) != 0
        target_bit = 1 << (n - 1 - gate.target)
        states = np.where(mask, states ^ target_bit, states)
    return states
