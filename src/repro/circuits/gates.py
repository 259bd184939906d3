"""Gate objects for the circuit IR.

A :class:`Gate` is immutable: a name, the qubits it touches (controls
first, target last for controlled gates), optional real parameters, and —
for gates outside the named set — an explicit local matrix.

The *classical* gates are X and the multi-controlled-NOT family
(CX / CCX / MCX): they permute computational-basis states, which is the
fragment covered by Theorems 6.2 and 6.4.  Their local matrices are built
lazily because an MCX over many controls has an exponentially large matrix
that the classical simulator never needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import CircuitError

_SQRT2 = math.sqrt(2.0)

_FIXED_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

_DAGGER_NAMES = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}

#: Names whose unitaries permute computational-basis states.
CLASSICAL_NAMES = frozenset({"X", "CX", "CCX", "MCX"})

_SELF_INVERSE = frozenset(
    {"X", "Y", "Z", "H", "SWAP", "CX", "CCX", "MCX", "CZ"}
)


@dataclass(frozen=True)
class Gate:
    """One gate application inside a :class:`~repro.circuits.Circuit`."""

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    matrix: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # `is_classical` goes by the name, so a classical name must
        # mean the named permutation and not some other matrix.
        if self.matrix is not None and self.name in CLASSICAL_NAMES:
            raise CircuitError(
                f"gate {self.name} is classical and takes no explicit matrix"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(
                f"gate {self.name} has duplicate qubits {self.qubits}"
            )
        if not self.qubits:
            raise CircuitError(f"gate {self.name} acts on no qubits")

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #

    @property
    def is_classical(self) -> bool:
        """True when the gate permutes computational-basis states."""
        return self.name in CLASSICAL_NAMES

    @property
    def controls(self) -> Tuple[int, ...]:
        """Control qubits of an X/CX/CCX/MCX gate (empty for plain X)."""
        if not self.is_classical:
            raise CircuitError(f"gate {self.name} has no control/target split")
        return self.qubits[:-1]

    @property
    def target(self) -> int:
        """Target qubit of an X/CX/CCX/MCX gate."""
        if not self.is_classical:
            raise CircuitError(f"gate {self.name} has no control/target split")
        return self.qubits[-1]

    # ------------------------------------------------------------------ #
    # Matrices
    # ------------------------------------------------------------------ #

    def local_matrix(self) -> np.ndarray:
        """Return the unitary on ``len(self.qubits)`` wires (built lazily)."""
        if self.matrix is not None:
            return self.matrix
        if self.name in _FIXED_MATRICES:
            return _FIXED_MATRICES[self.name]
        if self.name in ("CX", "CCX", "MCX"):
            return _controlled_not_matrix(len(self.qubits) - 1)
        if self.name == "CZ":
            mat = np.eye(4, dtype=complex)
            mat[3, 3] = -1
            return mat
        if self.name == "PHASE":
            (theta,) = self.params
            return np.diag([1.0, np.exp(1j * theta)]).astype(complex)
        if self.name == "CPHASE":
            (theta,) = self.params
            return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(complex)
        if self.name == "RZ":
            (theta,) = self.params
            half = theta / 2.0
            return np.diag(
                [np.exp(-1j * half), np.exp(1j * half)]
            ).astype(complex)
        raise CircuitError(f"gate {self.name} has no known matrix")

    def dagger(self) -> "Gate":
        """Return the inverse gate."""
        if self.name in _SELF_INVERSE:
            return self
        if self.name in _DAGGER_NAMES:
            return Gate(_DAGGER_NAMES[self.name], self.qubits)
        if self.name in ("PHASE", "CPHASE", "RZ"):
            return Gate(self.name, self.qubits, (-self.params[0],))
        matrix = self.local_matrix()
        return Gate(
            f"{self.name}_DG", self.qubits, self.params, matrix.conj().T
        )

    def remap(self, mapping) -> "Gate":
        """Return the same gate on renamed qubits (``mapping[q]`` or ``q``)."""
        qubits = tuple(mapping.get(q, q) for q in self.qubits)
        return Gate(self.name, qubits, self.params, self.matrix)

    def __str__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            values = ", ".join(f"{p:g}" for p in self.params)
            return f"{self.name}({values})[{args}]"
        return f"{self.name}[{args}]"


def _controlled_not_matrix(num_controls: int) -> np.ndarray:
    """Matrix of NOT with ``num_controls`` controls (identity + row swap)."""
    dim = 2 ** (num_controls + 1)
    mat = np.eye(dim, dtype=complex)
    mat[[dim - 2, dim - 1]] = mat[[dim - 1, dim - 2]]
    return mat


# ---------------------------------------------------------------------- #
# Factory helpers — the vocabulary used throughout the repository.
# ---------------------------------------------------------------------- #


def x(qubit: int) -> Gate:
    """NOT gate."""
    return Gate("X", (qubit,))


def hadamard(qubit: int) -> Gate:
    """Hadamard gate."""
    return Gate("H", (qubit,))


def s_gate(qubit: int) -> Gate:
    """Phase gate S = diag(1, i)."""
    return Gate("S", (qubit,))


def t_gate(qubit: int) -> Gate:
    """T gate = diag(1, e^{i pi/4})."""
    return Gate("T", (qubit,))


def cnot(control: int, target: int) -> Gate:
    """Controlled-NOT."""
    return Gate("CX", (control, target))


def toffoli(control1: int, control2: int, target: int) -> Gate:
    """Doubly-controlled NOT (Toffoli)."""
    return Gate("CCX", (control1, control2, target))


#: Alias matching the QBorrow surface syntax ``CCNOT``.
ccnot = toffoli


def mcx(controls: Sequence[int], target: int) -> Gate:
    """Multi-controlled NOT; degenerates to X/CX/CCX for small fan-in."""
    controls = tuple(controls)
    if len(controls) == 0:
        return x(target)
    if len(controls) == 1:
        return cnot(controls[0], target)
    if len(controls) == 2:
        return toffoli(controls[0], controls[1], target)
    return Gate("MCX", controls + (target,))


def swap(qubit1: int, qubit2: int) -> Gate:
    """SWAP gate."""
    return Gate("SWAP", (qubit1, qubit2))


def phase(theta: float, qubit: int) -> Gate:
    """Single-qubit phase rotation diag(1, e^{i theta})."""
    return Gate("PHASE", (qubit,), (float(theta),))


def cphase(theta: float, control: int, target: int) -> Gate:
    """Controlled phase rotation (used by the Draper QFT adder)."""
    return Gate("CPHASE", (control, target), (float(theta),))


def unitary_gate(
    matrix: np.ndarray, qubits: Sequence[int], name: str = "U"
) -> Gate:
    """An arbitrary unitary gate with an explicit local matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    qubits = tuple(qubits)
    dim = 2 ** len(qubits)
    if matrix.shape != (dim, dim):
        raise CircuitError(
            f"matrix of shape {matrix.shape} does not act on {len(qubits)} qubits"
        )
    if not np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-9):
        raise CircuitError(f"matrix for gate {name} is not unitary")
    return Gate(name, qubits, (), matrix)


#: Surface spellings ``gate_from_name`` maps onto the IR names.
_GATE_ALIASES = {"CCNOT": "CCX", "CNOT": "CX"}

#: Qubit count of every fixed-arity gate ``gate_from_name`` builds.
_GATE_ARITY = {"X": 1, "Y": 1, "Z": 1, "H": 1, "S": 1, "T": 1, "CX": 2,
               "CZ": 2, "SWAP": 2, "CCX": 3}


def gate_from_name(name: str, qubits: Sequence[int]) -> Gate:
    """Build a named parameter-free gate — used by the ``.qbr`` front end."""
    name = name.upper()
    name = _GATE_ALIASES.get(name, name)
    qubits = tuple(qubits)
    if name == "MCX":
        if len(qubits) < 2:
            raise CircuitError("MCX needs at least one control and a target")
        return Gate("MCX", qubits)
    arity = _GATE_ARITY.get(name)
    if arity is None:
        raise CircuitError(f"unknown gate name {name!r}")
    if len(qubits) != arity:
        raise CircuitError(
            f"gate {name} expects {arity} qubits, got {len(qubits)}"
        )
    return Gate(name, qubits)
