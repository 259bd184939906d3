"""OpenQASM 2.0 interchange for the circuit IR.

Lets circuits produced here (benchmark adders, MCX constructions,
borrow-pass outputs) be inspected in, or imported from, mainstream
toolchains.  The exporter emits plain OpenQASM 2.0; multi-controlled
NOTs and parametric phases use the standard library spellings
(``ccx``, ``cp``, ...), with wide MCX gates decomposed on export via the
dirty-chain construction (borrowing idle wires) or flagged if no wires
are available.

The importer accepts the subset this repository emits — one quantum
register, the gate set below — which is enough for round-tripping and
for pulling in externally-authored classical circuits to verify.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    Gate,
    cnot,
    cphase,
    hadamard,
    phase,
    s_gate,
    swap,
    t_gate,
    toffoli,
    x,
)
from repro.errors import CircuitError

_EXPORT_NAMES = {
    "X": "x",
    "Y": "y",
    "Z": "z",
    "H": "h",
    "S": "s",
    "SDG": "sdg",
    "T": "t",
    "TDG": "tdg",
    "CX": "cx",
    "CZ": "cz",
    "SWAP": "swap",
    "CCX": "ccx",
}


def to_qasm(circuit: Circuit) -> str:
    """Serialise to OpenQASM 2.0.

    MCX gates with more than two controls are rejected (decompose them
    first, e.g. with :func:`repro.mcx.mcx_dirty_chain`); gates with
    custom matrices have no portable spelling and are rejected too.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for gate in circuit.gates:
        lines.append(_gate_to_qasm(gate))
    return "\n".join(lines) + "\n"


def _gate_to_qasm(gate: Gate) -> str:
    operands = ",".join(f"q[{w}]" for w in gate.qubits)
    if gate.name in _EXPORT_NAMES:
        return f"{_EXPORT_NAMES[gate.name]} {operands};"
    if gate.name == "PHASE":
        return f"p({gate.params[0]!r}) {operands};"
    if gate.name == "CPHASE":
        return f"cp({gate.params[0]!r}) {operands};"
    if gate.name == "RZ":
        return f"rz({gate.params[0]!r}) {operands};"
    if gate.name == "MCX":
        raise CircuitError(
            f"gate {gate} has no OpenQASM 2 spelling; decompose wide MCX "
            f"gates before export"
        )
    raise CircuitError(f"gate {gate.name} is not exportable")


_QASM_GATES = {
    "x": (1, lambda args, p: x(args[0])),
    "h": (1, lambda args, p: hadamard(args[0])),
    "s": (1, lambda args, p: s_gate(args[0])),
    "sdg": (1, lambda args, p: Gate("SDG", (args[0],))),
    "t": (1, lambda args, p: t_gate(args[0])),
    "tdg": (1, lambda args, p: Gate("TDG", (args[0],))),
    "y": (1, lambda args, p: Gate("Y", (args[0],))),
    "z": (1, lambda args, p: Gate("Z", (args[0],))),
    "cx": (2, lambda args, p: cnot(args[0], args[1])),
    "cz": (2, lambda args, p: Gate("CZ", tuple(args))),
    "swap": (2, lambda args, p: swap(args[0], args[1])),
    "ccx": (3, lambda args, p: toffoli(args[0], args[1], args[2])),
    "p": (1, lambda args, p: phase(p, args[0])),
    "u1": (1, lambda args, p: phase(p, args[0])),
    "cp": (2, lambda args, p: cphase(p, args[0], args[1])),
    "rz": (1, lambda args, p: Gate("RZ", (args[0],), (p,))),
}

# Operands hold no parenthesis, so a parameter runs from the first
# ``(`` to the last ``)`` and may nest sub-expressions; an unbalanced
# one fails to evaluate in `_eval_param`.
_STATEMENT = re.compile(
    r"^\s*(?P<name>[a-z_][a-z0-9_]*)\s*"
    r"(?:\(\s*(?P<param>[^;]*)\s*\))?\s+"
    r"(?P<operands>[^;()]+);\s*$"
)
_OPERAND = re.compile(r"^q\[(\d+)\]$")


class QasmStream:
    """Iterate the gates of an OpenQASM 2.0 program as lines are read.

    Each drawn gate has been parsed, validated and appended to
    :attr:`circuit` before it is yielded, so a consumer (e.g. a
    :class:`~repro.alloc.streaming.StreamingAllocator`) can act on it
    while the rest of the file is still unread.  :attr:`num_qubits`
    becomes available once the ``qreg`` header line has been consumed.
    All :class:`~repro.errors.CircuitError`\\ s of :func:`from_qasm`
    surface unchanged, at the line that causes them — including ``no
    qreg declaration found``, raised when the stream ends without a
    header.
    """

    def __init__(self, text: str):
        self.circuit: Optional[Circuit] = None
        self._gates = self._parse(text)

    @property
    def num_qubits(self) -> Optional[int]:
        """Declared register width, or ``None`` before the ``qreg``."""
        return None if self.circuit is None else self.circuit.num_qubits

    def __iter__(self) -> "QasmStream":
        return self

    def __next__(self) -> Gate:
        return next(self._gates)

    def _parse(self, text: str):
        for line_number, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("//")[0].strip()
            if not line:
                continue
            if line.startswith("OPENQASM") or line.startswith("include"):
                continue
            if line.startswith("qreg"):
                match = re.match(r"^qreg\s+q\[(\d+)\]\s*;$", line)
                if not match:
                    raise CircuitError(
                        f"line {line_number}: unsupported qreg declaration"
                    )
                if self.circuit is not None:
                    raise CircuitError("multiple qreg declarations")
                self.circuit = Circuit(int(match.group(1)))
                continue
            if line.startswith("creg") or line.startswith("barrier"):
                continue
            match = _STATEMENT.match(line)
            if not match:
                raise CircuitError(
                    f"line {line_number}: cannot parse {line!r}"
                )
            if self.circuit is None:
                raise CircuitError("gate before qreg declaration")
            name = match.group("name")
            if name not in _QASM_GATES:
                raise CircuitError(
                    f"line {line_number}: unsupported gate {name!r}"
                )
            arity, build = _QASM_GATES[name]
            operands: List[int] = []
            for token in match.group("operands").split(","):
                op_match = _OPERAND.match(token.strip())
                if not op_match:
                    raise CircuitError(
                        f"line {line_number}: bad operand {token.strip()!r}"
                    )
                operands.append(int(op_match.group(1)))
            if len(operands) != arity:
                raise CircuitError(
                    f"line {line_number}: {name} expects {arity} operands"
                )
            param = None
            if match.group("param") is not None:
                param = _eval_param(match.group("param"), line_number)
            gate = build(operands, param)
            self.circuit.append(gate)
            yield gate
        if self.circuit is None:
            raise CircuitError("no qreg declaration found")


def iter_qasm_gates(text: str) -> QasmStream:
    """Stream an OpenQASM 2.0 program's gates as lines are consumed.

    Returns a :class:`QasmStream`; ``list(iter_qasm_gates(text))``
    equals ``from_qasm(text).gates`` gate for gate.
    """
    return QasmStream(text)


def from_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset emitted by :func:`to_qasm`.

    Drains :func:`iter_qasm_gates`, so the offline and streaming import
    paths are a single code path and cannot drift.
    """
    stream = QasmStream(text)
    for _ in stream:
        pass
    return stream.circuit


def _eval_param(text: str, line_number: int) -> float:
    """Evaluate a parameter expression: floats, pi, + - * /, ( ).

    ``pi`` is read only as a whole word, so ``2pi`` and ``pi2`` are
    refused rather than read as ``23.14...`` and ``3.14...``.  ``**``
    is refused before evaluation, since a tower such as ``9**9**9``
    would compute an integer of hundreds of millions of digits, and so
    is any result that is not finite.
    """
    cleaned = re.sub(r"\bpi\b", repr(math.pi), text)
    if "**" in cleaned or not re.fullmatch(r"[0-9eE().+\-*/ ]*", cleaned):
        raise CircuitError(f"line {line_number}: bad parameter {text!r}")
    try:
        value = float(eval(cleaned, {"__builtins__": {}}, {}))
    except Exception:
        raise CircuitError(
            f"line {line_number}: cannot evaluate parameter {text!r}"
        ) from None
    if not math.isfinite(value):
        raise CircuitError(f"line {line_number}: parameter {text!r} is not finite")
    return value
