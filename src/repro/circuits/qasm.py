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

from repro.circuits.circuit import MAX_WIRES, Circuit
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


def from_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset emitted by :func:`to_qasm`.

    Every error is a :class:`~repro.errors.CircuitError` that names the
    first line that cannot be read, or ``no qreg declaration found``
    at the end of a text that never declares its register.  A ``qreg``
    wider than :data:`~repro.circuits.circuit.MAX_WIRES` is refused
    before any wire exists.
    """
    circuit: Optional[Circuit] = None
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
            if circuit is not None:
                raise CircuitError(
                    f"line {line_number}: multiple qreg declarations"
                )
            width = _integer(match.group(1), line_number)
            if width > MAX_WIRES:
                raise CircuitError(
                    f"line {line_number}: qreg of {width} qubits exceeds "
                    f"the {MAX_WIRES}-wire limit"
                )
            circuit = Circuit(width)
            continue
        if line.startswith("creg") or line.startswith("barrier"):
            continue
        match = _STATEMENT.match(line)
        if not match:
            raise CircuitError(f"line {line_number}: cannot parse {line!r}")
        if circuit is None:
            raise CircuitError(
                f"line {line_number}: gate before qreg declaration"
            )
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
            operands.append(_integer(op_match.group(1), line_number))
        if len(operands) != arity:
            raise CircuitError(
                f"line {line_number}: {name} expects {arity} operands"
            )
        param = None
        if match.group("param") is not None:
            param = _eval_param(match.group("param"), line_number)
        try:
            # Gate refuses repeated operands, append an out-of-range one.
            circuit.append(build(operands, param))
        except CircuitError as err:
            raise CircuitError(f"line {line_number}: {err}") from None
    if circuit is None:
        raise CircuitError("no qreg declaration found")
    return circuit


def _integer(digits: str, line_number: int) -> int:
    """A width or wire index.  ``int`` refuses more digits than the
    interpreter's int-string limit, and that must fail as a
    :class:`~repro.errors.CircuitError` naming the line."""
    try:
        return int(digits)
    except ValueError:
        raise CircuitError(
            f"line {line_number}: number of {len(digits)} digits is too long"
        ) from None


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
