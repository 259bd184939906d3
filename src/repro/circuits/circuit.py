"""The :class:`Circuit` container.

A circuit is an ordered list of gates over ``num_qubits`` integer-indexed
wires.  Optional per-qubit labels keep the connection to the paper's
notation (``q1 .. qn``, dirty ancillas ``a1 .. am``) without affecting
execution.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.circuits.gates import Gate
from repro.errors import CircuitError

#: The widest register a text reader accepts.  ``.qbr`` declarations
#: (:func:`repro.lang.surface.elaborate.elaborate`) and an OpenQASM
#: ``qreg`` (:func:`repro.circuits.qasm.from_qasm`) past it are refused
#: before any wire is allocated, so a few bytes of text cannot ask for
#: gigabytes of labels and touch lists.  The widest paper program,
#: ``mcx.qbr`` with m = 1750, has 3,501 wires.
MAX_WIRES = 1 << 16

#: The most work a ``.qbr`` elaboration may do, counted as loop
#: iterations run plus gates emitted.  Loops and nested borrow blocks
#: (which double their gates per level) are refused with a
#: ``ParseError`` before they pass it, so a few bytes of text cannot
#: spin or emit without end.  ``mcx.qbr`` with m = 1750 emits 27,968
#: gates, about a ninth of the limit.
MAX_GATES = 1 << 18


class Circuit:
    """An ordered gate list on a fixed-width qubit register."""

    def __init__(
        self,
        num_qubits: int,
        gates: Iterable[Gate] = (),
        labels: Optional[Sequence[str]] = None,
    ):
        if num_qubits < 0:
            raise CircuitError("negative register width")
        self.num_qubits = num_qubits
        self.gates: List[Gate] = []
        if labels is not None and len(labels) != num_qubits:
            raise CircuitError(
                f"{len(labels)} labels for a {num_qubits}-qubit circuit"
            )
        self.labels: Optional[List[str]] = list(labels) if labels else None
        for gate in gates:
            self.append(gate)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def append(self, gate: Gate) -> "Circuit":
        """Append one gate, validating wire indices; returns self."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"gate {gate} uses qubit {q} outside a "
                    f"{self.num_qubits}-qubit register"
                )
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append many gates; returns self."""
        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "Circuit") -> "Circuit":
        """Return ``self`` followed by ``other`` (same register width)."""
        if other.num_qubits != self.num_qubits:
            raise CircuitError("cannot compose circuits of different widths")
        return Circuit(self.num_qubits, self.gates + other.gates, self.labels)

    def inverse(self) -> "Circuit":
        """Return the circuit implementing the inverse unitary."""
        gates = [gate.dagger() for gate in reversed(self.gates)]
        return Circuit(self.num_qubits, gates, self.labels)

    def remap(self, mapping: Dict[int, int], num_qubits: int) -> "Circuit":
        """Return the circuit with qubits renamed onto a new register.

        Qubits absent from ``mapping`` keep their index; the result has
        ``num_qubits`` wires.
        """
        return Circuit(num_qubits, (g.remap(mapping) for g in self.gates))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index):
        return self.gates[index]

    def qubits_touched(self) -> Set[int]:
        """The qubits that appear in at least one gate."""
        touched: Set[int] = set()
        for gate in self.gates:
            touched.update(gate.qubits)
        return touched

    def idle_qubits(self) -> Set[int]:
        """Qubits never touched by any gate — the circuit analogue of
        the paper's syntactic ``idle(S)``."""
        return set(range(self.num_qubits)) - self.qubits_touched()

    def fingerprint(self) -> str:
        """Content hash of the circuit: width, labels and gate list.

        Two circuits with equal fingerprints verify identically, which
        is what lets :class:`repro.verify.batch.BatchVerifier` memoise
        verdicts across calls.  The hash reflects the gate list at call
        time — mutating the circuit afterwards changes it.  Explicit
        ``matrix`` payloads of custom gates are not hashed; such gates
        are outside the classical fragment the verifiers accept anyway.

        Each distinct gate object is formatted once per call, so the
        repeats of an elaborated ``.qbr`` program (one :class:`Gate`
        per distinct gate) cost a lookup.  The memo is keyed by
        ``id(gate)`` and lives only for the call, while ``self.gates``
        keeps every gate alive, so no id is reused.  The digest takes
        one joined buffer; BLAKE2b over it equals the per-gate updates
        it concatenates, so the hash does not depend on the sharing.
        """
        parts = [f"{self.num_qubits}".encode()]
        for label in self.labels or ():
            encoded = label.encode()
            # Length prefix: ["al","x"] must not collide with ["a","lx"].
            parts.append(f"l{len(encoded)}:".encode() + encoded)
        formatted: Dict[int, str] = {}
        body: List[str] = []
        for gate in self.gates:
            text = formatted.get(id(gate))
            if text is None:
                text = formatted[id(gate)] = (
                    f"|{gate.name}:{','.join(map(str, gate.qubits))}"
                    f":{','.join(map(str, gate.params))}"
                )
            body.append(text)
        parts.append("".join(body).encode())
        return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()

    def label_of(self, qubit: int) -> str:
        """Human-readable name of a wire."""
        if self.labels is not None:
            return self.labels[qubit]
        return f"q{qubit}"

    def __str__(self) -> str:
        header = f"Circuit({self.num_qubits} qubits, {len(self.gates)} gates)"
        body = "\n".join(f"  {gate}" for gate in self.gates[:40])
        if len(self.gates) > 40:
            body += f"\n  ... ({len(self.gates) - 40} more)"
        return f"{header}\n{body}" if self.gates else header

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"
