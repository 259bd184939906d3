"""Verdict records shared by the verification pipeline and batch engine.

Unsafe verdicts carry a concrete counterexample (an initial
computational-basis state) which is *replayed on the classical
simulator* before being reported, so a solver bug can never report a
spurious violation silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.circuits.circuit import Circuit
from repro.circuits.classical import apply_to_bits
from repro.errors import VerificationError
from repro.verify.backends.base import BooleanCheckOutcome


@dataclass(frozen=True)
class Counterexample:
    """A violating initial basis state for an unsafe dirty qubit.

    ``input_bits`` lists the initial state per wire.  For a
    ``zero-restoration`` violation the dirty qubit starts at 0 and ends
    at 1; for ``plus-restoration`` some other qubit's output depends on
    the dirty qubit's initial value (flip it and re-run to observe).
    """

    kind: str
    assignment: Dict[str, bool]
    input_bits: List[int]

    def describe(self) -> str:
        bits = "".join(str(b) for b in self.input_bits)
        return f"{self.kind} violated from initial state |{bits}>"


@dataclass(frozen=True)
class QubitVerdict:
    """Per-dirty-qubit outcome."""

    qubit: int
    name: str
    safe: bool
    failed_condition: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    solve_seconds: float = 0.0

    def __str__(self) -> str:
        if self.safe:
            return f"{self.name}: SAFE ({self.solve_seconds:.3f}s)"
        return (
            f"{self.name}: UNSAFE [{self.failed_condition}] "
            f"({self.solve_seconds:.3f}s)"
        )


@dataclass
class VerificationReport:
    """Outcome of one circuit's verification over its dirty qubits.

    ``total_seconds`` is the wall time of the verify *call* that
    produced the report — for a batched call, the whole batch (shared,
    possibly overlapping work makes per-job wall time ill-defined), so
    it must not be summed across a batch.  ``track_seconds`` and
    ``build_seconds`` are the one-off costs of this circuit's formula
    tracking and of its backend checker (:func:`make_checker`: the ROBDD
    compile for ``bdd``); ``solver_seconds`` is the per-qubit
    attribution Figures 6.3/6.4 plot.
    """

    backend: str
    num_qubits: int
    num_gates: int
    verdicts: List[QubitVerdict] = field(default_factory=list)
    track_seconds: float = 0.0
    build_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Memoised verdicts reused / freshly computed by the batch engine
    #: (both stay 0 on the non-memoising single-shot path).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def all_safe(self) -> bool:
        return all(v.safe for v in self.verdicts)

    @property
    def solver_seconds(self) -> float:
        """Aggregate backend time — the quantity Figures 6.3/6.4 plot."""
        return sum(v.solve_seconds for v in self.verdicts)

    def verdict_for(self, name: str) -> QubitVerdict:
        for verdict in self.verdicts:
            if verdict.name == name:
                return verdict
        raise VerificationError(f"no verdict for qubit {name!r}")

    def summary(self) -> str:
        lines = [
            f"backend={self.backend} qubits={self.num_qubits} "
            f"gates={self.num_gates} "
            f"track={self.track_seconds:.3f}s build={self.build_seconds:.3f}s "
            f"solver={self.solver_seconds:.3f}s total={self.total_seconds:.3f}s"
        ]
        lines.extend(f"  {verdict}" for verdict in self.verdicts)
        return "\n".join(lines)


def outcome_to_verdict(
    circuit: Circuit,
    names: Dict[int, str],
    outcome: BooleanCheckOutcome,
    replay: bool,
) -> QubitVerdict:
    """Turn a backend outcome into a verdict, replaying counterexamples."""
    name = names[outcome.qubit]
    if outcome.safe:
        return QubitVerdict(
            outcome.qubit, name, True, solve_seconds=outcome.solve_seconds
        )
    assignment = dict(outcome.counterexample or {})
    input_bits = [
        1 if assignment.get(names[q], False) else 0
        for q in range(circuit.num_qubits)
    ]
    if outcome.failed_condition == "zero-restoration":
        input_bits[outcome.qubit] = 0
    counterexample = Counterexample(
        outcome.failed_condition, assignment, input_bits
    )
    if replay:
        replay_counterexample(circuit, outcome.qubit, counterexample)
    return QubitVerdict(
        outcome.qubit,
        name,
        False,
        failed_condition=outcome.failed_condition,
        counterexample=counterexample,
        solve_seconds=outcome.solve_seconds,
    )


def replay_counterexample(
    circuit: Circuit, qubit: int, cex: Counterexample
) -> None:
    """Confirm a counterexample on the classical simulator."""
    bits = list(cex.input_bits)
    if cex.kind == "zero-restoration":
        bits[qubit] = 0
        out = apply_to_bits(circuit, bits)
        if out[qubit] == 0:
            raise VerificationError(
                f"backend produced a bogus zero-restoration counterexample "
                f"{bits}"
            )
        return
    if cex.kind == "plus-restoration":
        low = list(bits)
        low[qubit] = 0
        high = list(bits)
        high[qubit] = 1
        out_low = apply_to_bits(circuit, low)
        out_high = apply_to_bits(circuit, high)
        differs = any(
            out_low[w] != out_high[w]
            for w in range(circuit.num_qubits)
            if w != qubit
        )
        if not differs:
            raise VerificationError(
                f"backend produced a bogus plus-restoration counterexample "
                f"{bits}"
            )
        return
    raise VerificationError(f"unknown counterexample kind {cex.kind!r}")
