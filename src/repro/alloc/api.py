"""The allocation driver: model -> strategy -> rewritten circuit.

:func:`allocate` is the Figure 3.1 pass's one front door.  It builds
the interval-conflict model, applies the caller's safety gate
(``safety_check`` / ``on_unsafe``), hands the surviving ancillas to a
registered strategy, and materialises the winning placement as a
compacted circuit, returned as a :class:`BorrowPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.alloc.base import AllocationStrategy
from repro.alloc.model import ConflictModel, build_model
from repro.alloc.registry import make_strategy
from repro.circuits.circuit import Circuit
from repro.circuits.intervals import ActivityInterval, WindowSet
from repro.errors import CircuitError

StrategyLike = Union[str, AllocationStrategy]

#: Decides safe uncomputation (Definition 3.1) of one ancilla.
SafetyCheck = Callable[[Circuit, int], bool]


@dataclass
class BorrowPlan:
    """Outcome of :func:`allocate`.

    Attributes
    ----------
    circuit:
        The rewritten circuit on the compacted register.
    assignment:
        Original ancilla index -> original host qubit index.
    unplaced:
        Ancillas for which no idle host existed (kept as real wires).
    periods:
        The activity period used for each ancilla.
    windows:
        Lending window of each ancilla — a
        :class:`~repro.circuits.intervals.WindowSet` of disjoint
        gate-index segments a guest occupies whatever wire hosts it
        (the whole period as one segment, or the restore-point
        segmentation of a ``segmented`` model — see
        :class:`repro.alloc.model.ConflictModel`).  The online
        multi-programmer shifts these onto the machine timeline to
        decide whether an unplaced ancilla may lease a lent co-tenant
        wire.
    wire_map:
        Original qubit index -> new index, for every surviving wire.
    original_width / final_width:
        Register widths before and after the pass.
    strategy:
        Name of the allocation strategy that produced the placement.
    """

    circuit: Circuit
    assignment: Dict[int, int]
    unplaced: List[int]
    periods: Dict[int, ActivityInterval]
    wire_map: Dict[int, int]
    original_width: int
    final_width: int
    notes: List[str] = field(default_factory=list)
    strategy: str = "greedy"
    windows: Dict[int, WindowSet] = field(default_factory=dict)

    @property
    def qubits_saved(self) -> int:
        return self.original_width - self.final_width

    def __str__(self) -> str:
        lines = [
            f"width {self.original_width} -> {self.final_width}",
            f"borrowed: "
            + ", ".join(f"a{a}->q{h}" for a, h in sorted(self.assignment.items())),
        ]
        if self.unplaced:
            lines.append(f"unplaced ancillas: {sorted(self.unplaced)}")
        return "\n".join(lines)


def allocate(
    circuit: Circuit,
    ancillas: Sequence[int],
    strategy: StrategyLike = "greedy",
    safety_check: Optional[SafetyCheck] = None,
    on_unsafe: str = "error",
    model: Optional[ConflictModel] = None,
    **strategy_options,
) -> BorrowPlan:
    """Eliminate dirty-ancilla wires by borrowing idle qubits.

    Parameters
    ----------
    circuit:
        The input circuit; ``ancillas`` are wire indices to eliminate.
    strategy:
        A registered strategy name (see
        :func:`repro.alloc.registry.available_strategies`) or an
        :class:`AllocationStrategy` instance; ``strategy_options`` are
        forwarded to the constructor when a name is given.
    safety_check:
        Optional predicate ``(circuit, ancilla) -> bool`` deciding safe
        uncomputation (Definition 3.1), applied per ancilla in
        period-start order.  The ``"verified"`` strategy is the batched
        alternative: it verifies only ancillas that have a candidate
        host, through one shared :class:`BatchVerifier` call.
    on_unsafe:
        ``"error"`` raises :class:`CircuitError` at the first unsafe
        ancilla; ``"skip"`` leaves it as a real wire and records a note.
    model:
        An interval-conflict model already built for exactly
        ``(circuit, ancillas)``.  Callers that needed the model for
        their own analysis (the online scheduler's lazy-verification
        gate) pass it back to skip the rebuild, and a model built with
        ``build_model(..., segmented=True)`` plans over restore-point
        windows.  Without one, a whole-period model is built.
    """
    if on_unsafe not in ("error", "skip"):
        raise CircuitError(f"on_unsafe must be 'error' or 'skip', got {on_unsafe!r}")
    if model is None:
        model = build_model(circuit, ancillas)
    elif model.circuit is not circuit or set(model.all_targets) != set(
        ancillas
    ):
        raise CircuitError(
            "the supplied model was built for a different circuit or "
            "ancilla set"
        )

    notes: List[str] = []
    blocked: List[int] = []
    targets = list(model.ancillas)
    if safety_check is not None:
        targets = []
        for a in model.ancillas:
            if safety_check(circuit, a):
                targets.append(a)
                continue
            if on_unsafe == "error":
                raise CircuitError(
                    f"ancilla {a} is not safely uncomputed; refusing to borrow"
                )
            notes.append(f"ancilla {a} unsafe: left in place")
            blocked.append(a)

    if isinstance(strategy, AllocationStrategy):
        if strategy_options:
            raise CircuitError(
                "strategy options only apply when passing a name"
            )
        engine = strategy
    else:
        engine = make_strategy(strategy, **strategy_options)

    placement = engine.plan(model.restrict(targets))
    notes.extend(placement.notes)
    unplaced = sorted((*blocked, *placement.unplaced))
    return materialise(model, placement.assignment, unplaced, notes, engine.name)


def materialise(
    model: ConflictModel,
    assignment: Dict[int, int],
    unplaced: List[int],
    notes: List[str],
    strategy_name: str,
) -> BorrowPlan:
    """Rewrite the circuit onto the compacted register.

    The back end of :func:`allocate`: given a model and a final
    assignment, produce the :class:`BorrowPlan` with ancilla wires
    merged into their hosts and the register compacted.
    """
    circuit = model.circuit
    removed = set(assignment) | set(model.untouched)
    survivors = [q for q in range(circuit.num_qubits) if q not in removed]
    wire_map = {q: i for i, q in enumerate(survivors)}
    remap = dict(wire_map)
    for a, host in assignment.items():
        remap[a] = wire_map[host]

    labels = None
    if circuit.labels is not None:
        labels = [circuit.labels[q] for q in survivors]
    new_circuit = Circuit(len(survivors), labels=labels)
    for gate in circuit.gates:
        new_circuit.append(gate.remap(remap))

    return BorrowPlan(
        circuit=new_circuit,
        assignment=assignment,
        unplaced=unplaced,
        periods=dict(model.periods),
        wire_map=wire_map,
        original_width=circuit.num_qubits,
        final_width=len(survivors),
        notes=notes,
        strategy=strategy_name,
        windows=dict(model.windows),
    )
