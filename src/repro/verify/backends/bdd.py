"""The ROBDD backend, with per-circuit formula sharing.

All final formulas are compiled once into one manager (shared node
cache) at construction; per-qubit checks are then cofactor/XOR/zero-test
operations, each memoised inside the manager.  Canonicity makes the
unsatisfiability tests O(1) once the compile is paid — which is why the
batch engine's one-checker-per-circuit reuse matters most here.

The manager's unique/apply tables are not safe under concurrent
mutation, so this backend is ``parallel_safe = False``: the batch engine
serialises its checks (they are cheap after the shared compile).
"""

from __future__ import annotations

import threading
import time
from typing import ClassVar, Dict, List, Optional

from repro.bdd.robdd import Bdd
from repro.circuits.circuit import Circuit
from repro.errors import SolverCancelled
from repro.verify.backends.base import BooleanCheckOutcome, CheckerBackend
from repro.verify.backends.registry import register_backend
from repro.verify.tracking import TrackedFormulas


def variable_order(circuit: Circuit) -> List[int]:
    """The circuit's wires in ROBDD variable order, top first.

    Wires are sorted by the index of the first gate that touches them,
    ties by wire index; wires no gate touches come last.  The order
    follows the gates rather than the declarations, so wires first used
    together sit at neighbouring levels (an adder's two registers
    interleave bit by bit, for instance).
    """
    first_use: Dict[int, int] = {}
    for index, gate in enumerate(circuit.gates):
        for qubit in gate.qubits:
            first_use.setdefault(qubit, index)
        if len(first_use) == circuit.num_qubits:
            break
    untouched = len(circuit.gates)
    return sorted(
        range(circuit.num_qubits),
        key=lambda qubit: (first_use.get(qubit, untouched), qubit),
    )


@register_backend("bdd")
class BddCheckerBackend(CheckerBackend):
    """Decide formulas (6.1)/(6.2) on ROBDDs with formula sharing.

    The manager orders its variables by :func:`variable_order`;
    ``reverse_order=True`` builds it over the reverse of that order, the
    variable-order ablation registered separately as ``bdd-reversed``.
    """

    parallel_safe: ClassVar[bool] = False

    def __init__(self, tracked: TrackedFormulas, reverse_order: bool = False):
        super().__init__(tracked)
        order = [tracked.names[q] for q in variable_order(tracked.circuit)]
        if reverse_order:
            order.reverse()
        self.bdd = Bdd(order)
        self._expr_cache: Dict[int, int] = {}
        self.compiled: Dict[int, int] = {}
        for q in range(tracked.circuit.num_qubits):
            self.compiled[q] = self.bdd.from_expr(
                tracked.formulas[q], self._expr_cache
            )

    def check_qubit(
        self,
        qubit: int,
        cancel_event: Optional[threading.Event] = None,
    ) -> BooleanCheckOutcome:
        start = time.perf_counter()
        name = self.tracked.names[qubit]
        bdd = self.bdd
        # Formula (6.1): b_q with q := 0 must be the 0 terminal.
        zero_cofactor = bdd.restrict(self.compiled[qubit], name, False)
        if not bdd.is_false(zero_cofactor):
            model = bdd.any_sat(zero_cofactor) or {}
            model[name] = False
            return BooleanCheckOutcome(
                qubit,
                safe=False,
                failed_condition="zero-restoration",
                counterexample=model,
                solve_seconds=time.perf_counter() - start,
                details={"bdd_nodes": bdd.node_count},
            )
        # Formula (6.2): each other final formula must be q-independent.
        for other in range(self.tracked.circuit.num_qubits):
            if cancel_event is not None and cancel_event.is_set():
                raise SolverCancelled("BDD check cancelled by caller")
            if other == qubit:
                continue
            f = self.compiled[other]
            derivative = bdd.apply_xor(
                bdd.restrict(f, name, False), bdd.restrict(f, name, True)
            )
            if not bdd.is_false(derivative):
                model = bdd.any_sat(derivative) or {}
                return BooleanCheckOutcome(
                    qubit,
                    safe=False,
                    failed_condition="plus-restoration",
                    counterexample=model,
                    solve_seconds=time.perf_counter() - start,
                    details={
                        "bdd_nodes": bdd.node_count,
                        "dependent_qubit": self.tracked.names[other],
                    },
                )
        return BooleanCheckOutcome(
            qubit,
            safe=True,
            solve_seconds=time.perf_counter() - start,
            details={"bdd_nodes": bdd.node_count},
        )
