"""The vectorised truth-table backend — exhaustive checking, fast.

Where the ``brute`` backend enumerates CNF assignments one interpreter
step at a time, this backend hands each obligation cone to
:func:`repro.boolfn.bitset.bitset_solve`: one arbitrary-precision
integer per DAG node evaluates all ``2**n`` assignments per Python-level
op.  On cones the obligations actually produce (bounded by the circuit
width), exhaustive checking becomes the *fast* path — it beats the CNF
solvers outright on the adder family — while remaining the same
enumeration-complete oracle.  Cones wider than ``max_vars`` raise
:class:`~repro.errors.SolverError`.
"""

from __future__ import annotations

import time

from repro.boolfn.bitset import DEFAULT_MAX_VARS, bitset_solve
from repro.verify.backends.base import BooleanCheckOutcome, CheckerBackend
from repro.verify.backends.registry import register_backend
from repro.verify.tracking import TrackedFormulas, formula_61, formula_62


@register_backend("bitset")
class BitsetCheckerBackend(CheckerBackend):
    """Decide the obligations by vectorised truth-table evaluation."""

    def __init__(self, tracked: TrackedFormulas, max_vars: int = DEFAULT_MAX_VARS):
        super().__init__(tracked)
        self.max_vars = max_vars

    def check_qubit(self, qubit: int, clean: bool = False) -> BooleanCheckOutcome:
        start = time.perf_counter()
        expr1 = formula_61(self.tracked, qubit)
        result1, model1 = bitset_solve(expr1, max_vars=self.max_vars)
        assignments = result1.stats.decisions
        if result1.is_sat:
            model1[self.tracked.names[qubit]] = False
            return BooleanCheckOutcome(
                qubit,
                safe=False,
                failed_condition="zero-restoration",
                counterexample=model1,
                solve_seconds=time.perf_counter() - start,
                details={"assignments": assignments},
            )
        if not clean:
            expr2 = formula_62(self.tracked, qubit)
            result2, model2 = bitset_solve(expr2, max_vars=self.max_vars)
            if result2.is_sat:
                return BooleanCheckOutcome(
                    qubit,
                    safe=False,
                    failed_condition="plus-restoration",
                    counterexample=model2,
                    solve_seconds=time.perf_counter() - start,
                    details={"assignments": result2.stats.decisions},
                )
            assignments += result2.stats.decisions
        return BooleanCheckOutcome(
            qubit,
            safe=True,
            solve_seconds=time.perf_counter() - start,
            details={"assignments": assignments},
        )
