"""The enumeration oracle backend — differential-testing ground truth.

Brute force is exponential in the CNF variable count, so this backend
never shares encodings: every check gets a cone-local instance, keeping
the count at the minimum the obligation needs.

Cones within ``bitset_max_vars`` variables never reach the CNF
enumerator at all: they are dispatched to the vectorised truth-table
kernel (:func:`repro.boolfn.bitset.bitset_solve`), which decides the
same exhaustive question with one big-int op per DAG node instead of
one interpreter step per (assignment, clause) pair.  Verdicts are
identical by construction — both enumerate the full assignment space —
and every witness is replayed on the simulator downstream, so the fast
path changes the wall clock, not the oracle.  Pass ``bitset_max_vars=0``
to force the historical pure-CNF enumeration (the benchmark's baseline
knob).
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Tuple

from repro.boolfn.bitset import DEFAULT_MAX_VARS, bitset_solve
from repro.boolfn.cnf import Cnf
from repro.boolfn.expr import Expr
from repro.sat.brute import brute_force_solve
from repro.sat.result import SatResult
from repro.verify.backends.registry import register_backend
from repro.verify.backends.sat import SatCheckerBackend
from repro.verify.tracking import TrackedFormulas


@register_backend("brute")
class BruteCheckerBackend(SatCheckerBackend):
    """Decide the obligations by exhaustive assignment enumeration."""

    share_zero_encoder: ClassVar[bool] = False

    def __init__(
        self,
        tracked: TrackedFormulas,
        bitset_max_vars: int = DEFAULT_MAX_VARS,
    ):
        super().__init__(tracked)
        self.bitset_max_vars = bitset_max_vars

    def _solve_fresh(
        self, expr: Expr
    ) -> Tuple[SatResult, Optional[Dict[str, bool]], Cnf]:
        if len(expr.variables()) <= self.bitset_max_vars:
            result, model = bitset_solve(expr, max_vars=self.bitset_max_vars)
            # No CNF was built; an empty instance keeps the outcome
            # details honest (zero clauses enumerated).
            return result, model, Cnf()
        return super()._solve_fresh(expr)

    def _run_solver(self, cnf: Cnf) -> SatResult:
        return brute_force_solve(cnf)
