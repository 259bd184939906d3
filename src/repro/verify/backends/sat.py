"""Shared machinery of the CNF SAT backends (cdcl / brute).

Each check Tseitin-encodes the obligation and runs the solver named by
the subclass.  The zero-restoration formulas (6.1) of different qubits
are cones over the *same* tracked ``b_q`` DAGs, so those encodings are
accumulated in one per-circuit :class:`TseitinEncoder` — node variables
and defining clauses are emitted once and reused by every later check
on the circuit.  The plus-restoration formulas (6.2) are dominated by
qubit-specific cofactors with little cross-qubit sharing, so they use a
cone-local encoder to keep each solver instance minimal.

Backends whose engine is incremental (``incremental = True``, i.e.
cdcl) go further: **one long-lived solver per circuit** holds the whole
shared Tseitin instance — (6.1) *and* (6.2) cones, which share their
``b_q`` subterms through hash-consing — and every obligation is
discharged as an *assumption probe* (``solve(assumptions=[root])``)
against it.  Defining clauses are fed to the solver exactly once, and
learned clauses, variable activities and saved phases carry over
between probes, so a 13-obligation batch costs a fraction of 13 fresh
solver runs.  The batch engine runs every probe in the caller's
thread, on the one solver its checker owns.
"""

from __future__ import annotations

import time
from typing import ClassVar, Dict, Optional, Tuple

from repro.boolfn.cnf import Cnf, TseitinEncoder
from repro.boolfn.expr import Expr
from repro.errors import SolverError
from repro.sat.result import SatResult
from repro.verify.backends.base import BooleanCheckOutcome, CheckerBackend
from repro.verify.tracking import TrackedFormulas, formula_61, formula_62


class SatCheckerBackend(CheckerBackend):
    """Decide formulas (6.1)/(6.2) with a CNF SAT solver."""

    #: Whether (6.1) checks share one per-circuit encoder.  The brute
    #: backend turns this off: enumeration is exponential in the
    #: variable count, so its instances must stay cone-local.
    share_zero_encoder: ClassVar[bool] = True
    #: Whether obligations are assumption probes against one long-lived
    #: solver (requires :meth:`_new_incremental_solver`).  May be
    #: overridden per instance by subclass constructors.
    incremental: ClassVar[bool] = False

    def __init__(self, tracked: TrackedFormulas):
        super().__init__(tracked)
        self._zero_encoder: Optional[TseitinEncoder] = (
            TseitinEncoder() if self.share_zero_encoder else None
        )
        if self.incremental:
            #: One encoder + one solver for the whole circuit.
            self._inc_encoder = TseitinEncoder()
            self._inc_solver = None
            self._inc_fed = 0

    # ------------------------------------------------------------------ #
    # Solver plumbing
    # ------------------------------------------------------------------ #

    def _run_solver(self, cnf: Cnf) -> SatResult:
        raise NotImplementedError

    def _new_incremental_solver(self):
        raise SolverError(
            f"backend {self.name!r} declares incremental=True but "
            f"provides no incremental solver"
        )

    def _solve_fresh(
        self, expr: Expr
    ) -> Tuple[SatResult, Optional[Dict[str, bool]], Cnf]:
        encoder = TseitinEncoder()
        encoder.assert_true(expr)
        result = self._run_solver(encoder.cnf)
        model = encoder.decode_model(result.model) if result.is_sat else None
        return result, model, encoder.cnf

    def _solve_shared(
        self, expr: Expr
    ) -> Tuple[SatResult, Optional[Dict[str, bool]], Cnf]:
        """Encode into the per-circuit instance, assert via one extra
        unit clause, and solve a throwaway view of the clause list."""
        if self._zero_encoder is None:
            return self._solve_fresh(expr)
        literal = self._zero_encoder.literal(expr)
        base = self._zero_encoder.cnf
        cnf = Cnf(base.num_vars, base.clauses + [[literal]])
        result = self._run_solver(cnf)
        model = None
        if result.is_sat:
            model = self._zero_encoder.decode_model(result.model)
        return result, model, cnf

    def _solve_incremental(
        self, expr: Expr
    ) -> Tuple[SatResult, Optional[Dict[str, bool]], Cnf]:
        """Encode into the long-lived instance and probe one assumption.

        The root literal is asserted only for the duration of the
        :meth:`~repro.sat.cdcl.CdclSolver.probe` call, so the instance
        stays satisfiable and reusable while each probe runs with
        fresh-solver mechanics; variable activities and saved phases
        carry over between probes.  Because nothing is ever asserted
        permanently except refuted roots (which are entailed), the
        instance stays definitional — which licenses the ``focus``
        shortcut: branching and propagation are restricted to the
        obligation's own cone, so each probe searches a space the size
        of a fresh cone-local instance without paying re-encoding.
        """
        literal = self._inc_encoder.literal(expr)
        focus = self._inc_encoder.cone_vars(expr)
        solver = self._inc_solver
        if solver is None:
            solver = self._inc_solver = self._new_incremental_solver()
        cnf = self._inc_encoder.cnf
        solver.ensure_vars(cnf.num_vars)
        clauses = cnf.clauses
        while self._inc_fed < len(clauses):
            solver.add_clause(clauses[self._inc_fed])
            self._inc_fed += 1
        result = solver.probe(literal, focus=focus)
        if not result.is_sat:
            # UNSAT under the assumption means the instance entails
            # the root's negation; asserting it is equivalence-
            # preserving and lets later probes unit-propagate
            # through this cone instead of re-searching it.
            solver.add_clause([-literal])
        model = (
            self._inc_encoder.decode_model(result.model)
            if result.is_sat
            else None
        )
        return result, model, cnf

    def _discharge(
        self, expr: Expr, shared: bool
    ) -> Tuple[SatResult, Optional[Dict[str, bool]], Cnf]:
        if self.incremental:
            return self._solve_incremental(expr)
        if shared:
            return self._solve_shared(expr)
        return self._solve_fresh(expr)

    # ------------------------------------------------------------------ #
    # The Theorem 6.4 check
    # ------------------------------------------------------------------ #

    def check_qubit(self, qubit: int, clean: bool = False) -> BooleanCheckOutcome:
        start = time.perf_counter()
        expr1 = formula_61(self.tracked, qubit)
        result1, model1, cnf1 = self._discharge(expr1, shared=True)
        clauses = len(cnf1.clauses)
        if result1.is_sat:
            model1[self.tracked.names[qubit]] = False
            return BooleanCheckOutcome(
                qubit,
                safe=False,
                failed_condition="zero-restoration",
                counterexample=model1,
                solve_seconds=time.perf_counter() - start,
                details={"cnf_clauses": clauses},
            )
        if not clean:
            expr2 = formula_62(self.tracked, qubit)
            result2, model2, cnf2 = self._discharge(expr2, shared=False)
            if result2.is_sat:
                return BooleanCheckOutcome(
                    qubit,
                    safe=False,
                    failed_condition="plus-restoration",
                    counterexample=model2,
                    solve_seconds=time.perf_counter() - start,
                    details={"cnf_clauses": len(cnf2.clauses)},
                )
            clauses += len(cnf2.clauses)
        return BooleanCheckOutcome(
            qubit,
            safe=True,
            solve_seconds=time.perf_counter() - start,
            details={"cnf_clauses": clauses},
        )
