"""The default backend: conflict-driven clause learning SAT.

Runs **incrementally** by default: one long-lived
:class:`~repro.sat.cdcl.CdclSolver` holds the circuit's shared Tseitin
instance and every (6.1)/(6.2) obligation is an assumption probe
against it, keeping learned clauses, activities and phases across the
whole per-qubit batch (see :mod:`repro.verify.backends.sat`).  Pass
``incremental=False`` for the historical fresh-instance-per-check
behaviour — the benchmark's baseline knob.
"""

from __future__ import annotations

from repro.boolfn.cnf import Cnf
from repro.sat.cdcl import CdclSolver
from repro.sat.result import SatResult
from repro.verify.backends.registry import register_backend
from repro.verify.backends.sat import SatCheckerBackend
from repro.verify.tracking import TrackedFormulas


@register_backend("cdcl")
class CdclCheckerBackend(SatCheckerBackend):
    """Decide the obligations with :class:`repro.sat.cdcl.CdclSolver`."""

    incremental = True

    def __init__(self, tracked: TrackedFormulas, incremental: bool = True):
        self.incremental = incremental
        super().__init__(tracked)

    def _new_incremental_solver(self) -> CdclSolver:
        return CdclSolver()

    def _run_solver(self, cnf: Cnf) -> SatResult:
        return CdclSolver(cnf).solve()
