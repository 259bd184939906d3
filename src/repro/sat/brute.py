"""Brute-force SAT by enumeration — the differential-testing oracle.

Only usable for small variable counts; the property-based tests compare
CDCL verdicts against this on random instances.
"""

from __future__ import annotations

from repro.boolfn.cnf import Cnf
from repro.errors import SolverError
from repro.sat.result import SatResult, SatStats


def brute_force_solve(cnf: Cnf, max_vars: int = 24) -> SatResult:
    """Try all ``2**num_vars`` assignments in index order."""
    n = cnf.num_vars
    if n > max_vars:
        raise SolverError(f"brute force caps at {max_vars} variables, got {n}")
    stats = SatStats()
    for word in range(2**n):
        stats.decisions += 1
        if _satisfies(cnf, word):
            model = {v: bool((word >> (v - 1)) & 1) for v in range(1, n + 1)}
            return SatResult(True, model=model, stats=stats)
    return SatResult(False, stats=stats)


def _satisfies(cnf: Cnf, word: int) -> bool:
    for clause in cnf.clauses:
        if not any(
            bool((word >> (abs(lit) - 1)) & 1) == (lit > 0) for lit in clause
        ):
            return False
    return True
