"""SAT solving — half of system S9.

The paper discharges formulas (6.1)/(6.2) with CVC5 and Bitwuzla; those
native solvers are unavailable offline, so this package provides
self-contained replacements (see the substitutions in
``docs/reproduction.md``):

* :class:`repro.sat.cdcl.CdclSolver` — conflict-driven clause learning with
  two-literal watching, VSIDS, 1-UIP learning, phase saving, Luby restarts
  and clause-database reduction (the Bitwuzla stand-in).  The solver is
  **incremental**: ``add_clause`` extends a live instance between
  ``solve`` calls, ``solve(assumptions=...)`` answers under a temporary
  prefix, ``solve(focus=...)`` restricts branching and propagation to a
  cone of variables, and ``probe(literal, focus=...)`` asserts one root
  literal with fresh-solver economics and rolls it back — the mechanism
  the ``cdcl`` checker backend uses to discharge every per-qubit
  obligation off one shared Tseitin instance;
* :func:`repro.sat.brute.brute_force_solve` — exhaustive enumeration, used
  as the differential-testing oracle.
"""

from repro.sat.result import SatResult, SatStats
from repro.sat.cdcl import CdclSolver
from repro.sat.brute import brute_force_solve

__all__ = [
    "CdclSolver",
    "SatResult",
    "SatStats",
    "brute_force_solve",
]
