"""Reduced ordered binary decision diagrams — the other half of system S9.

The BDD engine decides the paper's formulas (6.1)/(6.2) by canonicity:
a formula is unsatisfiable iff its ROBDD is the 0 terminal.  It plays the
role of the simplification-heavy solver (CVC5) in the two-backend
experiments of Figures 6.3/6.4, and its sensitivity to variable order is
ablation A3 (``docs/reproduction.md``).
"""

from repro.bdd.robdd import Bdd, FALSE_NODE, TRUE_NODE

__all__ = ["Bdd", "FALSE_NODE", "TRUE_NODE"]
