"""The variable-order ablation: ROBDDs over the reversed order.

Identical algebra to :mod:`repro.verify.backends.bdd` but with the
variable order of :func:`~repro.verify.backends.bdd.variable_order`
reversed — ablation A3 (``docs/reproduction.md``), quantifying how much
the first-use order buys the canonical representation.
"""

from __future__ import annotations

from repro.verify.backends.bdd import BddCheckerBackend
from repro.verify.backends.registry import register_backend
from repro.verify.tracking import TrackedFormulas


@register_backend("bdd-reversed")
class BddReversedCheckerBackend(BddCheckerBackend):
    """ROBDD checker over the reverse of the first-use order."""

    def __init__(self, tracked: TrackedFormulas):
        super().__init__(tracked, reverse_order=True)
