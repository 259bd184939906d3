"""Pluggable verification backends for the Theorem 6.4 reduction.

Layout
------
* :mod:`~repro.verify.backends.base` — :class:`CheckerBackend` and the
  :class:`BooleanCheckOutcome` verdict record;
* :mod:`~repro.verify.backends.registry` — ``@register_backend`` and the
  name → class lookup behind :func:`make_checker`;
* one module per engine: :mod:`~repro.verify.backends.cdcl`
  (incremental assumption-probing SAT),
  :mod:`~repro.verify.backends.brute` (CNF enumeration, the oracle),
  :mod:`~repro.verify.backends.bitset` (vectorised truth tables),
  :mod:`~repro.verify.backends.bdd` and
  :mod:`~repro.verify.backends.bdd_reversed` (canonical ROBDDs).

Importing this package registers every built-in backend.  Third-party
backends only need to subclass :class:`CheckerBackend` and apply the
decorator; no central list to edit.
"""

from repro.verify.backends.base import BooleanCheckOutcome, CheckerBackend
from repro.verify.backends.registry import (
    available_backends,
    backend_class,
    make_checker,
    register_backend,
)

# Importing the engine modules is what populates the registry.
from repro.verify.backends.cdcl import CdclCheckerBackend
from repro.verify.backends.brute import BruteCheckerBackend
from repro.verify.backends.bitset import BitsetCheckerBackend
from repro.verify.backends.bdd import BddCheckerBackend
from repro.verify.backends.bdd_reversed import BddReversedCheckerBackend
from repro.verify.backends.sat import SatCheckerBackend

__all__ = [
    "BddCheckerBackend",
    "BddReversedCheckerBackend",
    "BitsetCheckerBackend",
    "BooleanCheckOutcome",
    "BruteCheckerBackend",
    "CdclCheckerBackend",
    "CheckerBackend",
    "SatCheckerBackend",
    "available_backends",
    "backend_class",
    "make_checker",
    "register_backend",
]
