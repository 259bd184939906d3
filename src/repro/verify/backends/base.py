"""The abstract checker-backend interface.

A backend decides the two Theorem 6.4 obligations for one dirty qubit of
one tracked circuit: (6.1) |0>-restoration, then (6.2) |+>-restoration.
A clean (``alloc``) wire owes only (6.1), so ``check_qubit(q,
clean=True)`` returns once (6.1) is decided.  Concrete backends
subclass :class:`CheckerBackend` and register themselves under a name with
:func:`repro.verify.backends.registry.register_backend`; callers obtain
instances through :func:`~repro.verify.backends.registry.make_checker`
or, at scale, through :class:`repro.verify.batch.BatchVerifier`.

The batch engine calls ``check_qubit`` in the caller's thread, one
obligation at a time, so backends keep per-circuit state without
locks.  It also calls ``check_qubit(q,
clean=True)`` for a dirty wire whose (6.2) the dependence sweep
(:mod:`repro.verify.sweep`) has already proved.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

from repro.verify.tracking import TrackedFormulas


@dataclass
class BooleanCheckOutcome:
    """Verdict of the Theorem 6.4 check for one wire."""

    qubit: int
    safe: bool
    failed_condition: Optional[str] = None
    counterexample: Optional[Dict[str, bool]] = None
    solve_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.safe


class CheckerBackend(abc.ABC):
    """One verification backend bound to one tracked circuit.

    Subclasses implement :meth:`check_qubit`; construction is the place
    to build shared per-circuit structures (compiled BDDs, Tseitin
    tables) that every per-qubit check then reuses.
    """

    #: Registry name; set by the ``@register_backend`` decorator.
    name: ClassVar[str] = "?"

    def __init__(self, tracked: TrackedFormulas):
        self.tracked = tracked

    @abc.abstractmethod
    def check_qubit(self, qubit: int, clean: bool = False) -> BooleanCheckOutcome:
        """Decide formula (6.1) for one wire and, unless it is
        ``clean``, formula (6.2) as well."""
