"""The abstract checker-backend interface.

A backend decides the two Theorem 6.4 obligations for one dirty qubit of
one tracked circuit.  Concrete backends subclass :class:`CheckerBackend`
and register themselves under a name with
:func:`repro.verify.backends.registry.register_backend`; callers obtain
instances through :func:`~repro.verify.backends.registry.make_checker`
or, at scale, through :class:`repro.verify.batch.BatchVerifier`.

Thread-safety contract
----------------------
``check_qubit`` may be called from worker threads by the batch engine.
A backend whose per-qubit checks can safely overlap sets
``parallel_safe = True`` (taking internal locks around any shared
mutable state); otherwise the batch engine serialises its checks through
``serial_lock``.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

from repro.verify.tracking import TrackedFormulas


@dataclass
class BooleanCheckOutcome:
    """Verdict of the Theorem 6.4 check for one dirty qubit."""

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
    #: Whether concurrent ``check_qubit`` calls on one instance are safe.
    parallel_safe: ClassVar[bool] = False

    def __init__(self, tracked: TrackedFormulas):
        self.tracked = tracked
        #: Taken by the batch engine around checks of non-parallel-safe
        #: backends (one lock per instance, i.e. per circuit).
        self.serial_lock = threading.Lock()

    @abc.abstractmethod
    def check_qubit(self, qubit: int) -> BooleanCheckOutcome:
        """Decide formulas (6.1)/(6.2) for one dirty qubit."""
