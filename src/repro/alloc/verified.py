"""Safety-aware placement: verify lazily, then delegate.

The seed's schedulers verified *every* requested ancilla up front, even
ones no idle host could ever take — pure wasted solver time.  This
wrapper inverts the order: it first reads the conflict model, drops
ancillas with no candidate host (they stay real wires, no solver run),
then batches the survivors through one
:class:`~repro.verify.batch.BatchVerifier` call so tracking, checkers
and verdict memoisation are shared.  Ancillas that verify unsafe are
excluded and the wrapped strategy plans placement for the safe rest.

Only classical circuits can be auto-verified; a non-classical circuit
with candidate-hosted ancillas raises
:class:`~repro.errors.VerificationError`, same as the Section 6
pipeline itself.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.alloc.base import AllocationStrategy
from repro.alloc.model import ConflictModel, Placement
from repro.alloc.registry import make_strategy, register_strategy
from repro.errors import CircuitError, VerificationError
from repro.verify.batch import BatchVerifier


@register_strategy("verified")
class VerifiedStrategy(AllocationStrategy):
    """Lazy batched safety gate around any registered strategy.

    Parameters
    ----------
    inner:
        Name of the strategy that plans placement for the ancillas that
        verify safe (default ``"greedy"``).
    verifier:
        A shared :class:`~repro.verify.batch.BatchVerifier`; by default
        the strategy owns a private one (so verdicts memoise across
        repeated plans on the same circuit).
    backend:
        Backend name for the private verifier when none is supplied.
    precertified:
        Ancilla wires whose safety was already proven *statically* —
        typically the surface language's borrow checker
        (``ElaboratedProgram.proven_wires``).  They are treated as safe
        without a solver obligation; every skip of an otherwise-due
        verification bumps :attr:`static_discharged`.
    """

    def __init__(
        self,
        inner: str = "greedy",
        verifier: Optional[object] = None,
        backend: str = "bdd",
        precertified: Optional[Iterable[int]] = None,
    ):
        if inner == "verified":
            raise CircuitError("verified strategy cannot wrap itself")
        self.inner = make_strategy(inner)
        if verifier is None:
            verifier = BatchVerifier(backend=backend)
        self.verifier = verifier
        #: Wires proven safe before planning (no solver run needed).
        self.precertified: FrozenSet[int] = frozenset(precertified or ())
        #: Lifetime count of solver obligations skipped because the
        #: ancilla arrived pre-certified.
        self.static_discharged = 0
        #: Ancilla wire -> verdict of the last :meth:`plan` call;
        #: ancillas skipped as host-less never appear (never verified).
        self.last_safety: Dict[int, bool] = {}

    def plan(self, model: ConflictModel) -> Placement:
        hostless = [a for a in model.ancillas if not model.candidates[a]]
        to_verify = [
            a
            for a in model.ancillas
            if model.candidates[a] and a not in self.precertified
        ]
        certified = [
            a
            for a in model.ancillas
            if model.candidates[a] and a in self.precertified
        ]

        self.last_safety = {}
        for a in certified:
            self.last_safety[a] = True
        self.static_discharged += len(certified)
        unsafe = []
        if to_verify:
            from repro.circuits.classical import is_classical_circuit

            if not is_classical_circuit(model.circuit):
                raise VerificationError(
                    "verified allocation needs a classical circuit "
                    "(X / multi-controlled-NOT gates only)"
                )
            report = self.verifier.verify_circuit(model.circuit, to_verify)
            for verdict in report.verdicts:
                self.last_safety[verdict.qubit] = verdict.safe
                if not verdict.safe:
                    unsafe.append(verdict.qubit)

        # Keep the model's ancilla order (certified and verified alike).
        admitted = set(certified)
        admitted.update(a for a in to_verify if a not in unsafe)
        safe = [a for a in model.ancillas if a in admitted]
        placement = self.inner.plan(model.restrict(safe))
        for a in hostless:
            placement.unplaced.append(a)
            placement.notes.append(
                f"ancilla {a}: no candidate host, verification skipped"
            )
        for a in unsafe:
            placement.unplaced.append(a)
            placement.notes.append(
                f"ancilla {a}: not safely uncomputed, left in place"
            )
        placement.unplaced.sort()
        return placement
