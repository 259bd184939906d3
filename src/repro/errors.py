"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses mirror the major
subsystems: linear algebra, circuits, the QBorrow language, denotational
semantics, Boolean reasoning and verification.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class QubitError(ReproError):
    """Raised for invalid qubit indices, duplicates, or dimension mismatches."""


class CircuitError(ReproError):
    """Raised for malformed circuits or gates."""


class CapacityError(CircuitError):
    """Raised when a job needs more free machine qubits than exist.

    The online multi-programmer distinguishes this from other
    :class:`CircuitError` cases: a capacity rejection is *transient*
    (the job may fit after a release) and is what sends an arrival to
    the admission queue instead of failing the submission.
    """


class InvariantViolation(ReproError):
    """Raised by :mod:`repro.testing` when a scheduler safety invariant
    fails — a double-owned wire, a dangling lender, an unsound borrow
    placement.  Always carries enough context to reproduce."""


class ParseError(ReproError):
    """Raised by the QBorrow surface-language lexer and parser.

    Carries the 1-based source position so front ends can point at the
    offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SemanticsError(ReproError):
    """Raised when a program cannot be interpreted.

    The most important instance is a *stuck* ``borrow`` statement: the
    denotational semantics of ``borrow a; S; release a`` is the empty set
    when ``idle(S)`` is empty (Section 4.2 of the paper).
    """


class BooleanError(ReproError):
    """Raised for malformed Boolean expressions or CNF clauses."""


class SolverError(ReproError):
    """Raised when a SAT/BDD backend is misused or exceeds its limits."""


class VerificationError(ReproError):
    """Raised when a verifier is applied outside its supported fragment.

    For example, the Theorem 6.2 / 6.4 classical checkers only apply to
    circuits built from X and multi-controlled-NOT gates.
    """
