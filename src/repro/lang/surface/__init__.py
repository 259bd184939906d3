"""The concrete QBorrow surface language (``.qbr`` files) — system S7.

A hand-written front end for the ANTLR grammar of the paper's artifact
appendix (Section 10.3): ``let`` bindings, ``borrow`` / ``borrow@`` /
``alloc`` / ``release`` register declarations, ``X``/``CNOT``/``CCNOT``
gate statements, arithmetic expressions and bidirectional ``for``
loops — plus this repository's ownership constructs, the scoped
``borrow b { within {...} apply {...} }`` block and ``lend x {...}``
(reference and diagnostics catalogue in ``docs/language.md``).

Module tour:

* :mod:`repro.lang.surface.lexer` — tokens, keywords, comments.
* :mod:`repro.lang.surface.parser` — recursive descent to the surface
  AST (``RegRef``, ``GateStmt``, ``BorrowBlock``, ``LendBlock``, ...).
* :mod:`repro.lang.surface.elaborate` — lowers the AST to a flat
  classical circuit with qubit roles, drives the borrow checker, and
  bridges to allocation/scheduling (``verify_qbr``, ``job_from_qbr``).
* :mod:`repro.lang.surface.sources` — the paper's ``.qbr`` templates
  (the Haner adder, the dirty-ancilla MCX ladder).

Pipeline: :func:`parse` (source → surface AST) →
:func:`elaborate` (AST → flat circuit + qubit roles + proven wires;
given source text, it elaborates each statement as
:func:`iter_statements` reads it) →
:func:`verify_qbr` (circuit → per-dirty-qubit safe-uncomputation
report) or :func:`job_from_qbr` (circuit → scheduler job; passing
``trust_checker=True`` opts in to marking checker-proven wires
pre-certified).
"""

from repro.lang.surface.lexer import tokenize
from repro.lang.surface.parser import iter_statements, parse
from repro.lang.surface.elaborate import (
    ElaboratedProgram,
    elaborate,
    elaborate_file,
    job_from_qbr,
    verify_qbr,
)

__all__ = [
    "ElaboratedProgram",
    "elaborate",
    "elaborate_file",
    "iter_statements",
    "job_from_qbr",
    "parse",
    "tokenize",
    "verify_qbr",
]
