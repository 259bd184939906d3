"""repro — a reproduction of *Borrowing Dirty Qubits in Quantum Programs*
(Su, Zhou, Feng, Ying; ASPLOS 2026).

The package implements the paper's three contributions end to end:

1. **QBorrow** (:mod:`repro.lang`, :mod:`repro.semantics`) — a quantum
   while-language with first-class ``borrow``/``release`` of dirty qubits
   and a denotational semantics interpreting programs as *sets* of
   quantum operations;
2. **safe uncomputation** (:mod:`repro.verify`) — Definition 5.1 and its
   finite characterisations, down to the Theorem 6.4 reduction of
   classical circuits to Boolean unsatisfiability;
3. **scalable verification** (:mod:`repro.sat`, :mod:`repro.bdd`) —
   CDCL-SAT and ROBDD backends deciding the reduction on circuits with
   thousands of qubits, plus the paper's adder and MCX benchmark
   circuits (:mod:`repro.adders`, :mod:`repro.mcx`), the Figure 3.1
   width-reduction pass as a pluggable strategy subsystem
   (:mod:`repro.alloc`), and a Section 7 online multi-programming
   scheduler (:mod:`repro.multiprog`).

Quickstart
----------
>>> from repro import verify_qbr
>>> from repro.lang.surface.sources import adder_qbr_source
>>> report = verify_qbr(adder_qbr_source(10), backend="bdd")
>>> report.all_safe
True
"""

from repro.alloc import allocate, available_strategies
from repro.circuits import Circuit
from repro.lang import borrow, init, seq, skip, unitary
from repro.lang.surface import elaborate, elaborate_file, parse, verify_qbr
from repro.semantics import Interpretation, programs_equivalent
from repro.verify import (
    VerificationReport,
    classical_safe_uncomputation,
    program_is_safe,
    program_safely_uncomputes,
    unitary_acts_identity_on,
    verify_circuit,
)

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "Interpretation",
    "VerificationReport",
    "__version__",
    "allocate",
    "available_strategies",
    "borrow",
    "classical_safe_uncomputation",
    "elaborate",
    "elaborate_file",
    "init",
    "parse",
    "program_is_safe",
    "program_safely_uncomputes",
    "programs_equivalent",
    "seq",
    "skip",
    "unitary",
    "unitary_acts_identity_on",
    "verify_circuit",
    "verify_qbr",
]
