"""Dense linear-algebra substrate (system S1).

This package provides the small but load-bearing toolbox used by every
other subsystem: kets and density operators in Dirac-friendly helpers
(:mod:`repro.linalg.states`), embedding of operators acting on a subset of
qubits into the full register (:mod:`repro.linalg.kron`), partial traces
(:mod:`repro.linalg.partial_trace`), and seeded random states/unitaries for
property-based tests (:mod:`repro.linalg.random`).

Conventions
-----------
* Qubits are indexed ``0 .. n-1``; qubit 0 is the *most significant* bit of
  a computational-basis index, matching the paper's ``|q1 q2 ... qn>``
  ordering.
* States are numpy arrays: kets are 1-D complex vectors of length ``2**n``,
  density operators are ``(2**n, 2**n)`` complex matrices.
"""

from repro.linalg.kron import (
    apply_unitary,
    embed_operator,
    identity,
    kron_all,
    reorder_qubits,
)
from repro.linalg.partial_trace import partial_trace, reduced_state
from repro.linalg.states import (
    BASIS_B,
    VERIFICATION_KETS,
    basis_ket,
    bell_phi,
    bit_ket,
    density,
    fidelity,
    is_density_operator,
    ket0,
    ket1,
    ket_minus,
    ket_plus,
    ket_plus_i,
    matrices_close,
    purity,
)
from repro.linalg.random import (
    random_density,
    random_ket,
    random_unitary,
)

__all__ = [
    "BASIS_B",
    "VERIFICATION_KETS",
    "apply_unitary",
    "basis_ket",
    "bell_phi",
    "bit_ket",
    "density",
    "embed_operator",
    "fidelity",
    "identity",
    "is_density_operator",
    "ket0",
    "ket1",
    "ket_minus",
    "ket_plus",
    "ket_plus_i",
    "kron_all",
    "matrices_close",
    "partial_trace",
    "purity",
    "random_density",
    "random_ket",
    "random_unitary",
    "reduced_state",
    "reorder_qubits",
]
