"""Seeded random states and unitaries for property-based tests.

All generators take a :class:`numpy.random.Generator` so hypothesis and the
test suite can reproduce failures deterministically.
"""

from __future__ import annotations

import numpy as np


def random_unitary(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Return a Haar-ish random unitary via QR of a Ginibre matrix."""
    dim = 2**num_qubits
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    # Fix the phases so the distribution does not favour the QR convention.
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_ket(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Return a uniformly random normalised ket."""
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_density(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Return a full-rank random density operator (normalised)."""
    dim = 2**num_qubits
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = ginibre @ ginibre.conj().T
    return rho / rho.trace()
