"""Raw dense state-vector operations shared by the register, circuit, and network code.

Vectors are flat complex arrays of length 2**n. Qubit 0 is the most significant
bit of the basis index, so reshaping to [2]*n puts qubit k on axis k.
"""
from __future__ import annotations

import numpy as np

SQRT_HALF = 1.0 / np.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF

KET_PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
KET_MINUS = np.array([SQRT_HALF, -SQRT_HALF], dtype=complex)


def apply_single_qubit(state: np.ndarray, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of a flat 2**n state vector."""
    t = state.reshape(2 ** qubit, 2, -1)
    out = np.empty_like(t)
    out[:, 0, :] = matrix[0, 0] * t[:, 0, :] + matrix[0, 1] * t[:, 1, :]
    out[:, 1, :] = matrix[1, 0] * t[:, 0, :] + matrix[1, 1] * t[:, 1, :]
    return out.reshape(-1)


def norm2(state: np.ndarray) -> float:
    return float(np.real(np.vdot(state, state)))


def kron_all(*vectors: np.ndarray) -> np.ndarray:
    out = np.array([1.0], dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out
