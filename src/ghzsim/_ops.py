"""Raw dense state-vector operations shared by the register, circuit, and network code.

Vectors are flat complex arrays of length 2**n. Qubit 0 is the most significant
bit of the basis index, so reshaping to [2]*n puts qubit k on axis k.
"""
from __future__ import annotations

import numpy as np

SQRT_HALF = 1.0 / np.sqrt(2.0)

KET_PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
KET_MINUS = np.array([SQRT_HALF, -SQRT_HALF], dtype=complex)


def norm2(state: np.ndarray) -> float:
    return float(np.real(np.vdot(state, state)))


def kron_all(*vectors: np.ndarray) -> np.ndarray:
    out = np.array([1.0], dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out
