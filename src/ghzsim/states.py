"""Multi-qubit register algebra: GHZ/Bell constructors, Pauli/Hadamard maps, stabilizers.

Basis conventions, used everywhere in this package:
  photons  |H> = |0>, |V> = |1>
  spins    |up> = |0>, |down> = |1>
  qubit 0 is the most significant bit of the basis index.

An n-photon GHZ basis state is named by bits (i_1, ..., i_n): the first n-1
bits flip the corresponding photons of (|H...H> + |V...V>)/sqrt(2) and the
last bit sets the relative phase, via (X_1^i1 ... X_{n-1}^i{n-1}) Z_n^in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ops import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, apply_single_qubit, norm2

NORM_TOL = 1e-12
EIGENVALUE_TOL = 1e-9


class NonEigenstateError(ValueError):
    """Input register is not a joint eigenstate of the GHZ stabilizers."""


@dataclass(frozen=True, eq=False)
class QubitRegister:
    """Dense state vector over num_qubits qubits (length 2**num_qubits)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if amps.size != 2 ** self.num_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {2 ** self.num_qubits}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.sqrt(norm2(self.amplitudes)))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(norm2(self.amplitudes) - 1.0) <= tol

    def inner(self, other: "QubitRegister") -> complex:
        if other.num_qubits != self.num_qubits:
            raise ValueError("registers differ in size")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class GhzLabel:
    """Bit string (i_1, ..., i_n) naming one of the 2^n GHZ basis states."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 2:
            raise ValueError("a GHZ label needs at least two bits")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"label bits must be 0 or 1, got {self.bits}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_string(cls, text: str) -> "GhzLabel":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"GHZ label must be a bit string like '010', got {text!r}")
        return cls(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def phase_bit(self) -> int:
        return self.bits[-1]


@dataclass(frozen=True)
class Syndrome:
    """Joint stabilizer eigenvalues (s_1, ..., s_n), each +1 or -1."""

    eigenvalues: tuple[int, ...]


BELL_NAMES = ("phi+", "phi-", "psi+", "psi-")

_BELL_LABELS = {
    "phi+": (0, 0),
    "phi-": (0, 1),
    "psi+": (1, 0),
    "psi-": (1, 1),
}


def basis_state(num_qubits: int, bits) -> QubitRegister:
    """Computational basis ket |b_0 b_1 ... >."""
    bits = tuple(bits)
    if len(bits) != num_qubits:
        raise ValueError("bit count does not match num_qubits")
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    amps[index] = 1.0
    return QubitRegister(num_qubits, amps)


def ghz_state(n: int, label) -> QubitRegister:
    """GHZ basis state for the given label; exactly two nonzero amplitudes."""
    if not isinstance(label, GhzLabel):
        label = GhzLabel(tuple(label))
    if n < 2:
        raise ValueError("GHZ states need n >= 2 photons")
    if label.n != n:
        raise ValueError(f"label has {label.n} bits but n = {n}")
    amps = np.zeros(2 ** n, dtype=complex)
    idx = 0
    for b in label.bits[:-1]:
        idx = (idx << 1) | b
    idx <<= 1  # photon n unflipped in the first component
    full = 2 ** n - 1
    amps[idx] = 1.0 / np.sqrt(2.0)
    amps[idx ^ full] = (-1.0) ** label.phase_bit / np.sqrt(2.0)
    return QubitRegister(n, amps)


def bell_state(kind: str) -> QubitRegister:
    """One of the four two-photon Bell states phi+/phi-/psi+/psi-."""
    if kind not in _BELL_LABELS:
        raise ValueError(f"unknown Bell state {kind!r}, expected one of {BELL_NAMES}")
    amps = np.zeros(4, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    if kind.startswith("phi"):
        amps[0b00], amps[0b11] = s, (s if kind == "phi+" else -s)
    else:
        amps[0b01], amps[0b10] = s, (s if kind == "psi+" else -s)
    return QubitRegister(2, amps)


def bell_label(kind: str) -> GhzLabel:
    """GHZ label equivalent to a Bell state name (equal up to global phase)."""
    return GhzLabel(_BELL_LABELS[kind])


def bell_name(label: GhzLabel) -> str:
    """Bell state name for a two-bit GHZ label."""
    for name, bits in _BELL_LABELS.items():
        if bits == label.bits:
            return name
    raise ValueError(f"{label} is not a two-photon label")


_PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def apply_pauli(reg: QubitRegister, qubit: int, axis: str) -> QubitRegister:
    """Apply sigma_x, sigma_y, or sigma_z to one qubit."""
    if axis not in _PAULIS:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    _check_qubit(reg, qubit)
    amps = apply_single_qubit(reg.amplitudes, qubit, _PAULIS[axis])
    return QubitRegister(reg.num_qubits, amps)


def apply_hadamard(reg: QubitRegister, qubit: int) -> QubitRegister:
    """|H> -> (|H>+|V>)/sqrt(2), |V> -> (|H>-|V>)/sqrt(2) on one qubit."""
    _check_qubit(reg, qubit)
    amps = apply_single_qubit(reg.amplitudes, qubit, HADAMARD)
    return QubitRegister(reg.num_qubits, amps)


def _check_qubit(reg: QubitRegister, qubit: int) -> None:
    if not 0 <= qubit < reg.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {reg.num_qubits} qubits")


def _stabilizer_expectations(reg: QubitRegister) -> np.ndarray:
    n = reg.num_qubits
    amps = reg.amplitudes
    dim = amps.size
    indices = np.arange(dim)
    vals = np.empty(n)
    # S_1 = X x X x ... x X: a global bit flip of the basis index
    vals[0] = np.real(np.vdot(amps, amps[indices ^ (dim - 1)]))
    probs = np.abs(amps) ** 2
    for k in range(2, n + 1):
        # S_k = Z_{k-1} Z_k, diagonal: sign from the parity of the two bits
        b1 = (indices >> (n - (k - 1))) & 1
        b2 = (indices >> (n - k)) & 1
        vals[k - 1] = np.sum(probs * (-1.0) ** (b1 ^ b2))
    return vals


def stabilizer_syndrome(reg: QubitRegister) -> Syndrome:
    """Eigenvalues of (S_1 = all-X, S_k = Z_{k-1} Z_k) on a GHZ basis state.

    Raises NonEigenstateError when any expectation value is not within
    EIGENVALUE_TOL of +/-1, i.e. the register is not a GHZ basis state.
    """
    if reg.num_qubits < 2:
        raise ValueError("syndrome needs at least 2 qubits")
    if not reg.is_normalized(tol=1e-9):
        raise ValueError("register must be normalized")
    vals = _stabilizer_expectations(reg)
    if np.any(np.abs(vals) < 1.0 - EIGENVALUE_TOL):
        raise NonEigenstateError(
            f"stabilizer expectations {np.round(vals, 6)} are not all +/-1")
    return Syndrome(tuple(1 if v > 0 else -1 for v in vals))


def fidelity(a: QubitRegister, b: QubitRegister) -> float:
    """|<a|b>|^2 normalized by both norms (global-phase free)."""
    na, nb = norm2(a.amplitudes), norm2(b.amplitudes)
    if na == 0 or nb == 0:
        raise ValueError("fidelity of a zero vector is undefined")
    return float(abs(a.inner(b)) ** 2 / (na * nb))


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = NORM_TOL) -> bool:
    """True when the two (unnormalized) vectors agree up to one overall phase."""
    na, nb = np.sqrt(norm2(a)), np.sqrt(norm2(b))
    if na < tol or nb < tol:
        return na < tol and nb < tol
    return bool(abs(abs(np.vdot(a, b)) / (na * nb) - 1.0) <= tol
                and abs(na - nb) <= tol * max(1.0, na))
