"""Independent reference computations used by the tests.

Everything here is deliberately built from first principles (explicit kron
matrices, literal state definitions, a different quadrature family) so that
it never shares a code path with the implementation it checks.
"""
from __future__ import annotations

import numpy as np

SQ2 = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2

KET_H = np.array([1, 0], dtype=complex)
KET_V = np.array([0, 1], dtype=complex)
KET_UP, KET_DOWN = KET_H, KET_V
KET_PLUS = np.array([SQ2, SQ2], dtype=complex)
KET_MINUS = np.array([SQ2, -SQ2], dtype=complex)


def kron_chain(*ops: np.ndarray) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex) if ops[0].ndim == 2 else np.array([1.0], dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def op_on(n: int, single: np.ndarray, qubit: int) -> np.ndarray:
    """Full 2^n x 2^n matrix applying `single` on one qubit (qubit 0 = MSB)."""
    return kron_chain(*[single if j == qubit else I2 for j in range(n)])


def reduced_single_qubit(state: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """2x2 reduced density matrix of one qubit from an unnormalized pure state."""
    t = np.moveaxis(state.reshape([2] * n), qubit, 0).reshape(2, -1)
    return t @ t.conj().T


def stabilizer_matrices(n: int) -> list[np.ndarray]:
    """S_1 = X...X, S_k = Z_{k-1} Z_k as explicit matrices."""
    mats = [kron_chain(*([X] * n))]
    for k in range(2, n + 1):
        ops = [I2] * n
        ops[k - 2] = Z
        ops[k - 1] = Z
        mats.append(kron_chain(*ops))
    return mats


def ghz_vector(bits) -> np.ndarray:
    """Literal GHZ construction: Pauli string applied to (|0..0> + |1..1>)/sqrt2."""
    bits = tuple(bits)
    n = len(bits)
    base = np.zeros(2 ** n, dtype=complex)
    base[0] = SQ2
    base[-1] = SQ2
    mat = np.eye(2 ** n, dtype=complex)
    for j, b in enumerate(bits[:-1]):
        if b:
            mat = op_on(n, X, j) @ mat
    if bits[-1]:
        mat = op_on(n, Z, n - 1) @ mat
    return mat @ base


BELL_VECTORS = {
    "phi+": np.array([SQ2, 0, 0, SQ2], dtype=complex),
    "phi-": np.array([SQ2, 0, 0, -SQ2], dtype=complex),
    "psi+": np.array([0, SQ2, SQ2, 0], dtype=complex),
    "psi-": np.array([0, SQ2, -SQ2, 0], dtype=complex),
}


def legendre_average_efficiency(reflection_fn, params, omega_c, sigma, n,
                                eta0=1.0, span=14.0, nodes=400) -> float:
    """Pulse average by Gauss-Legendre on [-span, span] pulse widths."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    xx = span * x
    pair = reflection_fn(params, omega_c + sigma * xx)
    f = np.exp(-(xx ** 2)) / np.sqrt(np.pi)
    integrand = (np.abs((pair.r1 - pair.r0) / 2.0) ** 2) ** n
    return float(eta0 ** n * np.sum(w * span * f * integrand))


def phase_damped_readout_product(t: float, t2: float) -> float:
    """Two spins in |+>, phase damping for time t, probability both read +.

    Built with explicit 2x2 density matrices rather than the closed form.
    """
    rho = np.outer(KET_PLUS, KET_PLUS.conj())
    decay = np.exp(-t / t2)
    damped = rho * np.array([[1.0, decay], [decay, 1.0]])
    p_plus = float(np.real(KET_PLUS.conj() @ damped @ KET_PLUS))
    return p_plus ** 2


def up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> bool:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < tol or nb < tol:
        return na < tol and nb < tol
    return abs(abs(np.vdot(a, b)) / (na * nb) - 1.0) <= tol and abs(na - nb) <= tol * 10


# --- hand-transcribed three-pair swapping intermediates -----------------------
# Layout: axes A, B, C (remote spins), a, b, c (photons), QD1, QD2.

_E = (KET_H, KET_V)


def expected_phi0() -> np.ndarray:
    """Product of three hybrid pairs as the double-GHZ sum, QDs in |+>|+>."""
    out = np.zeros(2 ** 8, dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                out += kron_chain(ghz_vector((i, j, k)), ghz_vector((i, j, k)),
                                  KET_PLUS, KET_PLUS) / (2 * np.sqrt(2))
    return out


def expected_phi1() -> np.ndarray:
    """After photon a: H_a tags (+_A, +-) and (-_A, -+); V_a the same with a sign."""
    out = np.zeros(2 ** 8, dtype=complex)
    terms = [(0, +1, KET_PLUS, KET_PLUS, KET_MINUS),
             (0, +1, KET_MINUS, KET_MINUS, KET_PLUS),
             (1, -1, KET_PLUS, KET_PLUS, KET_MINUS),
             (1, +1, KET_MINUS, KET_MINUS, KET_PLUS)]
    for b in (0, 1):
        for c in (0, 1):
            for x_a, sign, a_vec, qd1, qd2 in terms:
                out += 0.25 * sign * kron_chain(a_vec, _E[b], _E[c], _E[x_a],
                                                _E[b], _E[c], qd1, qd2)
    return out


def expected_phi2() -> np.ndarray:
    """After photons a, b: remote AB Bell states tagged by pattern and QD pair."""
    groups = [
        ((0, 0), [("phi+", (KET_PLUS, KET_PLUS), +1), ("phi-", (KET_MINUS, KET_MINUS), +1)]),
        ((0, 1), [("psi+", (KET_PLUS, KET_PLUS), -1), ("psi-", (KET_MINUS, KET_MINUS), -1)]),
        ((1, 0), [("psi+", (KET_PLUS, KET_PLUS), -1), ("psi-", (KET_MINUS, KET_MINUS), +1)]),
        ((1, 1), [("phi+", (KET_PLUS, KET_PLUS), +1), ("phi-", (KET_MINUS, KET_MINUS), -1)]),
    ]
    out = np.zeros(2 ** 8, dtype=complex)
    for (x_a, x_b), terms in groups:
        for name, (qd1, qd2), sign in terms:
            for c in (0, 1):
                out += (sign / (2 * np.sqrt(2)) * SQ2
                        * kron_chain(BELL_VECTORS[name], _E[c], _E[x_a], _E[x_b],
                                     _E[c], qd1, qd2))
    return out


def expected_phi3() -> np.ndarray:
    """Final state: remote GHZ_ij0 with photonic GHZ_ij1 pattern and |+->, plus
    the converse pairing with |-+>, signs (-1)^(i+j)."""
    out = np.zeros(2 ** 8, dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            s = (-1.0) ** (i + j) / (2 * np.sqrt(2))
            out += s * kron_chain(ghz_vector((i, j, 0)), ghz_vector((i, j, 1)),
                                  KET_PLUS, KET_MINUS)
            out += s * kron_chain(ghz_vector((i, j, 1)), ghz_vector((i, j, 0)),
                                  KET_MINUS, KET_PLUS)
    return out
