"""Closed-form optics of one quantum-dot QND detector.

A singly charged quantum dot sits in a single-sided cavity. A resonant photon
is reflected with an amplitude that depends on whether its circular component
couples to the trion transition: r1 for the coupled case, r0 for the empty
cavity. Everything here is frequency-domain and analytic.

Units: all rates and frequencies in ueV, times in ns, with
hbar = 0.6582119569 ueV*ns. With that convention a pulse of bandwidth
sigma = 0.6 ueV takes t0 = hbar/sigma ~ 1.10 ns per scattering event.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

HBAR_UEV_NS = 0.6582119569  # ueV * ns

DEFAULT_QUAD_NODES = 64

# largest Gauss-Hermite rule; hermgauss returns non-finite weights above ~371
# nodes, and average_efficiency doubles its node count, so it takes <= 128
MAX_QUAD_NODES = 256

# grid points x quadrature nodes evaluated per numpy pass in average_efficiency
_GRID_BLOCK = 4096


class QuadratureConvergenceError(RuntimeError):
    """Raised when doubling the Gauss-Hermite node count moves the result too much."""


def _require_finite(name: str, value) -> None:
    if isinstance(value, float) and math.isfinite(value):
        return
    finite = np.isfinite(value)
    if not np.all(finite):
        shown = value if np.ndim(value) == 0 else np.asarray(value)[~finite][0].item()
        raise ValueError(f"{name} must be finite, got {shown!r}")


@dataclass(frozen=True)
class CavityQDParams:
    """Physical parameters of one QND detector unit.

    g       : QD-cavity coupling strength (ueV)
    kappa   : directional coupling of the cavity to the in/out mode (ueV)
    kappa_s : cavity side-leakage rate, stands in for all absorption loss (ueV)
    gamma   : trion decay rate (ueV)
    omega_c : cavity resonance (ueV)
    omega_x : trion transition frequency (ueV)

    g and kappa may also be arrays of equal shape, one entry per grid point;
    average_efficiency then evaluates every point.
    """

    g: float
    kappa: float
    kappa_s: float
    gamma: float
    omega_c: float = 0.0
    omega_x: float = 0.0

    def __post_init__(self):
        for name in ("g", "kappa", "kappa_s", "gamma", "omega_c", "omega_x"):
            _require_finite(name, getattr(self, name))
        if np.min(self.g) < 0 or self.kappa_s < 0 or self.gamma < 0:
            raise ValueError("rates g, kappa_s, gamma must be >= 0")
        if np.min(self.kappa) <= 0:
            raise ValueError("kappa must be > 0")

    @classmethod
    def resonant(cls, g: float, kappa: float, kappa_s: float, gamma: float,
                 omega: float = 0.0) -> "CavityQDParams":
        """Cavity tuned onto the trion line (omega_c = omega_x = omega)."""
        return cls(g=g, kappa=kappa, kappa_s=kappa_s, gamma=gamma,
                   omega_c=omega, omega_x=omega)


@dataclass(frozen=True)
class PulseSpectrum:
    """Gaussian single-photon spectrum: center omega_c, bandwidth sigma (both ueV)."""

    omega_c: float
    sigma: float

    def __post_init__(self):
        _require_finite("omega_c", self.omega_c)
        _require_finite("sigma", self.sigma)
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


@dataclass(frozen=True)
class ReflectionPair:
    """State-dependent reflection amplitudes: r0 uncoupled (empty cavity), r1 coupled."""

    r0: complex
    r1: complex

    @classmethod
    def ideal(cls) -> "ReflectionPair":
        return cls(r0=-1.0 + 0.0j, r1=1.0 + 0.0j)

    def flip_amplitude(self) -> complex:
        """Amplitude of the polarization-flip (QND-success) branch."""
        return (self.r1 - self.r0) / 2.0

    def error_amplitude(self) -> complex:
        """Amplitude of the unchanged (error) branch."""
        return (self.r1 + self.r0) / 2.0


def reflection_coeffs(params: CavityQDParams, omega) -> ReflectionPair:
    """Reflection amplitudes of the detector unit at frequency omega (ueV).

    r0 = 1 - kappa / [i(omega_c - omega) + (kappa + kappa_s)/2]
    r1 = 1 - kappa*f / {[i(omega_c - omega) + (kappa + kappa_s)/2]*f + g^2}
    with f = i(omega_x - omega) + gamma/2.

    Accepts a scalar or an ndarray of frequencies.
    """
    _require_finite("omega", omega)
    w = np.asarray(omega, dtype=float)
    denom = 1j * (params.omega_c - w) + params.kappa / 2.0 + params.kappa_s / 2.0
    f = 1j * (params.omega_x - w) + params.gamma / 2.0
    if params.gamma == 0 and np.any((w == params.omega_x) & (np.asarray(params.g) == 0)):
        raise ValueError(f"r1 is 0/0 at omega = omega_x = {params.omega_x!r} ueV "
                         f"when g = 0 and gamma = 0")
    r0 = 1.0 - params.kappa / denom
    r1 = 1.0 - params.kappa * f / (denom * f + params.g ** 2)
    if np.isscalar(omega) or w.ndim == 0:
        return ReflectionPair(r0=complex(r0), r1=complex(r1))
    return ReflectionPair(r0=r0, r1=r1)


def cooperativity(params: CavityQDParams) -> float:
    """C = g^2 / (gamma * (kappa + kappa_s)), the emitter-cavity figure of merit."""
    kappa_t = params.kappa + params.kappa_s
    if params.gamma <= 0 or kappa_t <= 0:
        raise ValueError("cooperativity requires gamma > 0 and kappa + kappa_s > 0")
    return params.g ** 2 / (params.gamma * kappa_t)


def eta1(params: CavityQDParams, omega) -> float:
    """Error-free scattering efficiency |r1 - r0|^2 / 4 at frequency omega."""
    pair = reflection_coeffs(params, omega)
    val = np.abs(pair.r1 - pair.r0) ** 2 / 4.0
    return float(val) if np.ndim(val) == 0 else val


def error_prob(params: CavityQDParams, omega) -> float:
    """Probability |r1 + r0|^2 / 4 that photon and QD come back unchanged."""
    pair = reflection_coeffs(params, omega)
    val = np.abs(pair.r1 + pair.r0) ** 2 / 4.0
    return float(val) if np.ndim(val) == 0 else val


def loss_prob(params: CavityQDParams, omega) -> float:
    """Probability 1 - eta1 - p2 that the photon is lost to side leakage."""
    val = 1.0 - eta1(params, omega) - error_prob(params, omega)
    return float(val) if np.ndim(val) == 0 else val


def spectral_density(spec: PulseSpectrum, omega) -> float:
    """Gaussian spectral density, normalized to unit integral over omega."""
    _require_finite("omega", omega)
    w = np.asarray(omega, dtype=float)
    val = np.exp(-(((w - spec.omega_c) / spec.sigma) ** 2)) / (math.sqrt(math.pi) * spec.sigma)
    return float(val) if np.ndim(val) == 0 else val


@functools.lru_cache(maxsize=None)
def _hermite_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, built once per node count, read-only."""
    if not 1 <= nodes <= MAX_QUAD_NODES:
        raise ValueError(f"a Gauss-Hermite rule takes 1..{MAX_QUAD_NODES} nodes, got {nodes}")
    x, w = np.polynomial.hermite.hermgauss(nodes)
    assert np.all(np.isfinite(w)), f"non-finite Gauss-Hermite weights at {nodes} nodes"
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _hermite_efficiency(params: CavityQDParams, spec: PulseSpectrum,
                        nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule's weights and the single-photon efficiency |(r1 - r0)/2|^2 at its nodes."""
    # substitution x = (omega - omega_c)/sigma turns the spectral average into
    # (1/sqrt(pi)) * integral exp(-x^2) * integrand dx, exact for Gauss-Hermite;
    # params.g and params.kappa are (points, 1) columns, the nodes the last axis
    x, w = _hermite_nodes(nodes)
    pair = reflection_coeffs(params, spec.omega_c + spec.sigma * x)
    return w, np.abs((pair.r1 - pair.r0) / 2.0) ** 2


def _hermite_average(w: np.ndarray, eta1_nodes: np.ndarray, n: int,
                     eta0: float) -> np.ndarray:
    return eta0 ** n * np.sum(w * eta1_nodes ** n, axis=-1) / math.sqrt(math.pi)


def average_efficiency(params: CavityQDParams, spec: PulseSpectrum, n,
                       eta0: float = 1.0, nodes: int = DEFAULT_QUAD_NODES,
                       tol: float = 1e-8):
    """Pulse-averaged n-photon conclusive probability.

    integral over omega of f(omega) * eta0^n * |(r1 - r0)/2|^(2n), evaluated by
    Gauss-Hermite quadrature with a node-doubling convergence check at every
    point. A float for scalar params; if params.g and params.kappa are arrays,
    an array of their shape, computed in fixed-size blocks of points x nodes.

    n may also be a sequence of photon counts: the reflection amplitudes are
    then evaluated once for all of them, and the result is a list with one
    value per count (empty for no counts), each checked in list order as a
    single call would be.
    """
    scalar = np.ndim(n) == 0
    counts = [n] if scalar else list(n)
    if not counts:
        return []
    # a count below 1 fails where a loop of single calls would reach it
    valid = next((i for i, k in enumerate(counts) if k < 1), len(counts))
    if valid == 0:
        raise ValueError("n must be >= 1")
    if not 0.0 <= eta0 <= 1.0:
        raise ValueError("eta0 must lie in [0, 1]")
    if not 1 <= nodes <= MAX_QUAD_NODES // 2:
        raise ValueError(f"nodes must lie in 1..{MAX_QUAD_NODES // 2} "
                         f"(the convergence check doubles it), got {nodes}")
    shape = np.broadcast_shapes(np.shape(params.g), np.shape(params.kappa))
    g = np.broadcast_to(params.g, shape).ravel()
    kappa = np.broadcast_to(params.kappa, shape).ravel()
    coarse, fine = np.empty((2, valid, g.size))
    step = max(1, _GRID_BLOCK // (2 * nodes))
    for start in range(0, g.size, step):
        block = slice(start, start + step)
        points = replace(params, g=g[block, None], kappa=kappa[block, None])
        coarse_nodes = _hermite_efficiency(points, spec, nodes)
        fine_nodes = _hermite_efficiency(points, spec, 2 * nodes)
        for i, k in enumerate(counts[:valid]):
            coarse[i, block] = _hermite_average(*coarse_nodes, k, eta0)
            fine[i, block] = _hermite_average(*fine_nodes, k, eta0)
    for delta in np.abs(fine - coarse):
        worst = int(np.argmax(delta))  # the first NaN, if any
        if not delta[worst] <= tol:
            point = f"g = {g[worst]:.6g} ueV, kappa = {kappa[worst]:.6g} ueV"
            if params.kappa_s > 0:
                point += (f" (g/kappa_s = {g[worst] / params.kappa_s:.6g}, "
                          f"kappa/kappa_s = {kappa[worst] / params.kappa_s:.6g})")
            raise QuadratureConvergenceError(
                f"Gauss-Hermite average did not converge: {nodes}->{2*nodes} nodes "
                f"moved the result by {delta[worst]:.3e} (tol {tol:.1e}) at {point}")
    if valid < len(counts):
        raise ValueError("n must be >= 1")
    values = [float(row[0]) if not shape else row.reshape(shape) for row in fine]
    return values[0] if scalar else values


def scattering_time(spec: PulseSpectrum) -> float:
    """Duration t0 = hbar/sigma (ns) of one scattering event for this pulse."""
    return HBAR_UEV_NS / spec.sigma


def fidelity_fn(n: int, t2_ns: float, spec: PulseSpectrum) -> float:
    """Analyzer fidelity after n scattering events with QD coherence time t2 (ns).

    The two QD spins dephase for t_n = n * t0; only the phase readout suffers,
    giving F_n = [1 + exp(-t_n/T2)]^2 / 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not t2_ns > 0:
        raise ValueError("t2_ns must be > 0")
    t_n = n * scattering_time(spec)
    decay = math.exp(-t_n / t2_ns) if math.isfinite(t2_ns) else 1.0
    return (1.0 + decay) ** 2 / 4.0
