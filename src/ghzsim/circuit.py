"""Passive analyzer pipeline for n polarization-encoded photons.

Each photon runs through: half-wave plate (Hadamard), a polarizing beam
splitter that sends V to QND detector 1 and H to QND detector 2, the
spin-selective reflection off that detector, recombination, a second
half-wave plate, and a final polarizing beam splitter feeding destructive
detectors D1 (H) and D2 (V). A reflection flips the photon polarization and
the addressed QD spin in the +/- basis; the unflipped error component exits
toward D3 and heralds an inconclusive run. Side leakage is booked as loss.
Both QDs start in |+> and are read out in the +/- basis at the end.

Photons are fed one at a time; the per-photon maps commute, so this is
equivalent to sending all photons through together. Branch amplitudes are
kept unnormalized so that squared norms are physical probabilities.

State layout: axes 0..n-1 are the photons, axis n is QD1, axis n+1 is QD2.
The swapping network runs the same photon step (`_feed`) with its remote
spins as extra leading axes; the analyzer is that layout with no spins.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._ops import (HADAMARD, KET_MINUS, KET_PLUS, PAULI_X, PAULI_Z,
                   apply_single_qubit, kron_all, norm2, project_qubit)
from .scattering import (MAX_QUAD_NODES, CavityQDParams, PulseSpectrum,
                         ReflectionPair, _hermite_nodes, reflection_coeffs)
from .states import GhzLabel, QubitRegister, bell_name

PRUNE_TOL = 1e-15

INCONCLUSIVE = "inconclusive"


class PhotonFate(Enum):
    IN_CIRCUIT = "in-circuit"
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    LOST = "lost"


CONCLUSIVE_FATES = (PhotonFate.D1, PhotonFate.D2)


@dataclass(frozen=True)
class AnalyzerConfig:
    """Run configuration for the analyzer.

    mode        : "ideal" (r0, r1 = -1, +1) or "realistic" (computed from qnd params)
    qnd1, qnd2  : cavity/QD parameters per detector; qnd2 defaults to qnd1
    omega       : monochromatic photon frequency (ueV); realistic default is resonance
    spectrum    : Gaussian pulse instead of a fixed frequency (exclusive with omega)
    eta0        : efficiency of the destructive detectors, applied per click
    enumeration : "exhaustive" branch enumeration or "monte-carlo" sampling
    seed        : RNG seed for monte-carlo runs
    quad_nodes  : Gauss-Hermite node count (2..256) for pulse-averaged exhaustive runs
    """

    mode: str = "ideal"
    qnd1: CavityQDParams | None = None
    qnd2: CavityQDParams | None = None
    omega: float | None = None
    spectrum: PulseSpectrum | None = None
    eta0: float = 1.0
    enumeration: str = "exhaustive"
    seed: int = 0
    quad_nodes: int = 64

    def __post_init__(self):
        if self.mode not in ("ideal", "realistic"):
            raise ValueError(f"mode must be 'ideal' or 'realistic', got {self.mode!r}")
        if self.enumeration not in ("exhaustive", "monte-carlo"):
            raise ValueError(f"unknown enumeration mode {self.enumeration!r}")
        if self.mode == "realistic" and self.qnd1 is None:
            raise ValueError("realistic mode requires qnd1 parameters")
        if self.qnd2 is None and self.qnd1 is not None:
            object.__setattr__(self, "qnd2", self.qnd1)
        if self.omega is not None and self.spectrum is not None:
            raise ValueError("give either a fixed omega or a spectrum, not both")
        if not 0.0 <= self.eta0 <= 1.0:
            raise ValueError("eta0 must lie in [0, 1]")
        if not 2 <= self.quad_nodes <= MAX_QUAD_NODES:
            raise ValueError(f"quad_nodes must lie in 2..{MAX_QUAD_NODES}, "
                             f"got {self.quad_nodes}")

    def reflection_pairs(self, omega: float | None = None) -> tuple[ReflectionPair, ReflectionPair]:
        """Reflection amplitudes of the two detectors at the given frequency."""
        if self.mode == "ideal":
            return ReflectionPair.ideal(), ReflectionPair.ideal()
        if omega is None:
            omega = self.omega if self.omega is not None else self.qnd1.omega_c
        return (reflection_coeffs(self.qnd1, omega),
                reflection_coeffs(self.qnd2, omega))


@dataclass(eq=False)
class HybridState:
    """One live, unnormalized branch of the joint photon/QD state.

    `amps` covers every qubit of the layout (spectator spins, photons, the two
    QDs); slots of already detected photons stay collapsed onto the recorded
    polarization so that summing branch vectors reconstructs the unmeasured
    state. `fates` has one entry per photon.
    """

    fates: tuple[PhotonFate, ...]
    amps: np.ndarray
    weight: float = field(init=False)

    def __post_init__(self):
        self.weight = norm2(self.amps)

    @classmethod
    def initial(cls, photons: QubitRegister) -> "HybridState":
        amps = kron_all(photons.amplitudes, KET_PLUS, KET_PLUS)
        return cls(fates=(PhotonFate.IN_CIRCUIT,) * photons.num_qubits, amps=amps)


@dataclass(frozen=True)
class OutcomeRecord:
    """Terminal detector fates per photon, QD readout pair, and probability.

    qd_readout is None for branches that ended in scattering loss, where no
    pure QD state survives to be read out.
    """

    fates: tuple[PhotonFate, ...]
    qd_readout: tuple[str, str] | None
    probability: float

    @property
    def conclusive(self) -> bool:
        return all(f in CONCLUSIVE_FATES for f in self.fates)

    def pattern(self) -> str:
        """H/V string of the detector pattern; only defined for conclusive records."""
        if not self.conclusive:
            raise ValueError("pattern is only defined for conclusive records")
        return "".join("H" if f is PhotonFate.D1 else "V" for f in self.fates)


def _with_fate(fates: tuple[PhotonFate, ...], photon: int, fate: PhotonFate):
    out = list(fates)
    out[photon] = fate
    return tuple(out)


def _lost_fates(fates: tuple[PhotonFate, ...]):
    return tuple(PhotonFate.LOST if f is PhotonFate.IN_CIRCUIT else f for f in fates)


def _scatter_arm(amps: np.ndarray, nq: int, photon_axis: int, qd_axis: int,
                 refl: ReflectionPair):
    """Reflection of one arm component off its QND detector.

    Returns (flip amplitudes, error amplitudes, lost weight)."""
    f = refl.flip_amplitude()
    e = refl.error_amplitude()
    lost_frac = max(0.0, 1.0 - abs(f) ** 2 - abs(e) ** 2)
    flipped = apply_single_qubit(amps, nq, photon_axis, PAULI_X)
    flipped = f * apply_single_qubit(flipped, nq, qd_axis, PAULI_Z)
    return flipped, e * amps, lost_frac * norm2(amps)


def _photon_step(amps: np.ndarray, nq: int, fates, photon: int, photon_axis: int,
                 qd_axes: tuple[int, int], refl1: ReflectionPair,
                 refl2: ReflectionPair, eta0: float):
    """One full analyzer pass of one photon, on an arbitrary axis layout.

    Returns (list of (fates, amps) continuing branches, lost weight); the
    photon ends at D1/D2 (LOST on a failed click) or D3 in each branch.
    """
    amps = apply_single_qubit(amps, nq, photon_axis, HADAMARD)
    v_part = project_qubit(amps, nq, photon_axis, 1)
    h_part = project_qubit(amps, nq, photon_axis, 0)

    out = []
    lost = 0.0
    flip_total = None
    for part, qd_axis, refl in ((v_part, qd_axes[0], refl1), (h_part, qd_axes[1], refl2)):
        flipped, errored, lost_w = _scatter_arm(part, nq, photon_axis, qd_axis, refl)
        flip_total = flipped if flip_total is None else flip_total + flipped
        lost += lost_w
        if norm2(errored) > PRUNE_TOL:
            out.append((_with_fate(fates, photon, PhotonFate.D3), errored))
    # surviving component: recombine, second half-wave plate, final PBS
    cont = apply_single_qubit(flip_total, nq, photon_axis, HADAMARD)
    for bit, fate in ((0, PhotonFate.D1), (1, PhotonFate.D2)):
        proj = project_qubit(cont, nq, photon_axis, bit)
        w = norm2(proj)
        if w <= PRUNE_TOL:
            lost += w
            continue
        if eta0 < 1.0:
            out.append((_with_fate(fates, photon, fate), np.sqrt(eta0) * proj))
            out.append((_with_fate(fates, photon, PhotonFate.LOST),
                        np.sqrt(1.0 - eta0) * proj))
        else:
            out.append((_with_fate(fates, photon, fate), proj))
    return out, lost


QD_PAIRS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
_QD_PAIR_KETS = np.array([np.kron(k1, k2)
                          for k1 in (KET_PLUS, KET_MINUS)
                          for k2 in (KET_PLUS, KET_MINUS)])


def _qd_pair_components(amps: np.ndarray, nq: int, qd_axes: tuple[int, int]) -> np.ndarray:
    """(rest, 4) array of <pair|state> components; QD axes must be the last two."""
    if qd_axes != (nq - 2, nq - 1):
        raise ValueError("QD axes must be the trailing two qubits")
    return amps.reshape(-1, 4) @ _QD_PAIR_KETS.T  # kets are real


def _qd_readouts(amps: np.ndarray, nq: int, qd_axes: tuple[int, int]):
    """Read the two QDs out in the +/- basis; yields (pair, rest, weight).

    `rest` is <pair|state> on the other nq - 2 qubits, unnormalized.
    """
    comps = _qd_pair_components(amps, nq, qd_axes)
    for j, pair in enumerate(QD_PAIRS):
        rest = comps[:, j]
        w = float(np.real(np.vdot(rest, rest)))
        if w > PRUNE_TOL:
            yield pair, rest, w


def _fate_sort_key(record: OutcomeRecord):
    return (tuple(f.value for f in record.fates), record.qd_readout or ())


def _aggregate(raw: list[OutcomeRecord]) -> list[OutcomeRecord]:
    acc: dict = {}
    for r in raw:
        key = (r.fates, r.qd_readout)
        acc[key] = acc.get(key, 0.0) + r.probability
    records = [OutcomeRecord(f, qd, p) for (f, qd), p in acc.items() if p > 0.0]
    return sorted(records, key=_fate_sort_key)


def _feed(branches: list[HybridState], photon: int, photon_axis: int, nq: int,
          qd_axes: tuple[int, int], refl1: ReflectionPair, refl2: ReflectionPair,
          eta0: float, lost: list) -> list[HybridState]:
    """Send one photon through the analyzer in every branch; returns the live ones.

    Scattering loss and branches pruned at or below PRUNE_TOL are appended to
    `lost` as (fates, weight) in the order they happen, with every photon not
    yet detected marked LOST: the run ends there and nothing more is tracked.
    """
    out = []
    for br in branches:
        stepped, lost_w = _photon_step(br.amps, nq, br.fates, photon, photon_axis,
                                       qd_axes, refl1, refl2, eta0)
        if lost_w > 0.0:
            lost.append((_lost_fates(_with_fate(br.fates, photon, PhotonFate.LOST)), lost_w))
        for fates, amps in stepped:
            nb = HybridState(fates, amps)
            if nb.weight > PRUNE_TOL:
                out.append(nb)
            elif nb.weight > 0.0:
                lost.append((_lost_fates(fates), nb.weight))
    return out


def _evolve_branches(photons: QubitRegister, refl1, refl2, eta0, order):
    """All photons through the pipeline; returns (live branches, loss records).

    This is the network layout with no spectator spins, so photon k sits on axis k.
    """
    n = photons.num_qubits
    lost: list = []
    branches = [HybridState.initial(photons)]
    for k in order:
        branches = _feed(branches, k, k, n + 2, (n, n + 1), refl1, refl2, eta0, lost)
    return branches, [OutcomeRecord(fates, None, w) for fates, w in lost]


def final_branches(photons: QubitRegister, config: AnalyzerConfig,
                   order=None) -> list[HybridState]:
    """Run every photon through the analyzer, stopping before the QD readout.

    Summing the returned branch vectors reconstructs the joint photon/QD
    state with the destructive detectors treated as nondestructive, which is
    what conditional post-measurement checks need. Monochromatic configs only.
    """
    n = photons.num_qubits
    if n < 2:
        raise ValueError("the analyzer needs at least 2 photons")
    if not photons.is_normalized(tol=1e-9):
        raise ValueError("input register must be normalized")
    if config.spectrum is not None and config.mode == "realistic":
        raise ValueError("final_branches needs a monochromatic configuration")
    order = list(range(n)) if order is None else list(order)
    refl1, refl2 = config.reflection_pairs()
    branches, _ = _evolve_branches(photons, refl1, refl2, config.eta0, order)
    return branches


def _run_exhaustive_mono(photons: QubitRegister, refl1, refl2, eta0, order):
    n = photons.num_qubits
    branches, records = _evolve_branches(photons, refl1, refl2, eta0, order)
    for br in branches:
        for pair, _, w in _qd_readouts(br.amps, n + 2, (n, n + 1)):
            records.append(OutcomeRecord(br.fates, pair, w))
    return records


def _sample_omega(rng, spectrum: PulseSpectrum) -> float:
    # the spectral density is a normal law with std sigma/sqrt(2)
    return rng.normal(spectrum.omega_c, spectrum.sigma / np.sqrt(2.0))


def _pick(rng, weights: np.ndarray) -> int:
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _run_monte_carlo(photons: QubitRegister, config: AnalyzerConfig, shots, order):
    rng = np.random.default_rng(config.seed)
    n = photons.num_qubits
    nq = n + 2
    qd_axes = (n, n + 1)
    counts: dict = {}
    init = HybridState.initial(photons)
    fixed_pairs = config.reflection_pairs() if config.spectrum is None else None
    for _ in range(shots):
        if fixed_pairs is None:
            refl1, refl2 = config.reflection_pairs(_sample_omega(rng, config.spectrum))
        else:
            refl1, refl2 = fixed_pairs
        amps = init.amps
        fates = init.fates
        alive = True
        for k in order:
            stepped, lost = _photon_step(amps, nq, fates, k, k, qd_axes,
                                         refl1, refl2, config.eta0)
            weights = np.array([norm2(a) for _, a in stepped] + [lost])
            pick = _pick(rng, weights)
            if pick == len(stepped):  # scattering loss terminates the shot
                fates = _lost_fates(_with_fate(fates, k, PhotonFate.LOST))
                alive = False
                break
            fates, chosen = stepped[pick]
            amps = chosen / np.sqrt(weights[pick])
        if alive:
            comps = _qd_pair_components(amps, nq, qd_axes)
            weights = np.einsum("ij,ij->j", comps.real, comps.real) \
                + np.einsum("ij,ij->j", comps.imag, comps.imag)
            key = (fates, QD_PAIRS[_pick(rng, weights)])
        else:
            key = (fates, None)
        counts[key] = counts.get(key, 0) + 1
    return [OutcomeRecord(f, qd, c / shots) for (f, qd), c in counts.items()]


def run_analyzer(photons: QubitRegister, config: AnalyzerConfig,
                 shots: int = 100_000, order=None) -> list[OutcomeRecord]:
    """Run the full analyzer on an n-photon register; returns outcome records.

    Exhaustive enumeration returns every branch with its exact probability;
    monte-carlo returns observed frequencies over `shots` samples. `order`
    optionally permutes the feeding sequence of the photons.
    """
    n = photons.num_qubits
    if n < 2:
        raise ValueError("the analyzer needs at least 2 photons")
    if not photons.is_normalized(tol=1e-9):
        raise ValueError("input register must be normalized")
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the photon indices")

    if config.enumeration == "monte-carlo":
        if shots < 1:
            raise ValueError("shots must be >= 1")
        return _aggregate(_run_monte_carlo(photons, config, shots, order))

    if config.spectrum is not None and config.mode == "realistic":
        x, w = _hermite_nodes(config.quad_nodes)
        raw: list[OutcomeRecord] = []
        for xi, wi in zip(x, w):
            omega = config.spectrum.omega_c + config.spectrum.sigma * xi
            refl1, refl2 = config.reflection_pairs(omega)
            scale = wi / np.sqrt(np.pi)
            for r in _run_exhaustive_mono(photons, refl1, refl2, config.eta0, order):
                raw.append(OutcomeRecord(r.fates, r.qd_readout, scale * r.probability))
        return _aggregate(raw)

    refl1, refl2 = config.reflection_pairs()
    return _aggregate(_run_exhaustive_mono(photons, refl1, refl2, config.eta0, order))


def classify(record: OutcomeRecord, n: int):
    """Map one outcome record to a GHZ label, or None when inconclusive.

    Photon j at D1 means H, at D2 means V; bit i_j is the parity of photons
    j and n. The phase bit comes from the QD pair, whose valid values depend
    on the parity of n: |++>/|--> for even n, |+->/|-+> for odd n.
    """
    if len(record.fates) != n:
        raise ValueError(f"record covers {len(record.fates)} photons, expected {n}")
    if not record.conclusive or record.qd_readout is None:
        return None
    b = [0 if f is PhotonFate.D1 else 1 for f in record.fates]
    lead = tuple(bj ^ b[-1] for bj in b[:-1])
    parity_map = ({("+", "+"): 0, ("-", "-"): 1} if n % 2 == 0
                  else {("+", "-"): 0, ("-", "+"): 1})
    phase = parity_map.get(record.qd_readout)
    if phase is None:
        return None
    return GhzLabel(lead + (phase,))


def conclusive_probability(records: list[OutcomeRecord]) -> float:
    """Probability that every photon lands on D1 or D2."""
    return sum(r.probability for r in records if r.conclusive)


def classification_distribution(records: list[OutcomeRecord], n: int) -> dict[str, float]:
    """Probabilities per GHZ label string, with inconclusive mass pooled."""
    out: dict[str, float] = {}
    for r in records:
        label = classify(r, n)
        key = INCONCLUSIVE if label is None else str(label)
        out[key] = out.get(key, 0.0) + r.probability
    return dict(sorted(out.items()))


def analyze_bell(photons: QubitRegister, config: AnalyzerConfig,
                 shots: int = 100_000) -> dict[str, float]:
    """Two-photon wrapper: classification distribution keyed by Bell names."""
    if photons.num_qubits != 2:
        raise ValueError("analyze_bell expects a 2-photon register")
    records = run_analyzer(photons, config, shots=shots)
    dist = classification_distribution(records, 2)
    out: dict[str, float] = {}
    for key, p in dist.items():
        name = key if key == INCONCLUSIVE else bell_name(GhzLabel.from_string(key))
        out[name] = out.get(name, 0.0) + p
    return dict(sorted(out.items()))
