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

Branch layout: a branch vector holds only the qubits still in play, that is
the photons not yet detected (in photon order) followed by QD1 and QD2. A
detected photon leaves the vector; its branch keeps its fate and the
polarization it was left in. The swapping network runs the same photon step
(`_feed`) with its remote spins as extra leading qubits; the analyzer is that
layout with no spins. Exhaustive, pulse-averaged and Monte-Carlo runs all
feed photons through `_feed` and read the QDs out through `_qd_readouts`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._ops import KET_MINUS, KET_PLUS, SQRT_HALF, kron_all, norm2
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

    `vec` holds only the qubits still in play: spectator spins, the photons
    still IN_CIRCUIT (in photon order), then QD1 and QD2. `fates` has one
    entry per photon; `pols[k]` is the polarization bit (H = 0, V = 1) that
    detected photon k was left in. `amps` rebuilds the full layout with every
    detected photon collapsed on that bit, so summing branch `amps`
    reconstructs the state with the detectors read nondestructively.
    """

    fates: tuple[PhotonFate, ...]
    vec: np.ndarray
    pols: tuple[int, ...]
    weight: float = field(init=False)

    def __post_init__(self):
        self.weight = norm2(self.vec)

    @classmethod
    def initial(cls, photons: QubitRegister) -> "HybridState":
        n = photons.num_qubits
        vec = kron_all(photons.amplitudes, KET_PLUS, KET_PLUS)
        return cls((PhotonFate.IN_CIRCUIT,) * n, vec, (0,) * n)

    @property
    def amps(self) -> np.ndarray:
        """Full-layout vector: spins, every photon, QD1, QD2."""
        t = self.vec
        n = len(self.fates)
        for k in reversed(range(n)):  # photons after k are already in place
            if self.fates[k] is not PhotonFate.IN_CIRCUIT:
                t = t.reshape(-1, 1, 4 * 2 ** (n - 1 - k))
                zero = np.zeros_like(t)
                t = np.concatenate((zero, t) if self.pols[k] else (t, zero), axis=1)
        return t.reshape(-1)

    def child(self, photon: int, fate: PhotonFate, pol: int, vec: np.ndarray) -> "HybridState":
        """This branch after `photon` left it with `fate` and polarization `pol`."""
        return HybridState(_with_fate(self.fates, photon, fate),
                           vec.reshape(-1), _with_fate(self.pols, photon, pol))


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


def _with_fate(items: tuple, photon: int, value) -> tuple:
    out = list(items)
    out[photon] = value
    return tuple(out)


def _lost_fates(fates: tuple[PhotonFate, ...]):
    return tuple(PhotonFate.LOST if f is PhotonFate.IN_CIRCUIT else f for f in fates)


# sign of a +/- flip of QD1 or QD2 on the trailing (QD1, QD2) axis of 4
_QD_SIGNS = (np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0]))


def _photon_step(br: HybridState, photon: int, refl1: ReflectionPair,
                 refl2: ReflectionPair, eta0: float):
    """One full analyzer pass of one photon in one branch.

    Returns (children, lost weight). The photon leaves every child's vector:
    it ends at D3 via QND1, D3 via QND2, D1 (then LOST on a failed click) or
    D2 (then LOST), in that order.
    """
    right = 2 ** sum(f is PhotonFate.IN_CIRCUIT for f in br.fates[photon + 1:])
    t = br.vec.reshape(-1, 2, right, 4)  # (left, photon, right, QD pair)
    # half-wave plate, then the PBS sends V to QND1 and H to QND2
    v_arm = (t[:, 0] - t[:, 1]) * SQRT_HALF
    h_arm = (t[:, 0] + t[:, 1]) * SQRT_HALF
    out = []
    lost = 0.0
    for arm, refl, pol in ((v_arm, refl1, 1), (h_arm, refl2, 0)):
        f, e = refl.flip_amplitude(), refl.error_amplitude()
        lost += max(0.0, 1.0 - abs(f) ** 2 - abs(e) ** 2) * norm2(arm)
        errored = br.child(photon, PhotonFate.D3, pol, e * arm)
        if errored.weight > PRUNE_TOL:
            out.append(errored)
    # a reflection flips the photon and toggles the addressed QD in the +/- basis
    to_h = refl1.flip_amplitude() * v_arm * _QD_SIGNS[0]
    to_v = refl2.flip_amplitude() * h_arm * _QD_SIGNS[1]
    # recombination, second half-wave plate, final PBS
    for fate, pol, click in ((PhotonFate.D1, 0, (to_h + to_v) * SQRT_HALF),
                             (PhotonFate.D2, 1, (to_h - to_v) * SQRT_HALF)):
        w = norm2(click)
        if w <= PRUNE_TOL:
            lost += w
        elif eta0 < 1.0:
            out.append(br.child(photon, fate, pol, np.sqrt(eta0) * click))
            out.append(br.child(photon, PhotonFate.LOST, pol, np.sqrt(1.0 - eta0) * click))
        else:
            out.append(br.child(photon, fate, pol, click))
    return out, lost


QD_PAIRS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
_QD_PAIR_KETS = np.array([np.kron(k1, k2)
                          for k1 in (KET_PLUS, KET_MINUS)
                          for k2 in (KET_PLUS, KET_MINUS)])


def _qd_readouts(vec: np.ndarray):
    """Read the two trailing QDs out in the +/- basis; yields (pair, rest, weight).

    `rest` is <pair|vec> on the other qubits, unnormalized.
    """
    comps = vec.reshape(-1, 4) @ _QD_PAIR_KETS.T  # kets are real
    for j, pair in enumerate(QD_PAIRS):
        rest = comps[:, j]
        w = norm2(rest)
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


def _feed(branches: list[HybridState], photon: int, refl1: ReflectionPair,
          refl2: ReflectionPair, eta0: float, lost: list) -> list[HybridState]:
    """Send one photon through the analyzer in every branch; returns the live ones.

    Scattering loss and branches pruned at or below PRUNE_TOL are appended to
    `lost` as (fates, weight) in the order they happen, with every photon not
    yet detected marked LOST: the run ends there and nothing more is tracked.
    """
    out = []
    for br in branches:
        stepped, lost_w = _photon_step(br, photon, refl1, refl2, eta0)
        if lost_w > 0.0:
            lost.append((_lost_fates(_with_fate(br.fates, photon, PhotonFate.LOST)), lost_w))
        for nb in stepped:
            if nb.weight > PRUNE_TOL:
                out.append(nb)
            elif nb.weight > 0.0:
                lost.append((_lost_fates(nb.fates), nb.weight))
    return out


def _evolve_branches(photons: QubitRegister, refl1, refl2, eta0, order):
    """All photons through the pipeline; returns (live branches, loss records)."""
    lost: list = []
    branches = [HybridState.initial(photons)]
    for k in order:
        branches = _feed(branches, k, refl1, refl2, eta0, lost)
    return branches, [OutcomeRecord(fates, None, w) for fates, w in lost]


def final_branches(photons: QubitRegister, config: AnalyzerConfig,
                   order=None) -> list[HybridState]:
    """Run every photon through the analyzer, stopping before the QD readout.

    Summing the returned branch vectors (`amps`) reconstructs the joint
    photon/QD state with the destructive detectors treated as nondestructive,
    which is what conditional post-measurement checks need. Monochromatic
    configs only.
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


def _run_exhaustive(photons: QubitRegister, config: AnalyzerConfig, order):
    """Exact records, averaged over the pulse's quadrature nodes if it has one."""
    if config.spectrum is not None and config.mode == "realistic":
        x, w = _hermite_nodes(config.quad_nodes)
        omegas = config.spectrum.omega_c + config.spectrum.sigma * x
        runs = [(config.reflection_pairs(om), wi / np.sqrt(np.pi))
                for om, wi in zip(omegas, w)]
    else:
        runs = [(config.reflection_pairs(), 1.0)]
    raw: list[OutcomeRecord] = []
    for (refl1, refl2), scale in runs:
        branches, records = _evolve_branches(photons, refl1, refl2, config.eta0, order)
        for br in branches:
            for pair, _, w in _qd_readouts(br.vec):
                records.append(OutcomeRecord(br.fates, pair, w))
        raw.extend(OutcomeRecord(r.fates, r.qd_readout, scale * r.probability)
                   for r in records)
    return raw


def _sample_omega(rng, spectrum: PulseSpectrum) -> float:
    # the spectral density is a normal law with std sigma/sqrt(2)
    return rng.normal(spectrum.omega_c, spectrum.sigma / np.sqrt(2.0))


def _pick(rng, weights) -> int:
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _run_monte_carlo(photons: QubitRegister, config: AnalyzerConfig, shots, order):
    """One trajectory per shot: a normalized branch, a weighted pick per photon."""
    rng = np.random.default_rng(config.seed)
    counts: dict = {}
    init = HybridState.initial(photons)
    fixed_pairs = config.reflection_pairs() if config.spectrum is None else None
    for _ in range(shots):
        if fixed_pairs is None:
            refl1, refl2 = config.reflection_pairs(_sample_omega(rng, config.spectrum))
        else:
            refl1, refl2 = fixed_pairs
        br = init
        for k in order:
            lost: list = []
            live = _feed([br], k, refl1, refl2, config.eta0, lost)
            pick = _pick(rng, [b.weight for b in live] + [w for _, w in lost])
            if pick >= len(live):  # loss terminates the shot
                key = (lost[pick - len(live)][0], None)
                break
            br = live[pick]
            br = HybridState(br.fates, br.vec / np.sqrt(br.weight), br.pols)
        else:
            readouts = list(_qd_readouts(br.vec))
            key = (br.fates, readouts[_pick(rng, [w for _, _, w in readouts])][0])
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
    return _aggregate(_run_exhaustive(photons, config, order))


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
