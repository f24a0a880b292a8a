"""Entanglement swapping over remote spins through the photonic analyzer.

A hub node holds one photon from each of two or three hybrid spin-photon
pairs (|up,H> + |down,V>)/sqrt(2) shared with remote stationary qubits. The
photons are fed one at a time into the analyzer; conditioning on the click
record and the final QD readout projects the remote spins onto a Bell state
(two pairs) or a GHZ state (three pairs) that the click record predicts.

Branch layout for m pairs: the m remote spins, the hub photons not yet
detected, then QD1 and QD2 (`circuit.HybridState`); a detected photon leaves
the vector. Branch amplitudes stay unnormalized. `HybridState.amps` rebuilds
the full layout (spins, all m photons, QDs) with detected photons collapsed on
their recorded polarization, so summing it over branches gives the unmeasured
state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ops import KET_PLUS, SQRT_HALF, kron_all, norm2
from .circuit import (CONCLUSIVE_FATES, AnalyzerConfig, HybridState, OutcomeRecord,
                      PhotonFate, _feed, _qd_readouts, classify)
from .states import GhzLabel, QubitRegister


def hybrid_pair_state() -> np.ndarray:
    """Joint (spin, photon) vector (|up,H> + |down,V>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0b00] = v[0b11] = SQRT_HALF
    return v


@dataclass(eq=False)
class NetworkState:
    """Live branches of the hub-plus-remote-spins system and the mass lost so far.

    `branches` are `HybridState`s whose fates cover the m photons (IN_CIRCUIT
    until fed); `lost` holds (fates, weight) of every run that ended in loss
    or pruning; `fed` marks the photons sent through the analyzer.
    """

    num_pairs: int
    branches: list[HybridState]
    lost: list
    fed: tuple[bool, ...]

    def assembled(self) -> np.ndarray:
        """Sum of live branch vectors: the state before any projection."""
        if not self.branches:
            raise ValueError("no live branches to assemble")
        out = self.branches[0].amps.copy()
        for br in self.branches[1:]:
            out += br.amps
        return out


def make_network(num_pairs: int) -> NetworkState:
    """Product of hybrid pairs with both analyzer QDs prepared in |+>."""
    if num_pairs not in (2, 3):
        raise ValueError("num_pairs must be 2 or 3")
    m = num_pairs
    interleaved = kron_all(*([hybrid_pair_state()] * m))  # axes s1,p1,s2,p2,...
    t = interleaved.reshape([2] * (2 * m))
    perm = [2 * i for i in range(m)] + [2 * i + 1 for i in range(m)]
    spins_first = np.transpose(t, perm).reshape(-1)
    amps = kron_all(spins_first, KET_PLUS, KET_PLUS)
    branch = HybridState((PhotonFate.IN_CIRCUIT,) * m, amps, (0,) * m)
    return NetworkState(num_pairs=m, branches=[branch], lost=[], fed=(False,) * m)


def feed_photon(state: NetworkState, photon: int, config: AnalyzerConfig) -> NetworkState:
    """Send one hub photon through the analyzer, branching on its click."""
    if not 0 <= photon < state.num_pairs:
        raise ValueError(f"photon index {photon} out of range")
    if state.fed[photon]:
        raise ValueError(f"photon {photon} was already fed")
    if config.spectrum is not None:
        raise ValueError("network runs are monochromatic; use a fixed omega")
    refl1, refl2 = config.reflection_pairs()
    lost = list(state.lost)
    branches = _feed(state.branches, photon, refl1, refl2, config.eta0, lost)
    fed = tuple(done or i == photon for i, done in enumerate(state.fed))
    return NetworkState(state.num_pairs, branches, lost, fed)


@dataclass(frozen=True)
class SwapOutcome:
    """One heralded swap result.

    clicks covers the fed photons in feeding order. For conclusive outcomes
    the remote spins collapse onto `remote_state` and `predicted` is the
    label inferred from the click record alone; inconclusive branches are
    aborted with no QD measurement attached.
    """

    clicks: tuple
    qd_readout: tuple[str, str] | None
    probability: float
    remote_state: QubitRegister | None
    predicted: GhzLabel | None


def _factor_out_unfed_pairs(state: NetworkState, vec: np.ndarray) -> np.ndarray:
    """Contract the untouched pairs out of one live branch vector.

    Returns the vector on the fed spins and the two QDs. Raises if a
    supposedly untouched pair turns out to be entangled with the rest.
    """
    m0 = state.num_pairs
    unfed = [i for i, done in enumerate(state.fed) if not done]
    axes = list(range(m0)) + [m0 + i for i in unfed] + [2 * m0, 2 * m0 + 1]  # axis ids
    t = vec.reshape([2] * len(axes))
    for i in unfed:
        tt = np.moveaxis(t, (axes.index(i), axes.index(m0 + i)), (0, 1))
        rest = (tt[0, 0] + tt[1, 1]) * SQRT_HALF
        recon = np.zeros_like(tt)
        recon[0, 0] = rest * SQRT_HALF
        recon[1, 1] = rest * SQRT_HALF
        if norm2(tt - recon) > 1e-12 * max(1.0, norm2(t)):
            raise ValueError(f"pair {i} is no longer a product factor")
        t = rest
        axes.remove(i)
        axes.remove(m0 + i)
    return t.reshape(-1)


def _swap_outcomes(state: NetworkState, expect_fed: int) -> list[SwapOutcome]:
    fed = [i for i, done in enumerate(state.fed) if done]
    if len(fed) != expect_fed:
        raise ValueError(f"swap needs exactly {expect_fed} fed photons, got {len(fed)}")
    m = len(fed)
    aborted: dict = {}  # distinct lost and error branches can share a click record
    for fates, w in state.lost:
        clicks = tuple(fates[i] for i in fed)
        aborted[clicks] = aborted.get(clicks, 0.0) + w
    outcomes: list[SwapOutcome] = []
    for br in state.branches:
        clicks = tuple(br.fates[i] for i in fed)
        if any(c not in CONCLUSIVE_FATES for c in clicks):
            aborted[clicks] = aborted.get(clicks, 0.0) + br.weight
            continue
        vec = _factor_out_unfed_pairs(state, br.vec)
        for qd_pair, rest, w in _qd_readouts(vec):  # rest: the fed spins
            remote = QubitRegister(m, rest / np.sqrt(w))
            predicted = classify(OutcomeRecord(clicks, qd_pair, w), m)
            outcomes.append(SwapOutcome(clicks, qd_pair, w, remote, predicted))
    outcomes.extend(SwapOutcome(clicks, None, p, None, None)
                    for clicks, p in aborted.items())
    return sorted(outcomes, key=lambda o: (tuple(c.value for c in o.clicks),
                                           o.qd_readout or ()))


def bell_swap(state: NetworkState) -> list[SwapOutcome]:
    """Measure the QDs after two fed photons; remote pair collapses to a Bell state."""
    return _swap_outcomes(state, expect_fed=2)


def ghz_swap(state: NetworkState) -> list[SwapOutcome]:
    """Measure the QDs after three fed photons; remote triple collapses to a GHZ state."""
    if state.num_pairs != 3:
        raise ValueError("ghz_swap needs a three-pair network")
    return _swap_outcomes(state, expect_fed=3)
