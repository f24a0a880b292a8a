"""Entanglement swapping over remote spins through the photonic analyzer.

A hub node holds one photon from each of two or three hybrid spin-photon
pairs (|up,H> + |down,V>)/sqrt(2) shared with remote stationary qubits. The
photons are fed one at a time into the analyzer; conditioning on the click
record and the final QD readout projects the remote spins onto a Bell state
(two pairs) or a GHZ state (three pairs) that the click record predicts.

Branch layout for m pairs: the m remote spins, the hub photons not yet
detected, then QD1 and QD2, one branch per row of a `circuit.BranchStack`; a
detected photon leaves the rows. Branch amplitudes stay unnormalized.
`NetworkState.branches` builds per-branch views whose `amps` rebuild the full
layout (spins, all m photons, QDs) with detected photons collapsed on their
recorded polarization, so summing it over branches gives the unmeasured
state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ops import KET_PLUS, SQRT_HALF, kron_all
from .circuit import (PRUNE_TOL, QD_PAIRS, AnalyzerConfig, BranchStack, HybridState,
                      OutcomeRecord, _initial_stack, _mass, _photon_step, _qd_readouts,
                      _units, classify, click_records)
from .states import GhzLabel, QubitRegister


def hybrid_pair_state() -> np.ndarray:
    """Joint (spin, photon) vector (|up,H> + |down,V>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0b00] = v[0b11] = SQRT_HALF
    return v


@dataclass(eq=False)
class NetworkState:
    """Live branches of the hub-plus-remote-spins system and the mass lost so far.

    `stack` holds the live branches, one per row, with fates over the m
    photons (IN_CIRCUIT until fed); `lost` holds the (fates, weights, nodes)
    arrays of every run that ended in loss or pruning (`circuit._photon_step`);
    `fed` marks the photons sent through the analyzer.
    """

    num_pairs: int
    stack: BranchStack
    lost: list
    fed: tuple[bool, ...]

    @property
    def branches(self) -> list[HybridState]:
        return self.stack.views()

    def assembled(self) -> np.ndarray:
        """Sum of live branch vectors: the state before any projection."""
        branches = self.branches
        if not branches:
            raise ValueError("no live branches to assemble")
        out = branches[0].amps.copy()
        for br in branches[1:]:
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
    stack = _initial_stack(amps, m, np.zeros(1, np.intp))
    return NetworkState(num_pairs=m, stack=stack, lost=[], fed=(False,) * m)


def feed_photon(state: NetworkState, photon: int, config: AnalyzerConfig) -> NetworkState:
    """Send one hub photon through the analyzer, branching on its click."""
    if not 0 <= photon < state.num_pairs:
        raise ValueError(f"photon index {photon} out of range")
    if state.fed[photon]:
        raise ValueError(f"photon {photon} was already fed")
    if config.spectrum is not None:
        raise ValueError("network runs are monochromatic; use a fixed omega")
    lost = list(state.lost)
    stack = _photon_step(state.stack, photon, _units(*config.reflection_pairs()),
                         config.eta0, lost)
    fed = tuple(done or i == photon for i, done in enumerate(state.fed))
    return NetworkState(state.num_pairs, stack, lost, fed)


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


def _factor_out_unfed_pairs(state: NetworkState, amps: np.ndarray) -> np.ndarray:
    """Contract the untouched pairs out of every live row.

    Returns the rows on the fed spins and the two QDs. Raises if a
    supposedly untouched pair turns out to be entangled with the rest.
    """
    m0 = state.num_pairs
    unfed = [i for i, done in enumerate(state.fed) if not done]
    axes = list(range(m0)) + [m0 + i for i in unfed] + [2 * m0, 2 * m0 + 1]  # axis ids
    rows = len(amps)
    t = amps.reshape([rows] + [2] * len(axes))
    for i in unfed:
        tt = np.moveaxis(t, (1 + axes.index(i), 1 + axes.index(m0 + i)), (1, 2))
        rest = (tt[:, 0, 0] + tt[:, 1, 1]) * SQRT_HALF
        recon = np.zeros_like(tt)
        recon[:, 0, 0] = rest * SQRT_HALF
        recon[:, 1, 1] = rest * SQRT_HALF
        if np.any(_mass(tt - recon) > 1e-12 * np.maximum(1.0, _mass(t))):
            raise ValueError(f"pair {i} is no longer a product factor")
        t = rest
        axes.remove(i)
        axes.remove(m0 + i)
    return t.reshape(rows, 2 ** (t.ndim - 1))


def _swap_outcomes(state: NetworkState, expect_fed: int) -> list[SwapOutcome]:
    fed = [i for i, done in enumerate(state.fed) if done]
    if len(fed) != expect_fed:
        raise ValueError(f"swap needs exactly {expect_fed} fed photons, got {len(fed)}")
    m = len(fed)
    aborted, heralded, clicks = click_records(state.stack, state.lost, fed)
    outcomes = [SwapOutcome(r.fates, None, r.probability, None, None) for r in aborted]
    comps, weights = _qd_readouts(_factor_out_unfed_pairs(state, state.stack.amps[heralded]))
    for row, j in zip(*np.nonzero(weights > PRUNE_TOL)):  # comps: the fed spins
        w = float(weights[row, j])
        remote = QubitRegister(m, comps[row, :, j] / np.sqrt(w))
        predicted = classify(OutcomeRecord(clicks[row], QD_PAIRS[j], w), m)
        outcomes.append(SwapOutcome(clicks[row], QD_PAIRS[j], w, remote, predicted))
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
