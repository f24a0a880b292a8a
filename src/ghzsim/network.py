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
from .circuit import (PRUNE_TOL, AnalyzerConfig, BranchStack, HybridState, Records,
                      _initial_stack, _photon_step, _qd_readouts, _units, click_records)
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

    clicks covers every hub photon, in photon order. For conclusive outcomes
    the remote spins collapse onto `remote_state` and `predicted` is the
    label inferred from the click record alone; inconclusive branches are
    aborted with no QD measurement attached.
    """

    clicks: tuple
    qd_readout: tuple[str, str] | None
    probability: float
    remote_state: QubitRegister | None
    predicted: GhzLabel | None


def _swap_outcomes(state: NetworkState) -> list[SwapOutcome]:
    m = state.num_pairs
    if not all(state.fed):
        raise ValueError(f"swap needs all {m} photons fed, got {sum(state.fed)}")
    aborted, heralded, clicks = click_records(state.stack, state.lost, list(range(m)))
    outcomes = [SwapOutcome(r.fates, None, r.probability, None, None) for r in aborted]
    comps, weights = _qd_readouts(state.stack.amps[heralded])
    row, pair = np.nonzero(weights > PRUNE_TOL)  # comps: the remote spins
    found = Records.read_out(clicks[row], pair, weights[row, pair])
    for r, i, j, label in zip(found, row.tolist(), pair.tolist(), found.labels()):
        remote = QubitRegister(m, comps[i, :, j] / np.sqrt(r.probability))
        outcomes.append(SwapOutcome(r.fates, r.qd_readout, r.probability, remote, label))
    return sorted(outcomes, key=lambda o: (tuple(c.value for c in o.clicks),
                                           o.qd_readout or ()))


def bell_swap(state: NetworkState) -> list[SwapOutcome]:
    """Measure the QDs after two fed photons; remote pair collapses to a Bell state."""
    if state.num_pairs != 2:
        raise ValueError("bell_swap needs a two-pair network")
    return _swap_outcomes(state)


def ghz_swap(state: NetworkState) -> list[SwapOutcome]:
    """Measure the QDs after three fed photons; remote triple collapses to a GHZ state."""
    if state.num_pairs != 3:
        raise ValueError("ghz_swap needs a three-pair network")
    return _swap_outcomes(state)
