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

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._ops import SQRT_HALF, norm2
from .circuit import (_D2, INCONCLUSIVE, PRUNE_TOL, AnalyzerConfig, BranchStack, HybridState,
                      Records, _clicked, _initial_stack, _pack, _photon_step, _qd_readouts,
                      _records, _sum_by_key, _thin, _with_spins)
from .states import GhzLabel, QubitRegister, bell_name, ghz_state


@dataclass(eq=False)
class NetworkState:
    """Live branches of the hub-plus-remote-spins system and the mass lost so far.

    `stack` holds the live branches, one per row, with fates over the m
    photons (IN_CIRCUIT until fed); `lost` holds the (fates, weights)
    arrays of every run that ended in loss or pruning (`circuit._photon_step`).
    The rows are those of destructive detectors that always click; `fed`
    holds the detector efficiency eta0 each photon was fed with, or None for
    a photon not yet fed, and the swap thins its records by it.
    """

    num_pairs: int
    stack: BranchStack
    lost: list
    fed: tuple[float | None, ...]

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
    # spins first, then photons: each remote spin equals its photon
    pairs = np.zeros(4 ** m, dtype=complex)
    pairs[::2 ** m + 1] = SQRT_HALF ** m
    stack = _initial_stack(_with_spins(pairs), m)
    return NetworkState(num_pairs=m, stack=stack, lost=[], fed=(None,) * m)


def feed_photon(state: NetworkState, photon: int, config: AnalyzerConfig) -> NetworkState:
    """Send one hub photon through the analyzer, branching on its click."""
    if not 0 <= photon < state.num_pairs:
        raise ValueError(f"photon index {photon} out of range")
    if state.fed[photon] is not None:
        raise ValueError(f"photon {photon} was already fed")
    if config.spectrum is not None:
        raise ValueError("network runs are monochromatic; use a fixed omega")
    if config.enumeration != "exhaustive":
        raise ValueError("network runs enumerate every branch; use exhaustive enumeration")
    lost = list(state.lost)
    stack = _photon_step(state.stack, photon, config.units[0], lost)
    fed = tuple(config.eta0 if i == photon else eta0 for i, eta0 in enumerate(state.fed))
    return NetworkState(state.num_pairs, stack, lost, fed)


@dataclass(frozen=True)
class SwapOutcome:
    """One swap result: a view of one row of `SwapOutcomes`.

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


@dataclass(frozen=True, eq=False)
class SwapOutcomes(Sequence):
    """The swap's outcomes as arrays; its items are `SwapOutcome` views.

    records : the lost, inconclusive and heralded runs as the analyzer's records
    remote  : (H, 2^m) normalized remote state of each heralded record (QD pair
              read out), in record order
    """

    records: Records
    remote: np.ndarray

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]  # IndexError past either end
        r, label = self.records[i], int(self.records.decoded[1][i])
        m = len(r.fates)
        remote = (None if r.qd_readout is None else
                  QubitRegister(m, self.remote[np.count_nonzero(self.records.digits[:i, m])]))
        return SwapOutcome(r.fates, r.qd_readout, r.probability, remote,
                           None if label < 0 else GhzLabel.from_string(format(label, f"0{m}b")))

    def columns(self) -> tuple:
        """Clicks, QD pair, probability, predicted state and fidelity of the outcomes, each
        as (values, the index of every outcome's value among them), as `Records.columns`.

        The predicted state is a Bell name at m = 2, else the GHZ label, and
        INCONCLUSIVE where none is inferred; the fidelity of the remote state
        to it is "" there. The target has just two amplitudes, 1/sqrt2 at idx
        and +-1/sqrt2 at idx ^ (2^m - 1), so its inner products with the
        remote states take two columns of them; the last steps run on Python
        floats, as `states.fidelity` does, so that every digit stays the same.
        """
        records = self.records
        m = records.digits.shape[1] - 1
        clicks, _, qd, probability, (names, of_label) = records.columns()
        if m == 2:
            names = [v if v == INCONCLUSIVE else bell_name(GhzLabel.from_string(v))
                     for v in names]
        label = records.decoded[1]
        rows = np.flatnonzero(label >= 0)  # each of them heralded
        b, labels = self.remote[label[records.digits[:, m] > 0] >= 0], label[rows]
        at, idx, sign = np.arange(len(b)), labels & -2, 1.0 - 2.0 * (labels & 1)
        inner = SQRT_HALF * b[at, idx] + sign * SQRT_HALF * b[at, idx ^ (2 ** m - 1)]
        na = norm2(ghz_state(m, [0] * m).amplitudes)
        fids = [abs(z) ** 2 / (na * nb)
                for z, nb in zip(inner.tolist(), np.vecdot(b, b).real.tolist())]
        of_fid = np.zeros(len(records), np.intp)
        of_fid[rows] = np.arange(1, len(rows) + 1)
        return clicks, qd, probability, (names, of_label), (["", *fids], of_fid)


def _swap_outcomes(state: NetworkState) -> SwapOutcomes:
    """Every lost, inconclusive and heralded run as the analyzer's records, in their order."""
    m = state.num_pairs
    if None in state.fed:
        raise ValueError(f"swap needs all {m} photons fed, "
                         f"got {m - state.fed.count(None)}")
    stack = state.stack
    clicked = _clicked(stack.fates)
    comps, weights = _qd_readouts(stack.amps[clicked])
    row, pair = np.nonzero(weights > PRUNE_TOL)  # comps: the remote spins
    heralded = _pack(stack.fates[clicked])[row] + 1 + pair
    aborted = [*state.lost, (stack.fates[~clicked], stack.weight[~clicked])]
    keys = np.concatenate([*(_pack(fates) for fates, _ in aborted), heralded])
    probs = np.concatenate([*(w for _, w in aborted), weights[row, pair]])
    if min(state.fed) < 1.0:
        keys, probs = _thin(keys, probs, state.fed)
        # a run with a failed click is aborted before the QD readout
        clicks = keys[:, None] // 5 ** np.arange(m, 0, -1) % 5 <= _D2
        keys = np.where(clicks.all(axis=1), keys, keys - keys % 5)
    keys, sums = _sum_by_key(keys, probs)
    # the heralded keys are distinct, so their argsort is the records' order of them;
    # a key thinned to no mass (by a click that always fails) has no record
    order = np.argsort(heralded)
    order = order[sums[np.searchsorted(keys, heralded[order])] > 0.0]
    # a failed click scales a heralded run's probability, not its remote state
    remote = comps[row, :, pair][order] / np.sqrt(weights[row, pair][order])[:, None]
    return SwapOutcomes(_records(keys, sums, m), remote)


def bell_swap(state: NetworkState) -> SwapOutcomes:
    """Measure the QDs after two fed photons; remote pair collapses to a Bell state."""
    if state.num_pairs != 2:
        raise ValueError("bell_swap needs a two-pair network")
    return _swap_outcomes(state)


def ghz_swap(state: NetworkState) -> SwapOutcomes:
    """Measure the QDs after three fed photons; remote triple collapses to a GHZ state."""
    if state.num_pairs != 3:
        raise ValueError("ghz_swap needs a three-pair network")
    return _swap_outcomes(state)
