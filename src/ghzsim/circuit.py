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

Branch layout: the live branches of a run are the rows of one `BranchStack`.
A row vector holds only the qubits still in play, that is the photons not yet
detected (in photon order) followed by QD1 and QD2; a detected photon leaves
the vector, and its row keeps the photon's fate and the polarization it was
left in. Every row has fed the same photons, so all rows have one length.
The swapping network runs the same photon step with its remote spins as
extra leading qubits; the analyzer is that layout with no spins. Exhaustive
runs keep every child row. In a Monte-Carlo run a row is one distinct
history: each shot points to its row, draws one child of that row per
photon, and the shots that drew the same child share one child row.
`HybridState` is a view of one row, built only for callers that ask for
branches (`final_branches`, `NetworkState.branches`).

Pulse averages: with matched detector units, frequencies scatter a row alike
but for the flip amplitude f of its click children, the error amplitude e of
its D3 children and its loss probability. So a pulse-averaged run is one run
with their envelope (`_units`), whose records weigh by moments of the nodes'
ratios to it (`_moments`); a Monte-Carlo shot weighs its draws by its own.

Detector efficiency: a failed click of D1 or D2 leaves the photon LOST with
the vector the click would have left, so it changes no row. The branch
engine runs with clicks that always succeed, and the efficiency eta0 thins
the summed records once (`_thin`); a Monte-Carlo shot fails its drawn click
by where its uniform fell.

Memory: a run holds at most MAX_STEP_BYTES at once; a Monte-Carlo run carries
its rows in halves, each with the shots that point to it, where a step would
pass it. Records are summed per key, not kept per row.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._ops import KET_MINUS, KET_PLUS, SQRT_HALF, norm2
from .scattering import (MAX_QUAD_NODES, CavityQDParams, PulseSpectrum,
                         ReflectionPair, _hermite_nodes, _require_finite, reflection_coeffs)
from .states import GhzLabel, QubitRegister

PRUNE_TOL = 1e-15

# most bytes a run may hold at once: one photon step's working set plus the
# rows waiting their turn (`_step_bytes`); a Monte-Carlo step over it runs on
# half of its rows at a time, and any other run that does not fit is refused
# before it allocates, not left to the OOM killer
MAX_STEP_BYTES = 2 ** 30

INCONCLUSIVE = "inconclusive"


class PhotonFate(Enum):
    IN_CIRCUIT = "in-circuit"
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    LOST = "lost"


CONCLUSIVE_FATES = (PhotonFate.D1, PhotonFate.D2)

# fate codes of the stacked arrays, in the order of the fates' values, so that
# sorting packed codes sorts records by (fate values, QD pair)
_FATES = (PhotonFate.D1, PhotonFate.D2, PhotonFate.D3, PhotonFate.IN_CIRCUIT,
          PhotonFate.LOST)
_D1, _D2, _D3, _IN, _LOST = range(5)


@dataclass(frozen=True)
class AnalyzerConfig:
    """Run configuration for the analyzer.

    mode        : "ideal" (r0, r1 = -1, +1) or "realistic" (computed from qnd params)
    qnd1, qnd2  : cavity/QD parameters per detector; qnd2 defaults to qnd1
    omega       : monochromatic photon frequency (ueV); realistic default is resonance
    spectrum    : Gaussian pulse instead of a fixed frequency (exclusive with omega);
                  needs matched units, qnd2 == qnd1
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
        if self.omega is not None:
            _require_finite("omega", self.omega)
            if self.spectrum is not None:
                raise ValueError("give either a fixed omega or a spectrum, not both")
        if not 0.0 <= self.eta0 <= 1.0:
            raise ValueError("eta0 must lie in [0, 1]")
        if not 2 <= self.quad_nodes <= MAX_QUAD_NODES:
            raise ValueError(f"quad_nodes must lie in 2..{MAX_QUAD_NODES}, "
                             f"got {self.quad_nodes}")

    def reflection_pairs(self, omega: float | np.ndarray | None = None
                         ) -> tuple[ReflectionPair, ReflectionPair]:
        """Reflection amplitudes of the two detectors at the given frequency (or array)."""
        if self.mode == "ideal":
            return ReflectionPair.ideal(), ReflectionPair.ideal()
        if omega is None:
            omega = self.omega if self.omega is not None else self.qnd1.omega_c
        pair = reflection_coeffs(self.qnd1, omega)
        return pair, pair if self.qnd2 == self.qnd1 else reflection_coeffs(self.qnd2, omega)

    @cached_property
    def units(self):
        """`_units` of both detectors at the config's own frequency, worked out once."""
        return _units(*self.reflection_pairs())


@dataclass(frozen=True, eq=False)
class HybridState:
    """One live, unnormalized branch: a view of one row of a `BranchStack`.

    `amps` is the row: spectator spins, the photons still IN_CIRCUIT (in
    photon order), then QD1 and QD2. `fates` has one entry per photon;
    `pols[k]` is the polarization bit (H = 0, V = 1) that detected photon k
    was left in, and `weight` is the row's squared norm.
    """

    fates: tuple[PhotonFate, ...]
    amps: np.ndarray
    pols: tuple[int, ...]
    weight: float


@dataclass(eq=False)
class BranchStack:
    """The live branches of a run, one per row.

    amps   : (R, dim) unnormalized row vectors (spins, photons still IN_CIRCUIT, QD1, QD2)
    fates  : (R, n) int8 fate code (index into `_FATES`) of every photon
    pols   : (R, n) int8 polarization bit each detected photon was left in
    weight : (R,) squared norm of each row
    """

    amps: np.ndarray
    fates: np.ndarray
    pols: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.weight)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.amps, self.fates, self.pols, self.weight))

    def select(self, rows: np.ndarray) -> BranchStack:
        return BranchStack(self.amps[rows], self.fates[rows], self.pols[rows],
                           self.weight[rows])

    def views(self) -> list[HybridState]:
        return [HybridState(tuple(_FATES[c] for c in fates), amps, tuple(pols), weight)
                for amps, fates, pols, weight in zip(self.amps, self.fates.tolist(),
                                                     self.pols.tolist(), self.weight.tolist())]


class _OverBudget(ValueError):
    """A branch array or photon step that would pass MAX_STEP_BYTES."""


# bookkeeping bytes of a photon step besides the amplitudes, with 2 more per
# photon and row for the fates and pols: per parent row its `_scale` and row
# fields, per child row its weight, prune masks, weighed pruned mass, kept
# index, block, parent and kept weight; and the ufunc buffers of one operation
_PARENT_ROW_BYTES = 96
_CHILD_ROW_BYTES = 64
_BUFFER_BYTES = 2 ** 18


def _step_bytes(rows: int, dim: int, blocks: int, n: int) -> int:
    """Most bytes one photon step holds for `rows` parent rows of `dim` amplitudes.

    The amplitudes count in child blocks of rows x dim/2: the parent rows (2),
    both QND arms (2) and the flipped arms (2) next to the `blocks` children,
    or later the children next to their pruned copy. The flipped arms reuse
    the arms' buffer; the count keeps them as margin. Every row's bookkeeping
    counts on top.
    """
    amps = dim * 8 * max(6 + blocks, 2 + 2 * blocks)
    book = (_PARENT_ROW_BYTES + blocks * _CHILD_ROW_BYTES + (1 + blocks) * 2 * n)
    return rows * (amps + book) + _BUFFER_BYTES


def _check_step(n: int, rows: int, dim: int, blocks: int, held: int = 0) -> None:
    """Refuse a photon step on `rows` rows of `dim` amplitudes that would pass the budget."""
    need = held + _step_bytes(rows, dim, blocks, n)
    if need > MAX_STEP_BYTES:
        raise _OverBudget(f"{n} photons need {need} bytes for a photon step on {rows} rows of "
                          f"{dim} amplitudes, over the {MAX_STEP_BYTES}-byte budget; runs this "
                          f"large need the conclusive-only mode of ROADMAP.md item 3")


def _initial_stack(vec: np.ndarray, n: int) -> BranchStack:
    """The one row of `vec` (spins, n photons, QD1, QD2), as a read-only view."""
    return BranchStack(np.broadcast_to(vec, (1, len(vec))), np.full((1, n), _IN, np.int8),
                       np.zeros((1, n), np.int8), np.full(1, norm2(vec)))


_ONES = np.ones((3, 1))  # `_scale` of a run whose records weigh as they are


def _units(refl1: ReflectionPair, refl2: ReflectionPair):
    """Scattering factors of both detector units as the photon step uses them, and ratios.

    Returns ((f / 2, e / sqrt2, loss probability / 2), ratios) for flip
    amplitude f and error amplitude e of QND1 (index 0) and QND2, with the
    beam splitter and half-wave plate factors; e is None when it is 0
    everywhere (ideal units): no D3 child exists. Ratios are ones (3, 1) at
    one frequency. At K frequencies of matched units, f, e and loss are their
    maxima, and ratios (3, K) each one's |e|^2, |f|^2 and loss relative to them.
    """
    f = np.array([np.atleast_1d(r.flip_amplitude()) for r in (refl1, refl2)], dtype=complex)
    e = np.array([np.atleast_1d(r.error_amplitude()) for r in (refl1, refl2)], dtype=complex)
    loss = np.maximum(0.0, 1.0 - np.abs(f) ** 2 - np.abs(e) ** 2)
    ratios = _ONES
    if f.shape[1] > 1:  # both units scatter with the envelope
        powers = np.array([np.abs(e[0]) ** 2, np.abs(f[0]) ** 2, loss[0]])
        top = powers.max(axis=1, keepdims=True)
        ratios = np.divide(powers, top, out=np.ones_like(powers), where=top > 0)
        e, f, loss = np.tile(top[:, None], (1, 2, 1))
        e, f = np.sqrt(e), np.sqrt(f)
    errors = e[..., None, None, None] * SQRT_HALF if e.any() else None
    return (f[..., None, None, None] / 2.0, errors, loss / 2.0), ratios


def _moments(ratios: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """M[a, b, c] = sum_k weights_k r_f,k^a r_e,k^b r_loss,k^c for a, b <= n + 1, c <= 1,
    for the (3, K) (r_e, r_f, r_loss) `ratios` of K frequencies (`_units`)."""
    e, f, loss = ratios[..., None] ** np.arange(n + 2)  # (K, n + 2) powers of each
    return np.einsum("k,ka,kb,kc->abc", weights, f, e, loss[:, :2])


def _scale(moments: np.ndarray, fates: np.ndarray) -> np.ndarray:
    """Factors M[a, b + 1, 0], M[a + 1, b, 0], M[a, b, 1] and M[a, b, 0] (`_moments`) of
    the D3 children, click children, scattering loss and record of each row of fates
    with a photons that reached a click (D1, D2 or LOST) and b sent to D3: with matched
    units, a record weighs f^2a e^2b loss^c at a frequency times a frequency-free weight."""
    b = np.count_nonzero(fates == _D3, axis=1)
    a = np.count_nonzero(fates != _IN, axis=1) - b
    return moments[a + [[0], [1], [0], [0]], b + [[1], [0], [0], [0]], [[0], [0], [1], [0]]]


def _mass(x: np.ndarray, lead: int = 1) -> np.ndarray:
    """Squared norm over all but the `lead` leading axes of a contiguous array."""
    flat = x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),)).view(np.float64)
    return np.vecdot(flat, flat)


# base-5 digit of each fate code in a packed record key; a photon still
# IN_CIRCUIT when its run ended counts as LOST
_KEY_DIGITS = np.array([_D1, _D2, _D3, _LOST, _LOST], np.int64)


def _pack(fates: np.ndarray) -> np.ndarray:
    """Base-5 record key of each row of fates, photon 0 first; the last digit is the QD pair's."""
    return _KEY_DIGITS[fates] @ 5 ** np.arange(fates.shape[1], 0, -1)


# sign of a +/- flip of QD1 (row 0) or QD2 (row 1) on the trailing (QD1, QD2) axis of 4
_QD_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[:, None, None, None]

# fate and polarization of each block of children, by whether an error amplitude is
# present; without one (ideal units) no D3 child exists
_BLOCKS = {errors: (np.array(([_D3, _D3] if errors else []) + [_D1, _D2], np.int8),
                    np.array(([1, 0] if errors else []) + [0, 1], np.int8))
           for errors in (False, True)}
# row of `scale` (`_photon_step`) that weighs each block of children, then scattering loss
_KINDS = {key: np.append(codes != _D3, 2) for key, (codes, _) in _BLOCKS.items()}


def _draw(weights: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF choice per column of `weights` at uniforms `u`, and where in [0, 1) of
    the chosen weight the uniform fell; a zero weight is never drawn."""
    cum = np.cumsum(weights, axis=0)
    x = u * cum[-1]
    pick = np.count_nonzero(cum <= x, axis=0)
    cols = np.arange(len(pick))
    start = np.where(pick > 0, cum[pick - 1, cols], 0.0)
    return pick, (x - start) / weights[pick, cols]


def _photon_step(stack: BranchStack, photon: int, units, lost: list, held: int = 0,
                 scale: np.ndarray = _ONES, shots: tuple | None = None):
    """One full analyzer pass of one photon in every row; returns the child rows.

    `units` holds the scattering factors of both detector units (`_units`).
    The photon leaves every child's vector. Children come in blocks: D3 via
    QND1, D3 via QND2, D1, D2. The destructive detectors click with certainty
    here; their efficiency thins the summed records (`_thin`). A row's
    scattering loss and its children at or below PRUNE_TOL go to the row's
    loss record. `scale` rows 0, 1 and 2 weigh D3 children, click children
    and scattering loss (`_scale`) in the (fates, weights) records appended to
    `lost`. The run ends there, so photons still IN_CIRCUIT in a loss record
    count as LOST (`_pack`).
    Given `shots`, a triple (uniforms, owner, eta0) of one uniform per shot,
    the index of the shot's row and the detector efficiency, each shot instead
    draws one child of its row or its scattering loss, weighed by its column
    of `scale` (`_draw`), and nothing is pruned; a drawn click fails, leaving
    the photon LOST, where the uniform falls past eta0 of the click's weight.
    A row's children and weights are computed once, whatever the number of
    shots it holds. The child rows are the distinct (block, row, failed)
    triples drawn, renormalized. A drawn loss books a record of weight 1 per
    shot. Returns (children, live, owner): the shots still running, as
    indices into the given ones, and the child row of each.
    A step whose working set (`_step_bytes`) plus the `held` bytes the caller
    keeps besides the stack would pass MAX_STEP_BYTES raises `_OverBudget`
    before it allocates or books anything.
    """
    rows = len(stack)
    if not rows:
        return stack
    fates0 = stack.fates[0].tolist()  # every row has fed the same photons
    right = 2 ** fates0[photon + 1:].count(_IN)
    t = stack.amps.reshape(rows, -1, 2, right, 4)  # (row, left, photon, right, QD pair)
    f, e, loss = units
    errors = e is not None
    codes, pols = _BLOCKS[errors]
    kinds = _KINDS[errors]
    _check_step(len(fates0), rows, t[0].size, len(codes), held)
    kids = np.empty((len(codes), rows) + t.shape[1:2] + t.shape[3:], dtype=complex)
    # half-wave plate, then the PBS sends V to QND1 and H to QND2 (arms times sqrt2)
    arms = np.empty((2,) + kids.shape[1:], dtype=complex)
    np.subtract(t[:, :, 0], t[:, :, 1], out=arms[0])
    np.add(t[:, :, 0], t[:, :, 1], out=arms[1])
    if errors:  # the unflipped error part exits to D3
        np.multiply(e, arms, out=kids[:2])
    lost_w = np.vecdot(loss.T, _mass(arms, 2).T)  # side leakage
    # a reflection flips the photon and toggles the addressed QD in the +/- basis
    flipped = np.multiply(f, arms, out=arms)
    flipped *= _QD_SIGNS
    # recombination, second half-wave plate, final PBS: D1 = H, D2 = V
    clicks = kids[len(codes) - 2:]
    np.add(flipped[0], flipped[1], out=clicks[0])
    np.subtract(flipped[0], flipped[1], out=clicks[1])
    del flipped
    weight = _mass(kids, 2)  # (block, row)
    keep = weight > PRUNE_TOL
    picked = np.flatnonzero(keep)
    failed = None
    if shots is not None:  # each shot keeps one child; drawing its scattering loss ends it
        u, owner, eta0 = shots
        pick, at = _draw(np.vstack((weight, lost_w))[:, owner] * scale[kinds], u)
        ended = pick == len(codes)
        lost_w = np.bincount(owner, weights=ended, minlength=rows)  # one record per shot
        live = np.flatnonzero(~ended)
        picked = pick[live] * rows + owner[live]
        if eta0 < 1.0:  # a click fails past eta0 of its weight; the key's low bit says so
            failed = (kinds[pick[live]] == 1) & (at[live] >= eta0)
            picked = 2 * picked + failed
        if len(owner) == rows:  # one shot per row: the drawn children are distinct
            owner = np.arange(len(live))
        else:
            picked, owner = np.unique(picked, return_inverse=True)
        if failed is not None:
            picked, failed = np.divmod(picked, 2)
            failed = failed.astype(bool)
    else:
        lost_w *= scale[2]
        if len(picked) < keep.size:  # children at or below PRUNE_TOL join the row's loss
            lost_w += (np.where(keep, 0.0, weight) * scale[kinds[:-1]]).sum(axis=0)
    # a loss record keeps the row's fates: photons still IN_CIRCUIT count as LOST
    ended = np.count_nonzero(lost_w)
    if ended == rows:
        lost.append((stack.fates, lost_w))
    elif ended:
        mask = lost_w > 0.0
        lost.append((stack.fates[mask], lost_w[mask]))

    flat = kids.reshape(weight.size, -1)
    amps = flat if shots is None and len(picked) == weight.size else flat[picked]
    block, parent = np.divmod(picked, rows)
    fates = stack.fates[parent]
    fates[:, photon] = codes[block]
    if failed is not None:
        fates[failed, photon] = _LOST
    child_pols = stack.pols[parent]
    child_pols[:, photon] = pols[block]
    weight = weight.ravel()[picked]
    if shots is None:
        return BranchStack(amps, fates, child_pols, weight)
    amps /= np.sqrt(weight)[:, None]  # a shot's row stays normalized
    return BranchStack(amps, fates, child_pols, np.ones(len(picked))), live, owner


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


QD_PAIRS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
_QD_PAIR_KETS = np.array([np.kron(k1, k2)
                          for k1 in (KET_PLUS, KET_MINUS)
                          for k2 in (KET_PLUS, KET_MINUS)])


def _qd_readouts(amps: np.ndarray):
    """Read the two trailing QDs of every row out in the +/- basis.

    Returns (comps, weights): comps[i, :, j] is <pair j|row i> on the other
    qubits, unnormalized, and weights[i, j] its squared norm.
    """
    rows = len(amps)
    comps = amps.reshape(rows, amps.shape[1] // 4, 4) @ _QD_PAIR_KETS.T
    flat = comps.view(np.float64).reshape(comps.shape + (2,))  # kets are real
    return comps, np.einsum("rkjc,rkjc->rj", flat, flat)


def _sum_by_key(keys: np.ndarray, probs: np.ndarray):
    """(sorted unique keys, the probabilities summed per key)."""
    unique, inverse = np.unique(keys, return_inverse=True)
    return unique, np.bincount(inverse, weights=probs, minlength=len(unique))


# phase bit of each QD code (0 for a run that ended in loss, else 1 + its index in
# QD_PAIRS) by the parity of n, -1 where the pair is not a valid readout
_PHASE = np.array([[-1, 0, -1, -1, 1],   # even n: |++> and |-->
                   [-1, -1, 0, 1, -1]])  # odd n: |+-> and |-+>


@dataclass(frozen=True, eq=False)
class Records(Sequence):
    """Outcome records of a run as arrays; its items are `OutcomeRecord` views.

    digits : (R, n + 1) int8 fate code (index into `_FATES`) of every photon,
             then the QD code: 0 for a run that ended in loss, else 1 + the
             pair's index in QD_PAIRS
    probs  : (R,) probability of each record
    """

    digits: np.ndarray
    probs: np.ndarray

    @classmethod
    def of(cls, records) -> Records:
        """`records` itself if it is a `Records`, else the arrays of its `OutcomeRecord`s."""
        if isinstance(records, Records):
            return records
        rows = [[_FATES.index(f) for f in r.fates]
                + [QD_PAIRS.index(r.qd_readout) + 1 if r.qd_readout else 0] for r in records]
        return cls(np.array(rows, np.int8).reshape(len(rows), -1 if rows else 1),
                   np.array([r.probability for r in records], dtype=float))

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self.digits[i], self.probs[i])
        return _record(self.digits[i].tolist(), float(self.probs[i]))

    def __iter__(self):
        return map(_record, self.digits.tolist(), self.probs.tolist())

    @cached_property
    def decoded(self) -> tuple[np.ndarray, np.ndarray]:
        """(conclusive, label) per record, read-only: the paper's classification rule,
        worked out once per `Records`.

        A record is conclusive when every photon clicked D1 (H, bit 0) or D2
        (V, bit 1). Label bit i_j is the parity of photons j and n; the phase
        bit comes from the QD pair, whose valid values depend on the parity of
        n: |++>/|--> for even n, |+->/|-+> for odd n. The label is the GHZ
        label's bits as an integer, i_1 first, or -1 when the record is
        inconclusive or its QD pair has the wrong parity.
        """
        n = self.digits.shape[1] - 1
        bits = self.digits[:, :n]
        conclusive = _clicked(bits)
        lead = bits[:, :-1] ^ bits[:, -1:]
        phase = _PHASE[n % 2][self.digits[:, n]]
        labels = lead @ 2 ** np.arange(n - 1, 0, -1) + phase
        return _read_only(conclusive, np.where(conclusive & (phase >= 0), labels, -1))

    @cached_property
    def label_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct labels of `decoded` in ascending order and the index of each
        record's label among them, read-only; worked out once per `Records`."""
        return _read_only(*np.unique(self.decoded[1], return_inverse=True))

    def labels(self) -> list:
        """The GhzLabel of every record (`decoded`), None where it is inconclusive."""
        spec = f"0{self.digits.shape[1] - 1}b"
        return [None if v < 0 else GhzLabel.from_string(format(v, spec))
                for v in self.decoded[1].tolist()]

    def columns(self) -> tuple[tuple[list, np.ndarray], ...]:
        """Spelled fates, H/V pattern, QD pair, probability and label of the records,
        each as (values, the index of every record's value among them).

        Fates and pattern hold one value per distinct fates key, the QD pair
        one per QD code, the probability one per distinct float64 bit pattern
        (so that 0.0 and -0.0 stay two values) and the label one per distinct
        label. Fates are joined by "/"; the pattern is "" unless the record is
        conclusive, the QD pair "" after a loss, and the label INCONCLUSIVE
        where `decoded` gives none.
        """
        n = self.digits.shape[1] - 1
        photons = self.digits[:, :n]
        _, first, of_fates = np.unique(photons.astype(np.int64) @ 5 ** np.arange(n - 1, -1, -1),
                                       return_index=True, return_inverse=True)
        rows = photons[first]  # the distinct fates
        names = np.array([f.value for f in _FATES], dtype=object)[rows].tolist()
        clicked = _clicked(rows)
        patterns = np.full(len(rows), "", dtype=object)
        patterns[clicked] = list(map("".join, np.array(["H", "V"], dtype=object)
                                     [rows[clicked]].tolist()))
        bits, of_prob = np.unique(self.probs.view(np.int64), return_inverse=True)
        found, of_label = self.label_groups
        spec = f"0{n}b"
        return ((list(map("/".join, names)), of_fates), (patterns.tolist(), of_fates),
                (["", *map("".join, QD_PAIRS)], self.digits[:, n]),
                (bits.view(np.float64).tolist(), of_prob),
                ([INCONCLUSIVE if v < 0 else format(v, spec) for v in found.tolist()], of_label))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only, as a `Records` shares them with every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _clicked(fates: np.ndarray) -> np.ndarray:
    """Rows of fate codes in which every photon clicked D1 or D2."""
    return np.all(fates <= _D2, axis=1)


def _record(row: list, probability: float) -> OutcomeRecord:
    return OutcomeRecord(tuple(_FATES[c] for c in row[:-1]),
                         QD_PAIRS[row[-1] - 1] if row[-1] else None, probability)


# keys `_records` unpacks at once, so that its int64 digits stay small next to the records
_DIGIT_ROWS = 2 ** 16


def _records(keys: np.ndarray, sums: np.ndarray, n: int) -> Records:
    """The records of packed `keys` that are sorted and distinct, as `_sum_by_key` gives
    them, with their summed probabilities `sums`; keys of no mass are dropped."""
    kept = sums > 0.0
    unique = keys[kept]
    digits = np.empty((len(unique), n + 1), np.int8)  # photons, then QD code
    powers = 5 ** np.arange(n, -1, -1)
    for start in range(0, len(unique), _DIGIT_ROWS):
        part = slice(start, start + _DIGIT_ROWS)
        digits[part] = unique[part, None] // powers % 5
    return Records(digits, sums[kept])


# bytes `_thin` holds per entry of one photon's expanded table: the table it was given,
# the digit and click masks, the expanded keys and probabilities, and the sort and
# sums of `_sum_by_key`; the tracemalloc peak over the entries, rounded up
_THIN_ENTRY_BYTES = 96


def _thin(keys: np.ndarray, probs: np.ndarray, etas) -> tuple[np.ndarray, np.ndarray]:
    """The summed records (packed `keys`, `probs`) of a run whose destructive detectors
    always click, thinned to efficiency etas[k] for photon k.

    A click fails independently of the scattering, so for each photon with
    eta < 1 every D1 or D2 digit stays with weight eta or turns LOST with
    weight 1 - eta; the table is summed per key after each photon. A photon
    whose expanded table would pass MAX_STEP_BYTES raises `_OverBudget` first.
    """
    n = len(etas)
    for k, eta in enumerate(etas):
        if eta == 1.0:
            continue
        place = 5 ** (n - k)
        digit = keys // place % 5
        click = digit <= _D2
        need = (len(keys) + np.count_nonzero(click)) * _THIN_ENTRY_BYTES
        if need > MAX_STEP_BYTES:
            raise _OverBudget(f"{n} photons need {need} bytes to thin {len(keys)} records, "
                              f"over the {MAX_STEP_BYTES}-byte budget")
        failed = keys[click] + (_LOST - digit[click]) * place, (1.0 - eta) * probs[click]
        stay = ((keys, np.where(click, eta * probs, probs)) if eta
                else (keys[~click], probs[~click]))  # at eta = 0 every click fails
        keys, probs = _sum_by_key(*map(np.concatenate, zip(stay, failed)))
    return keys, probs


def _evolve(vec: np.ndarray, units, order, book=None, draws=None, weights=None,
            eta0: float = 1.0):
    """All photons through the pipeline, from the one row of `vec`.

    Given `draws`, a (shots, n + 1) block of uniforms, the run is sampled:
    every shot starts in that row, keeps its id (which indexes its uniforms
    and its column of `weights`, the (3, shots) `_units` ratios) and the
    index of its row, and each step draws one child per shot, whose clicks
    fail past `eta0` (`_photon_step`). Else `weights` is the moment table
    (`_moments`) of the loss records, or None, and every click succeeds.
    Yields the final rows: one stack, in a sampled run
    as (stack, shot ids, their rows). A sampled step that would pass the
    budget halves its rows, each half with its shots, carried to the end one
    after the other; any other such step is refused. Each step's loss
    records go to `book`, if any.
    """
    shots = None if draws is None else (np.arange(len(draws)), np.zeros(len(draws), np.intp))
    todo = [(_initial_stack(vec, len(order)), 0, shots)]  # (rows, photons fed, their shots)
    while todo:
        stack, fed, shots = todo.pop()
        while fed < len(order) and len(stack):  # stop once no row is left
            held = sum(s.nbytes for s, _, _ in todo)
            lost: list = []
            try:
                if shots is None:
                    scale = _ONES if weights is None else _scale(weights, stack.fates)
                    stack = _photon_step(stack, order[fed], units, lost, held, scale)
                else:
                    shot, owner = shots
                    stack, live, owner = _photon_step(stack, order[fed], units, lost, held,
                                                      weights[:, shot],
                                                      (draws[shot, fed], owner, eta0))
                    shots = (shot[live], owner)
            except _OverBudget:
                if shots is None or len(stack) == 1:
                    raise
                half = (len(stack) + 1) // 2  # halve the rows, each half with its shots
                later = np.arange(len(stack)) >= half
                shot, owner = shots
                mine = owner < half
                todo.append((stack.select(later), fed, (shot[~mine], owner[~mine] - half)))
                stack, shots = stack.select(~later), (shot[mine], owner[mine])
                continue
            fed += 1
            if book is not None:
                book(lost)
        yield stack if shots is None else (stack, *shots)


def check_fits(n: int) -> None:
    """Refuse an n-photon run before it allocates if its first step cannot fit MAX_STEP_BYTES,
    counted with the fewest children a step makes, as that step would refuse it anyway."""
    _check_step(n, 1, 4 * 2 ** n, len(_BLOCKS[False][0]))


def _feeding_order(photons: QubitRegister, config: AnalyzerConfig, order) -> list[int]:
    """The photons' feeding order, once the register is known to be a runnable input."""
    n = photons.num_qubits
    if n < 2:
        raise ValueError("the analyzer needs at least 2 photons")
    if not photons.is_normalized():
        raise ValueError("input register must be normalized")
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the photon indices")
    check_fits(n)
    return order


def _with_spins(amps: np.ndarray) -> np.ndarray:
    """The input row amps (x) |+> (x) |+>: both QD spins start in |+>."""
    return ((amps[:, None] * KET_PLUS)[:, :, None] * KET_PLUS).reshape(-1)


def final_branches(photons: QubitRegister, config: AnalyzerConfig,
                   order=None) -> list[HybridState]:
    """Run every photon through the analyzer, stopping before the QD readout.

    Returns one `HybridState` view per final row. Every photon has been
    detected, so a row's `amps` hold QD1 and QD2 only; its `fates` and `pols`
    say where each photon went and the polarization it was left in. The
    branches are those of perfect destructive detectors, whatever
    `config.eta0`: a failed click changes no vector, only the records
    (`_thin`). Monochromatic configs only.
    """
    if config.spectrum is not None and config.mode == "realistic":
        raise ValueError("final_branches needs a monochromatic configuration")
    order = _feeding_order(photons, config, order)
    units, _ = config.units
    vec = _with_spins(photons.amplitudes)
    return [branch for stack in _evolve(vec, units, order)
            for branch in stack.views()]


# a Monte-Carlo run draws its shots in groups of this // 16, so that its memory
# does not grow with them
_SHOT_BLOCK = 2 ** 16


def _shot_groups(config: AnalyzerConfig, pulse: bool, n: int, shots: int):
    """(units, ratios, draws) per group of `_SHOT_BLOCK // 16` shots. A pulse group
    draws each shot's omega (the spectral density is a normal law with std
    sigma/sqrt2) first, and scatters with their envelope (`_units`). A one-node
    group draws only uniforms, so its size keeps the stream."""
    rng = np.random.default_rng(config.seed)
    size = _SHOT_BLOCK // 16
    units, ratios = (None, None) if pulse else config.units
    for start in range(0, shots, size):
        rows = min(size, shots - start)
        if pulse:
            omegas = rng.normal(config.spectrum.omega_c,
                                config.spectrum.sigma / np.sqrt(2.0), rows)
            units, ratios = _units(*config.reflection_pairs(omegas))
        yield units, np.broadcast_to(ratios, (3, rows)), rng.random((rows, n + 1))


def _run(photons: QubitRegister, config: AnalyzerConfig, order, shots: int):
    """Exact records, weighted by the nodes' moments, or the frequencies over `shots`
    sampled shots (`_shot_groups`), each of which draws one QD pair at the end."""
    n = photons.num_qubits
    vec = _with_spins(photons.amplitudes)
    pulse = config.spectrum is not None and config.mode == "realistic"
    if pulse and config.qnd2 != config.qnd1:
        raise ValueError("a pulse-averaged run needs matched detector units, qnd2 == qnd1")
    sampled = config.enumeration == "monte-carlo"
    if sampled:
        groups = _shot_groups(config, pulse, n, shots)
    elif pulse:
        x, w = _hermite_nodes(config.quad_nodes)
        units, ratios = _units(*config.reflection_pairs(
            config.spectrum.omega_c + config.spectrum.sigma * x))
        groups = [(units, _moments(ratios, w / np.sqrt(np.pi), n), None)]
    else:  # one frequency: the records weigh as they are
        groups = [(config.units[0], None, None)]
    # the records summed so far, then those booked since: summed after each step of
    # an exhaustive run, to bound its memory, and once per shot group of a sampled one
    booked = [(np.empty(0, np.int64), np.empty(0))]

    def add():
        booked[:] = [_sum_by_key(*map(np.concatenate, zip(*booked)))]

    for units, weights, draws in groups:
        def book(lost):
            booked.extend((_pack(fates), w) for fates, w in lost)
            if draws is None and lost:
                add()

        for stack in _evolve(vec, units, order, book, draws, weights, config.eta0):
            if draws is None:
                readout = _qd_readouts(stack.amps)[1]
                row, pair = np.nonzero(readout > PRUNE_TOL)
                probs = readout[row, pair]
                if weights is not None:
                    probs *= _scale(weights, stack.fates)[3, row]
                booked.append((_pack(stack.fates)[row] + 1 + pair, probs))
            else:  # each shot draws its pair from its row's four weights
                stack, shot, owner = stack
                readout = _qd_readouts(stack.amps)[1][owner]
                pair = _draw(readout.T, draws[shot, n])[0]
                booked.append((_pack(stack.fates)[owner] + 1 + pair, np.ones(len(shot))))
            del stack, readout  # the next part of a sampled run goes without them
        add()
    keys, probs = booked[0]
    if sampled:
        return _records(keys, probs / shots, n)
    return _records(*_thin(keys, probs, (config.eta0,) * n), n)


def run_analyzer(photons: QubitRegister, config: AnalyzerConfig,
                 shots: int = 100_000, order=None) -> Records:
    """Run the full analyzer on an n-photon register; returns its outcome records.

    They are a `Records` sequence, arrays whose items are `OutcomeRecord`
    views. Exhaustive enumeration returns every branch with its exact
    probability; monte-carlo returns observed frequencies over `shots`
    samples. `order` optionally permutes the feeding sequence of the photons.
    Records come sorted by (fate values, QD pair).
    """
    order = _feeding_order(photons, config, order)
    if config.enumeration == "monte-carlo" and shots < 1:
        raise ValueError("shots must be >= 1")
    if config.enumeration == "monte-carlo" and config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    return _run(photons, config, order, shots)


def classify(record: OutcomeRecord, n: int):
    """Map one outcome record to a GHZ label, or None when inconclusive (`Records.decoded`)."""
    if len(record.fates) != n:
        raise ValueError(f"record covers {len(record.fates)} photons, expected {n}")
    return Records.of([record]).labels()[0]


def conclusive_probability(records) -> float:
    """Probability that every photon lands on D1 or D2, summed in record order."""
    records = Records.of(records)
    return sum(records.probs[records.decoded[0]].tolist())


def classification_distribution(records, n: int) -> dict[str, float]:
    """Probabilities per GHZ label string, with inconclusive mass pooled; sorted by key."""
    records = Records.of(records)
    if not len(records):
        return {}
    if records.digits.shape[1] != n + 1:
        raise ValueError(f"records cover {records.digits.shape[1] - 1} photons, expected {n}")
    found, index = records.label_groups
    sums = np.bincount(index, weights=records.probs).tolist()  # in record order per label
    out = {format(label, f"0{n}b"): p for label, p in zip(found.tolist(), sums) if label >= 0}
    if found[0] < 0:  # "inconclusive" sorts after every bit string
        out[INCONCLUSIVE] = sums[0]
    return out
