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
A row is one (quadrature node, branch) pair: a monochromatic run has one
node, a pulse-averaged run one per Gauss-Hermite node, and each row scatters
with its own node's amplitudes. A row vector holds only the qubits still in
play, that is the photons not yet detected (in photon order) followed by QD1
and QD2; a detected photon leaves the vector, and its row keeps the photon's
fate and the polarization it was left in. Every row has fed the same
photons, so all rows have one length. The swapping network runs the same
photon step with its remote spins as extra leading qubits; the analyzer is
that layout with no spins. Exhaustive runs keep every child row. In a
Monte-Carlo run a row is one distinct (node, history) pair: each shot points
to its row, draws one child of that row per photon, and the shots that drew
the same child share one child row.
`HybridState` is a per-branch view, built only for callers that ask for
branches (`final_branches`, `NetworkState.branches`).

Memory: a run holds at most MAX_STEP_BYTES at once. A pulse run whose step
would pass it carries its nodes in smaller groups, one group after the
other, since rows of different nodes never interact; a Monte-Carlo run
carries its rows in halves, each with the shots that point to it. Records
are summed per key after every step rather than kept per row.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._ops import KET_MINUS, KET_PLUS, SQRT_HALF, norm2
from .scattering import (MAX_QUAD_NODES, CavityQDParams, PulseSpectrum,
                         ReflectionPair, _hermite_nodes, reflection_coeffs)
from .states import GhzLabel, QubitRegister

PRUNE_TOL = 1e-15

# most bytes a run may hold at once: one photon step's working set plus the
# rows waiting their turn (`_step_bytes`); a larger step is run on fewer
# quadrature nodes at a time, and a run that does not fit even so is refused
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

    def reflection_pairs(self, omega: float | np.ndarray | None = None
                         ) -> tuple[ReflectionPair, ReflectionPair]:
        """Reflection amplitudes of the two detectors at the given frequency (or array)."""
        if self.mode == "ideal":
            return ReflectionPair.ideal(), ReflectionPair.ideal()
        if omega is None:
            omega = self.omega if self.omega is not None else self.qnd1.omega_c
        return (reflection_coeffs(self.qnd1, omega),
                reflection_coeffs(self.qnd2, omega))


@dataclass(eq=False)
class HybridState:
    """One live, unnormalized branch: a view of one row of a `BranchStack`.

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


@dataclass(eq=False)
class BranchStack:
    """The live branches of a run, one per row.

    amps   : (R, dim) unnormalized row vectors (spins, photons still IN_CIRCUIT, QD1, QD2)
    fates  : (R, n) int8 fate code (index into `_FATES`) of every photon
    pols   : (R, n) int8 polarization bit each detected photon was left in
    node   : (R,) quadrature node of the row; 0 in monochromatic runs
    weight : (R,) squared norm of each row
    """

    amps: np.ndarray
    fates: np.ndarray
    pols: np.ndarray
    node: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.node)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.amps, self.fates, self.pols, self.node,
                                      self.weight))

    def select(self, rows: np.ndarray) -> BranchStack:
        return BranchStack(self.amps[rows], self.fates[rows], self.pols[rows],
                           self.node[rows], self.weight[rows])

    def views(self) -> list[HybridState]:
        return [HybridState(tuple(_FATES[c] for c in fates), vec, tuple(pols))
                for vec, fates, pols in zip(self.amps, self.fates.tolist(),
                                            self.pols.tolist())]


class _OverBudget(ValueError):
    """A branch array or photon step that would pass MAX_STEP_BYTES."""


def _refuse(n: int, nodes: int, what: str) -> _OverBudget:
    return _OverBudget(f"{n} photons with {nodes} quadrature node(s) {what}, over the "
                       f"{MAX_STEP_BYTES}-byte budget; runs this large need the "
                       f"conclusive-only mode of ROADMAP.md item 3")


# bookkeeping bytes of a photon step besides the amplitudes, with 2 more per
# photon and row for the fates and pols: per parent row its node's scattering
# factors and row fields, per child row its weight, prune masks, kept index,
# block, parent, node and kept weight; and the ufunc buffers of one operation
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


def _check_step(n: int, nodes: int, rows: int, dim: int, blocks: int, held: int = 0) -> None:
    """Refuse a photon step on `rows` rows of `dim` amplitudes that would pass the budget."""
    need = held + _step_bytes(rows, dim, blocks, n)
    if need > MAX_STEP_BYTES:
        raise _refuse(n, nodes, f"need {need} bytes for a photon step on "
                      f"{rows} rows of {dim} amplitudes")


def _initial_stack(vec: np.ndarray, n: int, nodes: np.ndarray) -> BranchStack:
    """One row of `vec` (spins, n photons, QD1, QD2) per entry of `nodes`, as a read-only view."""
    rows = len(nodes)
    return BranchStack(np.broadcast_to(vec, (rows, len(vec))),
                       np.full((rows, n), _IN, np.int8), np.zeros((rows, n), np.int8),
                       nodes, np.full(rows, norm2(vec)))


def _units(refl1: ReflectionPair, refl2: ReflectionPair):
    """Per-node scattering factors of both detector units, as the photon step uses them.

    Returns (f / 2, e / sqrt2, loss probability / 2), the first two of shape
    (2, K, 1, 1, 1) and the last (2, K), for flip amplitude f and error
    amplitude e of QND1 (index 0) and QND2 at each of K quadrature nodes; the
    halves and 1/sqrt2 are the beam splitter and half-wave plate factors.
    e is None when it is 0 everywhere (ideal units): no D3 child exists.
    """
    f = np.array([np.atleast_1d(r.flip_amplitude()) for r in (refl1, refl2)], dtype=complex)
    e = np.array([np.atleast_1d(r.error_amplitude()) for r in (refl1, refl2)], dtype=complex)
    loss = np.maximum(0.0, 1.0 - np.abs(f) ** 2 - np.abs(e) ** 2)
    errors = e[..., None, None, None] * SQRT_HALF if e.any() else None
    return f[..., None, None, None] / 2.0, errors, loss / 2.0


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

# fate and polarization of each block of children, by (error amplitude present,
# detector loss present); without an error amplitude (ideal units) no D3 child exists
_BLOCKS = {(errors, lossy): (np.array(([_D3, _D3] if errors else [])
                                      + ([_D1, _LOST, _D2, _LOST] if lossy else [_D1, _D2]),
                                      np.int8),
                             np.array(([1, 0] if errors else [])
                                      + ([0, 0, 1, 1] if lossy else [0, 1]), np.int8))
           for errors in (False, True) for lossy in (False, True)}


def _draw(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF choice per column of `weights` at uniforms `u`; a zero weight is never drawn."""
    cum = np.cumsum(weights, axis=0)
    return np.count_nonzero(cum <= u * cum[-1], axis=0)


def _photon_step(stack: BranchStack, photon: int, units, eta0: float,
                 lost: list, held: int = 0, shots: tuple | None = None):
    """One full analyzer pass of one photon in every row; returns the child rows.

    `units` holds the scattering factors of both detector units per
    quadrature node (`_units`); a row scatters with its node's factors. The
    photon leaves every child's vector. Children come in blocks: D3 via QND1,
    D3 via QND2, D1[, LOST on a failed click], D2[, LOST]. A row's scattering
    loss, its D3 children and whole clicks at or below PRUNE_TOL go to the
    row's loss record; a kept click's D1 or LOST child at or below PRUNE_TOL
    gets a record of its own. Records are appended to `lost` as (fates,
    weights, nodes) arrays. The run ends there and nothing more is tracked,
    so photons still IN_CIRCUIT in a loss record count as LOST (`_pack`).
    Given `shots`, a pair (uniforms, owner) of one uniform per shot and the
    index of the shot's row, each shot instead draws one child of its row
    over the row's children and scattering loss (`_draw`), and nothing is
    pruned; a row's children and weights are computed once, whatever the
    number of shots it holds. The child rows are the distinct (block, row)
    pairs drawn, renormalized. A drawn loss books a record of weight 1 per
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
    nodes = loss.shape[1]
    errors = e is not None
    if nodes > 1:  # every row scatters with its own node's factors
        f, loss = f[:, stack.node], loss[:, stack.node]
        e = e[:, stack.node] if errors else None
    lossy = eta0 < 1.0
    codes, pols = _BLOCKS[errors, lossy]
    d3 = 2 if errors else 0  # number of D3 blocks
    _check_step(len(fates0), nodes, rows, t[0].size, len(codes), held)
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
    clicks = kids[d3::2] if lossy else kids[d3:]
    np.add(flipped[0], flipped[1], out=clicks[0])
    np.subtract(flipped[0], flipped[1], out=clicks[1])
    del flipped
    if lossy:  # a failed click leaves the photon LOST
        np.multiply(clicks, math.sqrt(1.0 - eta0), out=kids[d3 + 1::2])
        clicks *= math.sqrt(eta0)
    weight = _mass(kids, 2)  # (block, row)
    keep = weight > PRUNE_TOL
    picked = np.flatnonzero(keep)
    pruned = []
    if shots is not None:  # each shot keeps one child; drawing its scattering loss ends it
        u, owner = shots
        pick = _draw(np.vstack((weight, lost_w))[:, owner], u)
        ended = pick == len(codes)
        lost_w = np.bincount(owner, weights=ended, minlength=rows)  # one record per shot
        live = np.flatnonzero(~ended)
        picked = pick[live] * rows + owner[live]
        if len(owner) == rows:  # one shot per row: the drawn pairs are distinct
            owner = np.arange(len(live))
        else:
            picked, owner = np.unique(picked, return_inverse=True)
    elif len(picked) < keep.size:
        # D3 children and whole clicks at or below PRUNE_TOL join the row's loss;
        # a kept click's D1 or LOST child at or below it is booked as it is
        whole = ~keep
        if lossy:
            clicked = (weight[d3::2] + weight[d3 + 1::2] > PRUNE_TOL).repeat(2, axis=0)
            whole[d3:] = ~clicked
            dropped = clicked & ~keep[d3:] & (weight[d3:] > 0.0)
            pruned = [(dropped[k], codes[d3 + k], weight[d3 + k]) for k in range(4)
                      if dropped[k].any()]
        lost_w += np.where(whole, weight, 0.0).sum(axis=0)
    # a loss record keeps the row's fates: photons still IN_CIRCUIT count as LOST
    ended = np.count_nonzero(lost_w)
    if ended == rows:
        lost.append((stack.fates, lost_w, stack.node))
    elif ended:
        mask = lost_w > 0.0
        lost.append((stack.fates[mask], lost_w[mask], stack.node[mask]))
    for mask, code, w in pruned:
        fates = stack.fates[mask]
        fates[:, photon] = code
        lost.append((fates, w[mask], stack.node[mask]))

    flat = kids.reshape(weight.size, -1)
    amps = flat if len(picked) == weight.size else flat[picked]
    block, parent = np.divmod(picked, rows)
    fates = stack.fates[parent]
    fates[:, photon] = codes[block]
    child_pols = stack.pols[parent]
    child_pols[:, photon] = pols[block]
    weight = weight.ravel()[picked]
    if shots is None:
        return BranchStack(amps, fates, child_pols, stack.node[parent], weight)
    amps /= np.sqrt(weight)[:, None]  # a shot's row stays normalized
    return (BranchStack(amps, fates, child_pols, stack.node[parent], np.ones(len(picked))),
            live, owner)


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

    @classmethod
    def read_out(cls, fates: np.ndarray, pairs: np.ndarray, probs: np.ndarray) -> Records:
        """Records of rows of fate codes (`click_records`) read out as QD_PAIRS[pairs]."""
        return cls(np.column_stack((fates, pairs + 1)).astype(np.int8), probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self.digits[i], self.probs[i])
        return _record(self.digits[i].tolist(), float(self.probs[i]))

    def __iter__(self):
        return map(_record, self.digits.tolist(), self.probs.tolist())

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (Records, list)) else NotImplemented

    def decode(self) -> tuple[np.ndarray, np.ndarray]:
        """(conclusive, label) per record: the paper's classification rule.

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
        return conclusive, np.where(conclusive & (phase >= 0), labels, -1)

    def labels(self) -> list:
        """The GhzLabel of every record (`decode`), None where it is inconclusive."""
        spec = f"0{self.digits.shape[1] - 1}b"
        return [None if v < 0 else GhzLabel.from_string(format(v, spec))
                for v in self.decode()[1].tolist()]

    def columns(self) -> tuple[list, list, list, list]:
        """Spelled fates, H/V pattern, QD pair and label of every record, as strings.

        Fates are joined by "/"; the pattern is "" unless the record is
        conclusive, the QD pair "" after a loss, and the label INCONCLUSIVE
        where `decode` gives none.
        """
        n = self.digits.shape[1] - 1
        photons = self.digits[:, :n]
        conclusive, labels = self.decode()
        names = np.array([f.value for f in _FATES], dtype=object)[photons].tolist()
        hv = map("".join, np.array(["H", "V"], dtype=object)[photons[conclusive]].tolist())
        qd = np.array(["", *map("".join, QD_PAIRS)], dtype=object)[self.digits[:, n]]
        spec = f"0{n}b"
        return (list(map("/".join, names)),
                [next(hv) if c else "" for c in conclusive.tolist()],
                qd.tolist(),
                [INCONCLUSIVE if v < 0 else format(v, spec) for v in labels.tolist()])


def _clicked(fates: np.ndarray) -> np.ndarray:
    """Rows of fate codes in which every photon clicked D1 or D2."""
    return np.all(fates <= _D2, axis=1)


def _record(row: list, probability: float) -> OutcomeRecord:
    return OutcomeRecord(tuple(_FATES[c] for c in row[:-1]),
                         QD_PAIRS[row[-1] - 1] if row[-1] else None, probability)


def _records(keys: np.ndarray, probs: np.ndarray, n: int) -> Records:
    """Sum probabilities per packed key; records come sorted by (fate values, QD pair)."""
    unique, sums = _sum_by_key(keys, probs)
    kept = sums > 0.0
    digits = unique[kept, None] // 5 ** np.arange(n, -1, -1) % 5  # photons, then QD code
    return Records(digits.astype(np.int8), sums[kept])


def _evolve(vec: np.ndarray, units, eta0: float, order, book=None, draws=None):
    """All photons through the pipeline, from one row of `vec` per node of `units`.

    Given `draws`, a (shots, n + 1) block of uniforms, the run is sampled:
    every shot starts in its own node's row, keeps its id (which indexes its
    uniforms) and the index of its row, and each step draws one child per
    shot (`_photon_step`). Yields the final rows: one stack when the run fits
    MAX_STEP_BYTES, in a sampled run as (stack, shot ids, their rows). Rows
    of different nodes never interact, so a step that would pass the budget
    runs on half of the stack's nodes while the other half waits its turn;
    in a sampled run no two rows interact, so the step halves its rows
    instead, each half with the shots it holds. The halves are carried to
    the end one after the other. A step that passes the budget on a single
    node's rows (a sampled run: on a single row) is refused; `check_fits`
    refuses a run whose first step does so before it starts. Each step's
    loss records go to `book` right after the step, or are dropped when it
    is None.
    """
    nodes = np.arange(units[2].shape[1])
    shots = None
    if draws is not None:  # every shot starts in its node's row: one row if one node
        shot = np.arange(len(draws))
        shots = (shot, shot % len(nodes))
    todo = [(nodes, None, 0, shots)]  # (nodes, their rows, photons fed, their shots)
    while todo:
        ids, stack, fed, shots = todo.pop()
        while fed < len(order) and (stack is None or len(stack)):  # stop once no row is left
            if stack is None:  # no photon fed yet: the rows are built only now
                stack = _initial_stack(vec, len(order), ids)
            held = sum(s.nbytes for _, s, _, _ in todo if s is not None)
            lost: list = []
            try:
                if shots is None:
                    stack = _photon_step(stack, order[fed], units, eta0, lost, held)
                else:
                    shot, owner = shots
                    stack, live, owner = _photon_step(stack, order[fed], units, eta0, lost,
                                                      held, (draws[shot, fed], owner))
                    shots = (shot[live], owner)
            except _OverBudget:
                if len(ids if shots is None else stack) == 1:
                    raise
                ids, rest = np.array_split(ids, 2)  # a sampled run's rows before photon 1
                if shots is None:
                    later, todo_shots = stack.node >= rest[0], None
                else:  # halve the rows, each half with the shots it holds
                    half = (len(stack) + 1) // 2
                    later = np.arange(len(stack)) >= half
                    shot, owner = shots
                    mine = owner < half
                    todo_shots = (shot[~mine], owner[~mine] - half)
                    shots = (shot[mine], owner[mine])
                if fed:
                    todo.append((rest, stack.select(later), fed, todo_shots))
                    stack = stack.select(~later)
                else:
                    todo.append((rest, None, 0, todo_shots))
                    stack = None
                continue
            fed += 1
            if book is not None:
                book(lost)
        yield stack if shots is None else (stack, *shots)


def check_fits(n: int, config: AnalyzerConfig) -> None:
    """Refuse an n-photon run before it allocates if one node cannot fit MAX_STEP_BYTES.

    Counts one node's first photon step with the fewest children a step
    makes, so a run refused here would be refused at that step anyway. The
    initial rows of every node are read-only views of one vector
    (`_initial_stack`), which that step's parent rows already count.
    """
    pulse = (config.spectrum is not None and config.mode == "realistic"
             and config.enumeration == "exhaustive")
    _check_step(n, config.quad_nodes if pulse else 1, 1, 4 * 2 ** n,
                len(_BLOCKS[False, config.eta0 < 1.0][0]))


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
    check_fits(n, config)
    return order


def _with_spins(amps: np.ndarray) -> np.ndarray:
    """The input row amps (x) |+> (x) |+>: both QD spins start in |+>."""
    return ((amps[:, None] * KET_PLUS)[:, :, None] * KET_PLUS).reshape(-1)


def final_branches(photons: QubitRegister, config: AnalyzerConfig,
                   order=None) -> list[HybridState]:
    """Run every photon through the analyzer, stopping before the QD readout.

    Summing the returned branch vectors (`amps`) reconstructs the joint
    photon/QD state with the destructive detectors treated as nondestructive,
    which is what conditional post-measurement checks need. Monochromatic
    configs only.
    """
    if config.spectrum is not None and config.mode == "realistic":
        raise ValueError("final_branches needs a monochromatic configuration")
    order = _feeding_order(photons, config, order)
    units = _units(*config.reflection_pairs())
    vec = _with_spins(photons.amplitudes)
    return [branch for stack in _evolve(vec, units, config.eta0, order)
            for branch in stack.views()]


# amplitudes of the rows a pulse Monte-Carlo run carries at once: its shots go in
# groups of this many amplitudes' worth of rows, so its memory does not grow with
# the shots; a one-node run shares rows and takes _SHOT_BLOCK // 16 shots a group
_SHOT_BLOCK = 2 ** 16


def _shot_groups(config: AnalyzerConfig, pulse: bool, n: int, shots: int):
    """(units, node weights, draws) per group of shots. A pulse group draws each
    shot's omega (the spectral density is a normal law with std sigma/sqrt2)
    first, one node per shot. A one-node group draws only uniforms, so its size
    (that of an n = 2 pulse group, as its shots share rows) keeps the stream."""
    rng = np.random.default_rng(config.seed)
    size = max(1, _SHOT_BLOCK // (4 * 2 ** n)) if pulse else _SHOT_BLOCK // 16
    units = None if pulse else _units(*config.reflection_pairs())
    for start in range(0, shots, size):
        rows = min(size, shots - start)
        if pulse:
            omegas = rng.normal(config.spectrum.omega_c,
                                config.spectrum.sigma / np.sqrt(2.0), rows)
            units = _units(*config.reflection_pairs(omegas))
        yield units, np.ones(rows), rng.random((rows, n + 1))


def _run(photons: QubitRegister, config: AnalyzerConfig, order, shots: int):
    """Exact records, weighted by quadrature node, or the frequencies over `shots`
    sampled shots (`_shot_groups`), each of which draws one QD pair at the end."""
    n = photons.num_qubits
    vec = _with_spins(photons.amplitudes)
    pulse = config.spectrum is not None and config.mode == "realistic"
    sampled = config.enumeration == "monte-carlo"
    if sampled:
        groups = _shot_groups(config, pulse, n, shots)
    elif pulse:
        x, w = _hermite_nodes(config.quad_nodes)
        omegas = config.spectrum.omega_c + config.spectrum.sigma * x
        groups = [(_units(*config.reflection_pairs(omegas)), w / np.sqrt(np.pi), None)]
    else:
        groups = [(_units(*config.reflection_pairs()), np.ones(1), None)]
    # the records so far, summed per key after every step: a run never holds
    # its loss rows, only one sum per record
    keys, probs = np.empty(0, np.int64), np.empty(0)

    def add(new_keys, new_probs):
        nonlocal keys, probs
        keys, probs = _sum_by_key(np.concatenate((keys, new_keys)),
                                  np.concatenate((probs, new_probs)))

    for units, node_weight, draws in groups:
        def book(lost):
            for fates, w, node in lost:
                add(_pack(fates), w * node_weight[node])

        for stack in _evolve(vec, units, config.eta0, order, book, draws):
            if draws is None:
                weights = _qd_readouts(stack.amps)[1]
                row, pair = np.nonzero(weights > PRUNE_TOL)
                add(_pack(stack.fates)[row] + 1 + pair,
                    weights[row, pair] * node_weight[stack.node[row]])
            else:  # each shot draws its pair from its row's four weights
                stack, shot, owner = stack
                weights = _qd_readouts(stack.amps)[1][owner]
                add(_pack(stack.fates)[owner] + 1 + _draw(weights.T, draws[shot, n]),
                    np.ones(len(shot)))
            del stack, weights  # the next node group runs without them
    return _records(keys, probs / shots if sampled else probs, n)


def click_records(stack: BranchStack, lost: list, photons: list[int]):
    """Split a run's branches by the clicks of the given photons, before the QD readout.

    Returns (aborted, heralded, clicks): the records, summed per click record
    over `photons` and with no QD readout, of every branch that ended in loss
    or where one of them did not click D1 or D2; the indices of the live rows
    where each of them clicked D1 or D2; and those rows' fate codes of them.
    """
    clicks = stack.fates[:, photons]
    conclusive = _clicked(clicks)
    aborted = [(fates[:, photons], w) for fates, w, _ in lost]
    aborted.append((clicks[~conclusive], stack.weight[~conclusive]))
    records = _records(np.concatenate([_pack(fates) for fates, _ in aborted]),
                       np.concatenate([w for _, w in aborted]), len(photons))
    heralded = np.flatnonzero(conclusive)
    return records, heralded, clicks[heralded]


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
    return _run(photons, config, order, shots)


def classify(record: OutcomeRecord, n: int):
    """Map one outcome record to a GHZ label, or None when inconclusive (`Records.decode`)."""
    if len(record.fates) != n:
        raise ValueError(f"record covers {len(record.fates)} photons, expected {n}")
    return Records.of([record]).labels()[0]


def conclusive_probability(records) -> float:
    """Probability that every photon lands on D1 or D2, summed in record order."""
    records = Records.of(records)
    return sum(records.probs[records.decode()[0]].tolist())


def classification_distribution(records, n: int) -> dict[str, float]:
    """Probabilities per GHZ label string, with inconclusive mass pooled; sorted by key."""
    records = Records.of(records)
    if not len(records):
        return {}
    if records.digits.shape[1] != n + 1:
        raise ValueError(f"records cover {records.digits.shape[1] - 1} photons, expected {n}")
    found, index = np.unique(records.decode()[1], return_inverse=True)
    sums = np.bincount(index, weights=records.probs).tolist()  # in record order per label
    out = {format(label, f"0{n}b"): p for label, p in zip(found.tolist(), sums) if label >= 0}
    if found[0] < 0:  # "inconclusive" sorts after every bit string
        out[INCONCLUSIVE] = sums[0]
    return out
