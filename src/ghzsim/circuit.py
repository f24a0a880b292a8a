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
that layout with no spins. Exhaustive runs keep every child row; a
Monte-Carlo shot is a one-row stack that keeps one child per photon.
`HybridState` is a per-branch view, built only for callers that ask for
branches (`final_branches`, `NetworkState.branches`).

Memory: a run holds at most MAX_STEP_BYTES at once. A pulse run whose step
would pass it carries its nodes in smaller groups, one group after the
other, since rows of different nodes never interact; its records are summed
per key after every step rather than kept per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._ops import KET_MINUS, KET_PLUS, SQRT_HALF, kron_all, norm2
from .scattering import (MAX_QUAD_NODES, CavityQDParams, PulseSpectrum,
                         ReflectionPair, _hermite_nodes, reflection_coeffs)
from .states import GhzLabel, QubitRegister, bell_name

PRUNE_TOL = 1e-15

# most bytes a run may hold at once: the whole initial array, or one photon
# step's working set plus the rows waiting their turn (`_step_bytes`); a
# larger step is run on fewer quadrature nodes at a time, and a run that does
# not fit even so is refused before it allocates, not left to the OOM killer
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
    or later the children next to their pruned copy. Every row's bookkeeping
    counts on top.
    """
    amps = dim * 8 * max(6 + blocks, 2 + 2 * blocks)
    book = (_PARENT_ROW_BYTES + blocks * _CHILD_ROW_BYTES + (1 + blocks) * 2 * n)
    return rows * (amps + book) + _BUFFER_BYTES


def _initial_stack(vec: np.ndarray, n: int, nodes: np.ndarray) -> BranchStack:
    """One row of `vec` (spins, n photons, QD1, QD2) per quadrature node in `nodes`."""
    rows = len(nodes)
    return BranchStack(np.tile(vec, (rows, 1)), np.full((rows, n), _IN, np.int8),
                       np.zeros((rows, n), np.int8), nodes, np.full(rows, norm2(vec)))


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


def _photon_step(stack: BranchStack, photon: int, units, eta0: float,
                 lost: list, held: int = 0) -> BranchStack:
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
    need = held + _step_bytes(rows, t[0].size, len(codes), len(fates0))
    if need > MAX_STEP_BYTES:
        raise _refuse(len(fates0), nodes, f"need {need} bytes for a photon step on "
                      f"{rows} rows of {t[0].size} amplitudes")
    kids = np.empty((len(codes), rows) + t.shape[1:2] + t.shape[3:], dtype=complex)
    # half-wave plate, then the PBS sends V to QND1 and H to QND2 (arms times sqrt2)
    arms = np.empty((2,) + kids.shape[1:], dtype=complex)
    np.subtract(t[:, :, 0], t[:, :, 1], out=arms[0])
    np.add(t[:, :, 0], t[:, :, 1], out=arms[1])
    if errors:  # the unflipped error part exits to D3
        np.multiply(e, arms, out=kids[:2])
    lost_w = np.vecdot(loss.T, _mass(arms, 2).T)  # side leakage
    # a reflection flips the photon and toggles the addressed QD in the +/- basis
    flipped = f * arms
    flipped *= _QD_SIGNS
    del arms
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
    kept = np.count_nonzero(keep)
    pruned = []
    if kept < keep.size:
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

    picked = np.flatnonzero(keep)
    flat = kids.reshape(keep.size, -1)
    amps = flat if kept == keep.size else flat[picked]
    block, parent = np.divmod(picked, rows)
    fates = stack.fates[parent]
    fates[:, photon] = codes[block]
    child_pols = stack.pols[parent]
    child_pols[:, photon] = pols[block]
    return BranchStack(amps, fates, child_pols, stack.node[parent], weight.ravel()[picked])


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


def _records(keys: np.ndarray, probs: np.ndarray, n: int) -> list[OutcomeRecord]:
    """Sum probabilities per packed key; records come sorted by (fate values, QD pair)."""
    unique, sums = _sum_by_key(keys, probs)
    digits = unique[:, None] // 5 ** np.arange(n, -1, -1) % 5  # photons, then QD code
    return [OutcomeRecord(tuple(_FATES[c] for c in row[:-1]),
                          QD_PAIRS[row[-1] - 1] if row[-1] else None, p)
            for row, p in zip(digits.tolist(), sums.tolist()) if p > 0.0]


def _input_stack(photons: QubitRegister, nodes: np.ndarray) -> BranchStack:
    vec = kron_all(photons.amplitudes, KET_PLUS, KET_PLUS)
    return _initial_stack(vec, photons.num_qubits, nodes)


def _evolve(photons: QubitRegister, units, eta0: float, order, book=None):
    """All photons through the pipeline, one row per quadrature node to start.

    Yields the final rows: one stack when the run fits MAX_STEP_BYTES. Rows
    of different nodes never interact, so a step that would pass the budget
    runs on half of the stack's nodes while the other half waits its turn;
    the halves are carried to the end one after the other. A step that
    passes the budget on a single node's rows is refused. Each step's loss
    records go to `book` right after the step, or are dropped when it is None.
    """
    n = photons.num_qubits
    nodes = units[2].shape[1]
    need = nodes * photons.amplitudes.size * 4 * 16
    if need > MAX_STEP_BYTES:
        raise _refuse(n, nodes, f"need a {need}-byte branch array")
    todo = [(np.arange(nodes), None, 0)]  # (nodes, their rows, photons fed)
    while todo:
        ids, stack, fed = todo.pop()
        while fed < len(order):
            if stack is None:  # no photon fed yet: the rows are built only now
                stack = _input_stack(photons, ids)
            held = sum(s.nbytes for _, s, _ in todo if s is not None)
            lost: list = []
            try:
                stack = _photon_step(stack, order[fed], units, eta0, lost, held)
            except _OverBudget:
                if len(ids) == 1:
                    raise
                ids, rest = np.array_split(ids, 2)
                if fed:
                    later = stack.node >= rest[0]
                    todo.append((rest, stack.select(later), fed))
                    stack = stack.select(~later)
                else:
                    todo.append((rest, None, 0))
                    stack = None
                continue
            fed += 1
            if book is not None:
                book(lost)
        yield stack


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
    units = _units(*config.reflection_pairs())
    return [branch for stack in _evolve(photons, units, config.eta0, order)
            for branch in stack.views()]


def _run_exhaustive(photons: QubitRegister, config: AnalyzerConfig, order):
    """Exact records; a pulse's quadrature nodes run together as rows, in groups if need be."""
    if config.spectrum is not None and config.mode == "realistic":
        x, w = _hermite_nodes(config.quad_nodes)
        omegas = config.spectrum.omega_c + config.spectrum.sigma * x
        units = _units(*config.reflection_pairs(omegas))
        node_weight = w / np.sqrt(np.pi)
    else:
        units = _units(*config.reflection_pairs())
        node_weight = np.ones(1)
    n = photons.num_qubits
    # the records so far, summed per key after every step: a run never holds
    # its loss rows, only one sum per record
    keys, probs = np.empty(0, np.int64), np.empty(0)

    def add(new_keys, new_probs):
        nonlocal keys, probs
        keys, probs = _sum_by_key(np.concatenate((keys, new_keys)),
                                  np.concatenate((probs, new_probs)))

    def book(lost):
        for fates, w, node in lost:
            add(_pack(fates), w * node_weight[node])

    for stack in _evolve(photons, units, config.eta0, order, book):
        weights = _qd_readouts(stack.amps)[1]
        row, pair = np.nonzero(weights > PRUNE_TOL)
        add(_pack(stack.fates)[row] + 1 + pair,
            weights[row, pair] * node_weight[stack.node[row]])
        del stack, weights, row, pair  # the next node group runs without them
    return _records(keys, probs, n)


def click_records(stack: BranchStack, lost: list, photons: list[int]):
    """Split a run's branches by the clicks of the given photons, before the QD readout.

    Returns (aborted, heralded, clicks): the records, summed per click record
    over `photons` and with no QD readout, of every branch that ended in loss
    or where one of them did not click D1 or D2; the indices of the live rows
    where each of them clicked D1 or D2; and those rows' clicks.
    """
    clicks = stack.fates[:, photons]
    conclusive = np.all(clicks <= _D2, axis=1)
    aborted = [(fates[:, photons], w) for fates, w, _ in lost]
    aborted.append((clicks[~conclusive], stack.weight[~conclusive]))
    records = _records(np.concatenate([_pack(fates) for fates, _ in aborted]),
                       np.concatenate([w for _, w in aborted]), len(photons))
    heralded = np.flatnonzero(conclusive)
    return records, heralded, [tuple(_FATES[c] for c in row)
                               for row in clicks[heralded].tolist()]


def _sample_omega(rng, spectrum: PulseSpectrum) -> float:
    # the spectral density is a normal law with std sigma/sqrt(2)
    return rng.normal(spectrum.omega_c, spectrum.sigma / np.sqrt(2.0))


def _pick(rng, weights) -> int:
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _run_monte_carlo(photons: QubitRegister, config: AnalyzerConfig, shots, order):
    """One trajectory per shot: a normalized one-row stack, a weighted pick per photon."""
    rng = np.random.default_rng(config.seed)
    counts: dict = {}  # (fates, QD code) -> shots
    fixed = _units(*config.reflection_pairs()) if config.spectrum is None else None
    init = _input_stack(photons, np.zeros(1, np.intp))
    normalized = np.ones(1)
    for _ in range(shots):
        if fixed is None:
            units = _units(*config.reflection_pairs(_sample_omega(rng, config.spectrum)))
        else:
            units = fixed
        stack = init
        for k in order:
            lost: list = []
            stack = _photon_step(stack, k, units, config.eta0, lost)
            live = len(stack)
            # a one-row step books at most one record per loss entry
            weights = stack.weight.tolist() + [w[0] for _, w, _ in lost]
            pick = _pick(rng, weights)
            if pick >= live:  # loss terminates the shot
                key = (tuple(_KEY_DIGITS[lost[pick - live][0][0]].tolist()), 0)
                break
            stack = BranchStack(stack.amps[pick:pick + 1] / math.sqrt(weights[pick]),
                                stack.fates[pick:pick + 1], stack.pols[pick:pick + 1],
                                stack.node[:1], normalized)
        else:
            weights = _qd_readouts(stack.amps)[1][0].tolist()
            pairs = [j for j, w in enumerate(weights) if w > PRUNE_TOL]
            pair = pairs[_pick(rng, [weights[j] for j in pairs])]
            key = (tuple(stack.fates[0].tolist()), 1 + pair)
        counts[key] = counts.get(key, 0) + 1
    fates = np.array([f for f, _ in counts], dtype=np.int8)
    keys = _pack(fates) + np.array([qd for _, qd in counts])
    probs = np.fromiter(counts.values(), dtype=float, count=len(counts)) / shots
    return _records(keys, probs, photons.num_qubits)


def run_analyzer(photons: QubitRegister, config: AnalyzerConfig,
                 shots: int = 100_000, order=None) -> list[OutcomeRecord]:
    """Run the full analyzer on an n-photon register; returns outcome records.

    Exhaustive enumeration returns every branch with its exact probability;
    monte-carlo returns observed frequencies over `shots` samples. `order`
    optionally permutes the feeding sequence of the photons. Records come
    sorted by (fate values, QD pair).
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
        return _run_monte_carlo(photons, config, shots, order)
    return _run_exhaustive(photons, config, order)


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
