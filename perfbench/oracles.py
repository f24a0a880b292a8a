"""Independent reference physics and per-op output checks.

Nothing here imports ghzsim or shares a code path with it:
- reflection amplitudes are re-derived from the closed form,
- pulse averages use Gauss-Legendre quadrature (ghzsim uses Gauss-Hermite),
- the analyzer and the swapping network are re-simulated on stacked branch
  arrays, with each photon's axis measured out as soon as it is detected
  (ghzsim keeps one Python object and one full-size vector per branch),
- GHZ labels are decoded from the detector pattern and the QD readout as the
  paper states the rule.

Each check_* function takes the op's rendered output and the reference
computed before timing, and returns a list of problems (empty when the
output is correct).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

HBAR_UEV_NS = 0.6582119569  # ueV * ns
SQ2 = 1.0 / math.sqrt(2.0)

# closed-form quantities: ghzsim and the reference differ only by rounding
REL_TOL = 1e-9
# quadrature values: ghzsim's 128-node Gauss-Hermite rule is accurate to about
# 1.3e-12 absolute over the paper_fig4 box (3e-7 relative at g/ks = 0.25,
# kappa/ks = 30, n = 8), so a pure relative test would reject correct output
QUAD_ABS_TOL = 1e-11
PROB_TOL = 1e-9
FIDELITY_TOL = 1e-9
# one-sided normal tail beyond 5 sigma; a Monte-Carlo count is rejected when
# its exact binomial tail under the reference probability is smaller
MC_TAIL = 2.866515718791939e-07

FATE_NAMES = ("D1", "D2", "D3", "lost")
D1, D2, D3, LOST = range(4)
QD_PAIRS = ("++", "+-", "-+", "--")
_PLUS = np.array([SQ2, SQ2])
_MINUS = np.array([SQ2, -SQ2])
_PAIR_KETS = np.array([np.kron(a, b) for a in (_PLUS, _MINUS) for b in (_PLUS, _MINUS)])
_Z_QD1 = np.array([1.0, 1.0, -1.0, -1.0])  # QD index q = 2*qd1 + qd2
_Z_QD2 = np.array([1.0, -1.0, 1.0, -1.0])
BELL_BITS = {"phi+": "00", "phi-": "01", "psi+": "10", "psi-": "11"}
_PRUNE = 1e-24  # reference branches lighter than this carry no checkable mass


@dataclass(frozen=True)
class Cavity:
    """Detector-unit parameters in ueV, as in the paper's reflection formulas."""

    g: float
    kappa: float
    kappa_s: float
    gamma: float
    omega_c: float = 0.0
    omega_x: float = 0.0


def reflection(cav: Cavity, omega):
    """(r0, r1) of one detector unit at frequency omega (scalar or array)."""
    w = np.asarray(omega, dtype=float)
    cavity_term = 1j * (cav.omega_c - w) + 0.5 * (cav.kappa + cav.kappa_s)
    trion_term = 1j * (cav.omega_x - w) + 0.5 * cav.gamma
    r0 = 1.0 - cav.kappa / cavity_term
    r1 = 1.0 - cav.kappa * trion_term / (cavity_term * trion_term + cav.g ** 2)
    return r0, r1


def eta1(cav: Cavity, omega):
    r0, r1 = reflection(cav, omega)
    return np.abs(r1 - r0) ** 2 / 4.0


def pulse_nodes(omega_c: float, sigma: float, nodes: int = 300, span: float = 10.0):
    """Frequencies and weights for averaging over the Gaussian pulse spectrum.

    Gauss-Legendre on x in [-span, span] with omega = omega_c + sigma*x and
    weight exp(-x^2)/sqrt(pi); the cut-off tail is below exp(-span^2).
    """
    xs, weights = _legendre_rule(nodes, span)
    return omega_c + sigma * xs, weights


@functools.lru_cache(maxsize=None)
def _legendre_rule(nodes: int, span: float):
    x, w = np.polynomial.legendre.leggauss(nodes)
    xs = span * x
    return xs, w * span * np.exp(-xs ** 2) / math.sqrt(math.pi)


def pulse_efficiency(cav: Cavity, sigma: float, n: int, eta0: float = 1.0) -> float:
    omegas, weights = pulse_nodes(cav.omega_c, sigma)
    return float(eta0 ** n * np.sum(weights * eta1(cav, omegas) ** n))


def dephasing_fidelity(n: int, t2_ns: float, sigma: float) -> float:
    """[1 + exp(-n t0 / T2)]^2 / 4 with t0 = hbar / sigma."""
    return (1.0 + math.exp(-n * HBAR_UEV_NS / sigma / t2_ns)) ** 2 / 4.0


def close(value: float, ref: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + abs_tol


# --- analyzer and network re-simulation -------------------------------------

def ghz_vector(bits: str) -> np.ndarray:
    """(X_1^i1 ... X_{n-1}^i{n-1}) Z_n^in (|0..0> + |1..1>)/sqrt2, qubit 0 = MSB."""
    n = len(bits)
    flips = 0
    for b in bits[:-1]:
        flips = (flips << 1) | int(b)
    flips <<= 1
    v = np.zeros(2 ** n, dtype=complex)
    v[flips] = SQ2
    v[flips ^ (2 ** n - 1)] = -SQ2 if bits[-1] == "1" else SQ2
    return v


def decode(fates, qd: str):
    """GHZ label from a detector pattern and QD pair, or None if inconclusive.

    Photon j at D1 reads H (0), at D2 reads V (1); bit i_j is the parity of
    photons j and n. The QD pair sets the phase bit: |++>/|--> for even n,
    |+->/|-+> for odd n; any other pair is inconclusive.
    """
    if not fates or any(f not in ("D1", "D2") for f in fates):
        return None
    b = [0 if f == "D1" else 1 for f in fates]
    valid = ("++", "--") if len(b) % 2 == 0 else ("+-", "-+")
    if qd not in valid:
        return None
    return "".join(str(x ^ b[-1]) for x in b[:-1]) + str(valid.index(qd))


def _scatter_amplitudes(cav: Cavity | None, omegas: np.ndarray):
    """Flip and error amplitudes (r1 -+ r0)/2; the ideal unit has r0, r1 = -1, +1."""
    if cav is None:
        return np.ones(omegas.shape, dtype=complex), np.zeros(omegas.shape, dtype=complex)
    r0, r1 = reflection(cav, omegas)
    return (r1 - r0) / 2.0, (r1 + r0) / 2.0


@dataclass
class Reference:
    """Exact outcome probabilities keyed by (fates, QD pair) display strings.

    Loss records carry qd "" (no QD readout). `remote` holds, for network
    runs, the unnormalized remote-spin vector of each conclusive outcome.
    """

    records: dict
    remote: dict


def simulate(initial: np.ndarray, spectators: int, photons: int, cav: Cavity | None,
             eta0: float, omegas=None, weights=None) -> Reference:
    """Feed photons 0..photons-1 through the analyzer, then read out both QDs.

    Both detector units share `cav`, as the command line configures them.
    `initial` is the joint vector over the spectator qubits followed by the
    photons (qubit 0 = MSB). `omegas`/`weights` give a frequency average; the
    default is one monochromatic frequency, the cavity resonance.
    """
    if omegas is None:
        omegas = np.array([0.0 if cav is None else cav.omega_c])
        weights = np.ones(1)
    omegas = np.asarray(omegas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    f, e = _scatter_amplitudes(cav, omegas)
    lossy = np.clip(1.0 - np.abs(f) ** 2 - np.abs(e) ** 2, 0.0, None)
    f = f[None, :, None, None, None]
    e = e[None, :, None, None, None]
    lossy = lossy[None, :]
    k_count, s_dim = omegas.size, 2 ** spectators
    qd_init = np.kron(_PLUS, _PLUS)
    amps = np.broadcast_to(initial.reshape(1, 1, s_dim, 2 ** photons, 1) * qd_init,
                           (1, k_count, s_dim, 2 ** photons, 4)).astype(complex)
    fates = np.zeros((1, 0), dtype=np.int8)
    loss_records: dict = {}
    for step in range(photons):
        b = amps.shape[0]
        a = amps.reshape(b, k_count, s_dim, 2, -1, 4)
        h_arm = (a[:, :, :, 0] + a[:, :, :, 1]) * SQ2  # first half-wave plate
        v_arm = (a[:, :, :, 0] - a[:, :, :, 1]) * SQ2
        lost = lossy * (_mass(v_arm) + _mass(h_arm))
        # V goes to QND1 and flips to H, H goes to QND2 and flips to V; each
        # flip toggles the addressed QD in the +/- basis (a Z in the 0/1 basis)
        to_h = f * v_arm * _Z_QD1
        to_v = f * h_arm * _Z_QD2
        at_d1 = (to_h + to_v) * SQ2  # second half-wave plate, final PBS
        at_d2 = (to_h - to_v) * SQ2
        children = [(D1, math.sqrt(eta0) * at_d1), (D2, math.sqrt(eta0) * at_d2),
                    (D3, e * v_arm), (D3, e * h_arm)]
        if eta0 < 1.0:
            children += [(LOST, math.sqrt(1.0 - eta0) * at_d1),
                         (LOST, math.sqrt(1.0 - eta0) * at_d2)]
        lost_mass = lost @ weights
        for i in np.nonzero(lost_mass > 0.0)[0]:
            key = ("/".join(_fate_string(fates[i]) + ("lost",) * (photons - step)), "")
            loss_records[key] = loss_records.get(key, 0.0) + float(lost_mass[i])
        next_amps, next_fates = [], []
        for code, child in children:
            keep = _mass(child).max(axis=1) > _PRUNE
            if keep.any():
                next_amps.append(child[keep])
                next_fates.append(np.hstack([fates[keep],
                                             np.full((int(keep.sum()), 1), code, np.int8)]))
        amps = np.concatenate(next_amps)
        fates = np.concatenate(next_fates)
    comps = amps.reshape(amps.shape[0], k_count, s_dim, 4) @ _PAIR_KETS.T
    probs = np.einsum("bksj,k->bj", np.abs(comps) ** 2, weights)
    codes = fates.astype(np.int64) @ (4 ** np.arange(photons - 1, -1, -1))
    uniq, inverse = np.unique(codes, return_inverse=True)
    records = dict(loss_records)
    remote: dict = {}
    for j, pair in enumerate(QD_PAIRS):
        summed = np.bincount(inverse, weights=probs[:, j], minlength=uniq.size)
        for u, p in zip(uniq, summed):
            if p > _PRUNE:
                records[(_code_string(int(u), photons), pair)] = float(p)
    if spectators:
        conclusive = np.nonzero(np.all(fates <= D2, axis=1))[0]
        for i in conclusive:
            for j, pair in enumerate(QD_PAIRS):
                remote[("/".join(_fate_string(fates[i])), pair)] = comps[i, 0, :, j]
    return Reference(records, remote)


def _mass(x: np.ndarray) -> np.ndarray:
    """Squared norm per (branch, frequency node)."""
    return (np.abs(x) ** 2).reshape(x.shape[0], x.shape[1], -1).sum(axis=-1)


def _fate_string(row) -> tuple:
    return tuple(FATE_NAMES[int(c)] for c in row)


def _code_string(code: int, n: int) -> str:
    digits = []
    for _ in range(n):
        code, d = divmod(code, 4)
        digits.append(FATE_NAMES[d])
    return "/".join(reversed(digits))


def analyzer_reference(label: str, cav: Cavity | None, eta0: float,
                       omega: float | None = None, sigma: float | None = None) -> Reference:
    """Exact records of `analyze GHZ:<label>`, monochromatic or pulse-averaged."""
    initial = ghz_vector(label)
    if sigma is None:
        omegas = None if omega is None else np.array([omega])
        weights = None if omega is None else np.ones(1)
        return simulate(initial, 0, len(label), cav, eta0, omegas, weights)
    omegas, weights = pulse_nodes(cav.omega_c, sigma, nodes=96, span=9.0)
    records: dict = {}
    for chunk in range(0, omegas.size, 8):  # a few nodes at a time bounds memory
        part = simulate(initial, 0, len(label), cav, eta0, omegas[chunk:chunk + 8],
                        weights[chunk:chunk + 8])
        for key, p in part.records.items():
            records[key] = records.get(key, 0.0) + p
    return Reference(records, {})


def network_reference(pairs: int, cav: Cavity, eta0: float, omega: float) -> Reference:
    """Exact outcomes of `swap --pairs m`: m hybrid pairs (|up,H> + |down,V>)/sqrt2.

    Non-conclusive outcomes are pooled per click record, as the swap output
    reports them without a QD readout.
    """
    initial = np.eye(2 ** pairs, dtype=complex) * SQ2 ** pairs  # spins x photons
    ref = simulate(initial.reshape(-1), pairs, pairs, cav, eta0,
                   np.array([omega]), np.ones(1))
    pooled: dict = {}
    for (fates, qd), p in ref.records.items():
        key = (fates, qd) if decode(fates.split("/"), qd) is not None else (fates, "")
        pooled[key] = pooled.get(key, 0.0) + p
    return Reference(pooled, ref.remote)


# --- per-op checks -----------------------------------------------------------

def _problems_in_records(got: dict, ref: dict, tol: float) -> list[str]:
    out = []
    for key in sorted(set(got) | set(ref)):
        g, r = got.get(key, 0.0), ref.get(key, 0.0)
        if abs(g - r) > tol:
            out.append(f"record {key}: {g!r} vs reference {r!r}")
            if len(out) >= 5:
                break
    return out


def check_analyze(text: str, label: str, ref: Reference, conclusive_ref: float,
                  abs_tol: float = 0.0) -> list[str]:
    """Exhaustive `analyze` JSON: unit total, conclusive mass, labels, records."""
    doc = json.loads(text)
    rows = doc["outcomes"]
    problems = []
    total = sum(r["probability"] for r in rows)
    if abs(total - 1.0) > PROB_TOL:
        problems.append(f"probabilities sum to {total!r}")
    got: dict = {}
    conclusive = 0.0
    for r in rows:
        key = (r["fates"], r["qd"])
        got[key] = got.get(key, 0.0) + r["probability"]
        fates = r["fates"].split("/")
        if all(f in ("D1", "D2") for f in fates):
            conclusive += r["probability"]
            if decode(fates, r["qd"]) != label or r["classified"] != label:
                problems.append(f"conclusive record {key} classified "
                                f"{r['classified']!r}, decodes to {decode(fates, r['qd'])!r}, "
                                f"input {label!r}")
    for name, value in (("conclusive mass", conclusive),
                        ("conclusive_probability", doc["conclusive_probability"])):
        if not close(value, conclusive_ref, abs_tol):
            problems.append(f"{name} {value!r} vs reference {conclusive_ref!r}")
    problems += _problems_in_records(got, ref.records, PROB_TOL)
    return problems


def binomial_tail(count: int, shots: int, p: float) -> float:
    """Probability of a count at least as far from shots*p as `count`, one side."""
    if p <= 0.0:
        return 0.0 if count > 0 else 1.0
    if p >= 1.0:
        return 0.0 if count < shots else 1.0
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(k):
        return math.exp(math.lgamma(shots + 1) - math.lgamma(k + 1)
                        - math.lgamma(shots - k + 1) + k * log_p + (shots - k) * log_q)

    ks = range(count, shots + 1) if count >= shots * p else range(0, count + 1)
    return min(1.0, math.fsum(pmf(k) for k in ks))


def check_monte_carlo(text: str, label: str, shots: int, ref: Reference) -> list[str]:
    """Monte-Carlo `analyze` JSON: every frequency within 5 sigma of the exact law."""
    doc = json.loads(text)
    problems = []
    counts: dict = {}
    for r in doc["outcomes"]:
        key = (r["fates"], r["qd"])
        counts[key] = counts.get(key, 0) + round(r["probability"] * shots)
        fates = r["fates"].split("/")
        if all(f in ("D1", "D2") for f in fates) and r["classified"] != label:
            problems.append(f"conclusive record {key} classified {r['classified']!r}")
    if sum(counts.values()) != shots:
        problems.append(f"counts sum to {sum(counts.values())}, not {shots} shots")
    for key, count in counts.items():
        if binomial_tail(count, shots, ref.records.get(key, 0.0)) < MC_TAIL:
            problems.append(f"record {key}: {count}/{shots} vs p = {ref.records.get(key, 0.0)!r}")
    # outcomes the sampler never hit: probability of zero hits must not be tiny
    for key, p in ref.records.items():
        if key not in counts and binomial_tail(0, shots, p) < MC_TAIL:
            problems.append(f"record {key} never sampled though p = {p!r}")
    return problems[:5]


def check_swap(text: str, pairs: int, ref: Reference) -> list[str]:
    """`swap` JSON: unit total, heralded states, outcome probabilities."""
    doc = json.loads(text)
    problems = []
    total = sum(r["probability"] for r in doc["outcomes"])
    if abs(total - 1.0) > PROB_TOL:
        problems.append(f"probabilities sum to {total!r}")
    got: dict = {}
    for r in doc["outcomes"]:
        key = (r["clicks"], r["qd"])
        got[key] = got.get(key, 0.0) + r["probability"]
        bits = decode(r["clicks"].split("/"), r["qd"])
        if bits is None:
            continue
        predicted = BELL_BITS.get(r["predicted"]) if pairs == 2 else r["predicted"]
        if predicted != bits:
            problems.append(f"outcome {key} predicts {r['predicted']!r}, decodes to {bits}")
            continue
        if not (isinstance(r["fidelity"], float) and r["fidelity"] >= 1.0 - FIDELITY_TOL):
            problems.append(f"outcome {key} reports fidelity {r['fidelity']!r}")
        remote = ref.remote.get(key)
        if remote is None or remote_fidelity(remote, bits) < 1.0 - FIDELITY_TOL:
            problems.append(f"outcome {key}: reference remote state is not GHZ {bits}")
    return problems + _problems_in_records(got, ref.records, PROB_TOL)


def remote_fidelity(vec: np.ndarray, bits: str) -> float:
    target = ghz_vector(bits)
    return float(abs(np.vdot(target, vec)) ** 2 / np.vdot(vec, vec).real)


def parse_csv(text: str):
    """('#' key=value metadata, header, rows of floats) from ghzsim CSV output."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(tok) for tok in line.split(",")])
    return meta, header, rows


def check_efficiency_map(text: str, g_axis: np.ndarray, k_axis: np.ndarray,
                         expected: np.ndarray) -> list[str]:
    """`efficiency-map` CSV: the grid in row-major (g, kappa) order, eta per point."""
    _, header, rows = parse_csv(text)
    problems = []
    if header != ["g_over_ks", "k_over_ks", "eta_n_s"]:
        return [f"unexpected header {header!r}"]
    if len(rows) != expected.size:
        return [f"{len(rows)} rows for a {g_axis.size}x{k_axis.size} grid"]
    for (g, k, eta), gi, ki, ref in zip(rows, np.repeat(g_axis, k_axis.size),
                                        np.tile(k_axis, g_axis.size), expected.ravel()):
        if not (close(g, gi) and close(k, ki)):
            problems.append(f"grid point ({g}, {k}) expected ({gi}, {ki})")
        elif not close(eta, ref, QUAD_ABS_TOL):
            problems.append(f"eta at ({g}, {k}) = {eta!r} vs reference {ref!r}")
        if len(problems) >= 5:
            break
    return problems


def efficiency_grid(g_axis, k_axis, kappa_s: float, gamma: float, sigma: float,
                    n: int) -> np.ndarray:
    """Reference pulse-averaged efficiency (eta0 = 1) on a (g/ks, kappa/ks) grid."""
    omegas, weights = pulse_nodes(0.0, sigma)
    kappas = (np.asarray(k_axis) * kappa_s)[:, None]
    out = np.empty((g_axis.size, k_axis.size))
    for i, g in enumerate(g_axis):  # one row at a time keeps temporaries small
        cav = Cavity(g * kappa_s, kappas, kappa_s, gamma)
        out[i] = (eta1(cav, omegas[None, :]) ** n) @ weights
    return out


def check_table1(text: str, n_list, expected: dict) -> list[str]:
    """`table1` CSV: one row per n with F', F'' and eta_n_s."""
    _, header, rows = parse_csv(text)
    if header != ["n", "F_prime", "F_doubleprime", "eta_n_s"]:
        return [f"unexpected header {header!r}"]
    if [int(r[0]) for r in rows] != list(n_list):
        return [f"rows for n = {[r[0] for r in rows]}, asked for {list(n_list)}"]
    problems = []
    for n, f1, f2, eta in rows:
        ref_f1, ref_f2, ref_eta = expected[int(n)]
        if not (close(f1, ref_f1) and close(f2, ref_f2)):
            problems.append(f"n={int(n)}: F = ({f1!r}, {f2!r}) vs ({ref_f1!r}, {ref_f2!r})")
        if not close(eta, ref_eta, QUAD_ABS_TOL):
            problems.append(f"n={int(n)}: eta {eta!r} vs reference {ref_eta!r}")
    return problems
