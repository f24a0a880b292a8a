"""Seeded op lists for the four workloads and the oracle behind each op.

An op is one `ghzsim` command line. A workload is a pass: a fixed mix of op
classes, each class with a fixed count per pass, whose free parameters (GHZ
labels, detunings, grid ranges, n lists, sampler seeds) are drawn from the
workload seed. Fixing the counts keeps the cost of a pass the same across
seeds; the benchmark repeats the pass until the run's time is used up.

`prepare(op)` computes the op's reference values with `oracles` and returns a
function from the op's output text to a list of problems.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# Parameter set of the paper's summary table (bundled profile paper_fig5).
FIG5 = oracles.Cavity(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3)
FIG5_SIGMA = 0.6
FIG5_T2 = (10.9, 2000.0)
# Efficiency-map box of the bundled profile paper_fig4.
FIG4_KAPPA_S, FIG4_GAMMA, FIG4_SIGMA = 30.0, 0.3, 0.3
FIG4_G, FIG4_K = (0.25, 4.0, 16), (1.0, 30.0, 30)

# Exhaustive enumeration is capped at n = 8: n = 9 takes tens of seconds per op
# and n = 10 exhausts memory, because every branch keeps a full 2^(n+2) vector.
EXHAUSTIVE_MAX_N = 8
MC_SHOTS = 300

FIG5_FLAGS = ("--g", "30.0", "--kappa", "270.0", "--kappa-s", "30.0", "--gamma", "0.3")


@dataclass(frozen=True)
class Op:
    """One command line plus what its oracle needs to know about it."""

    kind: str
    argv: tuple[str, ...]
    spec: dict = field(compare=False, hash=False)


def _label(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _detuning(rng: random.Random, detuned: bool) -> float:
    """0 on resonance, else 0.5 to 5 ueV either side.

    Which ops are detuned is fixed by the workload, not drawn: a detuned
    n = 8 op runs about a third longer than a resonant one.
    """
    if not detuned:
        return 0.0
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 5.0), 3)


def analyze_op(kind: str, label: str, *, ideal: bool = False, eta0: float = 1.0,
               omega: float | None = None, sigma: float | None = None,
               shots: int | None = None, seed: int | None = None) -> Op:
    argv = ["analyze", f"GHZ:{label}", "--mode", "ideal" if ideal else "realistic"]
    if not ideal:
        argv += FIG5_FLAGS
    argv += ["--eta0", repr(eta0)]
    if omega is not None:
        argv += ["--omega", repr(omega)]
    if sigma is not None:
        argv += ["--sigma", repr(sigma)]
    if shots is not None:
        argv += ["--enumeration", "monte-carlo", "--shots", str(shots), "--seed", str(seed)]
    return Op(kind, tuple(argv), dict(label=label, ideal=ideal, eta0=eta0, omega=omega,
                                      sigma=sigma, shots=shots))


def swap_op(kind: str, pairs: int, eta0: float, omega: float) -> Op:
    argv = ("swap", "--pairs", str(pairs), "--mode", "realistic", *FIG5_FLAGS,
            "--eta0", repr(eta0), "--omega", repr(omega))
    return Op(kind, argv, dict(pairs=pairs, eta0=eta0, omega=omega))


def map_op(kind: str, n: int, g_axis=None, k_axis=None) -> Op:
    """efficiency-map over the paper_fig4 profile; axes are (lo, hi, steps, scale)."""
    argv = ["efficiency-map", "--config", "paper_fig4", "--n", str(n)]
    if g_axis is not None:
        argv += ["--g-over-ks", _axis_text(g_axis), "--k-over-ks", _axis_text(k_axis)]
    else:
        g_axis, k_axis = FIG4_G + ("linear",), FIG4_K + ("linear",)
    return Op(kind, tuple(argv), dict(n=n, g_axis=g_axis, k_axis=k_axis))


def _axis_text(axis) -> str:
    lo, hi, steps, scale = axis
    return f"{lo!r}:{hi!r}:{steps}" + (":log" if scale == "log" else "")


def _axis_values(axis) -> np.ndarray:
    lo, hi, steps, scale = axis
    return np.geomspace(lo, hi, steps) if scale == "log" else np.linspace(lo, hi, steps)


def table1_op(kind: str, n_list: list[int]) -> Op:
    argv = ("table1", "--config", "paper_fig5", "--n-list", ",".join(map(str, n_list)))
    return Op(kind, argv, dict(n_list=tuple(n_list)))


# --- workloads -----------------------------------------------------------------

# grid sizes per pass: (points, count); shapes are drawn from the factor pairs
_GRID_CLASSES = ((240, 1), (120, 2), (64, 6), (16, 10))
_TABLE1_PER_PASS = 30


def _grid_shape(rng: random.Random, points: int) -> tuple[int, int]:
    shapes = [(g, points // g) for g in range(4, FIG4_G[2] + 1)
              if points % g == 0 and 4 <= points // g <= FIG4_K[2]]
    return rng.choice(shapes)


def _sub_axis(rng: random.Random, lo: float, hi: float, min_width: float, steps: int):
    a = round(rng.uniform(lo, hi - min_width), 4)
    b = round(rng.uniform(a + min_width, hi), 4)
    return (a, b, steps, "log" if rng.random() < 0.25 else "linear")


def sweep_pass(rng: random.Random) -> list[Op]:
    ops = [map_op("map-paper_fig4", rng.randint(2, 8))]
    for points, count in _GRID_CLASSES:
        for _ in range(count):
            g_steps, k_steps = _grid_shape(rng, points)
            ops.append(map_op(f"map-{points}", rng.randint(2, 8),
                              _sub_axis(rng, FIG4_G[0], FIG4_G[1], 0.5, g_steps),
                              _sub_axis(rng, FIG4_K[0], FIG4_K[1], 4.0, k_steps)))
    for _ in range(_TABLE1_PER_PASS):
        ops.append(table1_op("table1", sorted(rng.sample(range(2, 20), 5)) + [20]))
    return ops


def sweep_cold() -> list[Op]:
    return [map_op("map", 2, (0.25, 4.0, 4, "linear"), (1.0, 30.0, 4, "linear")),
            table1_op("table1", [2, 20])]


def exhaustive_pass(rng: random.Random) -> list[Op]:
    # counts put the pulse n = 2 block at the 90th latency percentile and the
    # small monochromatic ops at the median
    ops = []

    def mono(n, eta0, count):
        # half of each class detuned; classes of one op alternate by photon count
        for i in range(count):
            ops.append(analyze_op(f"mono-n{n}-eta{eta0}", _label(rng, n), eta0=eta0,
                                  omega=_detuning(rng, (i + n) % 2 == 0)))

    def pulse(n, count):
        for _ in range(count):
            ops.append(analyze_op(f"pulse-n{n}", _label(rng, n), sigma=FIG5_SIGMA))

    for n, count in ((8, 1), (7, 1), (6, 1), (5, 6), (4, 8), (3, 10), (2, 10)):
        mono(n, 1.0, count)
    for n, count in ((7, 1), (6, 1), (5, 1), (4, 6), (3, 8), (2, 8)):
        mono(n, 0.9, count)
    pulse(4, 1)
    pulse(3, 1)
    pulse(2, 10)
    for n in range(2, EXHAUSTIVE_MAX_N + 1):
        for _ in range(4):
            ops.append(analyze_op(f"ideal-n{n}", _label(rng, n), ideal=True))
    rng.shuffle(ops)
    return ops


def exhaustive_cold() -> list[Op]:
    return [analyze_op("ideal", "01", ideal=True),
            analyze_op("mono", "01", omega=0.0),
            analyze_op("mono-eta0.9", "01", eta0=0.9, omega=0.0),
            analyze_op("pulse", "01", sigma=FIG5_SIGMA)]


def montecarlo_pass(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(2):
        for n in (2, 3, 4):
            ops.append(analyze_op(f"mc-ideal-n{n}", _label(rng, n), ideal=True,
                                  shots=MC_SHOTS, seed=rng.randrange(2 ** 31)))
        for n in (4, 5, 6):
            ops.append(analyze_op(f"mc-mono-n{n}", _label(rng, n), eta0=0.9,
                                  omega=_detuning(rng, n % 2 == 0), shots=MC_SHOTS,
                                  seed=rng.randrange(2 ** 31)))
        ops.append(analyze_op("mc-pulse-n6", _label(rng, 6), sigma=FIG5_SIGMA,
                              shots=MC_SHOTS, seed=rng.randrange(2 ** 31)))
    rng.shuffle(ops)
    return ops


def montecarlo_cold() -> list[Op]:
    return [analyze_op("mc-ideal", "01", ideal=True, shots=MC_SHOTS, seed=1),
            analyze_op("mc-mono", "0110", eta0=0.9, omega=0.0, shots=MC_SHOTS, seed=1),
            analyze_op("mc-pulse", "011010", sigma=FIG5_SIGMA, shots=MC_SHOTS, seed=1)]


def swap_pass(rng: random.Random) -> list[Op]:
    # 6 two-pair and 4 three-pair ops: the median falls among the two-pair
    # ops, the 90th percentile among the three-pair ops at eta0 = 0.9
    ops = [swap_op(f"swap-{pairs}-eta{eta0}", pairs, eta0, round(rng.uniform(-5.0, 5.0), 3))
           for pairs, count in ((2, 3), (3, 2)) for eta0 in (1.0, 0.9) for _ in range(count)]
    rng.shuffle(ops)
    return ops


def swap_cold() -> list[Op]:
    return [swap_op("swap-2", 2, 1.0, 0.0), swap_op("swap-3", 3, 0.9, 1.0)]


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[random.Random], list]
    cold: Callable[[], list]


WORKLOADS = {
    "sweep": Workload(sweep_pass, sweep_cold),
    "exhaustive": Workload(exhaustive_pass, exhaustive_cold),
    "montecarlo": Workload(montecarlo_pass, montecarlo_cold),
    "swap": Workload(swap_pass, swap_cold),
}


def generate(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """(one pass, cold ops) for a workload; the same seed gives the same lists."""
    wl = WORKLOADS[workload]
    return wl.make_pass(random.Random(f"{workload}:{seed}")), wl.cold()


# --- oracles per op ------------------------------------------------------------

def prepare(op: Op) -> Callable[[str], list]:
    """Reference values for one op, computed now; returns its output check."""
    s = op.spec
    if op.argv[0] == "analyze":
        cav = None if s["ideal"] else FIG5
        ref = oracles.analyzer_reference(s["label"], cav, s["eta0"], s["omega"], s["sigma"])
        if s["shots"] is not None:
            return lambda text: oracles.check_monte_carlo(text, s["label"], s["shots"], ref)
        n = len(s["label"])
        if s["sigma"] is not None:
            conclusive = oracles.pulse_efficiency(cav, s["sigma"], n, s["eta0"])
            abs_tol = oracles.QUAD_ABS_TOL
        else:
            eta = 1.0 if cav is None else float(oracles.eta1(cav, s["omega"]))
            conclusive, abs_tol = (s["eta0"] * eta) ** n, 0.0
        return lambda text: oracles.check_analyze(text, s["label"], ref, conclusive, abs_tol)
    if op.argv[0] == "swap":
        ref = oracles.network_reference(s["pairs"], FIG5, s["eta0"], s["omega"])
        return lambda text: oracles.check_swap(text, s["pairs"], ref)
    if op.argv[0] == "efficiency-map":
        g_vals, k_vals = _axis_values(s["g_axis"]), _axis_values(s["k_axis"])
        expected = oracles.efficiency_grid(g_vals, k_vals, FIG4_KAPPA_S, FIG4_GAMMA,
                                           FIG4_SIGMA, s["n"])
        return lambda text: oracles.check_efficiency_map(text, g_vals, k_vals, expected)
    if op.argv[0] == "table1":
        expected = {n: (oracles.dephasing_fidelity(n, FIG5_T2[0], FIG5_SIGMA),
                        oracles.dephasing_fidelity(n, FIG5_T2[1], FIG5_SIGMA),
                        oracles.pulse_efficiency(FIG5, FIG5_SIGMA, n))
                    for n in s["n_list"]}
        return lambda text: oracles.check_table1(text, s["n_list"], expected)
    raise ValueError(f"no oracle for {op.argv[0]!r}")
