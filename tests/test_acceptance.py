"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen (without -s they appear in the captured output).
"""
import itertools
import time

import numpy as np
import pytest

from ghzsim.circuit import (AnalyzerConfig, classify,
                            conclusive_probability, run_analyzer)
from ghzsim.network import feed_photon, ghz_swap, make_network
from ghzsim.scattering import (CavityQDParams, PulseSpectrum,
                               average_efficiency, eta1, fidelity_fn,
                               reflection_coeffs, scattering_time)
from ghzsim.states import (GhzLabel, QubitRegister, bell_state, fidelity,
                           ghz_state, stabilizer_syndrome)
from oracles import (assembled, expected_phi1, expected_phi2, expected_phi3,
                     legendre_average_efficiency, pattern, phase_damped_readout_product,
                     stabilizer_matrices, swap_views)

IDEAL = AnalyzerConfig(mode="ideal")
FIG5_PARAMS = CavityQDParams.resonant(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3)
FIG5_SPEC = PulseSpectrum(omega_c=0.0, sigma=0.6)

# published summary table: n -> (F' at T2 = 10.9 ns, F'' at T2 = 2 us, eta_n_s)
TABLE_ROWS = {
    2: (0.826, 0.9989, 0.5893),
    3: (0.7564, 0.9984, 0.4524),
    4: (0.6961, 0.9978, 0.3473),
    5: (0.6437, 0.9973, 0.2666),
    6: (0.5981, 0.9967, 0.2047),
    7: (0.5583, 0.9962, 0.1572),
    8: (0.5235, 0.9956, 0.1207),
}
# the row published as n = 20; all three figures are the n = 21 evaluation
# (see test_c1_row20_efficiency_published_value)
ROW_20 = (0.3141, 0.9886, 0.0039)
ROW_20_EVALUATED_AT = 21

TABLE_BELL = {
    "phi+": ({"HH", "VV"}, ("+", "+")),
    "phi-": ({"HH", "VV"}, ("-", "-")),
    "psi+": ({"HV", "VH"}, ("+", "+")),
    "psi-": ({"HV", "VH"}, ("-", "-")),
}
TABLE_GHZ3 = {
    (0, 0, 0): ({"HHH", "VVV"}, ("+", "-")),
    (0, 0, 1): ({"HHH", "VVV"}, ("-", "+")),
    (1, 0, 0): ({"HVV", "VHH"}, ("+", "-")),
    (1, 0, 1): ({"HVV", "VHH"}, ("-", "+")),
    (0, 1, 0): ({"VHV", "HVH"}, ("+", "-")),
    (0, 1, 1): ({"VHV", "HVH"}, ("-", "+")),
    (1, 1, 0): ({"VVH", "HHV"}, ("+", "-")),
    (1, 1, 1): ({"VVH", "HHV"}, ("-", "+")),
}


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {tag}: {detail}"


def all_labels(n):
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=n)]


def test_c1_table_reproduction_n2_to_n8():
    start = time.perf_counter()
    computed = {n: (fidelity_fn(n, 10.9, FIG5_SPEC),
                    fidelity_fn(n, 2000.0, FIG5_SPEC),
                    average_efficiency(FIG5_PARAMS, FIG5_SPEC, n))
                for n in TABLE_ROWS}
    elapsed = time.perf_counter() - start
    worst = []
    ok = True
    for n, (f1_ref, f2_ref, eta_ref) in TABLE_ROWS.items():
        f1, f2, eta = computed[n]
        ok &= abs(f1 - f1_ref) / f1_ref <= 0.01
        ok &= abs(f2 - f2_ref) / f2_ref <= 0.01
        ok &= abs(eta - eta_ref) / eta_ref <= 0.02
        worst.append(max(abs(f1 - f1_ref) / f1_ref, abs(f2 - f2_ref) / f2_ref,
                         abs(eta - eta_ref) / eta_ref))
    ok &= elapsed < 10.0
    _report("1a", ok, f"rows n=2..8 within 1%/1%/2% (worst {max(worst):.2%}), "
                      f"runtime {elapsed:.2f}s < 10s")


def test_c1_row20_fidelity():
    n = ROW_20_EVALUATED_AT
    f1 = fidelity_fn(n, 10.9, FIG5_SPEC)
    f2 = fidelity_fn(n, 2000.0, FIG5_SPEC)
    rel1 = abs(f1 - ROW_20[0]) / ROW_20[0]
    rel2 = abs(f2 - ROW_20[1]) / ROW_20[1]
    _report("1b", rel1 <= 0.01 and rel2 <= 0.01,
            f"published row 20 at n = {n}: F' = {f1:.4f} vs 0.3141 (rel {rel1:.2%}), "
            f"F'' = {f2:.4f} vs 0.9886 (rel {rel2:.2%}), tol 1%")


def test_c1_row20_efficiency_published_value():
    """The published row-20 efficiency 0.0039, reproduced at n = 21.

    The published 20-photon row is an erratum: its three figures are the
    n = 21 evaluation of the same formulas. The fidelity and efficiency
    formulas are independent, yet both show the same one-photon offset:

        published "20"        at n = 20            at n = 21
        F'  = 0.3141          0.32126 (2.3% off)   0.31405 (0.014%)
        F'' = 0.9886          0.98912 (0.05%)      0.98858 (0.002%)
        eta = 0.0039          0.00508 (30.2%)      0.003902 (0.04%)

    The rows n = 2..8 match at their own n (test 1a), and the n = 20 integral
    f(omega) * eta0^n * |(r1 - r0)/2|^(2n) agrees with an independent
    Gauss-Legendre oracle, so the pipeline is right and the label is off.
    PAPER.md holds only the abstract, so the n = 21 reading rests on these
    numbers, not on the paper's text.

    The published 0.0039 is compared with eta at n = 21 within the 2% used for
    rows 2..8; eta at n = 20 is pinned to the oracle.
    """
    n = ROW_20_EVALUATED_AT
    eta = average_efficiency(FIG5_PARAMS, FIG5_SPEC, n)
    rel = abs(eta - ROW_20[2]) / ROW_20[2]
    eta20 = average_efficiency(FIG5_PARAMS, FIG5_SPEC, 20)
    ref20 = legendre_average_efficiency(reflection_coeffs, FIG5_PARAMS,
                                        FIG5_SPEC.omega_c, FIG5_SPEC.sigma, 20)
    dev20 = abs(eta20 - ref20)
    _report("1c", rel <= 0.02 and dev20 <= 1e-8,
            f"published row 20 at n = {n}: eta = {eta:.5f} vs 0.0039 (rel {rel:.2%}, "
            f"tol 2%); eta_20 = {eta20:.5f} vs Legendre oracle {ref20:.5f} "
            f"(dev {dev20:.1e}, tol 1e-8)")


def test_c2_spot_efficiencies():
    narrow = PulseSpectrum(omega_c=0.0, sigma=0.3)
    tight = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
    wide = CavityQDParams.resonant(g=30.0, kappa=570.0, kappa_s=30.0, gamma=0.3)
    targets = [(tight, 2, 0.304), (tight, 3, 0.168), (wide, 2, 0.664), (wide, 3, 0.541)]
    rels = [abs(average_efficiency(p, narrow, n) - ref) / ref for p, n, ref in targets]
    _report("2", all(r <= 0.02 for r in rels),
            f"spot values 0.304/0.168/0.664/0.541 within 2% (worst {max(rels):.2%})")


def test_c3_classification_tables():
    ok = True
    for name, (patterns, qd) in TABLE_BELL.items():
        records = [r for r in run_analyzer(bell_state(name), IDEAL)
                   if r.probability > 1e-9]
        ok &= {pattern(r) for r in records} == patterns
        ok &= {r.qd_readout for r in records} == {qd}
        ok &= abs(conclusive_probability(records) - 1.0) <= 1e-12
    for bits, (patterns, qd) in TABLE_GHZ3.items():
        records = [r for r in run_analyzer(ghz_state(3, bits), IDEAL)
                   if r.probability > 1e-9]
        ok &= {pattern(r) for r in records} == patterns
        ok &= {r.qd_readout for r in records} == {qd}
        ok &= abs(conclusive_probability(records) - 1.0) <= 1e-12
        ok &= all(classify(r, 3) == GhzLabel(bits) for r in records)
    _report("3", ok, "Bell and three-photon tables reproduced exactly, "
                     "conclusive probability 1 within 1e-12")


def test_c4_error_rejection_random_parameters():
    rng = np.random.default_rng(2718)
    worst_prob = 0.0
    ok = True
    for _ in range(50):
        params = CavityQDParams.resonant(
            g=float(rng.uniform(5.0, 60.0)), kappa=float(rng.uniform(30.0, 400.0)),
            kappa_s=float(rng.uniform(0.0, 60.0)), gamma=float(rng.uniform(0.05, 2.0)))
        omega = float(rng.uniform(-5.0, 5.0))
        eta0 = float(rng.uniform(0.5, 1.0))
        config = AnalyzerConfig(mode="realistic", qnd1=params, omega=omega, eta0=eta0)
        per_photon = eta0 * eta1(params, omega)
        for n in (2, 3, 4):
            for bits in all_labels(n):
                records = run_analyzer(ghz_state(n, bits), config)
                conclusive = [r for r in records if r.conclusive]
                ok &= all(classify(r, n) == GhzLabel(bits) for r in conclusive)
                err = abs(sum(r.probability for r in conclusive) - per_photon ** n)
                worst_prob = max(worst_prob, err)
                ok &= err <= 1e-12
    _report("4", ok, "50 random parameter sets, all GHZ inputs n=2..4: conclusive "
                     f"branches classify exactly, probability law error {worst_prob:.1e}")


def test_c5_stabilizer_suite():
    ok = True
    for n in range(2, 7):
        mats = stabilizer_matrices(n)
        seen = set()
        for bits in all_labels(n):
            reg = ghz_state(n, bits)
            brute = tuple(
                int(round(float(np.real(np.vdot(reg.amplitudes, m @ reg.amplitudes)))))
                for m in mats)
            syn = stabilizer_syndrome(reg)
            ok &= syn == brute
            # closed form: S_1 -> (-1)^i_n, S_k -> (-1)^(i_{k-1}+i_k) for
            # 2 <= k <= n-1, S_n -> (-1)^i_{n-1} (no X acts on photon n)
            law = [(-1) ** bits[-1]]
            law += [(-1) ** (bits[k - 2] ^ bits[k - 1]) for k in range(2, n)]
            law.append((-1) ** bits[n - 2])
            ok &= syn == tuple(law)
            seen.add(syn)
        ok &= len(seen) == 2 ** n
    _report("5", ok, "syndrome injective and matches the eigenvalue law "
                     "(brute-force matrices, n <= 6)")


def test_c6_swapping_conformance():
    state = make_network(3)
    state = feed_photon(state, 0, IDEAL)
    d1 = np.max(np.abs(assembled(state) - expected_phi1()))
    state = feed_photon(state, 1, IDEAL)
    d2 = np.max(np.abs(assembled(state) - expected_phi2()))
    state = feed_photon(state, 2, IDEAL)
    d3 = np.max(np.abs(assembled(state) - expected_phi3()))
    ok = max(d1, d2, d3) <= 1e-12
    outcomes = ghz_swap(state)
    conclusive = [o for o in swap_views(outcomes) if o.remote_state is not None]
    ok &= len(conclusive) == 16
    for o in conclusive:
        ok &= abs(fidelity(ghz_state(3, o.predicted), o.remote_state) - 1.0) <= 1e-12
    _report("6", ok, f"intermediate states match transcribed forms "
                     f"(max dev {max(d1, d2, d3):.1e}); all 16 conclusive swap "
                     "outcomes heralded with fidelity 1")


def test_c7_dephasing_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 30))
        t2 = float(rng.uniform(0.5, 5000.0))
        spec = PulseSpectrum(omega_c=0.0, sigma=float(rng.uniform(0.05, 5.0)))
        expected = phase_damped_readout_product(n * scattering_time(spec), t2)
        worst = max(worst, abs(fidelity_fn(n, t2, spec) - expected))
    _report("7", worst <= 1e-12,
            f"analytic fidelity equals two-spin phase-damping readout "
            f"product (worst dev {worst:.1e})")


def test_c8_numerical_hygiene():
    # node-doubling stability for every reported efficiency figure
    worst_quad = 0.0
    for n in list(TABLE_ROWS) + [20]:
        a = average_efficiency(FIG5_PARAMS, FIG5_SPEC, n, nodes=64)
        b = average_efficiency(FIG5_PARAMS, FIG5_SPEC, n, nodes=128)
        worst_quad = max(worst_quad, abs(a - b))
    narrow = PulseSpectrum(omega_c=0.0, sigma=0.3)
    for kappa in (90.0, 570.0):
        params = CavityQDParams.resonant(g=30.0, kappa=kappa, kappa_s=30.0, gamma=0.3)
        for n in (2, 3):
            a = average_efficiency(params, narrow, n, nodes=64)
            b = average_efficiency(params, narrow, n, nodes=128)
            worst_quad = max(worst_quad, abs(a - b))
    ok = worst_quad < 1e-8

    # probability completeness across a representative battery of runs
    worst_sum = 0.0
    rng = np.random.default_rng(31)
    realistic = AnalyzerConfig(mode="realistic",
                               qnd1=CavityQDParams.resonant(g=30.0, kappa=90.0,
                                                            kappa_s=30.0, gamma=0.3),
                               omega=0.7, eta0=0.9)
    pulse = AnalyzerConfig(mode="realistic", qnd1=FIG5_PARAMS, spectrum=FIG5_SPEC)
    mc = AnalyzerConfig(mode="realistic", qnd1=FIG5_PARAMS, omega=0.0,
                        enumeration="monte-carlo", seed=4)
    battery = []
    for n in range(2, 9):
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        battery.append((QubitRegister(n, amps / np.linalg.norm(amps)), IDEAL, None))
    for n in (2, 3, 4):
        battery.append((ghz_state(n, (0,) * (n - 1) + (1,)), realistic, None))
    battery.append((ghz_state(3, (0, 1, 0)), pulse, None))
    battery.append((ghz_state(2, (1, 0)), mc, 5000))
    for photons, config, shots in battery:
        records = (run_analyzer(photons, config) if shots is None
                   else run_analyzer(photons, config, shots=shots))
        worst_sum = max(worst_sum, abs(sum(r.probability for r in records) - 1.0))
    ok &= worst_sum <= 1e-10
    _report("8", ok, f"node doubling moves reported values by {worst_quad:.1e} "
                     f"(< 1e-8); branch probabilities sum to 1 within {worst_sum:.1e}")
