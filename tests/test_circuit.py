import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ghzsim.circuit import (CONCLUSIVE_FATES, AnalyzerConfig, OutcomeRecord,
                            PhotonFate, _input_stack, _photon_step, _units,
                            analyze_bell, classification_distribution, classify,
                            conclusive_probability)
from ghzsim import circuit
from ghzsim.circuit import final_branches as circuit_final_branches
from ghzsim.circuit import run_analyzer
from ghzsim.scattering import (CavityQDParams, PulseSpectrum, ReflectionPair,
                               _hermite_nodes, average_efficiency, eta1, reflection_coeffs)
from ghzsim.states import GhzLabel, QubitRegister, basis_state, bell_state, ghz_state
from oracles import H, I2, KET_H, KET_MINUS, KET_PLUS, KET_V, SQ2, X, Z, kron_chain, op_on

IDEAL = AnalyzerConfig(mode="ideal")
STANDARD = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
TABLE_PARAMS = CavityQDParams.resonant(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3)

# Complete two-photon Bell-state analysis: detector patterns and QD pair
TABLE_BELL = {
    "phi+": ({"HH", "VV"}, ("+", "+")),
    "phi-": ({"HH", "VV"}, ("-", "-")),
    "psi+": ({"HV", "VH"}, ("+", "+")),
    "psi-": ({"HV", "VH"}, ("-", "-")),
}

# Complete three-photon GHZ-state analysis: detector class C1..C4 and QD pair
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


def significant(records, tol=1e-9):
    return [r for r in records if r.probability > tol]


def all_labels(n):
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=n)]


def random_register(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return QubitRegister(n, amps / np.linalg.norm(amps))


def stacked_step(photon, refls):
    """`_photon_step` of one photon with amplitudes `photon`, both QDs in |+>.

    One row per entry of `refls`, each scattering with its own node's
    amplitudes; returns (child rows, loss weight per parent row).
    """
    stack = _input_stack(QubitRegister(1, np.array(photon, dtype=complex)),
                         np.arange(len(refls)))
    units = _units(ReflectionPair(np.array([r.r0 for r in refls]), np.array([r.r1 for r in refls])),
                   ReflectionPair(np.array([r.r0 for r in refls]), np.array([r.r1 for r in refls])))
    lost: list = []
    children = _photon_step(stack, 0, units, 1.0, lost)
    lost_w = np.zeros(len(refls))
    for fates, w, node in lost:
        assert (fates == fates[:1]).all()  # every loss record of one photon is (LOST,)
        np.add.at(lost_w, node, w)
    return children, lost_w


def one_photon_step(photon, refl):
    """One-row `stacked_step`: (child branches, lost weight)."""
    children, lost_w = stacked_step(photon, [refl])
    return children.views(), float(lost_w[0])


class TestQndScatter:
    """One photon step on stacked rows: the two QND arms, their flips, errors and loss."""

    def test_ideal_flip(self):
        # after the first half-wave plate |+> is H (to QND2), |-> is V (to QND1);
        # the flip toggles only the addressed QD, and D2 = (to_h - to_v)/sqrt2
        for photon, flipped_qds, d2_sign in (((SQ2, SQ2), (KET_PLUS, KET_MINUS), -1.0),
                                             ((SQ2, -SQ2), (KET_MINUS, KET_PLUS), 1.0)):
            children, lost = one_photon_step(photon, ReflectionPair.ideal())
            assert lost == 0.0  # no loss in the ideal case
            assert [c.fates for c in children] == [(PhotonFate.D1,), (PhotonFate.D2,)]
            expected = SQ2 * kron_chain(*flipped_qds)  # the photon has left the vector
            np.testing.assert_allclose(children[0].vec, expected, atol=1e-15)
            np.testing.assert_allclose(children[1].vec, d2_sign * expected, atol=1e-15)
            # rebuilt layout: D1 collapses the photon on H, D2 on V
            np.testing.assert_allclose(children[0].amps, kron_chain(KET_H, expected),
                                       atol=1e-15)
            np.testing.assert_allclose(children[1].amps,
                                       kron_chain(KET_V, d2_sign * expected), atol=1e-15)

    def test_equal_amplitudes_kill_flip_branch(self):
        refl = ReflectionPair(r0=0.6 + 0.0j, r1=0.6 + 0.0j)
        children, lost = one_photon_step(KET_V, refl)
        assert {c.fates for c in children} == {(PhotonFate.D3,)}  # no D1/D2: no flip
        assert sum(c.weight for c in children) == pytest.approx(0.36, abs=1e-15)
        assert lost == pytest.approx(0.64, abs=1e-15)
        # the error leaves photon and QDs as the first half-wave plate made them
        after_plate = kron_chain(H @ KET_V, KET_PLUS, KET_PLUS)
        np.testing.assert_allclose(sum(c.amps for c in children), 0.6 * after_plate,
                                   atol=1e-15)

    def test_flip_weight_equals_eta1(self):
        refl = reflection_coeffs(STANDARD, 1.7)
        children, _ = one_photon_step(KET_V, refl)
        flip = sum(c.weight for c in children if c.fates[0] in CONCLUSIVE_FATES)
        assert flip == pytest.approx(eta1(STANDARD, 1.7), rel=1e-12)

    def test_rows_scatter_with_their_own_node(self):
        # three nodes in one stack give, row by row, what each gives alone
        refls = [ReflectionPair.ideal(), ReflectionPair(r0=0.6 + 0.0j, r1=0.6 + 0.0j),
                 reflection_coeffs(STANDARD, 1.7)]
        children, lost_w = stacked_step(KET_V, refls)
        for node, refl in enumerate(refls):
            alone, lost_alone = one_photon_step(KET_V, refl)
            rows = np.flatnonzero(children.node == node)
            assert [children.views()[i].fates for i in rows] == [c.fates for c in alone]
            np.testing.assert_allclose(children.amps[rows], [c.vec for c in alone], atol=1e-15)
            np.testing.assert_allclose(children.weight[rows], [c.weight for c in alone],
                                       rtol=1e-14, atol=1e-15)
            assert lost_w[node] == pytest.approx(lost_alone, abs=1e-15)


class TestIdealRuns:
    def test_ghz_000(self):
        records = significant(run_analyzer(ghz_state(3, (0, 0, 0)), IDEAL))
        assert {(r.pattern(), r.qd_readout, round(r.probability, 12)) for r in records} \
            == {("HHH", ("+", "-"), 0.5), ("VVV", ("+", "-"), 0.5)}

    def test_psi_minus(self):
        records = significant(run_analyzer(bell_state("psi-"), IDEAL))
        assert {(r.pattern(), r.qd_readout, round(r.probability, 12)) for r in records} \
            == {("HV", ("-", "-"), 0.5), ("VH", ("-", "-"), 0.5)}

    def test_bell_table_golden(self):
        for name, (patterns, qd) in TABLE_BELL.items():
            records = significant(run_analyzer(bell_state(name), IDEAL))
            assert {r.pattern() for r in records} == patterns
            assert {r.qd_readout for r in records} == {qd}
            for r in records:
                assert r.probability == pytest.approx(0.5, abs=1e-12)
            assert conclusive_probability(records) == pytest.approx(1.0, abs=1e-12)

    def test_ghz3_table_golden(self):
        for bits, (patterns, qd) in TABLE_GHZ3.items():
            records = significant(run_analyzer(ghz_state(3, bits), IDEAL))
            assert {r.pattern() for r in records} == patterns
            assert {r.qd_readout for r in records} == {qd}
            assert conclusive_probability(records) == pytest.approx(1.0, abs=1e-12)
            for r in records:
                assert classify(r, 3) == GhzLabel(bits)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_classification_closure(self, n):
        for bits in all_labels(n):
            records = significant(run_analyzer(ghz_state(n, bits), IDEAL))
            for r in records:
                assert classify(r, n) == GhzLabel(bits), (bits, r)
            assert conclusive_probability(records) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_qd_parity_rule(self, n):
        allowed = ({("+", "+"), ("-", "-")} if n % 2 == 0
                   else {("+", "-"), ("-", "+")})
        for bits in all_labels(n):
            records = significant(run_analyzer(ghz_state(n, bits), IDEAL))
            assert {r.qd_readout for r in records} <= allowed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_probability_completeness(self, n):
        records = run_analyzer(random_register(n, seed=n), IDEAL)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)


class TestBlockSignRule:
    """The assembled post-pipeline state, with detectors read nondestructively."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sign_rule(self, n):
        # net photonic action is a Z on every photon: the GHZ label survives
        # with sign (-1)^(i_1+...+i_{n-1}); for odd n the phase bit flips
        from oracles import KET_MINUS, KET_PLUS, ghz_vector, kron_chain
        for bits in all_labels(n):
            assembled = None
            for br in circuit_final_branches(ghz_state(n, bits), IDEAL):
                assembled = br.amps if assembled is None else assembled + br.amps
            lead, phase = bits[:-1], bits[-1]
            sign = (-1.0) ** sum(lead)
            if n % 2 == 0:
                photons = ghz_vector(lead + (phase,))
                qd = (KET_PLUS, KET_PLUS) if phase == 0 else (KET_MINUS, KET_MINUS)
            else:
                photons = ghz_vector(lead + (1 - phase,))
                qd = (KET_PLUS, KET_MINUS) if phase == 0 else (KET_MINUS, KET_PLUS)
            expected = sign * kron_chain(photons, *qd)
            np.testing.assert_allclose(assembled, expected, atol=1e-12)


def full_vector_branches(psi, n, refl1, refl2, eta0):
    """Summed branch vector per fate tuple, from explicit (n+2)-qubit matrices.

    Photons are qubits 0..n-1, QD1 is qubit n and QD2 qubit n+1; detected
    photons stay in the vector, collapsed on the polarization they left in.
    """
    nq = n + 2
    to_0, to_1 = (I2 + Z) / 2, (I2 - Z) / 2
    f1, e1 = refl1.flip_amplitude(), refl1.error_amplitude()
    f2, e2 = refl2.flip_amplitude(), refl2.error_amplitude()
    z1, z2 = op_on(nq, Z, n), op_on(nq, Z, n + 1)
    branches = {(): psi}
    for k in range(n):
        hwp, flip = op_on(nq, H, k), op_on(nq, X, k)
        p0, p1 = op_on(nq, to_0, k), op_on(nq, to_1, k)
        nxt: dict = {}
        for fates, vec in branches.items():
            a = hwp @ vec
            v_arm, h_arm = p1 @ a, p0 @ a
            out = hwp @ (f1 * z1 @ flip @ v_arm + f2 * z2 @ flip @ h_arm)
            d1, d2 = p0 @ out, p1 @ out
            for fate, child in ((PhotonFate.D3, e1 * v_arm + e2 * h_arm),
                                (PhotonFate.D1, np.sqrt(eta0) * d1),
                                (PhotonFate.D2, np.sqrt(eta0) * d2),
                                (PhotonFate.LOST, np.sqrt(1.0 - eta0) * (d1 + d2))):
                key = fates + (fate,)
                nxt[key] = nxt.get(key, 0.0) + child
        branches = nxt
    return branches


class TestFinalBranchesReference:
    def test_realistic_detuned_lossy_matches_full_vectors(self):
        # every fate tuple's branches summed, against the full-vector algebra;
        # D3 via QND1/QND2 and LOST after D1/D2 share fates but not polarization
        n = 3
        qnd1 = CavityQDParams(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3, omega_x=2.0)
        qnd2 = CavityQDParams(g=25.0, kappa=200.0, kappa_s=20.0, gamma=0.4, omega_c=-1.0)
        config = AnalyzerConfig(mode="realistic", qnd1=qnd1, qnd2=qnd2, omega=1.3, eta0=0.9)
        photons = random_register(n, seed=11)
        refl1, refl2 = config.reflection_pairs()
        psi = kron_chain(photons.amplitudes, KET_PLUS, KET_PLUS)
        expected = full_vector_branches(psi, n, refl1, refl2, config.eta0)
        got_amps: dict = {}
        got_weight: dict = {}
        for br in circuit_final_branches(photons, config):
            got_amps[br.fates] = got_amps.get(br.fates, 0.0) + br.amps
            got_weight[br.fates] = got_weight.get(br.fates, 0.0) + br.weight
        assert set(got_amps) == set(expected)
        for fates, vec in expected.items():
            np.testing.assert_allclose(got_amps[fates], vec, rtol=0, atol=1e-12)
            # same-fate components sit on different photon bits, so they add in norm
            assert got_weight[fates] == pytest.approx(np.vdot(vec, vec).real, abs=1e-12)


class TestRealisticRuns:
    @pytest.mark.parametrize("omega", [0.0, 2.5])
    def test_conclusive_probability_law(self, omega):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=omega)
        for bits in all_labels(3):
            records = run_analyzer(ghz_state(3, bits), config)
            assert conclusive_probability(records) == pytest.approx(
                eta1(STANDARD, omega) ** 3, abs=1e-12)
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)

    def test_eta0_factor(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0, eta0=0.8)
        records = run_analyzer(ghz_state(2, (0, 1)), config)
        assert conclusive_probability(records) == pytest.approx(
            0.8 ** 2 * eta1(STANDARD, 0.0) ** 2, abs=1e-12)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)

    def test_conclusive_branches_classify_like_ideal(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=1.1)
        for bits in all_labels(3):
            records = significant(run_analyzer(ghz_state(3, bits), config))
            conclusive = [r for r in records if r.conclusive]
            assert conclusive, bits
            for r in conclusive:
                assert classify(r, 3) == GhzLabel(bits)

    def test_mismatched_qnd_units_leak_misclassification(self):
        # unequal flip amplitudes distort the recombination: a phi+ input gains
        # an HV/VH component weighted by (f1^2 - f2^2)/(2 sqrt2) per pattern
        other = CavityQDParams.resonant(g=25.0, kappa=200.0, kappa_s=20.0, gamma=0.4)
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, qnd2=other, omega=0.0)
        records = run_analyzer(bell_state("phi+"), config)
        dist = classification_distribution(records, 2)
        f1 = reflection_coeffs(STANDARD, 0.0).flip_amplitude()
        f2 = reflection_coeffs(other, 0.0).flip_amplitude()
        good = 2.0 * abs((f1 ** 2 + f2 ** 2) / (2.0 * np.sqrt(2.0))) ** 2
        bad = 2.0 * abs((f1 ** 2 - f2 ** 2) / (2.0 * np.sqrt(2.0))) ** 2
        assert dist["00"] == pytest.approx(good, abs=1e-12)
        assert dist["10"] == pytest.approx(bad, abs=1e-12)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)
        # identical units have no such leak
        same = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        dist = classification_distribution(run_analyzer(bell_state("phi+"), same), 2)
        assert dist.get("10", 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_ideal_eta0_bernoulli(self):
        config = AnalyzerConfig(mode="ideal", eta0=0.7)
        records = run_analyzer(ghz_state(2, (0, 0)), config)
        assert conclusive_probability(records) == pytest.approx(0.49, abs=1e-12)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)
        lost = [r for r in records if PhotonFate.LOST in r.fates]
        assert sum(r.probability for r in lost) == pytest.approx(1 - 0.49, abs=1e-10)

    def test_pulse_average_matches_quadrature(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, spectrum=spec)
        for n in range(2, 7):
            records = run_analyzer(ghz_state(n, (0,) * n), config)
            assert conclusive_probability(records) == pytest.approx(
                average_efficiency(TABLE_PARAMS, spec, n), abs=1e-12), n
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10), n

    def test_pruned_mass_is_booked_as_loss(self):
        # thousands of D3 children fall below PRUNE_TOL at n = 7; their mass
        # stays in the records as loss instead of vanishing
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=0.0, eta0=0.9)
        records = run_analyzer(ghz_state(7, (0,) * 7), config)
        assert math.fsum(r.probability for r in records) == pytest.approx(1.0, abs=2e-14)

    def test_records_sorted_and_unique(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.7, eta0=0.8)
        records = run_analyzer(random_register(3, seed=5), config)
        keys = [(tuple(f.value for f in r.fates), r.qd_readout or ()) for r in records]
        assert keys == sorted(set(keys))
        assert all(r.probability > 0.0 for r in records)
        assert all(f is not PhotonFate.IN_CIRCUIT for r in records for f in r.fates)

    def test_pulse_average_with_detector_loss(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.3)
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, spectrum=spec, eta0=0.9)
        records = run_analyzer(ghz_state(3, (0, 1, 0)), config)
        assert conclusive_probability(records) == pytest.approx(
            average_efficiency(STANDARD, spec, 3, eta0=0.9), abs=1e-8)


class TestTotalLoss:
    # g = 0 and kappa_s = kappa on resonance give r0 = r1 = 0: every photon
    # leaks out of the first cavity, so no branch survives the first photon
    DARK = CavityQDParams.resonant(g=0.0, kappa=30.0, kappa_s=30.0, gamma=0.3)

    def test_exhaustive_and_monte_carlo(self):
        for enumeration in ("exhaustive", "monte-carlo"):
            config = AnalyzerConfig(mode="realistic", qnd1=self.DARK, omega=0.0,
                                    enumeration=enumeration)
            records = run_analyzer(ghz_state(3, (0, 1, 1)), config, shots=50)
            assert [(r.fates, r.qd_readout) for r in records] == [((PhotonFate.LOST,) * 3, None)]
            assert records[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_no_live_branches(self):
        config = AnalyzerConfig(mode="realistic", qnd1=self.DARK, omega=0.0)
        assert circuit_final_branches(ghz_state(2, (0, 0)), config) == []


class TestMemoryBudget:
    def test_initial_array_over_budget(self, monkeypatch):
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", 2 ** 3 * 4 * 16 - 1)
        with pytest.raises(ValueError, match="3 photons with 1 quadrature node"):
            run_analyzer(ghz_state(3, (0, 0, 0)), IDEAL)

    def test_step_over_budget_mid_run(self, monkeypatch):
        # the initial 512-byte row fits; the first photon's step does not
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", 2 ** 3 * 4 * 16)
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        with pytest.raises(ValueError, match=r"3 photons with 1 quadrature node\(s\) need "
                                             r"\d+ bytes for a photon step on 1 rows.*item 3"):
            run_analyzer(ghz_state(3, (0, 0, 0)), config)
        # a pulse run splits its nodes down to one before it is refused
        pulse = AnalyzerConfig(mode="realistic", qnd1=STANDARD, quad_nodes=4,
                               spectrum=PulseSpectrum(omega_c=0.0, sigma=0.3))
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", 4 * 2 ** 3 * 4 * 16)
        with pytest.raises(ValueError, match=r"3 photons with 4 quadrature node\(s\) need "
                                             r"\d+ bytes for a photon step on 1 rows"):
            run_analyzer(ghz_state(3, (0, 0, 0)), pulse)

    def test_pulse_run_over_budget_runs_fewer_nodes_at_a_time(self, monkeypatch):
        # rows of different nodes never interact: a pulse run three to seven
        # times over the budget gives the same records, and its traced
        # allocations, records included, stay within the budget
        photons = ghz_state(6, (0,) * 6)
        pulse = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, eta0=0.9, quad_nodes=16,
                               spectrum=PulseSpectrum(omega_c=0.0, sigma=0.6))

        def traced_run():
            tracemalloc.start()
            try:
                return run_analyzer(photons, pulse), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reference, unlimited = traced_run()
        for share in (3, 5, 7):
            monkeypatch.setattr(circuit, "MAX_STEP_BYTES", unlimited // share)
            got, peak = traced_run()
            assert peak <= circuit.MAX_STEP_BYTES
            assert [(r.fates, r.qd_readout) for r in got] == \
                [(r.fates, r.qd_readout) for r in reference]
            np.testing.assert_allclose([r.probability for r in got],
                                       [r.probability for r in reference], rtol=0, atol=1e-15)
        x, _ = _hermite_nodes(16)
        units = _units(*pulse.reflection_pairs(0.6 * x))
        stacks = list(circuit._evolve(photons, units, 0.9, range(6)))
        assert len(stacks) > 2
        assert sorted(np.concatenate([np.unique(s.node) for s in stacks])) == list(range(16))

    @pytest.mark.parametrize("config, n", [
        (AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, eta0=0.9), 7),
        (AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, spectrum=PulseSpectrum(0.0, 0.6)), 4),
    ])
    def test_step_bytes_bound_what_a_step_allocates(self, config, n):
        if config.spectrum is None:
            units = _units(*config.reflection_pairs())
        else:
            x, _ = _hermite_nodes(config.quad_nodes)
            units = _units(*config.reflection_pairs(0.6 * x))
        blocks = 6 if config.eta0 < 1.0 else 4
        stack = _input_stack(ghz_state(n, (0,) * n), np.arange(units[2].shape[1]))
        lost: list = []
        tracemalloc.start()
        try:
            for photon in range(n):
                counted = circuit._step_bytes(len(stack), stack.amps.shape[1], blocks, n)
                before = tracemalloc.get_traced_memory()[0] - stack.amps.nbytes
                tracemalloc.reset_peak()
                stack = _photon_step(stack, photon, units, config.eta0, lost)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak <= counted
                if peak > 2 ** 20:  # past the fixed overheads the count is close
                    assert counted < 1.6 * peak
        finally:
            tracemalloc.stop()


class TestFeedingOrder:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_any_order_same_distribution(self, n):
        photons = random_register(n, seed=100 + n)
        reference = {(r.fates, r.qd_readout): r.probability
                     for r in run_analyzer(photons, IDEAL)}
        for order in itertools.permutations(range(n)):
            got = {(r.fates, r.qd_readout): r.probability
                   for r in run_analyzer(photons, IDEAL, order=list(order))}
            keys = {k for k, v in reference.items() if v > 1e-12}
            assert {k for k, v in got.items() if v > 1e-12} == keys
            for k in keys:
                assert got[k] == pytest.approx(reference[k], abs=1e-10)

    def test_realistic_order_insensitive(self):
        # loss-terminated records coarse-grain by feed position, so the
        # order-invariant content is: every record that kept a QD readout,
        # plus the total scattering-loss mass
        photons = random_register(3, seed=7)
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.4)
        def split(records):
            kept = {(r.fates, r.qd_readout): r.probability
                    for r in records if r.qd_readout is not None}
            lost = sum(r.probability for r in records if r.qd_readout is None)
            return kept, lost
        ref_kept, ref_lost = split(run_analyzer(photons, config))
        for order in itertools.permutations(range(3)):
            kept, lost = split(run_analyzer(photons, config, order=list(order)))
            assert lost == pytest.approx(ref_lost, abs=1e-10)
            for k, v in ref_kept.items():
                if v > 1e-12:
                    assert kept[k] == pytest.approx(v, abs=1e-10)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            run_analyzer(ghz_state(2, (0, 0)), IDEAL, order=[0, 0])


class TestMonteCarlo:
    def test_matches_exhaustive_within_3_sigma(self):
        shots = 100_000
        photons = bell_state("psi-")
        exact = {(r.fates, r.qd_readout): r.probability
                 for r in run_analyzer(photons, IDEAL) if r.probability > 1e-12}
        config = AnalyzerConfig(mode="ideal", enumeration="monte-carlo", seed=42)
        sampled = {(r.fates, r.qd_readout): r.probability
                   for r in run_analyzer(photons, config, shots=shots)}
        assert set(sampled) <= set(exact) | {k for k in sampled if sampled[k] == 0}
        for key, p in exact.items():
            bound = 3.0 * np.sqrt(p * (1 - p) / shots)
            assert abs(sampled.get(key, 0.0) - p) <= bound, key

    def test_realistic_sampling(self):
        shots = 40_000
        config_mc = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0,
                                   enumeration="monte-carlo", seed=9)
        config_ex = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        photons = ghz_state(2, (1, 0))
        exact = {(r.fates, r.qd_readout): r.probability
                 for r in run_analyzer(photons, config_ex) if r.probability > 1e-9}
        sampled = {(r.fates, r.qd_readout): r.probability
                   for r in run_analyzer(photons, config_mc, shots=shots)}
        assert sum(sampled.values()) == pytest.approx(1.0, abs=1e-12)
        for key, p in exact.items():
            bound = 3.0 * np.sqrt(p * (1 - p) / shots) + 1e-9
            assert abs(sampled.get(key, 0.0) - p) <= bound, key

    def test_seed_reproducible_bit_for_bit(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.3,
                                enumeration="monte-carlo", seed=2024)
        a = run_analyzer(ghz_state(2, (0, 1)), config, shots=5000)
        b = run_analyzer(ghz_state(2, (0, 1)), config, shots=5000)
        assert [(r.fates, r.qd_readout, r.probability) for r in a] \
            == [(r.fates, r.qd_readout, r.probability) for r in b]

    def test_records_are_shot_counts(self):
        shots = 3000
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.3, eta0=0.7,
                                enumeration="monte-carlo", seed=8)
        records = run_analyzer(ghz_state(3, (1, 0, 1)), config, shots=shots)
        keys = [(tuple(f.value for f in r.fates), r.qd_readout or ()) for r in records]
        assert keys == sorted(set(keys))  # a loss with photons left is one key, all LOST
        assert any(r.qd_readout is None for r in records)
        for r in records:
            assert r.probability == round(r.probability * shots) / shots
        assert sum(round(r.probability * shots) for r in records) == shots

    def test_pulse_sampling_total(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.3)
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, spectrum=spec,
                                enumeration="monte-carlo", seed=5)
        records = run_analyzer(ghz_state(2, (0, 0)), config, shots=20_000)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
        # conclusive frequency within 3 sigma of the quadrature average
        p = average_efficiency(STANDARD, spec, 2)
        bound = 3.0 * np.sqrt(p * (1 - p) / 20_000)
        assert abs(conclusive_probability(records) - p) <= bound


class TestClassify:
    def mk(self, pattern, qd):
        fates = tuple(PhotonFate.D1 if c == "H" else PhotonFate.D2 for c in pattern)
        return OutcomeRecord(fates, qd, 1.0)

    def test_bell_assignments(self):
        assert classify(self.mk("HH", ("+", "+")), 2) == GhzLabel((0, 0))
        assert classify(self.mk("HH", ("-", "-")), 2) == GhzLabel((0, 1))
        # Table II puts HV/VH with |--> under psi-, i.e. label 11
        assert classify(self.mk("HV", ("-", "-")), 2) == GhzLabel((1, 1))
        assert classify(self.mk("HV", ("+", "+")), 2) == GhzLabel((1, 0))

    def test_ghz3_assignment(self):
        assert classify(self.mk("VHH", ("-", "+")), 3) == GhzLabel((1, 0, 1))
        assert classify(self.mk("HVV", ("-", "+")), 3) == GhzLabel((1, 0, 1))
        assert classify(self.mk("VVH", ("+", "-")), 3) == GhzLabel((1, 1, 0))

    def test_wrong_parity_pair_is_inconclusive(self):
        assert classify(self.mk("HH", ("+", "-")), 2) is None
        assert classify(self.mk("HHH", ("+", "+")), 3) is None

    def test_d3_and_lost_are_inconclusive(self):
        rec = OutcomeRecord((PhotonFate.D3, PhotonFate.D1), ("+", "+"), 0.1)
        assert classify(rec, 2) is None
        rec = OutcomeRecord((PhotonFate.D1, PhotonFate.LOST), None, 0.1)
        assert classify(rec, 2) is None

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify(self.mk("HH", ("+", "+")), 3)


class TestAnalyzeBell:
    def test_table_distribution(self):
        for name in TABLE_BELL:
            dist = analyze_bell(bell_state(name), IDEAL)
            assert dist[name] == pytest.approx(1.0, abs=1e-12)

    def test_superposition_splits_evenly(self):
        amps = (bell_state("phi+").amplitudes + bell_state("psi+").amplitudes) / np.sqrt(2)
        dist = analyze_bell(QubitRegister(2, amps), IDEAL)
        assert dist["phi+"] == pytest.approx(0.5, abs=1e-12)
        assert dist["psi+"] == pytest.approx(0.5, abs=1e-12)

    def test_realistic_conclusive_matches_ideal_classification(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        for name in TABLE_BELL:
            dist = analyze_bell(bell_state(name), config)
            conclusive = sum(v for k, v in dist.items() if k != "inconclusive")
            assert dist.get(name, 0.0) == pytest.approx(conclusive, abs=1e-12)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            analyze_bell(ghz_state(3, (0, 0, 0)), IDEAL)


class TestValidation:
    def test_single_photon_rejected(self):
        with pytest.raises(ValueError):
            run_analyzer(basis_state(1, (0,)), IDEAL)

    def test_unnormalized_rejected(self):
        reg = QubitRegister(2, np.array([1.0, 0, 0, 1.0]))
        with pytest.raises(ValueError):
            run_analyzer(reg, IDEAL)

    def test_realistic_requires_params(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(mode="realistic")

    def test_omega_and_spectrum_exclusive(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0,
                           spectrum=PulseSpectrum(omega_c=0.0, sigma=0.3))

    def test_classification_distribution_pools_inconclusive(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        records = run_analyzer(ghz_state(2, (0, 0)), config)
        dist = classification_distribution(records, 2)
        assert set(dist) == {"00", "inconclusive"}
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
