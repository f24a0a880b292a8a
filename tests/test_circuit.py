import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ghzsim.circuit import (CONCLUSIVE_FATES, AnalyzerConfig, OutcomeRecord,
                            PhotonFate, _initial_stack, _photon_step, _units,
                            classification_distribution, classify, conclusive_probability)
from ghzsim import circuit
from ghzsim.circuit import final_branches as circuit_final_branches
from ghzsim.circuit import run_analyzer
from ghzsim.network import feed_photon, make_network
from ghzsim.scattering import (CavityQDParams, PulseSpectrum, ReflectionPair,
                               _hermite_nodes, average_efficiency, eta1, reflection_coeffs)
from ghzsim.states import GhzLabel, QubitRegister, bell_label, bell_state, ghz_state
from oracles import (H, I2, KET_H, KET_MINUS, KET_PLUS, KET_V, SQ2, X, Z, basis_state,
                     full_layout, kron_chain, op_on, pattern, reference_label)

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


def stacked_step(photon, refl):
    """`_photon_step` of one photon with amplitudes `photon`, both QDs in |+>.

    The one row scatters off two units with amplitudes `refl`; returns
    (child rows, loss weight).
    """
    stack = _initial_stack(kron_chain(np.array(photon, dtype=complex), KET_PLUS, KET_PLUS), 1)
    units, _ = _units(refl, refl)
    lost: list = []
    children = _photon_step(stack, 0, units, lost)
    lost_w = 0.0
    for fates, w in lost:
        assert (fates == fates[:1]).all()  # every loss record of one photon is (LOST,)
        lost_w += w.sum()
    return children, lost_w


def one_photon_step(photon, refl):
    """`stacked_step` as (child branches, lost weight)."""
    children, lost_w = stacked_step(photon, refl)
    return children.views(), float(lost_w)


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
            np.testing.assert_allclose(children[0].amps, expected, atol=1e-15)
            np.testing.assert_allclose(children[1].amps, d2_sign * expected, atol=1e-15)
            # rebuilt layout: D1 collapses the photon on H, D2 on V
            np.testing.assert_allclose(full_layout(children[0]), kron_chain(KET_H, expected),
                                       atol=1e-15)
            np.testing.assert_allclose(full_layout(children[1]),
                                       kron_chain(KET_V, d2_sign * expected), atol=1e-15)

    def test_equal_amplitudes_kill_flip_branch(self):
        refl = ReflectionPair(r0=0.6 + 0.0j, r1=0.6 + 0.0j)
        children, lost = one_photon_step(KET_V, refl)
        assert {c.fates for c in children} == {(PhotonFate.D3,)}  # no D1/D2: no flip
        assert sum(c.weight for c in children) == pytest.approx(0.36, abs=1e-15)
        assert lost == pytest.approx(0.64, abs=1e-15)
        # the error leaves photon and QDs as the first half-wave plate made them
        after_plate = kron_chain(H @ KET_V, KET_PLUS, KET_PLUS)
        np.testing.assert_allclose(sum(map(full_layout, children)), 0.6 * after_plate,
                                   atol=1e-15)

    def test_flip_weight_equals_eta1(self):
        refl = reflection_coeffs(STANDARD, 1.7)
        children, _ = one_photon_step(KET_V, refl)
        flip = sum(c.weight for c in children if c.fates[0] in CONCLUSIVE_FATES)
        assert flip == pytest.approx(eta1(STANDARD, 1.7), rel=1e-12)


class TestIdealRuns:
    def test_ghz_000(self):
        records = significant(run_analyzer(ghz_state(3, (0, 0, 0)), IDEAL))
        assert {(pattern(r), r.qd_readout, round(r.probability, 12)) for r in records} \
            == {("HHH", ("+", "-"), 0.5), ("VVV", ("+", "-"), 0.5)}

    def test_psi_minus(self):
        records = significant(run_analyzer(bell_state("psi-"), IDEAL))
        assert {(pattern(r), r.qd_readout, round(r.probability, 12)) for r in records} \
            == {("HV", ("-", "-"), 0.5), ("VH", ("-", "-"), 0.5)}

    def test_bell_table_golden(self):
        for name, (patterns, qd) in TABLE_BELL.items():
            records = significant(run_analyzer(bell_state(name), IDEAL))
            assert {pattern(r) for r in records} == patterns
            assert {r.qd_readout for r in records} == {qd}
            for r in records:
                assert r.probability == pytest.approx(0.5, abs=1e-12)
            assert conclusive_probability(records) == pytest.approx(1.0, abs=1e-12)

    def test_ghz3_table_golden(self):
        for bits, (patterns, qd) in TABLE_GHZ3.items():
            records = significant(run_analyzer(ghz_state(3, bits), IDEAL))
            assert {pattern(r) for r in records} == patterns
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
            assembled = sum(map(full_layout, circuit_final_branches(ghz_state(n, bits), IDEAL)))
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
    N = 3
    CONFIG = AnalyzerConfig(
        mode="realistic", omega=1.3,
        qnd1=CavityQDParams(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3, omega_x=2.0),
        qnd2=CavityQDParams(g=25.0, kappa=200.0, kappa_s=20.0, gamma=0.4, omega_c=-1.0))
    PHOTONS = random_register(N, seed=11)

    def reference(self, eta0):
        psi = kron_chain(self.PHOTONS.amplitudes, KET_PLUS, KET_PLUS)
        return full_vector_branches(psi, self.N, *self.CONFIG.reflection_pairs(), eta0)

    def test_realistic_detuned_lossy_matches_full_vectors(self):
        # every fate tuple's branches summed, against the full-vector algebra;
        # D3 via QND1/QND2 share fates but not polarization. The branches are those
        # of clicks that always succeed, so the reference's LOST vectors are zero
        expected = {fates: vec for fates, vec in self.reference(1.0).items()
                    if PhotonFate.LOST not in fates}
        got_amps: dict = {}
        got_weight: dict = {}
        for br in circuit_final_branches(self.PHOTONS, replace(self.CONFIG, eta0=0.9)):
            got_amps[br.fates] = got_amps.get(br.fates, 0.0) + full_layout(br)
            got_weight[br.fates] = got_weight.get(br.fates, 0.0) + br.weight
        assert set(got_amps) == set(expected)
        for fates, vec in expected.items():
            np.testing.assert_allclose(got_amps[fates], vec, rtol=0, atol=1e-12)
            # same-fate components sit on different photon bits, so they add in norm
            assert got_weight[fates] == pytest.approx(np.vdot(vec, vec).real, abs=1e-12)

    @pytest.mark.parametrize("eta0", [0.9, 0.3, 0.0])
    def test_realistic_detuned_records_match_full_vector_readouts(self, eta0):
        # the records of a thinned run against the QD readout of each fate tuple of
        # the full-vector algebra, in which a failed click is a LOST branch of its own
        kets = [kron_chain(KET_PLUS if a == "+" else KET_MINUS,
                           KET_PLUS if b == "+" else KET_MINUS) for a, b in circuit.QD_PAIRS]
        expected = {}
        for fates, vec in self.reference(eta0).items():
            weights = (np.abs(vec.reshape(-1, 4) @ np.array(kets).T) ** 2).sum(axis=0)
            expected.update(((fates, pair), w) for pair, w in zip(circuit.QD_PAIRS, weights))
        records = run_analyzer(self.PHOTONS, replace(self.CONFIG, eta0=eta0))
        got = {(r.fates, r.qd_readout): r.probability for r in records if r.qd_readout}
        assert got
        for key in set(got) | set(expected):
            assert got.get(key, 0.0) == pytest.approx(expected.get(key, 0.0), abs=1e-12), key
        assert math.fsum(records.probs.tolist()) == pytest.approx(1.0, abs=1e-14)


class TestBranchViews:
    """A branch view holds its compact row: `amps` is the stack's row, sized by the
    photons still IN_CIRCUIT, and `weight` the stack's own entry."""

    CONFIG = TestFinalBranchesReference.CONFIG

    @staticmethod
    def assert_views_hold_rows(views, stack, spins):
        assert len(views) == len(stack) > 0
        for view, amps, weight in zip(views, stack.amps, stack.weight.tolist()):
            live = view.fates.count(PhotonFate.IN_CIRCUIT)
            assert view.amps.size == 2 ** spins * 2 ** live * 4
            np.testing.assert_array_equal(view.amps, amps)
            assert view.weight == weight

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_final_branches(self, n):
        photons = random_register(n, seed=20 + n)
        views = circuit_final_branches(photons, self.CONFIG)
        [stack] = circuit._evolve(circuit._with_spins(photons.amplitudes),
                                  self.CONFIG.units[0], list(range(n)))
        self.assert_views_hold_rows(views, stack, 0)
        # summed in the full layout, the views give the full-vector algebra's branches
        psi = kron_chain(photons.amplitudes, KET_PLUS, KET_PLUS)
        expected = {fates: vec for fates, vec in full_vector_branches(
                        psi, n, *self.CONFIG.reflection_pairs(), 1.0).items()
                    if PhotonFate.LOST not in fates}
        got: dict = {}
        for br in views:
            got[br.fates] = got.get(br.fates, 0.0) + full_layout(br)
        assert set(got) == set(expected)
        for fates, vec in expected.items():
            np.testing.assert_allclose(got[fates], vec, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pairs", [2, 3])
    def test_network_branches(self, pairs):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.9)
        state = make_network(pairs)
        self.assert_views_hold_rows(state.branches, state.stack, pairs)
        for photon in range(pairs):
            state = feed_photon(state, photon, config)
            self.assert_views_hold_rows(state.branches, state.stack, pairs)


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
        with pytest.raises(ValueError, match="3 photons need"):
            run_analyzer(ghz_state(3, (0, 0, 0)), IDEAL)

    def test_step_over_budget_mid_run(self, monkeypatch):
        # the initial 512-byte row fits; the first photon's step does not
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", 2 ** 3 * 4 * 16)
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        with pytest.raises(ValueError, match=r"3 photons need \d+ bytes for a photon step "
                                             r"on 1 rows.*item 3") as mono:
            run_analyzer(ghz_state(3, (0, 0, 0)), config)
        # a pulse run is one run with envelope units: refused at the same budget
        pulse = AnalyzerConfig(mode="realistic", qnd1=STANDARD, quad_nodes=4,
                               spectrum=PulseSpectrum(omega_c=0.0, sigma=0.3))
        with pytest.raises(ValueError) as refused:
            run_analyzer(ghz_state(3, (0, 0, 0)), pulse)
        assert str(refused.value) == str(mono.value)

    def test_thinning_counts_each_photon_table_before_building_it(self, monkeypatch):
        # at eta0 < 1 the first photon's clicks double their entries; one byte short
        # of that table, the records of perfect detectors are not thinned
        n = 5
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=1.5)
        photons = ghz_state(n, (0, 1, 1, 0, 1))
        perfect = run_analyzer(photons, config)
        keys = perfect.digits.astype(np.int64) @ 5 ** np.arange(n, -1, -1)
        need = (len(keys) + np.count_nonzero(perfect.digits[:, 0] <= 1)) * 96
        assert circuit._THIN_ENTRY_BYTES == 96
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", need - 1)
        with pytest.raises(ValueError, match=f"5 photons need {need} bytes to thin "
                                             f"{len(keys)} records, over the {need - 1}-byte"):
            circuit._thin(keys, perfect.probs, (0.9,) * n)
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", 2 ** 30)
        thinned = circuit._records(*circuit._thin(keys, perfect.probs, (0.9,) * n), n)
        assert list(thinned) == list(run_analyzer(photons, replace(config, eta0=0.9)))

    def test_thin_entry_bytes_bound_what_thinning_allocates(self, monkeypatch):
        n = 8
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=0.0)
        perfect = run_analyzer(ghz_state(n, (0, 1) * 4), config)
        keys = perfect.digits.astype(np.int64) @ 5 ** np.arange(n, -1, -1)
        entries = []  # of each photon's expanded table, as `_sum_by_key` gets it
        sum_by_key = circuit._sum_by_key
        monkeypatch.setattr(circuit, "_sum_by_key",
                            lambda k, p: entries.append(len(k)) or sum_by_key(k, p))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            circuit._thin(keys, perfect.probs, (0.9,) * n)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        counted = max(entries) * circuit._THIN_ENTRY_BYTES
        assert peak <= counted < 1.3 * peak

    def test_pulse_run_memory_does_not_grow_with_nodes(self):
        # the nodes only weigh records (`circuit._moments`): 16 to 256 of them
        # run on the same rows
        photons = ghz_state(6, (0,) * 6)

        def peak(nodes):
            pulse = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, eta0=0.9,
                                   quad_nodes=nodes, spectrum=PulseSpectrum(0.0, 0.6))
            tracemalloc.start()
            try:
                run_analyzer(photons, pulse)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = [peak(nodes) for nodes in (16, 64, 256)]
        assert max(peaks) - min(peaks) <= 2 ** 20

    @pytest.mark.parametrize("config, n", [
        (AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS), 7),
        (AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, spectrum=PulseSpectrum(0.0, 0.6)), 4),
    ])
    def test_step_bytes_bound_what_a_step_allocates(self, config, n):
        if config.spectrum is None:
            units, ratios = _units(*config.reflection_pairs())
            weights = np.ones(1)
        else:  # the envelope units of a pulse run, and its nodes' moments
            x, weights = _hermite_nodes(config.quad_nodes)
            units, ratios = _units(*config.reflection_pairs(0.6 * x))
        moments = circuit._moments(ratios, weights / weights.sum(), n)
        blocks = 4
        stack = _initial_stack(kron_chain(ghz_state(n, (0,) * n).amplitudes, KET_PLUS, KET_PLUS),
                               n)
        lost: list = []
        tracemalloc.start()
        try:
            for photon in range(n):
                counted = circuit._step_bytes(len(stack), stack.amps.shape[1], blocks, n)
                before = tracemalloc.get_traced_memory()[0] - stack.amps.nbytes
                tracemalloc.reset_peak()
                stack = _photon_step(stack, photon, units, lost,
                                     scale=circuit._scale(moments, stack.fates))
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

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1]])
    def test_final_branches_checks_order_like_run_analyzer(self, order):
        # a repeated photon used to fail inside numpy, a missing one to leave
        # photon 2 IN_CIRCUIT in every returned branch
        for run in (run_analyzer, circuit_final_branches):
            with pytest.raises(ValueError, match="order must be a permutation"):
                run(ghz_state(3, (0, 0, 0)), AnalyzerConfig(), order=order)


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

    def test_sampler_keeps_d3_and_lost_children_alive(self):
        # D3 children and failed clicks (eta0 < 1) keep feeding photons; only
        # scattering loss ends a shot, so every sampled key must be an exact
        # record, and every likely one must land within 4 sigma of it
        shots = 20_000
        exhaustive = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=0.5, eta0=0.8)
        sampling = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=0.5, eta0=0.8,
                                  enumeration="monte-carlo", seed=11)
        photons = ghz_state(4, (0, 1, 1, 0))
        exact = {(r.fates, r.qd_readout): r.probability
                 for r in run_analyzer(photons, exhaustive)}
        sampled = {(r.fates, r.qd_readout): r.probability
                   for r in run_analyzer(photons, sampling, shots=shots)}
        assert any(PhotonFate.D3 in fates and qd is not None for fates, qd in exact)
        assert any(PhotonFate.LOST in fates and qd is not None for fates, qd in exact)
        for key in sampled:
            assert exact.get(key, 0.0) > 0.0, key
        for key, p in exact.items():
            if p > 1e-3:
                bound = 4.0 * np.sqrt(p * (1 - p) / shots)
                assert abs(sampled.get(key, 0.0) - p) <= bound, key

    @pytest.mark.parametrize("config", [
        AnalyzerConfig(mode="ideal", enumeration="monte-carlo", seed=3),
        AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=0.5, eta0=0.9,
                       enumeration="monte-carlo", seed=3),
        AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, eta0=0.9, enumeration="monte-carlo",
                       seed=3, spectrum=PulseSpectrum(omega_c=0.0, sigma=0.6)),
    ])
    def test_records_do_not_depend_on_the_budget(self, config, monkeypatch):
        # a group of 512 shots at n = 5 passes a 1 MB budget, so its rows are
        # carried in smaller parts; every shot keeps its own draws
        photons = ghz_state(5, (1, 0, 1, 1, 0))
        reference = run_analyzer(photons, config, shots=5000)
        assert circuit._step_bytes(circuit._SHOT_BLOCK // 128, 128, 2, 5) > 2 ** 20
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", 2 ** 20)
        assert list(run_analyzer(photons, config, shots=5000)) == list(reference)

    def test_memory_does_not_grow_with_shots(self):
        config = AnalyzerConfig(mode="ideal", enumeration="monte-carlo", seed=4)

        def peak(shots):
            tracemalloc.start()
            try:
                run_analyzer(bell_state("psi-"), config, shots=shots)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(100_000) - peak(10_000)) <= 2 ** 20

    ONE_NODE = {
        "ideal": AnalyzerConfig(mode="ideal", enumeration="monte-carlo", seed=6),
        "detuned": AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=1.5, eta0=0.9,
                                  enumeration="monte-carlo", seed=6),
        "no-clicks": AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=-0.8, eta0=0.0,
                                    enumeration="monte-carlo", seed=6),
    }
    PULSE = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, eta0=0.9,
                           enumeration="monte-carlo", seed=6,
                           spectrum=PulseSpectrum(omega_c=0.0, sigma=1.5))

    @staticmethod
    def one_row_per_shot(monkeypatch):
        """Copy every shot's row before each photon step, so no row is shared."""
        step = circuit._photon_step

        def per_shot(stack, photon, units, lost, held, scale, shots):
            u, owner, eta0 = shots
            return step(stack.select(owner), photon, units, lost, held, scale,
                        (u, np.arange(len(u)), eta0))

        monkeypatch.setattr(circuit, "_photon_step", per_shot)

    @pytest.mark.parametrize("kind", [*ONE_NODE, "pulse"])
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("shots", [4095, 4096, 4097])
    def test_shared_rows_give_the_records_of_one_row_per_shot(self, kind, n, shots, monkeypatch):
        # shots with the same history hold bit-identical rows, so sharing them
        # changes no weight, no draw and no count
        photons = ghz_state(n, tuple(np.random.default_rng(n).integers(0, 2, n).tolist()))
        config = self.ONE_NODE.get(kind, self.PULSE)
        shared = run_analyzer(photons, config, shots=shots)
        self.one_row_per_shot(monkeypatch)
        alone = run_analyzer(photons, config, shots=shots)
        assert np.array_equal(shared.digits, alone.digits)
        assert np.array_equal(shared.probs, alone.probs)

    @pytest.mark.parametrize("kind", ONE_NODE)
    def test_one_node_records_do_not_depend_on_the_shot_block(self, kind, monkeypatch):
        # one-node groups draw only uniforms, so their size leaves the stream as it is
        photons = ghz_state(4, (0, 1, 1, 0))
        reference = run_analyzer(photons, self.ONE_NODE[kind], shots=20_000)
        for block in (2 ** 12, 2 ** 18):
            monkeypatch.setattr(circuit, "_SHOT_BLOCK", block)
            got = run_analyzer(photons, self.ONE_NODE[kind], shots=20_000)
            assert list(got) == list(reference) and np.array_equal(got.probs, reference.probs)

    @pytest.mark.parametrize("kind", ONE_NODE)
    def test_one_node_steps_run_on_shared_rows(self, kind, monkeypatch):
        steps = []
        step = circuit._photon_step

        def counted(stack, *args):
            steps.append((len(stack), len(args[-1][0])))
            return step(stack, *args)

        monkeypatch.setattr(circuit, "_photon_step", counted)
        run_analyzer(ghz_state(6, (1, 0, 0, 1, 1, 0)), self.ONE_NODE[kind], shots=10_000)
        group = circuit._SHOT_BLOCK // 16
        firsts = [steps[i] for i in range(0, len(steps), 6)]  # one step per photon and group
        assert firsts == [(1, group), (1, group), (1, 10_000 - 2 * group)]
        assert all(rows <= live <= group for rows, live in steps)
        assert any(rows > 1 for rows, _ in steps)

    def test_one_node_budget_splits_rows_mid_run(self, monkeypatch):
        # the third photon's step on 28 shared rows passes the budget, and so
        # does its half; no row is refused, and no record moves
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=1.5, eta0=0.9,
                                enumeration="monte-carlo", seed=3)
        photons = ghz_state(8, (0, 1) * 4)
        reference = run_analyzer(photons, config, shots=4096)
        refused = []
        step = circuit._photon_step

        def counted(stack, *args):
            try:
                return step(stack, *args)
            except circuit._OverBudget:
                refused.append(len(stack))
                raise

        monkeypatch.setattr(circuit, "_photon_step", counted)
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", 700_000)
        got = run_analyzer(photons, config, shots=4096)
        assert refused and min(refused) > 1
        assert list(got) == list(reference) and np.array_equal(got.probs, reference.probs)



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
    """Two-photon Bell analysis is the n = 2 GHZ analysis, labels keyed by `bell_label`."""

    @staticmethod
    def bell_distribution(photons, config):
        return classification_distribution(run_analyzer(photons, config), 2)

    def test_table_distribution(self):
        for name in TABLE_BELL:
            dist = self.bell_distribution(bell_state(name), IDEAL)
            assert dist[str(bell_label(name))] == pytest.approx(1.0, abs=1e-12)

    def test_superposition_splits_evenly(self):
        amps = (bell_state("phi+").amplitudes + bell_state("psi+").amplitudes) / np.sqrt(2)
        dist = self.bell_distribution(QubitRegister(2, amps), IDEAL)
        assert dist[str(bell_label("phi+"))] == pytest.approx(0.5, abs=1e-12)
        assert dist[str(bell_label("psi+"))] == pytest.approx(0.5, abs=1e-12)

    def test_realistic_conclusive_matches_ideal_classification(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        for name in TABLE_BELL:
            dist = self.bell_distribution(bell_state(name), config)
            conclusive = sum(v for k, v in dist.items() if k != "inconclusive")
            assert dist.get(str(bell_label(name)), 0.0) == pytest.approx(conclusive, abs=1e-12)


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

    def test_negative_seed_rejected_when_sampling(self):
        config = AnalyzerConfig(enumeration="monte-carlo", seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_analyzer(ghz_state(2, (0, 1)), config, shots=5)
        assert len(run_analyzer(ghz_state(2, (0, 1)), replace(config, enumeration="exhaustive")))

    def test_omega_and_spectrum_exclusive(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0,
                           spectrum=PulseSpectrum(omega_c=0.0, sigma=0.3))

    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    def test_non_finite_omega_rejected(self, mode):
        with pytest.raises(ValueError, match="omega must be finite"):
            AnalyzerConfig(mode=mode, qnd1=STANDARD, omega=float("nan"))

    def test_classification_distribution_pools_inconclusive(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        records = run_analyzer(ghz_state(2, (0, 0)), config)
        dist = classification_distribution(records, 2)
        assert set(dist) == {"00", "inconclusive"}
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


class TestRecordArrays:
    """`Records.decoded` against the per-record rule of `oracles.reference_label`."""

    @staticmethod
    def config(kind: str) -> AnalyzerConfig:
        if kind == "ideal":
            return IDEAL
        if kind == "detuned":
            return AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=1.5, eta0=0.9)
        return AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, quad_nodes=8,
                              spectrum=PulseSpectrum(omega_c=0.0, sigma=0.6))

    @pytest.mark.parametrize("kind", ["ideal", "detuned", "pulse"])
    @pytest.mark.parametrize("n, superposed", [(n, False) for n in range(2, 8)]
                             + [(n, True) for n in range(2, 6)])
    def test_labels_distribution_and_conclusive_mass_match_per_record_code(
            self, n, superposed, kind):
        # a GHZ input has two conclusive records of equal probability; a random
        # superposition has many unequal ones, whose sum depends on its order
        # (up to n = 5, where its records stay in the low thousands)
        bits = tuple(np.random.default_rng(n).integers(0, 2, n).tolist())
        photons = random_register(n, n) if superposed else ghz_state(n, bits)
        records = run_analyzer(photons, self.config(kind))
        expected = [reference_label(r, n) for r in records]
        assert [classify(r, n) for r in records] == expected
        assert records.labels() == expected
        dist: dict = {}
        for r, label in zip(records, expected):
            key = "inconclusive" if label is None else str(label)
            dist[key] = dist.get(key, 0.0) + r.probability
        assert classification_distribution(records, n) == dict(sorted(dist.items()))
        assert list(classification_distribution(records, n)) == sorted(dist)
        reference = sum(r.probability for r, label in zip(records, expected)
                        if all(f in CONCLUSIVE_FATES for f in r.fates))
        assert conclusive_probability(records) == reference
        assert conclusive_probability(list(records)) == reference
        if kind != "ideal":  # D3 and LOST records are present and inconclusive
            assert any(label is None and r.qd_readout is not None for r, label
                       in zip(records, expected))

    def test_digits_do_not_depend_on_how_many_keys_unpack_at_once(self, monkeypatch):
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=1.0, eta0=0.9)
        photons = ghz_state(4, (0, 1, 1, 0))
        reference = run_analyzer(photons, config)
        monkeypatch.setattr(circuit, "_DIGIT_ROWS", 7)
        got = run_analyzer(photons, config)
        assert len(got) > 7 and got.digits.dtype == np.int8
        assert np.array_equal(got.digits, reference.digits)
        assert np.array_equal(got.probs, reference.probs)

    def test_records_are_views_of_the_arrays(self):
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, omega=1.0, eta0=0.9)
        records = run_analyzer(ghz_state(3, (0, 1, 1)), config)
        views = list(records)
        assert len(views) == len(records) == len(records.probs)
        assert records[0] == views[0] and records[-1] == views[-1]
        assert list(records[1:4]) == views[1:4] and list(records[::-2]) == views[::-2]
        assert [records[i] for i in range(len(records))] == views
        assert views == list(run_analyzer(ghz_state(3, (0, 1, 1)), config))
        assert all(type(r.probability) is float for r in views)
        assert {f for r in views for f in r.fates} == {PhotonFate.D1, PhotonFate.D2,
                                                      PhotonFate.D3, PhotonFate.LOST}


class TestCheckFits:
    def test_initial_rows_count_as_one_vector(self, monkeypatch):
        # a QD-less cavity sends every photon to D3, so rows x amplitudes stay
        # flat over the run: one node's rows fit where the 64 nodes' initial
        # rows counted as full copies would not
        dark = AnalyzerConfig(mode="realistic", quad_nodes=64,
                              qnd1=CavityQDParams.resonant(g=0.0, kappa=270.0,
                                                           kappa_s=30.0, gamma=0.3),
                              spectrum=PulseSpectrum(omega_c=0.0, sigma=0.6))
        photons = ghz_state(7, (0, 1, 0, 1, 1, 0, 1))
        reference = run_analyzer(photons, dark)
        dim = 4 * 2 ** 7
        budget = 400_000
        assert dim * 16 + circuit._step_bytes(1, dim, 2, 7) < budget < 64 * dim * 16
        monkeypatch.setattr(circuit, "MAX_STEP_BYTES", budget)
        circuit.check_fits(7)
        got = run_analyzer(photons, dark)  # in node groups, so sums differ in the last bits
        assert [(r.fates, r.qd_readout) for r in got] == \
            [(r.fates, r.qd_readout) for r in reference]
        np.testing.assert_allclose(got.probs, reference.probs, rtol=0, atol=1e-15)


def node_by_node(photons, config):
    """Pulse records as the sum over the Gauss-Hermite nodes of w_k / sqrt(pi) times
    the monochromatic records at each node's frequency: the one-node engine alone.
    Returns (record digits, probabilities), sorted as `run_analyzer` sorts them."""
    x, w = _hermite_nodes(config.quad_nodes)
    omegas = config.spectrum.omega_c + config.spectrum.sigma * x
    runs = [run_analyzer(photons, replace(config, spectrum=None, omega=omega))
            for omega in omegas.tolist()]
    digits = np.concatenate([r.digits for r in runs])
    probs = np.concatenate([weight * r.probs for weight, r in zip(w / np.sqrt(np.pi), runs)])
    _, first, index = np.unique(digits @ 5 ** np.arange(digits.shape[1] - 1, -1, -1),
                                return_index=True, return_inverse=True)
    return digits[first], np.bincount(index, weights=probs)


class TestPulseMoments:
    """A pulse run is one run with envelope units, its records weighed by node moments."""

    @pytest.mark.parametrize("n, eta0, sigma",
                             [(n, eta0, sigma) for n in range(2, 8) for eta0 in (1.0, 0.9)
                              for sigma in (0.6, 1.5)] + [(8, 1.0, 0.6)])
    def test_records_equal_the_node_by_node_sum(self, n, eta0, sigma):
        photons = ghz_state(n, tuple(np.random.default_rng(n).integers(0, 2, n).tolist()))
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, eta0=eta0, quad_nodes=8,
                                spectrum=PulseSpectrum(omega_c=0.0, sigma=sigma))
        got = run_analyzer(photons, config)
        digits, probs = node_by_node(photons, config)
        assert np.array_equal(got.digits, digits)  # the same records, in the same order
        assert np.abs(got.probs - probs).max() <= 1e-12
        assert math.fsum(got.probs.tolist()) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("eta0", [1.0, 0.9])
    def test_pruned_mass_keeps_the_sum(self, eta0, monkeypatch):
        # with PRUNE_TOL raised, pruned D3 children and clicks carry much of the
        # mass; each is weighed by its own moment, so the records still sum to 1
        monkeypatch.setattr(circuit, "PRUNE_TOL", 1e-3)
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, eta0=eta0,
                                spectrum=PulseSpectrum(omega_c=0.0, sigma=30.0))
        records = run_analyzer(ghz_state(5, (0, 1, 1, 0, 1)), config)
        assert math.fsum(records.probs.tolist()) == pytest.approx(1.0, abs=1e-13)

    def test_monte_carlo_shots_weigh_draws_at_their_own_frequency(self):
        # sigma = 30 ueV spans the cavity line, so each shot's flip, error and
        # loss probabilities lie far below its group's envelope
        shots = 20_000
        exhaustive = AnalyzerConfig(mode="realistic", qnd1=STANDARD, eta0=0.9,
                                    spectrum=PulseSpectrum(omega_c=0.0, sigma=30.0))
        sampling = replace(exhaustive, enumeration="monte-carlo", seed=12)
        photons = ghz_state(3, (0, 1, 1))
        exact = {(r.fates, r.qd_readout): r.probability
                 for r in run_analyzer(photons, exhaustive)}
        sampled = {(r.fates, r.qd_readout): r.probability
                   for r in run_analyzer(photons, sampling, shots=shots)}
        for key in sampled:
            assert exact.get(key, 0.0) > 0.0, key
        for key, p in exact.items():
            if p > 1e-3:
                assert abs(sampled.get(key, 0.0) - p) <= 4.0 * np.sqrt(p * (1 - p) / shots), key

    @pytest.mark.parametrize("enumeration", ["exhaustive", "monte-carlo"])
    def test_mismatched_units_are_refused(self, enumeration):
        # the envelope run needs one flip and one error amplitude per frequency
        config = AnalyzerConfig(mode="realistic", qnd1=TABLE_PARAMS, qnd2=STANDARD,
                                spectrum=PulseSpectrum(omega_c=0.0, sigma=0.6),
                                enumeration=enumeration)
        with pytest.raises(ValueError, match="qnd2 == qnd1"):
            run_analyzer(ghz_state(2, (0, 1)), config, shots=100)
