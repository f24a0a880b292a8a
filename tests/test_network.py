import itertools
from dataclasses import replace

import numpy as np
import pytest

from ghzsim import circuit
from ghzsim.circuit import AnalyzerConfig, PhotonFate, run_analyzer
from ghzsim.network import bell_swap, feed_photon, ghz_swap, make_network
from ghzsim.scattering import CavityQDParams, PulseSpectrum, error_prob, eta1
from ghzsim.states import GhzLabel, bell_name, fidelity, ghz_state
from oracles import (BELL_VECTORS, SQ2, assembled, basis_state, expected_phi0,
                     expected_phi1, expected_phi2, expected_phi3, full_layout,
                     reduced_single_qubit, swap_views, up_to_phase)

IDEAL = AnalyzerConfig(mode="ideal")
STANDARD = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
FIG5 = CavityQDParams.resonant(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3)


class TestMakeNetwork:
    def test_pair_state(self):
        # (|up,H> + |down,V>)/sqrt2 per pair, spins first, then both QDs in |+>
        pair = np.array([[SQ2, 0.0], [0.0, SQ2]])  # (spin, photon)
        plus = np.array([SQ2, SQ2])
        expected = np.einsum("ab,cd,e,f->acbdef", pair, pair, plus, plus).reshape(-1)
        np.testing.assert_array_equal(assembled(make_network(2)), expected)

    def test_matches_ghz_sum_decomposition(self):
        state = make_network(3)
        np.testing.assert_allclose(assembled(state), expected_phi0(), atol=1e-12)

    def test_schmidt_rank_two_pairs(self):
        state = make_network(2)
        mat = assembled(state).reshape(4, 16)  # spins vs photons + QDs
        svals = np.linalg.svd(mat, compute_uv=False)
        assert np.sum(svals > 1e-12) == 4
        np.testing.assert_allclose(svals[:4], 0.5, atol=1e-12)

    def test_reduced_remote_spin_maximally_mixed(self):
        state = make_network(3)
        for spin in range(3):
            rho = reduced_single_qubit(assembled(state), 8, spin)
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            make_network(4)


class TestFeedPhoton:
    def test_phi1_term_by_term(self):
        state = feed_photon(make_network(3), 0, IDEAL)
        np.testing.assert_allclose(assembled(state), expected_phi1(), atol=1e-12)

    def test_phi2_term_by_term(self):
        state = feed_photon(feed_photon(make_network(3), 0, IDEAL), 1, IDEAL)
        np.testing.assert_allclose(assembled(state), expected_phi2(), atol=1e-12)

    def test_phi3_term_by_term(self):
        state = make_network(3)
        for photon in range(3):
            state = feed_photon(state, photon, IDEAL)
        np.testing.assert_allclose(assembled(state), expected_phi3(), atol=1e-12)

    def test_double_feed_rejected(self):
        state = feed_photon(make_network(2), 0, IDEAL)
        with pytest.raises(ValueError):
            feed_photon(state, 0, IDEAL)

    def test_spectrum_rejected(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD,
                                spectrum=PulseSpectrum(omega_c=0.0, sigma=0.3))
        with pytest.raises(ValueError):
            feed_photon(make_network(2), 0, config)

    def test_sampled_enumeration_rejected(self):
        config = AnalyzerConfig(enumeration="monte-carlo", seed=5)
        with pytest.raises(ValueError, match="exhaustive enumeration"):
            feed_photon(make_network(2), 0, config)

    def test_realistic_d3_probability_per_photon(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.9)
        state = feed_photon(make_network(3), 0, config)
        d3 = sum(br.weight for br in state.branches
                 if br.fates[0] is PhotonFate.D3)
        assert d3 == pytest.approx(error_prob(STANDARD, 0.9), abs=1e-12)
        total = (sum(br.weight for br in state.branches)
                 + sum(w.sum() for _, w in state.lost))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_no_signaling_on_unfed_spins(self):
        for config in (IDEAL,
                       AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)):
            state = feed_photon(make_network(3), 0, config)
            for br in state.branches:
                norm = np.sqrt(br.weight)
                for spin in (1, 2):  # remote spins with unfed photons
                    rho = reduced_single_qubit(full_layout(br) / norm, 8, spin)
                    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


class TestBellSwap:
    def outcomes_by_key(self, outcomes):
        return {(tuple(c.value for c in o.clicks), o.qd_readout): o for o in outcomes}

    def run_two_pair(self, config=IDEAL):
        state = make_network(2)
        state = feed_photon(state, 0, config)
        state = feed_photon(state, 1, config)
        return swap_views(bell_swap(state))

    def test_eight_uniform_conclusive_outcomes(self):
        outcomes = self.run_two_pair()
        conclusive = [o for o in outcomes if o.remote_state is not None]
        assert len(conclusive) == 8
        for o in conclusive:
            assert o.probability == pytest.approx(1.0 / 8.0, abs=1e-12)
            assert o.predicted is not None
            target = ghz_state(2, o.predicted)
            assert fidelity(target, o.remote_state) == pytest.approx(1.0, abs=1e-12)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_hh_plus_plus_gives_phi_plus(self):
        got = self.outcomes_by_key(self.run_two_pair())[(("D1", "D1"), ("+", "+"))]
        assert bell_name(got.predicted) == "phi+"
        np.testing.assert_allclose(np.abs(np.vdot(got.remote_state.amplitudes,
                                                  BELL_VECTORS["phi+"])), 1.0, atol=1e-12)

    def test_vh_minus_minus_gives_psi_minus_up_to_phase(self):
        got = self.outcomes_by_key(self.run_two_pair())[(("D2", "D1"), ("-", "-"))]
        assert bell_name(got.predicted) == "psi-"
        assert up_to_phase(got.remote_state.amplitudes, BELL_VECTORS["psi-"])

    def test_three_pair_network_with_unfed_c(self):
        # a Bell swap takes a two-pair network only, as a GHZ swap a three-pair one
        state = make_network(3)
        state = feed_photon(state, 0, IDEAL)
        state = feed_photon(state, 1, IDEAL)
        with pytest.raises(ValueError, match="two-pair network"):
            bell_swap(state)

    def test_realistic_conclusive_outcomes_stay_perfect(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        outcomes = self.run_two_pair(config)
        conclusive = [o for o in outcomes if o.remote_state is not None]
        assert len(conclusive) == 8
        success = sum(o.probability for o in conclusive)
        assert success == pytest.approx(eta1(STANDARD, 0.0) ** 2, abs=1e-12)
        for o in conclusive:
            target = ghz_state(2, o.predicted)
            assert fidelity(target, o.remote_state) == pytest.approx(1.0, abs=1e-12)

    def test_every_photon_lost(self):
        # r0 = r1 = 0: the first photon leaks out, no branch is left to swap
        dark = CavityQDParams.resonant(g=0.0, kappa=30.0, kappa_s=30.0, gamma=0.3)
        outcomes = self.run_two_pair(AnalyzerConfig(mode="realistic", qnd1=dark, omega=0.0))
        assert [(o.clicks, o.remote_state) for o in outcomes] \
            == [((PhotonFate.LOST, PhotonFate.LOST), None)]
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_photons_fed_at_their_own_detector_efficiency(self):
        # each photon's clicks thin by the efficiency it was fed with; a failed
        # click changes the heralded mass, not the remote state
        state = make_network(2)
        state = feed_photon(state, 0, AnalyzerConfig(mode="ideal", eta0=0.9))
        state = feed_photon(state, 1, AnalyzerConfig(mode="ideal", eta0=0.5))
        assert state.fed == (0.9, 0.5)
        outcomes = swap_views(bell_swap(state))
        heralded = [o for o in outcomes if o.remote_state is not None]
        assert len(heralded) == 8
        assert sum(o.probability for o in heralded) == pytest.approx(0.45, abs=1e-15)
        for o in heralded:
            assert fidelity(ghz_state(2, o.predicted), o.remote_state) \
                == pytest.approx(1.0, abs=1e-12)
        for o in outcomes:
            if o.remote_state is None:  # aborted before the QD readout
                assert PhotonFate.LOST in o.clicks and o.qd_readout is None
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-14)

    def test_wrong_fed_count_rejected(self):
        state = feed_photon(make_network(2), 0, IDEAL)
        with pytest.raises(ValueError):
            bell_swap(state)


class TestGhzSwap:
    def run_three_pair(self, config=IDEAL):
        state = make_network(3)
        for photon in range(3):
            state = feed_photon(state, photon, config)
        return swap_views(ghz_swap(state))

    def test_sixteen_uniform_outcomes_fidelity_one(self):
        outcomes = self.run_three_pair()
        conclusive = [o for o in outcomes if o.remote_state is not None]
        assert len(conclusive) == 16
        for o in conclusive:
            assert o.probability == pytest.approx(1.0 / 16.0, abs=1e-12)
            target = ghz_state(3, o.predicted)
            assert fidelity(target, o.remote_state) == pytest.approx(1.0, abs=1e-12)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_qd_pairs_follow_odd_parity(self):
        outcomes = self.run_three_pair()
        pairs = {o.qd_readout for o in outcomes if o.qd_readout is not None}
        assert pairs == {("+", "-"), ("-", "+")}

    def test_heralded_label_matches_tomography(self):
        # the label inferred from clicks must equal the label of the actual
        # remote state found by overlap against the full GHZ basis
        for o in self.run_three_pair():
            if o.remote_state is None:
                continue
            overlaps = {bits: fidelity(ghz_state(3, GhzLabel(bits)), o.remote_state)
                        for bits in [(i, j, k) for i in (0, 1) for j in (0, 1)
                                     for k in (0, 1)]}
            best = max(overlaps, key=overlaps.get)
            assert GhzLabel(best) == o.predicted
            assert overlaps[best] == pytest.approx(1.0, abs=1e-12)

    def test_realistic_success_probability(self):
        config = AnalyzerConfig(mode="realistic", qnd1=STANDARD, omega=0.0)
        outcomes = self.run_three_pair(config)
        conclusive = [o for o in outcomes if o.remote_state is not None]
        success = sum(o.probability for o in conclusive)
        assert success == pytest.approx(eta1(STANDARD, 0.0) ** 3, abs=1e-12)
        for o in conclusive:
            assert fidelity(ghz_state(3, o.predicted), o.remote_state) \
                == pytest.approx(1.0, abs=1e-12)
        # inconclusive branches are aborted: reported without QD measurement
        aborted = [o for o in outcomes if o.remote_state is None]
        assert aborted
        for o in aborted:
            assert o.qd_readout is None
            assert o.predicted is None
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_requires_three_pairs(self):
        state = make_network(2)
        state = feed_photon(state, 0, IDEAL)
        state = feed_photon(state, 1, IDEAL)
        with pytest.raises(ValueError):
            ghz_swap(state)


class TestSwapMatchesAnalyzer:
    """The hub photons of m hybrid pairs are maximally mixed, so the swap's
    click/QD statistics are the analyzer's averaged over the 2^m basis inputs."""

    @pytest.mark.parametrize("eta0", [1.0, 0.9, 0.5])
    @pytest.mark.parametrize("realistic", [False, True], ids=["ideal", "fig5"])
    @pytest.mark.parametrize("pairs", [2, 3])
    def test_outcome_probabilities(self, pairs, realistic, eta0):
        config = (AnalyzerConfig(mode="realistic", qnd1=FIG5, omega=1.3, eta0=eta0)
                  if realistic else AnalyzerConfig(mode="ideal", eta0=eta0))
        state = make_network(pairs)
        for photon in range(pairs):
            state = feed_photon(state, photon, config)
        outcomes = swap_views(bell_swap(state) if pairs == 2 else ghz_swap(state))
        keys = [(tuple(c.value for c in o.clicks), o.qd_readout or ()) for o in outcomes]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(o.probability > 0.0 for o in outcomes)
        for o in outcomes:
            if o.remote_state is not None:
                assert np.linalg.norm(o.remote_state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        swap = {}
        for o in outcomes:
            key = (o.clicks, o.qd_readout)
            swap[key] = swap.get(key, 0.0) + o.probability
        assert sum(swap.values()) == pytest.approx(1.0, abs=1e-12)

        analyzer = {}
        for bits in itertools.product((0, 1), repeat=pairs):
            for r in run_analyzer(basis_state(pairs, bits), config):
                # the swap aborts inconclusive runs before the QD readout
                key = (r.fates, r.qd_readout if r.conclusive else None)
                analyzer[key] = analyzer.get(key, 0.0) + r.probability / 2 ** pairs
        assert any(k[1] is None for k in swap) == (realistic or eta0 < 1.0)
        for key in set(swap) | set(analyzer):
            assert swap.get(key, 0.0) == pytest.approx(analyzer.get(key, 0.0), abs=1e-12), key


def swap(pairs, config):
    state = make_network(pairs)
    for photon in range(pairs):
        state = feed_photon(state, photon, config)
    return bell_swap(state) if pairs == 2 else ghz_swap(state)


def expand(column):
    """A (values, index) column as one value per row."""
    values, index = column
    return [values[k] for k in index.tolist()]


SWAP_CONFIGS = {
    "ideal": dict(mode="ideal"),
    "fig5": dict(mode="realistic", qnd1=FIG5, omega=0.0),
    "fig5-detuned": dict(mode="realistic", qnd1=FIG5, omega=1.7),
}


class TestSwapOutcomes:
    """`bell_swap` and `ghz_swap` return the records and remote states as arrays; their
    columns hold the same values as the outcomes read one at a time from those arrays
    (`oracles.swap_views`), fidelity included."""

    @pytest.mark.parametrize("eta0", [1.0, 0.9, 0.5, 0.0])
    @pytest.mark.parametrize("kind", list(SWAP_CONFIGS))
    @pytest.mark.parametrize("pairs", [2, 3])
    def test_columns_equal_the_views(self, pairs, kind, eta0):
        outcomes = swap(pairs, AnalyzerConfig(eta0=eta0, **SWAP_CONFIGS[kind]))
        clicks, qd, probability, predicted, fid = map(expand, outcomes.columns())
        views = swap_views(outcomes)
        assert clicks == ["/".join(c.value for c in o.clicks) for o in views]
        assert qd == ["".join(o.qd_readout or ()) for o in views]
        assert probability == [o.probability for o in views]
        name = bell_name if pairs == 2 else str
        assert predicted == ["inconclusive" if o.predicted is None else name(o.predicted)
                             for o in views]
        # the closed form gives the same float as states.fidelity, to the last bit
        assert fid == ["" if o.predicted is None
                       else fidelity(ghz_state(pairs, o.predicted), o.remote_state)
                       for o in views]
        assert (fid.count("") == len(fid)) == (eta0 == 0.0)

    @pytest.mark.parametrize("pairs", [2, 3])
    def test_one_remote_row_per_heralded_record(self, pairs):
        outcomes = swap(pairs, AnalyzerConfig(eta0=0.9, **SWAP_CONFIGS["fig5-detuned"]))
        assert len(outcomes) == len(outcomes.records) > 0
        heralded = [r for r in outcomes.records if r.qd_readout is not None]
        assert heralded and len(heralded) == len(outcomes.remote)
        np.testing.assert_allclose(np.linalg.norm(outcomes.remote, axis=1), 1.0, atol=1e-12)


def test_matched_units_scatter_once_per_config(monkeypatch):
    # one reflection evaluation serves both detectors and every photon fed with the config
    calls = []
    real = circuit.reflection_coeffs
    monkeypatch.setattr(circuit, "reflection_coeffs",
                        lambda params, omega: calls.append(params) or real(params, omega))
    config = AnalyzerConfig(mode="realistic", qnd1=FIG5, omega=1.7)
    swap(3, config)
    swap(2, config)
    assert calls == [FIG5]
    other = replace(FIG5, g=31.0)
    one, two = AnalyzerConfig(mode="realistic", qnd1=FIG5, qnd2=other,
                              omega=1.7).reflection_pairs()
    assert calls == [FIG5, FIG5, other]
    assert (one, two) == (real(FIG5, 1.7), real(other, 1.7))
