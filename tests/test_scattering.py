import math

import numpy as np
import pytest

from ghzsim import cli, scattering
from ghzsim.scattering import (MAX_QUAD_NODES, CavityQDParams, PulseSpectrum,
                               QuadratureConvergenceError, ReflectionPair,
                               _hermite_nodes, average_efficiency, cooperativity, error_prob,
                               eta1, fidelity_fn, loss_prob, reflection_coeffs,
                               scattering_time, spectral_density)
from oracles import legendre_average_efficiency, phase_damped_readout_product

# Exact rational reduction of the resonance formulas for
# (g, kappa, kappa_s, gamma) = (30, 90, 30, 0.3) ueV:
#   r0 = (ks - k)/(k + ks) = -1/2
#   r1 = 1 - (k*gamma/2) / ((k + ks)*gamma/4 + g^2) = 199/202
#   eta1 = ((r1 - r0)/2)^2 = 5625/10201,  p2 = ((r1 + r0)/2)^2 = 2401/40804
R1_FROZEN = 0.9851485148514851
ETA1_FROZEN = 0.551416527791393
P2_FROZEN = 0.05884227036565043

STANDARD = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
TABLE_PARAMS = CavityQDParams.resonant(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3)


def random_params(rng) -> CavityQDParams:
    return CavityQDParams(
        g=rng.uniform(0.0, 100.0), kappa=rng.uniform(1.0, 400.0),
        kappa_s=rng.uniform(0.0, 100.0), gamma=rng.uniform(0.0, 5.0),
        omega_c=rng.uniform(-5.0, 5.0), omega_x=rng.uniform(-5.0, 5.0))


class TestReflection:
    def test_empty_lossless_cavity_at_resonance(self):
        params = CavityQDParams.resonant(g=0.0, kappa=90.0, kappa_s=0.0, gamma=0.3)
        pair = reflection_coeffs(params, 0.0)
        assert pair.r0 == pytest.approx(-1.0, abs=1e-15)

    def test_kappa_three_kappa_s_resonance(self):
        params = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
        pair = reflection_coeffs(params, 0.0)
        assert pair.r0 == pytest.approx(-0.5, abs=1e-15)

    def test_r1_frozen_high_precision_value(self):
        pair = reflection_coeffs(STANDARD, 0.0)
        assert pair.r1.real == pytest.approx(R1_FROZEN, abs=1e-15)
        assert pair.r1.imag == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonfinite_omega(self):
        with pytest.raises(ValueError, match=r"^omega must be finite, got nan$"):
            reflection_coeffs(STANDARD, float("nan"))
        with pytest.raises(ValueError, match=r"^omega must be finite, got -inf$"):
            reflection_coeffs(STANDARD, float("-inf"))
        with pytest.raises(ValueError, match=r"^omega must be finite, got inf$"):
            reflection_coeffs(STANDARD, np.array([0.0, np.inf]))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CavityQDParams(g=30.0, kappa=0.0, kappa_s=30.0, gamma=0.3)
        with pytest.raises(ValueError):
            CavityQDParams(g=-1.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
        with pytest.raises(ValueError):
            CavityQDParams(g=float("nan"), kappa=90.0, kappa_s=30.0, gamma=0.3)

    def test_magnitudes_bounded_by_one(self):
        rng = np.random.default_rng(7)
        omegas = np.linspace(-500.0, 500.0, 401)
        for _ in range(50):
            pair = reflection_coeffs(random_params(rng), omegas)
            assert np.all(np.abs(pair.r0) <= 1.0 + 1e-12)
            assert np.all(np.abs(pair.r1) <= 1.0 + 1e-12)

    def test_vectorized_matches_scalar(self):
        omegas = np.array([-3.0, 0.0, 11.5])
        pair = reflection_coeffs(STANDARD, omegas)
        for i, w in enumerate(omegas):
            single = reflection_coeffs(STANDARD, float(w))
            assert pair.r0[i] == pytest.approx(single.r0, abs=1e-15)
            assert pair.r1[i] == pytest.approx(single.r1, abs=1e-15)


class TestCooperativity:
    def test_c_25(self):
        assert cooperativity(STANDARD) == pytest.approx(25.0, abs=1e-12)

    def test_zero_coupling(self):
        params = CavityQDParams.resonant(g=0.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
        assert cooperativity(params) == 0.0

    def test_c_10(self):
        assert cooperativity(TABLE_PARAMS) == pytest.approx(10.0, abs=1e-12)

    def test_rejects_zero_gamma(self):
        params = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.0)
        with pytest.raises(ValueError):
            cooperativity(params)


class TestPerPhotonProbabilities:
    def test_eta1_ideal_limit(self):
        # gamma = 0 makes r1 exactly +1 at resonance; kappa_s = 0 makes r0 = -1
        params = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=0.0, gamma=0.0)
        assert eta1(params, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert error_prob(params, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_eta1_no_emitter(self):
        params = CavityQDParams.resonant(g=0.0, kappa=90.0, kappa_s=0.0, gamma=0.3)
        assert eta1(params, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self):
        assert eta1(STANDARD, 0.0) == pytest.approx(ETA1_FROZEN, abs=1e-15)
        assert error_prob(STANDARD, 0.0) == pytest.approx(P2_FROZEN, abs=1e-15)

    def test_error_prob_equals_r0_squared_when_coupling_off(self):
        # g = 0 forces r1 = r0, so p2 = |r0|^2 at any detuning
        params = CavityQDParams.resonant(g=0.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
        for omega in (-40.0, 0.0, 3.7, 150.0):
            pair = reflection_coeffs(params, omega)
            assert pair.r1 == pytest.approx(pair.r0, abs=1e-15)
            assert error_prob(params, omega) == pytest.approx(abs(pair.r0) ** 2, rel=1e-13)

    def test_eta1_plus_p2_within_unit_interval(self):
        rng = np.random.default_rng(11)
        omegas = np.linspace(-400.0, 400.0, 801)
        for _ in range(40):
            params = random_params(rng)
            total = eta1(params, omegas) + error_prob(params, omegas)
            assert np.all(total <= 1.0 + 1e-12)
            assert np.all(total >= -1e-12)
            assert np.all(loss_prob(params, omegas) >= -1e-12)


class TestSpectralDensity:
    SPEC = PulseSpectrum(omega_c=2.0, sigma=0.7)

    def test_normalization_by_quadrature(self):
        # independent Gauss-Legendre integration over +/- 15 sigma
        x, w = np.polynomial.legendre.leggauss(200)
        span = 15.0 * self.SPEC.sigma
        omega = self.SPEC.omega_c + span * x
        integral = float(np.sum(w * span * spectral_density(self.SPEC, omega)))
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_peak_value(self):
        expected = 1.0 / (math.sqrt(math.pi) * self.SPEC.sigma)
        assert spectral_density(self.SPEC, self.SPEC.omega_c) == pytest.approx(expected, rel=1e-14)

    def test_one_sigma_ratio(self):
        ratio = (spectral_density(self.SPEC, self.SPEC.omega_c + self.SPEC.sigma)
                 / spectral_density(self.SPEC, self.SPEC.omega_c))
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            PulseSpectrum(omega_c=0.0, sigma=0.0)


class TestAverageEfficiency:
    def test_fig4_spot_n2(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.3)
        assert average_efficiency(STANDARD, spec, 2) == pytest.approx(0.304, abs=0.006)

    def test_table_spot_n2(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        assert average_efficiency(TABLE_PARAMS, spec, 2) == pytest.approx(0.5893, rel=0.02)

    def test_wide_cavity_spot_n3(self):
        params = CavityQDParams.resonant(g=30.0, kappa=570.0, kappa_s=30.0, gamma=0.3)
        spec = PulseSpectrum(omega_c=0.0, sigma=0.3)
        assert average_efficiency(params, spec, 3) == pytest.approx(0.541, rel=0.02)

    def test_matches_legendre_oracle(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        for n in (1, 2, 3, 8, 20):
            mine = average_efficiency(TABLE_PARAMS, spec, n)
            ref = legendre_average_efficiency(reflection_coeffs, TABLE_PARAMS,
                                              spec.omega_c, spec.sigma, n)
            assert mine == pytest.approx(ref, abs=1e-8)

    def test_detuned_center_matches_oracle(self):
        spec = PulseSpectrum(omega_c=1.3, sigma=0.45)
        mine = average_efficiency(STANDARD, spec, 3)
        ref = legendre_average_efficiency(reflection_coeffs, STANDARD,
                                          spec.omega_c, spec.sigma, 3)
        assert mine == pytest.approx(ref, abs=1e-8)

    def test_monotone_nonincreasing_in_n(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        values = [average_efficiency(TABLE_PARAMS, spec, n) for n in range(1, 21)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_node_doubling_stability(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        for n in range(1, 21):
            a = average_efficiency(TABLE_PARAMS, spec, n, nodes=64)
            b = average_efficiency(TABLE_PARAMS, spec, n, nodes=128)
            assert abs(a - b) < 1e-8

    def test_detector_efficiency_factor(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        full = average_efficiency(TABLE_PARAMS, spec, 3)
        dimmed = average_efficiency(TABLE_PARAMS, spec, 3, eta0=0.5)
        assert dimmed == pytest.approx(0.5 ** 3 * full, rel=1e-12)

    def test_non_convergent_quadrature_reported(self):
        # a pulse hundreds of linewidths wide is hopeless for 2 nodes
        spec = PulseSpectrum(omega_c=0.0, sigma=60.0)
        with pytest.raises(QuadratureConvergenceError):
            average_efficiency(TABLE_PARAMS, spec, 2, nodes=2)

    def test_input_validation(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        with pytest.raises(ValueError):
            average_efficiency(TABLE_PARAMS, spec, 0)
        with pytest.raises(ValueError):
            average_efficiency(TABLE_PARAMS, spec, 2, eta0=1.5)
        for nodes in (0, MAX_QUAD_NODES // 2 + 1):
            with pytest.raises(ValueError):
                average_efficiency(TABLE_PARAMS, spec, 2, nodes=nodes)

    def test_nan_delta_fails_convergence(self, monkeypatch):
        x, w = np.polynomial.hermite.hermgauss(8)
        monkeypatch.setattr(scattering, "_hermite_nodes",
                            lambda nodes: (x, np.full_like(w, np.nan)))
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        with pytest.raises(QuadratureConvergenceError, match="by nan"):
            average_efficiency(TABLE_PARAMS, spec, 2)

    def test_array_params_match_point_by_point(self):
        # 5 x 9 points cross the block boundary at 4096 // (2 * 64) = 32 points
        g = np.linspace(0.0, 120.0, 5)[:, None] * np.ones(9)
        kappa = np.ones(5)[:, None] * np.geomspace(30.0, 900.0, 9)
        grid = CavityQDParams.resonant(g=g, kappa=kappa, kappa_s=30.0, gamma=0.3)
        spec = PulseSpectrum(omega_c=0.2, sigma=0.3)
        values = average_efficiency(grid, spec, 3, eta0=0.9)
        assert values.shape == (5, 9)
        for i, j in np.ndindex(5, 9):
            point = CavityQDParams.resonant(g=g[i, j], kappa=kappa[i, j],
                                            kappa_s=30.0, gamma=0.3)
            assert values[i, j] == average_efficiency(point, spec, 3, eta0=0.9)

    @pytest.mark.parametrize("eta0", [1.0, 0.9])
    @pytest.mark.parametrize("counts", [[2, 3, 4, 5, 6, 7, 8, 20], [20, 2, 7, 2, 1], [5]])
    def test_count_sequence_equals_single_calls(self, counts, eta0):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        values = average_efficiency(TABLE_PARAMS, spec, counts, eta0=eta0)
        assert values == [average_efficiency(TABLE_PARAMS, spec, n, eta0=eta0)
                          for n in counts]
        assert all(type(v) is float for v in values)

    def test_count_sequence_on_grid_equals_single_calls(self):
        # 5 x 9 points cross the block boundary at 4096 // (2 * 64) = 32 points
        g = np.linspace(0.0, 120.0, 5)[:, None] * np.ones(9)
        kappa = np.ones(5)[:, None] * np.geomspace(30.0, 900.0, 9)
        grid = CavityQDParams.resonant(g=g, kappa=kappa, kappa_s=30.0, gamma=0.3)
        spec = PulseSpectrum(omega_c=0.2, sigma=0.3)
        counts = [8, 2, 3, 2]
        values = average_efficiency(grid, spec, counts, eta0=0.9)
        assert len(values) == len(counts)
        for n, value in zip(counts, values):
            single = average_efficiency(grid, spec, n, eta0=0.9)
            assert value.shape == (5, 9)
            assert np.array_equal(value, single)

    def test_empty_count_sequence(self):
        spec = PulseSpectrum(omega_c=0.0, sigma=0.6)
        assert average_efficiency(TABLE_PARAMS, spec, []) == []

    @pytest.mark.parametrize("sigma, nodes, counts", [
        (20.0, 4, [20, 8, 2]), (20.0, 4, [2, 8, 20]), (60.0, 2, [2, 0]),
        (0.6, 64, [2, 0, 3]), (0.6, 64, [0, 2]), (20.0, 4, [0, 2])])
    def test_count_sequence_fails_as_the_first_failing_count(self, sigma, nodes, counts):
        spec = PulseSpectrum(omega_c=0.0, sigma=sigma)
        for n in counts:  # the loop of single calls
            try:
                average_efficiency(TABLE_PARAMS, spec, n, nodes=nodes)
            except (QuadratureConvergenceError, ValueError) as exc:
                expected = exc
                break
        with pytest.raises(type(expected)) as caught:
            average_efficiency(TABLE_PARAMS, spec, counts, nodes=nodes)
        assert type(caught.value) is type(expected)
        assert str(caught.value) == str(expected)

    def test_failing_counts_give_their_own_messages(self):
        # the cases above check list order only if the counts fail differently;
        # n = 20 converges there, n = 8 and n = 2 do not
        spec = PulseSpectrum(omega_c=0.0, sigma=20.0)
        average_efficiency(TABLE_PARAMS, spec, 20, nodes=4)
        messages = set()
        for n in (8, 2):
            with pytest.raises(QuadratureConvergenceError) as caught:
                average_efficiency(TABLE_PARAMS, spec, n, nodes=4)
            messages.add(str(caught.value))
        assert len(messages) == 2

    @pytest.mark.parametrize("n_list", [None, "2", "20,2,2", "2,3,4,5,6,7,8,20"])
    def test_table1_evaluates_reflection_once_per_rule(self, n_list, monkeypatch, capsys):
        sizes = []
        original = scattering.reflection_coeffs

        def counted(params, omega):
            sizes.append(np.size(omega))
            return original(params, omega)

        monkeypatch.setattr(scattering, "reflection_coeffs", counted)
        argv = ["table1", "--config", "paper_fig5"]
        assert cli.main(argv + ([] if n_list is None else ["--n-list", n_list])) == 0
        capsys.readouterr()
        assert sizes == [64, 128]

    def test_array_params_validated_per_point(self):
        with pytest.raises(ValueError, match="g must be finite, got inf"):
            CavityQDParams.resonant(g=np.array([1.0, np.inf]), kappa=np.array([1.0, 2.0]),
                                    kappa_s=1.0, gamma=1.0)
        with pytest.raises(ValueError, match="kappa must be > 0"):
            CavityQDParams.resonant(g=np.array([1.0, 2.0]), kappa=np.array([1.0, 0.0]),
                                    kappa_s=1.0, gamma=1.0)


class TestHermiteNodes:
    def test_cached_and_read_only(self):
        x, w = _hermite_nodes(16)
        assert _hermite_nodes(16)[0] is x and _hermite_nodes(16)[1] is w
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_refuses_counts_outside_cap(self):
        for nodes in (-1, 0, MAX_QUAD_NODES + 1, 2 * MAX_QUAD_NODES):
            with pytest.raises(ValueError):
                _hermite_nodes(nodes)

    def test_largest_rule_is_finite(self):
        x, w = _hermite_nodes(MAX_QUAD_NODES)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert w.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-12)


class TestFidelity:
    SPEC = PulseSpectrum(omega_c=0.0, sigma=0.6)

    def test_scattering_time(self):
        assert scattering_time(self.SPEC) == pytest.approx(1.0970199281666668, rel=1e-14)

    def test_infinite_coherence(self):
        assert fidelity_fn(5, math.inf, self.SPEC) == 1.0

    def test_n2_short_coherence(self):
        assert fidelity_fn(2, 10.9, self.SPEC) == pytest.approx(0.826, rel=0.01)

    def test_n8_long_coherence(self):
        assert fidelity_fn(8, 2000.0, self.SPEC) == pytest.approx(0.9956, rel=0.001)

    def test_matches_phase_damping_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            t2 = float(rng.uniform(0.5, 5000.0))
            spec = PulseSpectrum(omega_c=0.0, sigma=float(rng.uniform(0.05, 5.0)))
            expected = phase_damped_readout_product(n * scattering_time(spec), t2)
            assert fidelity_fn(n, t2, spec) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fidelity_fn(0, 10.0, self.SPEC)
        with pytest.raises(ValueError):
            fidelity_fn(2, 0.0, self.SPEC)


class TestReflectionPair:
    def test_ideal(self):
        pair = ReflectionPair.ideal()
        assert pair.flip_amplitude() == pytest.approx(1.0)
        assert pair.error_amplitude() == pytest.approx(0.0)
