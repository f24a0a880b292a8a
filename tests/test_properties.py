"""Property tests of the branch engine over random inputs (hypothesis)."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim.circuit import (AnalyzerConfig, _initial_stack, _photon_step, _units, _with_spins,
                            conclusive_probability, run_analyzer)
from ghzsim.scattering import CavityQDParams, PulseSpectrum, ReflectionPair
from ghzsim.states import bell_state, ghz_state


@st.composite
def inputs(draw):
    """A Bell state or a GHZ state of 2 to 8 photons, and a feeding order."""
    if draw(st.booleans()):
        photons = bell_state(draw(st.sampled_from(["phi+", "phi-", "psi+", "psi-"])))
    else:
        n = draw(st.integers(2, 8))
        photons = ghz_state(n, tuple(draw(st.lists(st.integers(0, 1), min_size=n,
                                                   max_size=n))))
    return photons, draw(st.permutations(range(photons.num_qubits)))


@settings(max_examples=60, deadline=None)
@given(inputs())
def test_unit_amplitude_weights_are_powers_of_two(case):
    # with flip and error amplitudes 1 the run depends on no frequency: a
    # Clifford circuit with Pauli measurements on a stabilizer input, so every
    # row weight is 2^-k (a few ulps off, from the sqrt(1/2) products)
    photons, order = case
    unit = ReflectionPair(r0=0.0 + 0.0j, r1=2.0 + 0.0j)  # f = (r1 - r0)/2 = e = (r1 + r0)/2 = 1
    units, _ = _units(unit, unit)
    stack = _initial_stack(_with_spins(photons.amplitudes), photons.num_qubits)
    for photon in order:
        stack = _photon_step(stack, photon, units, [])
        exponents = np.log2(stack.weight)
        assert np.abs(exponents - np.round(exponents)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(inputs(), st.floats(0.0, 1.0), st.sampled_from(["ideal", "resonant", "detuned", "pulse"]))
def test_detector_efficiency_scales_the_conclusive_mass(case, eta0, kind):
    # a click fails independently of the scattering: the conclusive mass is
    # eta0^n times that of perfect detectors, and the records still sum to 1
    photons, order = case
    n = photons.num_qubits
    fig5 = CavityQDParams.resonant(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3)
    config = {"ideal": AnalyzerConfig(mode="ideal"),
              "resonant": AnalyzerConfig(mode="realistic", qnd1=fig5, omega=0.0),
              "detuned": AnalyzerConfig(mode="realistic", qnd1=fig5, omega=1.5),
              "pulse": AnalyzerConfig(mode="realistic", qnd1=fig5, quad_nodes=8,
                                      spectrum=PulseSpectrum(omega_c=0.0, sigma=0.6))}[kind]
    perfect = conclusive_probability(run_analyzer(photons, config, order=order))
    records = run_analyzer(photons, replace(config, eta0=eta0), order=order)
    assert conclusive_probability(records) == pytest.approx(eta0 ** n * perfect,
                                                            rel=1e-12, abs=1e-15)
    assert math.fsum(records.probs.tolist()) == pytest.approx(1.0, abs=1e-13)
