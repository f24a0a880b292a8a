"""Property tests of the branch engine over random inputs (hypothesis)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim.circuit import _initial_stack, _photon_step, _units, _with_spins
from ghzsim.scattering import ReflectionPair
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
        stack = _photon_step(stack, photon, units, 1.0, [])
        exponents = np.log2(stack.weight)
        assert np.abs(exponents - np.round(exponents)).max() <= 1e-12
