import itertools
import math

import numpy as np
import pytest

from ghzsim.states import (GhzLabel, NonEigenstateError, QubitRegister, bell_name,
                           bell_state, ghz_state, stabilizer_syndrome)
from oracles import (BELL_VECTORS, H, SQ2, X, Y, basis_state, ghz_vector, kron_chain,
                     op_on, stabilizer_matrices, up_to_phase)


def all_labels(n):
    return [GhzLabel(bits) for bits in itertools.product((0, 1), repeat=n)]


class TestConstruction:
    def test_basis_convention_msb_first(self):
        reg = basis_state(2, (1, 0))
        assert reg.amplitudes[0b10] == 1.0

    def test_ghz_2_00_is_phi_plus(self):
        np.testing.assert_allclose(ghz_state(2, (0, 0)).amplitudes,
                                   BELL_VECTORS["phi+"], atol=1e-15)

    def test_ghz_3_101(self):
        # sigma_x on photon 1 and sigma_z on photon 3: (|VHH> - |HVV>)/sqrt2
        expected = np.zeros(8, dtype=complex)
        expected[0b100] = SQ2
        expected[0b011] = -SQ2
        np.testing.assert_allclose(ghz_state(3, (1, 0, 1)).amplitudes, expected, atol=1e-15)

    def test_ghz_3_000(self):
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = expected[0b111] = SQ2
        np.testing.assert_allclose(ghz_state(3, (0, 0, 0)).amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_two_nonzero_amplitudes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(8):
            bits = tuple(int(b) for b in rng.integers(0, 2, n))
            amps = ghz_state(n, bits).amplitudes
            nonzero = np.flatnonzero(np.abs(amps) > 1e-15)
            assert len(nonzero) == 2
            np.testing.assert_allclose(np.abs(amps[nonzero]), SQ2, atol=1e-15)

    def test_matches_literal_pauli_string_oracle(self):
        for n in (2, 3, 4):
            for label in all_labels(n):
                np.testing.assert_allclose(ghz_state(n, label).amplitudes,
                                           ghz_vector(label.bits), atol=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            ghz_state(3, (0, 1))  # length mismatch
        with pytest.raises(ValueError):
            GhzLabel((0, 2))
        with pytest.raises(ValueError):
            GhzLabel((1,))
        with pytest.raises(ValueError):
            GhzLabel.from_string("01a")

    def test_bell_states_literal(self):
        for name, vec in BELL_VECTORS.items():
            np.testing.assert_allclose(bell_state(name).amplitudes, vec, atol=1e-15)

    def test_bell_orthogonality(self):
        assert bell_state("phi+").inner(bell_state("psi-")) == pytest.approx(0.0, abs=1e-15)

    def test_bell_name_round_trip(self):
        for name in BELL_VECTORS:
            assert bell_name(GhzLabel.from_string(str(bell_label_bits(name)))) == name

    def test_register_validation(self):
        with pytest.raises(ValueError):
            QubitRegister(2, np.zeros(3, dtype=complex))


def bell_label_bits(name):
    return {"phi+": "00", "phi-": "01", "psi+": "10", "psi-": "11"}[name]


class TestSingleQubitOps:
    def test_hadamard_all_on_ghz3_matrix_oracle(self):
        # one 8x8 matrix product vs a Hadamard on each photon in turn
        amps = ghz_state(3, (0, 0, 0)).amplitudes
        for q in range(3):
            amps = op_on(3, H, q) @ amps
        oracle = kron_chain(H, H, H) @ ghz_vector((0, 0, 0))
        np.testing.assert_allclose(amps, oracle, atol=1e-12)
        # (|HHH> + |HVV> + |VHV> + |VVH>)/2: the even-V-weight half
        expected = np.zeros(8, dtype=complex)
        expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
        np.testing.assert_allclose(amps, expected, atol=1e-12)


class TestGhzBasisStructure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_orthonormal_basis(self, n):
        mat = np.array([ghz_state(n, label).amplitudes for label in all_labels(n)])
        gram = mat @ mat.conj().T
        np.testing.assert_allclose(gram, np.eye(2 ** n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_second_form_of_label_operator(self, n):
        # X-string on all photons plus i^phase * sigma_y on the last one
        base = ghz_vector((0,) * n)
        for label in all_labels(n):
            mat = np.eye(2 ** n, dtype=complex)
            for j, b in enumerate(label.bits):
                if b:
                    mat = op_on(n, X, j) @ mat
            if label.phase_bit:
                mat = 1j * op_on(n, Y, n - 1) @ mat
            np.testing.assert_allclose(ghz_state(n, label).amplitudes, mat @ base,
                                       atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_hadamard_transform_structure(self, n):
        # after Hadamard on every photon: support only on V-weights matching the
        # phase bit parity, each component of magnitude 2^-(n-1)/2, sector
        # weights C(n, m) / 2^(n-1)
        rng = np.random.default_rng(n)
        labels = [tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(4)]
        labels += [(0,) * n, (0,) * (n - 1) + (1,)]
        hadamards = kron_chain(*[H] * n)
        for bits in labels:
            amps = hadamards @ ghz_state(n, bits).amplitudes
            weights = np.array([bin(i).count("1") for i in range(2 ** n)])
            live = np.abs(amps) > 1e-12
            assert np.all(weights[live] % 2 == bits[-1] % 2)
            np.testing.assert_allclose(np.abs(amps[live]), 2 ** (-(n - 1) / 2),
                                       atol=1e-12)
            for m in range(n + 1):
                sector = np.sum(np.abs(amps[weights == m]) ** 2)
                expected = math.comb(n, m) / 2 ** (n - 1) if m % 2 == bits[-1] else 0.0
                assert sector == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hadamard_round_trip(self, n):
        hadamards = kron_chain(*[H] * n)
        for label in all_labels(n):
            amps = ghz_state(n, label).amplitudes
            np.testing.assert_allclose(hadamards @ (hadamards @ amps), amps, atol=1e-12)


def closed_form_eigenvalues(bits):
    """S_1 -> (-1)^i_n; S_k -> (-1)^(i_{k-1}+i_k) for k <= n-1; S_n -> (-1)^i_{n-1}.

    The label operator carries no X on the last photon, so S_n anticommutes
    only through X_{n-1}; psi- (label 11, syndrome (-1, -1)) pins the k = n
    exponent to i_{n-1} alone.
    """
    n = len(bits)
    vals = [(-1) ** bits[-1]]
    for k in range(2, n):
        vals.append((-1) ** (bits[k - 2] ^ bits[k - 1]))
    vals.append((-1) ** bits[n - 2])
    return tuple(vals)


class TestStabilizerSyndrome:
    def test_all_plus_for_ghz_zero(self):
        for n in (2, 3, 5):
            syn = stabilizer_syndrome(ghz_state(n, (0,) * n))
            assert syn == (1,) * n

    def test_psi_minus(self):
        assert stabilizer_syndrome(bell_state("psi-")) == (-1, -1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_matrix_oracle_and_law(self, n):
        mats = stabilizer_matrices(n)
        for label in all_labels(n):
            reg = ghz_state(n, label)
            oracle = tuple(
                int(round(float(np.real(np.vdot(reg.amplitudes, m @ reg.amplitudes)))))
                for m in mats)
            syn = stabilizer_syndrome(reg)
            assert syn == oracle
            assert syn == closed_form_eigenvalues(label.bits)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_injective_over_basis(self, n):
        seen = {stabilizer_syndrome(ghz_state(n, label)) for label in all_labels(n)}
        assert len(seen) == 2 ** n

    def test_non_eigenstate_rejected(self):
        with pytest.raises(NonEigenstateError):
            stabilizer_syndrome(basis_state(2, (0, 0)))
        rng = np.random.default_rng(13)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        with pytest.raises(NonEigenstateError):
            stabilizer_syndrome(QubitRegister(3, amps / np.linalg.norm(amps)))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            stabilizer_syndrome(QubitRegister(2, np.array([1.0, 0, 0, 1.0])))


class TestPhaseComparison:
    def test_equal_up_to_global_phase(self):
        a = bell_state("psi-").amplitudes
        assert up_to_phase(a, -a)
        assert up_to_phase(a, 1j * a)
        assert not up_to_phase(a, bell_state("psi+").amplitudes)
