"""Passive multiphoton GHZ/Bell-state analyzer: scattering math, circuit, swapping, CLI."""

__version__ = "0.1.0"

from .circuit import (AnalyzerConfig, HybridState, OutcomeRecord, PhotonFate,
                      classification_distribution, classify, conclusive_probability,
                      final_branches, run_analyzer)
from .network import NetworkState, bell_swap, feed_photon, ghz_swap, make_network
from .scattering import (CavityQDParams, PulseSpectrum, QuadratureConvergenceError,
                         ReflectionPair, average_efficiency, cooperativity,
                         error_prob, eta1, fidelity_fn, loss_prob,
                         reflection_coeffs, scattering_time, spectral_density)
from .states import GhzLabel, QubitRegister, bell_state, ghz_state, stabilizer_syndrome

__all__ = [
    "AnalyzerConfig", "CavityQDParams", "GhzLabel", "HybridState",
    "NetworkState", "OutcomeRecord", "PhotonFate", "PulseSpectrum",
    "QuadratureConvergenceError", "QubitRegister", "ReflectionPair",
    "average_efficiency", "bell_state", "bell_swap", "classification_distribution",
    "classify", "conclusive_probability", "cooperativity", "error_prob", "eta1",
    "feed_photon", "fidelity_fn", "final_branches", "ghz_state", "ghz_swap", "loss_prob",
    "make_network", "reflection_coeffs", "run_analyzer", "scattering_time",
    "spectral_density", "stabilizer_syndrome",
]
