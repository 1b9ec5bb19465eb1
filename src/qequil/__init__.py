"""Desk-scale numerics for equilibration of closed quantum systems.

Spectral window statistics, eigenbasis dynamics, measurement
distinguishability, Lorentzian-averaged purity bounds, Haar-measurement
ensembles, and slow-equilibration snapshot constructions, with a CLI for
reproducible seeded experiments.
"""

from .spectra import (EnergySpectrum, LevelDistribution, max_gaps_in_window,
                      max_window_probability, max_window_probability_window,
                      spectrum_from_hermitian)
from .states import (EquilibriumState, QuantumState, dephase, effective_dimension,
                     energy_moments, evolve, level_distribution, purity)
from .measure import Measurement, Projector, distinguishability, two_outcome
from .averaging import TimeGrid, lorentzian_purity, lorentzian_state, time_average
from .bounds import (fast_equilibration_bound, fast_equilibration_constant,
                     gap_counting_terms, general_distinguishability_bound,
                     general_expectation_bound)
from .haar import (HaarSampler, exact_mean_sq_distinguishability,
                   typical_distinguishability_bound)
from .constructions import (SnapshotSubspace, gaussian_scenario, harmonic_oscillator_1d,
                            harmonic_oscillator_3d_boltzmann, random_scenario,
                            snapshot_subspace)

__version__ = "0.1.0"
