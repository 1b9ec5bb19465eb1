"""Named equilibration bounds.

All constants are computed from primitives at import time and regression
pinned in the tests, never hardcoded as decimals here. Each bound is a
number computed from the quantities it is stated in: the window
probability eta, or the gap count N(eps) and d_eff of
:func:`gap_counting_terms`. A negative or NaN bound is rejected; the caller
compares the number with what it measured.
"""
from __future__ import annotations

import math

import numpy as np

from .averaging import LORENTZIAN_DOMINATION_FACTOR
from .spectra import max_gaps_in_window
from .states import QuantumState, effective_dimension, level_distribution

__all__ = [
    "population_constant",
    "fast_equilibration_constant",
    "fast_equilibration_bound",
    "window_purity_bound",
    "gap_counting_terms",
    "general_expectation_bound",
    "general_distinguishability_bound",
    "gaussian_purity_exact",
    "gaussian_purity_asymptote",
]


def population_constant() -> float:
    """Prefactor of the population term: (5 pi / 4) sqrt(2 / (1 - e^{-2})),
    the window purity bound at eta = 1 and delta = 2."""
    return LORENTZIAN_DOMINATION_FACTOR * np.sqrt(window_purity_bound(1.0, 2.0))


def fast_equilibration_constant() -> float:
    """Full two-outcome prefactor; the extra 1 comes from the equilibrium
    cross term sqrt(K / d_eff) <= sqrt(K eta)."""
    return population_constant() + 1.0


def _nonnegative(name: str, value):
    """``value`` itself, after checking that none of it is negative or NaN."""
    if not np.all(np.asarray(value) >= 0):
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return value


def fast_equilibration_bound(eta, rank: int):
    """Uniform-average distinguishability bound c * sqrt(eta_{1/T} K) for any
    two-outcome measurement whose smaller projector rank is K, from the
    window probability eta of width 1/T; ``eta`` may be an array."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return fast_equilibration_constant() * np.sqrt(_nonnegative("eta", eta) * rank)


def window_purity_bound(eta, delta):
    """Window-probability bound 2 eta / (1 - e^{-delta}) on the purity of
    the Lorentzian-averaged state at window T, valid for every delta > 0,
    from the window probability eta of width delta / 2T. ``eta`` and
    ``delta`` may be arrays that broadcast together."""
    if not np.all((np.asarray(delta) > 0) & (np.asarray(delta) < np.inf)):
        raise ValueError("delta must be positive and finite")
    return 2.0 * _nonnegative("eta", eta) / (1.0 - np.exp(-delta))


def gap_counting_terms(state: QuantumState, eps: float) -> tuple:
    """(N(eps), d_eff) of a pure state: the most gaps in a window of width
    eps and the effective dimension, the inputs of both gap-counting forms."""
    if not state.is_pure:
        raise ValueError("this bound is derived for pure initial states")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return (max_gaps_in_window(state.spectrum.levels, eps),
            effective_dimension(level_distribution(state)))


def _check_eps_window(eps: float, window: float):
    if not (eps > 0 and window > 0):
        raise ValueError("eps and window must be positive")


def general_expectation_bound(n_eps: int, d_eff: float, eps: float, window: float) -> float:
    """Gap-counting bound on <|tr A (rho_t - omega)|^2>_T for |A| <= 1, such
    as a projector: (5 pi / 2) (N(eps) / d_eff) (3/2 + 1/(eps T))."""
    _check_eps_window(eps, window)
    return _nonnegative("general_expectation_bound", (
        2.0 * LORENTZIAN_DOMINATION_FACTOR / d_eff * n_eps * (1.5 + 1.0 / (eps * window))))


def general_distinguishability_bound(n_eps: int, d_eff: float, total_outcomes: int,
                                     eps: float, window: float) -> float:
    """Distinguishability form of the gap-counting bound:
    (S/4) sqrt( (5 pi N(eps)) / (2 d_eff) * (3/2 + 1/(eps T)) )."""
    if total_outcomes < 2:
        raise ValueError("total outcome count must be at least 2")
    _check_eps_window(eps, window)
    return _nonnegative("general_distinguishability_bound", (
        (total_outcomes / 4.0) * np.sqrt(2.0 * LORENTZIAN_DOMINATION_FACTOR * n_eps
                                         / d_eff * (1.5 + 1.0 / (eps * window)))))


def _erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0. Below
    2 it is the product itself. From 2 up, where e^{x^2} magnifies the
    rounding of x^2 and erfc underflows past x = 26.5, it is the 60-term
    Laplace continued fraction 1 / (sqrt(pi) (x + (1/2) / (x + 1 / (x +
    (3/2) / (x + ...))))) (Abramowitz & Stegun 7.1.14), which is 0 at
    x = inf."""
    if x < 2.0:
        return math.exp(x * x) * math.erfc(x)
    tail = x
    for k in range(60, 0, -1):
        tail = x + 0.5 * k / tail
    return 1.0 / (math.sqrt(math.pi) * tail)


def gaussian_purity_exact(sigma: float, window: float) -> float:
    """Exact continuum purity of the Lorentzian-averaged state for a
    Gaussian energy distribution: e^{4 s^2 T^2} erfc(2 s T), evaluated
    stably via the scaled complementary error function."""
    if not (sigma > 0 and window > 0):
        raise ValueError("sigma and window must be positive")
    return _erfcx(float(2.0 * sigma * window))


def gaussian_purity_asymptote(sigma: float, window: float) -> float:
    """Large-sigma*T asymptote 1 / (2 sqrt(pi) sigma T) of the exact form."""
    if not (sigma > 0 and window > 0):
        raise ValueError("sigma and window must be positive")
    return 1.0 / (2.0 * np.sqrt(np.pi) * sigma * window)
