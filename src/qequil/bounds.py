"""Named equilibration bounds.

All constants are computed from primitives at import time and regression
pinned in the tests, never hardcoded as decimals here. Window-probability
bounds take a level distribution, which carries its spectrum; bounds on a
state read the state's own spectrum. scipy is imported only inside
:func:`gaussian_purity_exact` (for ``erfcx``), so importing this module, or
running any experiment but ``gaussian``, does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .averaging import LORENTZIAN_DOMINATION_FACTOR
from .spectra import LevelDistribution, max_gaps_in_window, max_window_probability
from .states import QuantumState, effective_dimension, level_distribution

__all__ = [
    "BoundReport",
    "purity_chain_factor",
    "population_constant",
    "fast_equilibration_constant",
    "fast_equilibration_bound",
    "general_expectation_bound",
    "general_distinguishability_bound",
    "gaussian_purity_exact",
    "gaussian_purity_asymptote",
]


def purity_chain_factor(delta: float = 2.0) -> float:
    """2 / (1 - e^{-delta}), the geometric factor in the window-probability
    purity bound."""
    return 2.0 / (1.0 - np.exp(-delta))


def population_constant() -> float:
    """Prefactor of the population term: (5 pi / 4) sqrt(2 / (1 - e^{-2}))."""
    return LORENTZIAN_DOMINATION_FACTOR * np.sqrt(purity_chain_factor(2.0))


def fast_equilibration_constant() -> float:
    """Full two-outcome prefactor; the extra 1 comes from the equilibrium
    cross term sqrt(K / d_eff) <= sqrt(K eta)."""
    return population_constant() + 1.0


@dataclass
class BoundReport:
    """A named bound value next to the inputs that produced it, and
    optionally a measured quantity to compare against."""

    name: str
    value: float
    inputs: dict = field(default_factory=dict)
    measured: float | None = None
    slack: float = 0.0

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError(f"bound {self.name} is negative: {self.value!r}")

    @property
    def holds(self) -> bool:
        if self.measured is None:
            raise ValueError("no measured value attached")
        return self.measured <= self.value + self.slack


def fast_equilibration_bound(dist: LevelDistribution, rank: int, window):
    """Uniform-average distinguishability bound c * sqrt(eta_{1/T} K) for any
    two-outcome measurement whose smaller projector rank is K. For a 1-d
    array of windows every eta comes from one scan, and one report per
    window is returned."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    windows = np.asarray(window, dtype=float)
    if windows.ndim > 1 or not np.all(windows > 0):
        raise ValueError("window must be positive, one value or a 1-d array")
    etas = max_window_probability(dist, 1.0 / windows)
    c = fast_equilibration_constant()

    def report(w, eta):
        return BoundReport("fast_equilibration", c * np.sqrt(eta * rank),
                           inputs={"K": rank, "T": w, "eta": float(eta), "c": c})

    if windows.ndim == 0:
        return report(window, etas)
    return [report(w, eta) for w, eta in zip(windows, etas)]


def _gap_counting_terms(state: QuantumState, eps: float, window: float) -> tuple:
    """N(eps) and d_eff of a pure state: the inputs of both gap-counting forms."""
    if not state.is_pure:
        raise ValueError("this bound is derived for pure initial states")
    if not (eps > 0 and window > 0):
        raise ValueError("eps and window must be positive")
    return (max_gaps_in_window(state.spectrum.gaps(), eps),
            effective_dimension(level_distribution(state)))


def general_expectation_bound(state: QuantumState, operator_norm: float,
                              eps: float, window: float) -> BoundReport:
    """Gap-counting bound on <|tr A (rho_t - omega)|^2>_T:
    (5 pi / 2) (|A|^2 / d_eff) N(eps) (3/2 + 1/(eps T))."""
    n_eps, d_eff = _gap_counting_terms(state, eps, window)
    value = (2.0 * LORENTZIAN_DOMINATION_FACTOR * operator_norm ** 2 / d_eff
             * n_eps * (1.5 + 1.0 / (eps * window)))
    return BoundReport("general_expectation", value,
                       inputs={"operator_norm": operator_norm, "eps": eps, "T": window,
                               "N_eps": n_eps, "d_eff": d_eff})


def general_distinguishability_bound(state: QuantumState, total_outcomes: int,
                                     eps: float, window: float) -> BoundReport:
    """Distinguishability form of the gap-counting bound:
    (S/4) sqrt( (5 pi N(eps)) / (2 d_eff) * (3/2 + 1/(eps T)) )."""
    if total_outcomes < 2:
        raise ValueError("total outcome count must be at least 2")
    n_eps, d_eff = _gap_counting_terms(state, eps, window)
    value = (total_outcomes / 4.0) * np.sqrt(
        2.0 * LORENTZIAN_DOMINATION_FACTOR * n_eps / d_eff
        * (1.5 + 1.0 / (eps * window)))
    return BoundReport("general_distinguishability", value,
                       inputs={"total_outcomes": total_outcomes, "eps": eps,
                               "T": window, "N_eps": n_eps, "d_eff": d_eff})


def gaussian_purity_exact(sigma: float, window: float) -> float:
    """Exact continuum purity of the Lorentzian-averaged state for a
    Gaussian energy distribution: e^{4 s^2 T^2} erfc(2 s T), evaluated
    stably via the scaled complementary error function."""
    if not (sigma > 0 and window > 0):
        raise ValueError("sigma and window must be positive")
    from scipy import special

    return float(special.erfcx(2.0 * sigma * window))


def gaussian_purity_asymptote(sigma: float, window: float) -> float:
    """Large-sigma*T asymptote 1 / (2 sqrt(pi) sigma T) of the exact form."""
    if not (sigma > 0 and window > 0):
        raise ValueError("sigma and window must be positive")
    return 1.0 / (2.0 * np.sqrt(np.pi) * sigma * window)
