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

from .averaging import (LORENTZIAN_DOMINATION_FACTOR, TimeGrid, lorentzian_purity,
                        lorentzian_state, time_average)
from .measure import Projector, expectation_series
from .spectra import LevelDistribution, max_gaps_in_window, max_window_probability
from .states import QuantumState, dephase, effective_dimension, level_distribution, purity

__all__ = [
    "BoundReport",
    "purity_chain_factor",
    "population_constant",
    "fast_equilibration_constant",
    "fast_equilibration_bound",
    "population_term_bound",
    "n_outcome_fast_bound",
    "general_expectation_bound",
    "general_distinguishability_bound",
    "best_epsilon",
    "gaussian_window_probability_estimate",
    "gaussian_purity_exact",
    "gaussian_purity_asymptote",
    "fast_equilibration_chain",
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

    def to_dict(self) -> dict:
        out = {"name": self.name, "value": self.value, "inputs": dict(self.inputs)}
        if self.measured is not None:
            out["measured"] = self.measured
            out["slack"] = self.slack
            out["holds"] = self.holds
        return out


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


def population_term_bound(dist: LevelDistribution, rank: int,
                          window: float) -> BoundReport:
    """Bound on the averaged population <tr(P rho_t)>_T alone (the full
    two-outcome bound minus the sqrt(K eta) equilibrium term)."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if not window > 0:
        raise ValueError("window must be positive")
    eta = max_window_probability(dist, 1.0 / window)
    return BoundReport(
        "population_term",
        LORENTZIAN_DOMINATION_FACTOR * np.sqrt(purity_chain_factor(2.0) * eta * rank),
        inputs={"K": rank, "T": window, "eta": eta, "c": population_constant()},
    )


def n_outcome_fast_bound(dist: LevelDistribution, ranks,
                         window: float) -> BoundReport:
    """N-outcome generalization: (c/2) sqrt(eta_{1/T}) * sum_i sqrt(k_i)
    where k_i = min(rank P_i, d - rank P_i)."""
    ranks = [int(k) for k in ranks]
    d = dist.spectrum.dim
    if sum(ranks) != d:
        raise ValueError("outcome ranks must sum to the dimension")
    if not window > 0:
        raise ValueError("window must be positive")
    eta = max_window_probability(dist, 1.0 / window)
    c = fast_equilibration_constant()
    ksum = sum(np.sqrt(min(k, d - k)) for k in ranks)
    return BoundReport(
        "n_outcome_fast",
        0.5 * c * np.sqrt(eta) * ksum,
        inputs={"ranks": tuple(ranks), "T": window, "eta": eta, "c": c},
    )


def _require_pure(state: QuantumState):
    if not state.is_pure:
        raise ValueError("this bound is derived for pure initial states")


def general_expectation_bound(state: QuantumState, operator_norm: float,
                              eps: float, window: float) -> BoundReport:
    """Gap-counting bound on <|tr A (rho_t - omega)|^2>_T:
    (5 pi / 2) (|A|^2 / d_eff) N(eps) (3/2 + 1/(eps T))."""
    _require_pure(state)
    if not (eps > 0 and window > 0):
        raise ValueError("eps and window must be positive")
    n_eps = max_gaps_in_window(state.spectrum.gaps(), eps)
    d_eff = effective_dimension(level_distribution(state))
    value = (2.0 * LORENTZIAN_DOMINATION_FACTOR * operator_norm ** 2 / d_eff
             * n_eps * (1.5 + 1.0 / (eps * window)))
    return BoundReport(
        "general_expectation",
        value,
        inputs={"operator_norm": operator_norm, "eps": eps, "T": window,
                "N_eps": n_eps, "d_eff": d_eff},
    )


def general_distinguishability_bound(state: QuantumState, total_outcomes: int,
                                     eps: float, window: float) -> BoundReport:
    """Distinguishability form of the gap-counting bound:
    (S/4) sqrt( (5 pi N(eps)) / (2 d_eff) * (3/2 + 1/(eps T)) )."""
    _require_pure(state)
    if total_outcomes < 2:
        raise ValueError("total outcome count must be at least 2")
    if not (eps > 0 and window > 0):
        raise ValueError("eps and window must be positive")
    n_eps = max_gaps_in_window(state.spectrum.gaps(), eps)
    d_eff = effective_dimension(level_distribution(state))
    value = (total_outcomes / 4.0) * np.sqrt(
        2.0 * LORENTZIAN_DOMINATION_FACTOR * n_eps / d_eff
        * (1.5 + 1.0 / (eps * window)))
    return BoundReport(
        "general_distinguishability",
        value,
        inputs={"total_outcomes": total_outcomes, "eps": eps, "T": window,
                "N_eps": n_eps, "d_eff": d_eff},
    )


def best_epsilon(state: QuantumState, window: float, num: int = 25,
                 total_outcomes: int = 2) -> tuple:
    """Scan a log grid of window widths and return (eps, report) minimizing
    the distinguishability form; the width is a free parameter of the bound."""
    span = state.spectrum.span
    if not span > 0:
        raise ValueError("spectrum has a single level; no gaps to count")
    grid = np.geomspace(span * 1e-6, 2.0 * span, num)
    best = None
    for eps in grid:
        rep = general_distinguishability_bound(state, total_outcomes, eps, window)
        if best is None or rep.value < best[1].value:
            best = (float(eps), rep)
    return best


def gaussian_window_probability_estimate(sigma: float, window: float) -> float:
    """Continuum estimate for a Gaussian energy distribution:
    eta_{1/T} <= peak density / T = 1 / (sqrt(2 pi) sigma T), capped at 1."""
    if not (sigma > 0 and window > 0):
        raise ValueError("sigma and window must be positive")
    return min(1.0, 1.0 / (np.sqrt(2.0 * np.pi) * sigma * window))


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


def fast_equilibration_chain(state: QuantumState, projector: Projector,
                             window: float) -> dict:
    """Evaluate every link of the two-outcome bound chain on one instance.

    Returns the measured average distinguishability followed by each
    successive relaxation up to c * sqrt(eta K); consecutive entries must be
    ordered (the first link up to quadrature error, the rest exactly).
    """
    omega = dephase(state)
    if projector.rank > projector.dim - projector.rank:
        # D_P = D_{1-P}, so run the chain on the smaller-rank side.
        projector = projector.complement()
    rank = projector.rank
    grid = TimeGrid.for_window(window, state.spectrum.span)
    p_omega = projector.expectation(omega)

    def dvals(ts):
        return np.abs(expectation_series(projector, state, ts) - p_omega)

    measured = time_average(dvals, grid)
    pop_avg = time_average(lambda ts: expectation_series(projector, state, ts), grid)

    v = projector.factor
    p_lor = float(np.sum(v.conj() * (lorentzian_state(state, window) @ v)).real)
    if projector.is_complement:
        p_lor = 1.0 - p_lor
    pur_lor = lorentzian_purity(state, window).exact
    pur_omega = purity(omega)
    eta = max_window_probability(level_distribution(state), 1.0 / window)

    links = {
        "measured": measured.value,
        "triangle": pop_avg.value + p_omega,
        "lorentzian_population": (LORENTZIAN_DOMINATION_FACTOR * p_lor
                                  + np.sqrt(pur_omega * rank)),
        "purity_cauchy_schwarz": (LORENTZIAN_DOMINATION_FACTOR
                                  * np.sqrt(rank * pur_lor)
                                  + np.sqrt(rank * pur_omega)),
        "window_probability": fast_equilibration_constant() * np.sqrt(eta * rank),
    }
    links["refinement_error"] = measured.refinement_error + pop_avg.refinement_error
    return links
