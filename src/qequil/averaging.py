"""Finite-time and Lorentzian averages.

The uniform average over [0, T] is computed by trapezoid quadrature on a
Nyquist-safe grid, with the refinement error measured rather than assumed;
the running average is the same rule summed cumulatively in numpy (the
arithmetic of scipy's ``cumulative_trapezoid``, so bit for bit its result,
without importing scipy).
Averaging against the Cauchy kernel T / (pi (T^2 + (t - T/2)^2)) has a
closed form for pure phases, which turns the time-averaged state into an
entrywise multiplication and gives a computable handle on its purity. That
purity and its population-product cap are one damped sum over level pairs,
weighing the state's |rho_jk|^2 summed per level pair, or a distribution's p_n p_m.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .spectra import LevelDistribution, max_window_probability
from .states import QuantumState

__all__ = [
    "TimeGrid",
    "AverageResult",
    "time_average",
    "running_average",
    "lorentzian_phase_average",
    "lorentzian_state",
    "lorentzian_purity",
    "lorentzian_purity_product",
    "dephased_purity_bound",
    "LORENTZIAN_DOMINATION_FACTOR",
]

# The flat window 1/T on [0, T] sits below 5/4 times the Cauchy kernel, so
# uniform averages of nonnegative functions are dominated by 5*pi/4 times the
# Lorentzian average.
LORENTZIAN_DOMINATION_FACTOR = 5.0 * np.pi / 4.0
# Fewest samples on an averaging grid, whatever the window and the gaps.
MIN_GRID_SAMPLES = 64


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Trapezoid grid on [0, T].

    Spacing is kept at or below pi / (4 * max_gap): the integrands are
    trigonometric polynomials in frequencies up to the largest spectral gap,
    and 8x Nyquist keeps the trapezoid error well under reported tolerances.
    """

    times: np.ndarray
    window: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise ValueError("grid needs at least three samples")
        if not (np.all(np.isfinite(t)) and np.isfinite(self.window)):
            raise ValueError("grid times and window must be finite")
        if t[0] != 0.0 or abs(t[-1] - self.window) > 1e-12 * max(1.0, self.window):
            raise ValueError("grid must span [0, T] inclusive")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @classmethod
    def for_window(cls, window: float, max_gap: float) -> "TimeGrid":
        if not 0 < window < np.inf:
            raise ValueError("window must be positive and finite")
        if not 0 <= max_gap < np.inf:
            raise ValueError("max_gap must be nonnegative and finite")
        n = MIN_GRID_SAMPLES
        if max_gap > 0:
            n = max(n, int(np.ceil(4.0 * max_gap * window / np.pi)) + 1)
        if n % 2 == 0:  # odd count so the half-resolution grid shares endpoints
            n += 1
        return cls(np.linspace(0.0, window, n), window)


class AverageResult(NamedTuple):
    value: float
    refinement_error: float


def _trapezoid_mean(values: np.ndarray, times: np.ndarray) -> float:
    span = times[-1] - times[0]
    return float(np.trapezoid(values, times) / span)


def time_average(f: Callable, grid: TimeGrid) -> AverageResult:
    """Uniform average (1/T) * integral of f over [0, T].

    ``f`` must accept an array of times and return an array of values. The
    refinement error is the difference to the half-resolution estimate;
    callers decide whether it is acceptable.
    """
    values = np.asarray(f(grid.times), dtype=float)
    if values.shape != grid.times.shape:
        raise ValueError("f must return one value per grid time")
    full = _trapezoid_mean(values, grid.times)
    half = _trapezoid_mean(values[::2], grid.times[::2])
    return AverageResult(full, abs(full - half))


def running_average(times, values) -> np.ndarray:
    """Cumulative uniform average (1/t) * integral_0^t, trapezoid rule;
    the t = 0 entry is the instantaneous value."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("running average needs at least one point")
    if times.shape != values.shape:
        raise ValueError("times and values must have the same length")
    cum = np.cumsum(np.diff(times) * (values[1:] + values[:-1]) / 2.0)
    out = np.empty_like(values)
    out[0] = values[0]
    out[1:] = cum / (times[1:] - times[0])
    return out


def lorentzian_phase_average(nu, window: float):
    """Closed-form Lorentzian average e^{-|nu| T} e^{i nu T / 2} of e^{i nu t},
    entrywise for an array of frequencies; 1 at T = 0, the kernel's limit,
    and 0 wherever the damping underflows, where nu T may be infinite."""
    if not 0 <= window < np.inf:  # at T = inf the zero gaps damp by inf * 0 = NaN
        raise ValueError("window must be nonnegative and finite")
    with np.errstate(over="ignore"):  # -inf at a huge T is the T -> inf limit
        damp = np.exp(-abs(nu) * window)
    return damp * np.exp(1j * np.where(damp > 0, nu, 0.0) * window / 2.0)


def lorentzian_state(state: QuantumState, window: float) -> np.ndarray:
    """Density matrix of the Lorentzian-averaged state: rho_jk is damped by
    e^{-|E_j - E_k| T} and rotated by e^{-i (E_j - E_k) T / 2}; the
    T -> infinity limit is the dephased state, the T = 0 limit the state
    itself. Returned as a d x d matrix, not revalidated as a state."""
    e = state.spectrum.index_energies
    return state.rho * lorentzian_phase_average(e[None, :] - e[:, None], window)


def _damped_level_sums(levels: np.ndarray, weights: np.ndarray, windows) -> np.ndarray:
    """sum_nm e^{-2 |E_n - E_m| T} w_nm at each window of a 1-d array, for an
    L x L weight matrix w or, as p @ K @ p, w = p p^T for a vector p. The
    doubled gaps are built once; each window's damping K fills one buffer."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 1 or not np.all((windows >= 0) & (windows < np.inf)):
        raise ValueError("windows must be a 1-d array of nonnegative finite values")
    # doubled before they meet T, zero gaps stay 0 where 2T overflows, others reach -inf
    rate = -2.0 * np.abs(levels[:, None] - levels[None, :])
    damp = np.empty_like(rate)
    out = np.empty(windows.size)
    with np.errstate(over="ignore"):
        for i, w in enumerate(windows):
            np.exp(np.multiply(rate, w, out=damp), out=damp)
            out[i] = weights @ damp @ weights if weights.ndim == 1 else np.vdot(weights, damp)
    return out


def lorentzian_purity_product(dist: LevelDistribution, windows) -> np.ndarray:
    """Population-product form sum_nm p_n p_m e^{-2 |E_n - E_m| T} over level
    pairs at each window of a 1-d array; an upper bound on the
    Lorentzian-averaged purity (|rho_jk|^2 is at most the product of
    populations, by positivity) and its exact value for pure states."""
    return _damped_level_sums(dist.spectrum.levels, dist.probs, windows)


def lorentzian_purity(state: QuantumState, windows) -> np.ndarray:
    """Purity tr(omega_LT^2) of the Lorentzian-averaged state at each window
    of a 1-d array. The damping depends only on the levels: it weighs w_nm,
    the |rho_jk|^2 summed over the index pairs of levels n and m, which is
    tr(G_n G_m) for the Gram matrices G_n = A_n^dag A_n of the factor's rows
    on each level. A d x s factor with s^2 <= d and s L^2 <= d^2 takes that
    form (d s^2 products, nothing d x d); a wider one sums |A A^dag|^2."""
    a, spec = state.factor, state.spectrum
    s, n, starts = a.shape[1], spec.num_levels, spec.level_starts
    if s * s <= spec.dim and s * n * n <= spec.dim ** 2:
        g = np.add.reduceat(a.conj()[:, :, None] * a[:, None, :], starts).reshape(n, -1)
        weights = g.view(float) @ g.view(float).T
    else:
        rho_sq = np.abs(a @ a.conj().T) ** 2
        weights = np.add.reduceat(np.add.reduceat(rho_sq, starts, axis=0), starts, axis=1)
    return _damped_level_sums(spec.levels, weights, windows)


def dephased_purity_bound(dist: LevelDistribution, window, delta=2.0):
    """Window-probability bound on the Lorentzian-averaged purity:
    2 * eta_{delta / 2T} / (1 - e^{-delta}), valid for every delta > 0.
    ``window`` and ``delta`` may be arrays that broadcast together; every
    width is then scanned in one pass and the bounds come back in their
    broadcast shape."""
    if not np.all(np.asarray(delta) > 0):
        raise ValueError("delta must be positive")
    if not np.all((np.asarray(window) > 0) & (np.asarray(window) < np.inf)):
        raise ValueError("window must be positive and finite")
    eta = max_window_probability(dist, delta / (2.0 * window))
    return 2.0 * eta / (1.0 - np.exp(-delta))
