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

from typing import NamedTuple

import numpy as np

from .spectra import LevelDistribution
from .states import QuantumState

__all__ = [
    "TimeGrid",
    "AverageResult",
    "time_average",
    "running_average",
    "lorentzian_state",
    "lorentzian_purity",
    "lorentzian_purity_product",
    "LORENTZIAN_DOMINATION_FACTOR",
]

# The flat window 1/T on [0, T] sits below 5/4 times the Cauchy kernel, so
# uniform averages of nonnegative functions are dominated by 5*pi/4 times the
# Lorentzian average.
LORENTZIAN_DOMINATION_FACTOR = 5.0 * np.pi / 4.0
# Fewest samples on an averaging grid, whatever the window and the gaps.
MIN_GRID_SAMPLES = 64


class TimeGrid:
    """Trapezoid grid on [0, T] for one window T, or a sweep: the grids of
    every window of a 1-d array, laid end to end.

    Each window's grid is an odd number of evenly spaced times, at least
    MIN_GRID_SAMPLES, so that the half-resolution grid shares the
    endpoints. Spacing is kept at or below pi / (4 * max_gap): the
    integrands are trigonometric polynomials in frequencies up to the
    largest spectral gap, and 8x Nyquist keeps the trapezoid error well
    under reported tolerances.

    ``times`` holds the windows' grids one after another: window i's times
    are ``times[offsets[i]:offsets[i + 1]]``, each bit for bit
    ``np.linspace(0, T_i, n_i)``. The whole sweep is built in one vectorized
    step, j * (T_i / (n_i - 1)) with the last time set to T_i as linspace
    does (j / (n_i - 1) * T_i where that step underflows to 0). A scalar
    window gives one grid, with ``offsets`` [0, n]. A window whose sample
    count reaches 2^53 (or overflows) is rejected: no grid can hold it.
    """

    __slots__ = ("window", "times", "offsets")

    def __init__(self, window, max_gap: float):
        windows = np.asarray(window, dtype=float)
        if (windows.ndim > 1 or windows.size == 0
                or not np.all((windows > 0) & (windows < np.inf))):
            raise ValueError("window must be positive and finite, or a non-empty "
                             "1-d array of such windows")
        if not 0 <= max_gap < np.inf:
            raise ValueError("max_gap must be nonnegative and finite")
        flat = windows.reshape(-1)
        with np.errstate(over="ignore"):
            count = np.ceil(4.0 * max_gap * flat / np.pi)
        too_many = ~(count < 2.0 ** 53)
        if too_many.any():
            raise ValueError(f"a window of {flat[too_many.argmax()]:g} at gaps up to "
                             f"{max_gap:g} needs more samples than a grid can hold")
        n = np.maximum(MIN_GRID_SAMPLES, count.astype(np.int64) + 1)
        n += 1 - n % 2
        offsets = np.zeros(n.size + 1, dtype=np.int64)
        np.cumsum(n, out=offsets[1:])
        step = flat / (n - 1)
        times = np.arange(offsets[-1], dtype=float)  # then each time's index in its window
        if n.size > 1:
            times -= np.repeat(offsets[:-1].astype(float), n)
        for i in np.flatnonzero(step == 0):  # linspace divides first (numpy gh-5437)
            times[offsets[i]:offsets[i + 1]] /= n[i] - 1
            step[i] = flat[i]
        times *= step if n.size == 1 else np.repeat(step, n)
        times[offsets[1:] - 1] = flat
        self.window = windows if windows.ndim else window
        self.times = times
        self.offsets = offsets


class AverageResult(NamedTuple):
    """An average and its refinement error: floats for one window, arrays
    of one per window for a sweep."""

    value: float
    refinement_error: float


def _trapezoid_terms(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The terms dt (y_1 + y_0) / 2 that np.trapezoid sums, in its order of
    operations."""
    return np.diff(times) * (values[1:] + values[:-1]) / 2.0


def time_average(values, grid: TimeGrid) -> AverageResult:
    """Uniform average (1/T) * integral over [0, T] of ``values``, sampled
    on ``grid.times``, for each window of the grid. The refinement error is
    the difference to the half-resolution estimate, on every other time;
    callers decide whether it is acceptable.

    One pass forms the trapezoid terms of the whole sweep, and those of its
    half-resolution grids (every other time from an even index, and from an
    odd one); each window then sums its own contiguous run of terms. Each
    value and error is bit for bit what ``np.trapezoid`` gives on that
    window's times (and every other one) divided by T. A scalar-window grid
    gives floats, a sweep arrays of one value per window.
    """
    values = np.asarray(values, dtype=float)
    times = grid.times
    if values.shape != times.shape:
        raise ValueError("values must hold one value per grid time")
    full = _trapezoid_terms(times, values)
    halves = [_trapezoid_terms(times[p::2], values[p::2]) for p in (0, 1)]
    starts, ends = grid.offsets[:-1], grid.offsets[1:]
    sums = np.empty(starts.size)
    coarse = np.empty(starts.size)
    for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        sums[i] = full[a:b - 1].sum()
        coarse[i] = halves[a % 2][a // 2:(b - 1) // 2].sum()
    span = times[ends - 1] - times[starts]
    sums /= span
    coarse /= span
    error = np.abs(sums - coarse)
    if np.ndim(grid.window) == 0:
        return AverageResult(float(sums[0]), float(error[0]))
    return AverageResult(sums, error)


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


def lorentzian_state(state: QuantumState, window) -> np.ndarray:
    """Density matrix of the Lorentzian-averaged state: rho_jk is damped by
    e^{-|E_j - E_k| T} and rotated by e^{-i (E_j - E_k) T / 2}; the
    T -> infinity limit is the dephased state, the T = 0 limit the state
    itself. Returned as a d x d matrix, not revalidated as a state; for a
    1-d array of windows, a (windows, d, d) stack of them, each bit for bit
    the one its window gives alone, with the negated gaps -|E_j - E_k|, the
    centred energies and rho formed once for all of them.

    The rotation is conj(u_j) u_k with u = e^{i (E - E_ref) T / 2}, energies
    centred on the middle of the spectrum so that each argument stays within
    span T / 4: d cosines and sines, and one real d x d exponential for the
    damping. An argument that overflows belongs to an index whose nonzero
    gaps have damped to 0, so its phase is taken as 1. Each phase is rounded
    on its own, so an entry may be off by about eps span T / 2 times
    |rho_jk|, where a phase taken per pair is off by eps |nu| T damped by
    e^{-|nu| T}."""
    windows = np.asarray(window, dtype=float)
    # at T = inf the zero gaps damp by inf * 0 = NaN
    if windows.ndim > 1 or not np.all((windows >= 0) & (windows < np.inf)):
        raise ValueError("window must be nonnegative and finite, or a 1-d array of "
                         "such windows")
    e = state.spectrum.index_energies
    rates = -np.abs(e[None, :] - e[:, None])
    centred = e - 0.5 * (e.min() + e.max())
    # one column goes through np.outer, whose entries are the single rounded
    # products c_j conj(c_k); a matrix product does not promise those bits
    a = state.factor
    rho = np.outer(a[:, 0], a[:, 0].conj()) if state.is_pure else a @ a.conj().T
    out = np.empty((windows.size, *rho.shape), dtype=complex)
    # -inf (and 0) at a huge T is the T -> inf limit
    with np.errstate(over="ignore", under="ignore"):
        for w, damped in zip(windows.reshape(-1).tolist(), out):
            arg = centred * (w / 2.0)
            u = np.exp(1j * np.where(np.isfinite(arg), arg, 0.0))
            np.multiply(u.conj()[:, None], u[None, :], out=damped)
            damped *= np.exp(rates * w)
            damped *= rho
    return out if windows.ndim else out[0]


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
