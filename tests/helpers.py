"""Independent brute-force oracles and small utilities shared by the tests.

These deliberately avoid the library's sliding-window / closed-form code
paths so that agreement is meaningful.
"""
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate

from qequil.averaging import LORENTZIAN_DOMINATION_FACTOR
from qequil.spectra import EnergySpectrum
from qequil.states import QuantumState


def brute_eta(levels, probs, width):
    """O(n^2) scan of closed windows anchored at every level."""
    levels = np.asarray(levels, dtype=float)
    probs = np.asarray(probs, dtype=float)
    best = 0.0
    for i in range(levels.size):
        total = 0.0
        for j in range(levels.size):
            if levels[i] <= levels[j] <= levels[i] + width:
                total += probs[j]
        best = max(best, total)
    return best


def brute_gap_count(gap_values, width):
    """O(n^2) scan of closed windows anchored at every gap."""
    vals = np.asarray(gap_values, dtype=float)
    best = 0
    for i in range(vals.size):
        count = 0
        for j in range(vals.size):
            if vals[i] <= vals[j] <= vals[i] + width:
                count += 1
        best = max(best, count)
    return best


def charpoly_eigenvalues(matrix):
    """Eigenvalues via the characteristic polynomial: coefficients from
    Newton's identities on power-sum traces, roots from the companion
    matrix. Independent of the Hermitian eigensolver."""
    h = np.asarray(matrix, dtype=complex)
    n = h.shape[0]
    power = np.eye(n, dtype=complex)
    traces = []
    for _ in range(n):
        power = power @ h
        traces.append(np.trace(power))
    # e_k from p_k: k e_k = sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i
    e = [1.0 + 0.0j]
    for k in range(1, n + 1):
        acc = 0.0j
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * traces[i - 1]
        e.append(acc / k)
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def dense(p) -> np.ndarray:
    """Dense d x d matrix of a projector: V V^dag, or 1 - V V^dag for a
    complement."""
    vv = p.factor @ p.factor.conj().T
    return np.eye(p.dim, dtype=complex) - vv if p.is_complement else vv


def gap_series(projector, state: QuantumState, times) -> np.ndarray:
    """tr(P rho_t) = sum_jk conj(P)_jk rho_jk e^{-i(E_j - E_k)t}, summed over
    all d^2 gaps of the dense projector and the dense rho."""
    times = np.asarray(times, dtype=float)
    energies = state.spectrum.index_energies
    coeff = (dense(projector).conj() * state.rho).ravel()
    gaps = (energies[:, None] - energies[None, :]).ravel()
    return (coeff @ np.exp(-1j * np.outer(gaps, times))).real


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    eigs = np.linalg.eigvalsh(a.rho - b.rho)
    return 0.5 * float(np.abs(eigs).sum())


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def random_pure(rng, spectrum: EnergySpectrum) -> QuantumState:
    z = rng.standard_normal(spectrum.dim) + 1j * rng.standard_normal(spectrum.dim)
    return QuantumState.pure(spectrum, z / np.linalg.norm(z))


def random_mixed(rng, spectrum: EnergySpectrum, components=3) -> QuantumState:
    d = spectrum.dim
    weights = rng.dirichlet(np.ones(components))
    rho = np.zeros((d, d), dtype=complex)
    for w in weights:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z /= np.linalg.norm(z)
        rho += w * np.outer(z, z.conj())
    return QuantumState.mixed(spectrum, rho)


def poisson_spectrum(rng, num_levels, mean_spacing=1.0) -> EnergySpectrum:
    spac = rng.exponential(mean_spacing, num_levels - 1)
    return EnergySpectrum(np.concatenate(([0.0], np.cumsum(spac))),
                          np.ones(num_levels, dtype=int))


class PerSampleHaar:
    """Reference Haar stream: one Ginibre matrix, one full QR and one phase
    fix per sample, on the random stream of a fresh ``HaarSampler``."""

    def __init__(self, sampler):
        self._rng = sampler._rng
        self.basis = sampler.complement_basis
        self.n = sampler.sample_dim

    def _haar(self):
        n = self.n
        z = (self._rng.standard_normal((n, n))
             + 1j * self._rng.standard_normal((n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diag(r)
        return q * (diag / np.abs(diag))

    def unitary(self):
        if self.basis is None:
            return self._haar()
        return self.basis @ self._haar() @ self.basis.conj().T

    def frame(self, rank):
        if self.basis is None:
            return self._haar()[:, :rank]
        return self.basis @ self._haar()[:, :rank]


def _two_outcome_value(frame, delta):
    return float(np.sum(frame.conj() * (delta @ frame)).real)


def _split(frame, ranks):
    edges = np.cumsum([0, *ranks])
    return [frame[:, a:b] for a, b in zip(edges[:-1], edges[1:])]


def per_sample_stats(vals):
    """(mean, stderr) as the Monte Carlo estimators report them."""
    n = vals.size
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def per_sample_mean_sq(haar, delta, rank, samples):
    vals = np.empty(samples)
    for i in range(samples):
        x = _two_outcome_value(haar.frame(rank), delta)
        vals[i] = x * x
    return vals


def per_sample_mean(haar, delta, rank, samples):
    return np.array([abs(_two_outcome_value(haar.frame(rank), delta))
                     for _ in range(samples)])


def per_sample_constrained(haar, base, delta, rank, samples):
    if rank == 1:
        return np.full(samples, abs(base))
    return np.array([abs(base + _two_outcome_value(haar.frame(rank - 1), delta))
                     for _ in range(samples)])


def per_sample_n_outcome(haar, delta, ranks, samples):
    return np.array([0.5 * sum(abs(_two_outcome_value(b, delta))
                               for b in _split(haar.unitary(), ranks))
                     for _ in range(samples)])


def per_sample_n_outcome_constrained(haar, base, delta, ranks, samples):
    vals = np.empty(samples)
    for i in range(samples):
        blocks = _split(haar.frame(haar.n), ranks)
        first = abs(base + _two_outcome_value(blocks[0], delta))
        rest = sum(abs(_two_outcome_value(b, delta)) for b in blocks[1:])
        vals[i] = 0.5 * (first + rest)
    return vals


def per_sample_twirl(haar, p, samples):
    d = p.shape[0]
    acc = np.zeros((d * d, d * d), dtype=complex)
    acc_sq = np.zeros((d * d, d * d))
    for _ in range(samples):
        u = haar.unitary()
        pu = u @ p @ u.conj().T
        k = np.kron(pu, pu)
        acc += k
        acc_sq += np.abs(k) ** 2
    mean = acc / samples
    var = np.maximum(acc_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


def lorentzian_kernel(t, window: float) -> np.ndarray:
    """Cauchy weight T / (pi (T^2 + (t - T/2)^2)), normalized over the line."""
    t = np.asarray(t, dtype=float)
    return window / (np.pi * (window ** 2 + (t - window / 2.0) ** 2))


def lorentzian_phase_average_quadrature(nu: float, window: float,
                                        half_width_factor: float = 200.0):
    """Numeric Lorentzian average of e^{i nu t}: adaptive quadrature on
    [T/2 - W, T/2 + W] with the heavy tails evaluated by Fourier-weighted
    quadrature (the kernel tail alone integrates to (2/pi) arctan(T/W)).

    Returns ``(value, error_bound)``.
    """
    T = window
    w = half_width_factor * T
    absnu = abs(nu)

    def centered(s):
        return T / (np.pi * (T ** 2 + s ** 2))

    if absnu == 0.0:
        core, err = integrate.quad(centered, -w, w, limit=400)
        tail = (2.0 / np.pi) * np.arctan(T / w)
        return complex(core + tail), err
    core_re, err_re = integrate.quad(centered, 0.0, w, weight="cos", wvar=absnu,
                                     limit=8000)
    tail_re, terr_re = integrate.quad(centered, w, np.inf, weight="cos", wvar=absnu)
    even = 2.0 * (core_re + tail_re)  # sin part vanishes by symmetry
    value = even * np.exp(1j * nu * T / 2.0)
    return complex(value), 2.0 * (err_re + terr_re)


class DominationReport(NamedTuple):
    uniform_average: float
    lorentzian_average: float
    limit: float
    tail_allowance: float
    holds: bool


def lorentzian_domination_check(f: Callable, window: float, spacing: float,
                                half_width_factor: float = 200.0,
                                value_bound: float = 1.0,
                                slack: float = 1e-6) -> DominationReport:
    """Check that the uniform average of a nonnegative function is dominated
    by 5*pi/4 times its Lorentzian average.

    ``f`` must be vectorized and nonnegative on the sampled range;
    ``value_bound`` caps |f| for the analytic tail allowance.
    """
    T = window
    h = min(spacing, T / 64.0)
    n_uni = int(np.ceil(T / h)) + 1
    uni_t = np.linspace(0.0, T, n_uni)
    uni_vals = np.asarray(f(uni_t), dtype=float)
    if np.any(uni_vals < -1e-12):
        raise ValueError("f must be nonnegative on [0, T]")
    uniform = float(np.trapezoid(uni_vals, uni_t) / T)

    w = half_width_factor * T
    n_lor = int(np.ceil(2.0 * w / h)) + 1
    n_lor = min(n_lor, 4_000_001)
    lor_t = np.linspace(T / 2.0 - w, T / 2.0 + w, n_lor)
    lor_vals = np.asarray(f(lor_t), dtype=float) * lorentzian_kernel(lor_t, T)
    lorentzian = float(np.trapezoid(lor_vals, lor_t))
    tail = value_bound * (2.0 / np.pi) * np.arctan(T / w)

    limit = LORENTZIAN_DOMINATION_FACTOR * (lorentzian + tail) + slack
    return DominationReport(uniform, lorentzian, limit, tail, uniform <= limit)
