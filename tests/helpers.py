"""Independent brute-force oracles and small utilities shared by the tests.

These deliberately avoid the library's sliding-window / closed-form code
paths so that agreement is meaningful.
"""
import numpy as np

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
