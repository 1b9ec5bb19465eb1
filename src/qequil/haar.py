"""Haar-random unitaries, exact twirl formulas, and Monte Carlo checks.

Typical-measurement statements average a conjugated projector P_U = U P U^dag
over the unitary group. Second moments have closed forms through the
symmetric/antisymmetric twirl decomposition; the Monte Carlo estimators here
exist to cross-validate those formulas and bounds, with plain sample standard
errors (the integrands are bounded, so the CLT is adequate at desk scale).

All samples come from one batched kernel, :meth:`HaarSampler.batches`: a
chunk of Ginibre matrices, one stacked QR of their first ``rank`` columns and
the R-diagonal phase fix of Mezzadri (math-ph/0609050). It gives the samples
of drawing and factoring one matrix at a time, bit for bit up to d = 64
(beyond that LAPACK's blocked QR agrees only to rounding). The estimators
run at small d and read the equilibrium state as a dense matrix, through
:meth:`EquilibriumState.dense`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from .measure import Projector
from .states import EquilibriumState, QuantumState, purity

__all__ = [
    "HaarSampler",
    "TwirlResult",
    "exact_mean_sq_distinguishability",
    "typical_distinguishability_bound",
    "constrained_mean_bound",
    "initial_distinguishability_floor",
    "initial_distinguishability_exact",
    "n_outcome_typical_bound",
    "n_outcome_typical_cap",
    "n_outcome_constrained_bound",
    "swap_operator",
    "twirl_second_moment",
    "twirl_reconstruction",
    "mc_mean_sq_distinguishability",
    "mc_mean_distinguishability",
    "mc_constrained_mean",
    "mc_initial_distinguishability",
    "mc_n_outcome_mean",
    "mc_n_outcome_constrained_mean",
    "mc_twirl_pair",
]

# Complex Ginibre entries per kernel chunk: enough samples to amortize the
# per-call cost at small d, few enough to keep the working set small.
CHUNK_ENTRIES = 4096


class HaarSampler:
    """Seeded stream of Haar-distributed unitaries of a fixed dimension.

    With ``excluded_vector`` set, samples are partial unitaries supported on
    the orthogonal complement of that (pure-state) vector: they fix its span
    and act Haar-randomly on the remaining d - 1 dimensions.
    """

    def __init__(self, seed: int, dim: int, excluded_vector=None):
        self.seed = int(seed)
        self.dim = int(dim)
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        if excluded_vector is not None:
            v = np.asarray(excluded_vector, dtype=complex).reshape(-1)
            if v.size != dim:
                raise ValueError("excluded vector has the wrong dimension")
            if dim <= 2:
                raise ValueError("the constrained ensemble requires dim > 2")
            norm = np.linalg.norm(v)
            if not 0 < norm < np.inf:  # also false for NaN
                raise ValueError("excluded vector must be finite and nonzero")
            v = v / norm
            # QR of [v | I] puts v (up to phase) in the first column; the
            # remaining columns are an orthonormal basis of its complement.
            stacked = np.concatenate([v[:, None], np.eye(dim, dtype=complex)], axis=1)
            q, _ = np.linalg.qr(stacked)
            self.excluded_vector = v
            self.complement_basis = q[:, 1:]
        else:
            self.excluded_vector = None
            self.complement_basis = None

    @property
    def sample_dim(self) -> int:
        return self.dim if self.excluded_vector is None else self.dim - 1

    def batches(self, rank: int, count: int):
        """First ``rank`` columns of the next ``count`` samples, in chunks of
        shape (m, dim, rank) (in the complement when an excluded vector is set).
        Each sample consumes a full Ginibre matrix, so the stream does not
        depend on ``rank`` or the chunking."""
        n = self.sample_dim
        if not 1 <= rank <= n:
            raise ValueError(f"rank {rank} outside [1, {n}]")
        per_chunk = max(1, CHUNK_ENTRIES // (n * n))
        for start in range(0, count, per_chunk):
            g = self._rng.standard_normal((min(per_chunk, count - start), 2, n, n))
            z = (g[:, 0, :, :rank] + 1j * g[:, 1, :, :rank]) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            # absorb the R-diagonal phases so the distribution is exactly
            # Haar, not just orthonormal
            diag = np.diagonal(r, axis1=1, axis2=2)
            q = q * (diag / np.abs(diag))[:, None, :]
            yield q if self.complement_basis is None else self.complement_basis @ q

    def _unitaries(self, count: int):
        """Chunks of full samples: Haar unitaries, or b U b^dag on the
        complement basis b when an excluded vector is set."""
        b = self.complement_basis
        for u in self.batches(self.sample_dim, count):
            yield u if b is None else u @ b.conj().T

    def unitary(self) -> np.ndarray:
        """Next sample: a Haar unitary, or the embedded partial unitary on
        the complement when an excluded vector is set."""
        return next(self._unitaries(1))[0]

    def frame(self, rank: int) -> np.ndarray:
        """First ``rank`` columns of the next sample, as an orthonormal
        frame (in the complement when an excluded vector is set)."""
        return next(self.batches(rank, 1))[0]

    def projector(self, rank: int) -> Projector:
        return Projector.from_factor(self.frame(rank))


@dataclass
class TwirlResult:
    """Monte Carlo estimate next to the exact (or analytically bounded)
    reference value it is checked against."""

    exact: float
    mc_mean: float
    mc_stderr: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {"exact": self.exact, "mc_mean": self.mc_mean,
                "mc_stderr": self.mc_stderr, "samples": self.samples,
                "seed": self.seed}


def _check_rank_dim(rank: int, dim: int):
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} outside [1, {dim}]")


def exact_mean_sq_distinguishability(state_t: QuantumState, omega: EquilibriumState,
                                     rank: int) -> float:
    """Haar average of the squared two-outcome distinguishability between
    rho_t and omega: (K/d) (d-K)/(d^2-1) tr(rho_t^2 - omega^2)."""
    d = state_t.dim
    if omega.dim != d:
        raise ValueError("states have mismatched dimensions")
    _check_rank_dim(rank, d)
    return (rank / d) * (d - rank) / (d ** 2 - 1) * (purity(state_t) - purity(omega))


def typical_distinguishability_bound(rank: int, dim: int) -> float:
    """sqrt( K (d - K) / (d^2 (d + 1)) ): Haar-mean distinguishability cap
    for a rank-K two-outcome measurement, any state, any Hamiltonian."""
    _check_rank_dim(rank, dim)
    return float(np.sqrt(rank * (dim - rank) / (dim ** 2 * (dim + 1.0))))


def _initial_overlap_deficit(state0: QuantumState, state_t: QuantumState,
                             omega: EquilibriumState) -> float:
    """f(t) = tr(rho_0 (rho_t - omega)) for a pure rho_0 = c c^dag: the sum
    of |<c|a>|^2 over the columns a of rho_t's factor, less <c|omega|c>."""
    if not state0.is_pure:
        raise ValueError("the constrained ensemble requires a pure initial state")
    c = state0.amplitudes
    left = float(sum(abs(np.vdot(c, a)) ** 2 for a in state_t.factor.T))
    right = float(np.vdot(c, omega.dense() @ c).real)
    return left - right


def constrained_mean_bound(state0: QuantumState, state_t: QuantumState,
                           omega: EquilibriumState, rank: int) -> float:
    """Haar-mean bound for two-outcome measurements containing the initial
    state as an outcome direction: D_{rho_0}(rho_t, omega) + 1/(2 sqrt(d-1))."""
    d = state0.dim
    if d <= 2:
        raise ValueError("the constrained ensemble requires dim > 2")
    _check_rank_dim(rank, d)
    f = _initial_overlap_deficit(state0, state_t, omega)
    return abs(f) + 1.0 / (2.0 * np.sqrt(d - 1.0))


def initial_distinguishability_floor(rank: int, dim: int, d_eff: float) -> float:
    """(1 - (K-1)/(d-1)) (1 - 1/d_eff): lower bound on the Haar-mean initial
    distinguishability of measurements containing the initial state."""
    _check_rank_dim(rank, dim)
    return (1.0 - (rank - 1.0) / (dim - 1.0)) * (1.0 - 1.0 / d_eff)


def initial_distinguishability_exact(state0: QuantumState, omega: EquilibriumState,
                                     rank: int) -> float:
    """Exact Haar mean (1 - (K-1)/(d-1)) (1 - tr(rho_0 omega)) of the initial
    distinguishability for a pure initial state."""
    if not state0.is_pure:
        raise ValueError("exact initial mean requires a pure initial state")
    d = state0.dim
    _check_rank_dim(rank, d)
    c = state0.amplitudes
    t0_omega = float(np.vdot(c, omega.dense() @ c).real)
    return (1.0 - (rank - 1.0) / (d - 1.0)) * (1.0 - t0_omega)


def n_outcome_typical_bound(ranks, dim: int) -> float:
    """Haar-mean distinguishability cap for an N-outcome measurement:
    (1/2) sum_j sqrt( K_j (d - K_j) / (d^2 (d+1)) )."""
    ranks = [int(k) for k in ranks]
    if sum(ranks) != dim:
        raise ValueError("outcome ranks must sum to the dimension")
    return 0.5 * sum(typical_distinguishability_bound(k, dim) if 0 < k < dim else 0.0
                     for k in ranks)


def n_outcome_typical_cap(outcomes: int, dim: int) -> float:
    """Rank-independent cap (1/2) sqrt(N / (d+1)), the equal-rank worst case."""
    return 0.5 * np.sqrt(outcomes / (dim + 1.0))


def n_outcome_constrained_bound(f_t: float, outcomes: int, dim: int) -> float:
    """|f(t)| + (1/2) sqrt(N / (d-1)) for N-outcome measurements containing
    the initial state."""
    if outcomes < 2:
        raise ValueError("need at least two outcomes")
    if dim <= 2:
        raise ValueError("the constrained ensemble requires dim > 2")
    return abs(f_t) + 0.5 * np.sqrt(outcomes / (dim - 1.0))


def swap_operator(dim: int) -> np.ndarray:
    """Swap on the doubled space: S (a tensor b) = b tensor a."""
    return np.eye(dim * dim)[np.arange(dim * dim).reshape(dim, dim).T.ravel()]


def twirl_second_moment(projector_matrix) -> tuple:
    """Coefficients (alpha, beta) of the second-moment twirl of P tensor P
    on the symmetric and antisymmetric subspaces.

    For a rank-K projector these are K(K+1)/(d(d+1)) and K(K-1)/(d(d-1));
    they are computed here from traces so near-projector inputs degrade
    gracefully.
    """
    p = np.asarray(projector_matrix, dtype=complex)
    d = p.shape[0]
    tr = np.trace(p).real
    tr2 = np.trace(p @ p).real
    alpha = (tr * tr + tr2) / (d * (d + 1.0))
    beta = (tr * tr - tr2) / (d * (d - 1.0)) if d > 1 else 0.0
    return float(alpha), float(beta)


def twirl_reconstruction(projector_matrix) -> np.ndarray:
    """alpha * Pi_sym + beta * Pi_antisym as a dense d^2 x d^2 matrix."""
    p = np.asarray(projector_matrix, dtype=complex)
    d = p.shape[0]
    alpha, beta = twirl_second_moment(p)
    s = swap_operator(d)
    eye = np.eye(d * d)
    return alpha * (eye + s) / 2.0 + beta * (eye - s) / 2.0


def _block_traces(frames, delta: np.ndarray, ranks) -> np.ndarray:
    """tr(F_b^dag delta F_b) for each column block F_b of each frame in the
    chunks ``frames``, as a (samples, len(ranks)) array."""
    edges = np.cumsum([0, *ranks])
    out = []
    for f in frames:
        blocks = [f[:, :, a:b] for a, b in zip(edges[:-1], edges[1:])]
        out.append(np.stack([np.sum(x.conj() * (delta @ x), axis=(1, 2)).real
                             for x in blocks], axis=1))
    return np.concatenate(out) if out else np.empty((0, len(ranks)))


def _result(values: np.ndarray, exact: float, sampler: HaarSampler) -> TwirlResult:
    n = values.size
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return TwirlResult(exact=float(exact), mc_mean=float(values.mean()),
                       mc_stderr=stderr, samples=n, seed=sampler.seed)


def mc_mean_sq_distinguishability(state_t: QuantumState, omega: EquilibriumState,
                                  rank: int, sampler: HaarSampler,
                                  samples: int) -> TwirlResult:
    """Monte Carlo estimate of the Haar-averaged squared distinguishability,
    referenced against the exact formula."""
    delta = state_t.rho - omega.dense()
    x = _block_traces(sampler.batches(rank, samples), delta, [rank])[:, 0]
    return _result(x * x, exact_mean_sq_distinguishability(state_t, omega, rank), sampler)


def mc_mean_distinguishability(state_t: QuantumState, omega: EquilibriumState,
                               rank: int, sampler: HaarSampler,
                               samples: int) -> TwirlResult:
    """Monte Carlo Haar mean of |tr(P_U (rho_t - omega))|, referenced against
    the typical-measurement cap."""
    delta = state_t.rho - omega.dense()
    x = _block_traces(sampler.batches(rank, samples), delta, [rank])[:, 0]
    return _result(np.abs(x), typical_distinguishability_bound(rank, state_t.dim), sampler)


def mc_constrained_mean(state0: QuantumState, state_t: QuantumState,
                        omega: EquilibriumState, rank: int, sampler: HaarSampler,
                        samples: int) -> TwirlResult:
    """Monte Carlo Haar mean over measurements containing the initial state
    (rank-(K-1) random part on the complement), referenced against the
    constrained mean bound."""
    if sampler.excluded_vector is None:
        raise ValueError("sampler must exclude the initial-state direction")
    delta = state_t.rho - omega.dense()
    base = float(np.vdot(state0.rho, delta).real)
    if rank == 1:
        vals = np.full(samples, abs(base))
    else:
        x = _block_traces(sampler.batches(rank - 1, samples), delta, [rank - 1])[:, 0]
        vals = np.abs(base + x)
    return _result(vals, constrained_mean_bound(state0, state_t, omega, rank), sampler)


def mc_initial_distinguishability(state0: QuantumState, omega: EquilibriumState,
                                  rank: int, sampler: HaarSampler,
                                  samples: int) -> TwirlResult:
    """Monte Carlo Haar mean of the initial distinguishability for
    measurements containing the initial state, referenced against its exact
    value."""
    res = mc_constrained_mean(state0, state0, omega, rank, sampler, samples)
    res.exact = initial_distinguishability_exact(state0, omega, rank)
    return res


def mc_n_outcome_mean(state_t: QuantumState, omega: EquilibriumState, ranks,
                      sampler: HaarSampler, samples: int) -> TwirlResult:
    """Monte Carlo Haar mean of the N-outcome distinguishability for a
    conjugated rank partition, referenced against the N-outcome cap."""
    ranks = [int(k) for k in ranks]
    d = state_t.dim
    if sum(ranks) != d:
        raise ValueError("outcome ranks must sum to the dimension")
    t = _block_traces(sampler._unitaries(samples), state_t.rho - omega.dense(), ranks)
    # the builtin sum adds the outcomes in order, one sample per element
    vals = 0.5 * sum(np.abs(t).T)
    return _result(vals, n_outcome_typical_bound(ranks, d), sampler)


def mc_n_outcome_constrained_mean(state0: QuantumState, state_t: QuantumState,
                                  omega: EquilibriumState, ranks,
                                  sampler: HaarSampler, samples: int) -> TwirlResult:
    """Monte Carlo Haar mean for an N-outcome measurement whose first outcome
    contains the initial state, referenced against |f(t)| + sqrt(N/(d-1))/2."""
    if sampler.excluded_vector is None:
        raise ValueError("sampler must exclude the initial-state direction")
    ranks = [int(k) for k in ranks]
    d = state0.dim
    if sum(ranks) != d - 1:
        raise ValueError("complement ranks must sum to dim - 1")
    delta = state_t.rho - omega.dense()
    base = float(np.vdot(state0.rho, delta).real)
    # frames of d - 1 columns span the complement
    t = _block_traces(sampler.batches(d - 1, samples), delta, ranks)
    vals = 0.5 * (np.abs(base + t[:, 0]) + sum(np.abs(t[:, 1:]).T))
    f = _initial_overlap_deficit(state0, state_t, omega)
    return _result(vals, n_outcome_constrained_bound(f, len(ranks) + 1, d), sampler)


def mc_twirl_pair(projector_matrix, sampler: HaarSampler, samples: int):
    """Entrywise Monte Carlo twirl <(U P U^dag) tensor (U P U^dag)>.

    Returns ``(mean, stderr)`` matrices for comparison with the exact
    symmetric/antisymmetric reconstruction.
    """
    p = np.asarray(projector_matrix, dtype=complex)
    d = p.shape[0]
    acc = np.zeros((d * d, d * d), dtype=complex)
    acc_sq = np.zeros((d * d, d * d))
    step = max(1, CHUNK_ENTRIES // d ** 4)
    for chunk in sampler._unitaries(samples):
        for s in range(0, len(chunk), step):
            u = chunk[s:s + step]
            pu = u @ p @ u.conj().transpose(0, 2, 1)
            k = (pu[:, :, None, :, None] * pu[:, None, :, None, :]).reshape(-1, d * d, d * d)
            # with the running sum prepended, the reduction over the sample
            # axis adds one sample at a time, in order
            acc = np.concatenate([acc[None], k]).sum(axis=0)
            acc_sq = np.concatenate([acc_sq[None], np.abs(k) ** 2]).sum(axis=0)
    mean = acc / samples
    var = np.maximum(acc_sq / samples - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / samples)
    return mean, stderr
