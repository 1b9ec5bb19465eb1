"""Haar-random unitaries, exact twirl formulas, and one Monte Carlo estimator.

Both Haar statements average one quantity, the distinguishability
D(rho_t, omega) = (1/2) sum_b |tr(P_b (rho_t - omega))| of a projective
measurement {P_b} with a fixed rank partition, over a Haar unitary that
conjugates it. "Most measurements are already equilibrated" averages over
all such measurements; the constrained ensemble averages over those that
have the initial state as an eigenvector, with the state inside outcome 0.
Second moments have closed forms through the symmetric/antisymmetric twirl
decomposition. :func:`mc_distinguishabilities` returns per-sample values of
D, which the callers reduce with :func:`mc_mean_stderr` to a mean and a plain
sample standard error (the integrands are bounded, so the CLT is adequate at
desk scale) and compare with those formulas and bounds. A sampler
that excludes a vector v draws the constrained ensemble of v, in the basis
of one Householder reflection (:meth:`HaarSampler.embed`).

All samples come from one batched kernel, :meth:`HaarSampler.batches`: a
rank-k draw takes an n x k Ginibre matrix (2 n k normals) per sample, one
stacked QR of a chunk of them and the R-diagonal phase fix of Mezzadri
(math-ph/0609050), which gives the first k columns of a Haar unitary. The
samples are those of drawing and factoring one n x k matrix at a time, bit
for bit, and do not depend on the chunking.

The estimator reads its rank partition of the sample space through
:func:`_partition_traces`: the frames are drawn only for the blocks other
than the largest, and the largest block's trace is the total trace less the
others. The column blocks of a Haar unitary are exchangeable, so this has
the distribution of drawing every block. Both states are read only through
their ``column_traces``: each chunk of embedded frames gives
tr(F^dag rho_t F) - tr(F^dag omega F) per column from the states' factors,
and nothing d x d is formed.
"""
from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from .measure import Projector
from .states import EquilibriumState, QuantumState, purity

__all__ = [
    "HaarSampler",
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
    "mc_distinguishabilities",
    "mc_mean_stderr",
    "mc_twirl_pair",
]

# Complex Ginibre entries per kernel chunk: enough samples to amortize the
# per-call cost at small d, few enough to keep the working set small.
CHUNK_ENTRIES = 4096


def _check_rank_dim(rank: int, dim: int):
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} outside [1, {dim}]")


def _check_constrained(dim: int, pure: bool = True):
    if dim <= 2:
        raise ValueError("the constrained ensemble requires dim > 2")
    if not pure:
        raise ValueError("the constrained ensemble requires a pure initial state")


class HaarSampler:
    """Seeded stream of Haar-random frames, the first columns of Haar
    unitaries of a fixed dimension.

    With ``excluded_vector`` v set, samples are frames of the orthogonal
    complement of v: the first columns of a Haar unitary on the remaining
    d - 1 dimensions, in the basis of columns 1..d-1 of the Householder
    reflection H = 1 - 2 w w^dag, w = v - a e_0 normalized, a = -v_0/|v_0|
    (-1 when v_0 = 0), so that H e_0 is a multiple of v.
    """

    def __init__(self, seed: int, dim: int, excluded_vector=None):
        self.seed = int(seed)
        self.dim = int(dim)
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.excluded_vector = self._reflector = None
        if excluded_vector is not None:
            v = np.asarray(excluded_vector, dtype=complex).reshape(-1)
            if v.size != dim:
                raise ValueError("excluded vector has the wrong dimension")
            _check_constrained(dim)
            norm = np.linalg.norm(v)
            if not 0 < norm < np.inf:  # also false for NaN
                raise ValueError("excluded vector must be finite and nonzero")
            self.excluded_vector = v = v / norm
            w = v.copy()
            w[0] += v[0] / abs(v[0]) if v[0] else 1.0
            self._reflector = w / np.linalg.norm(w)

    @property
    def sample_dim(self) -> int:
        return self.dim if self.excluded_vector is None else self.dim - 1

    def batches(self, rank: int, count: int):
        """First ``rank`` columns of the next ``count`` samples, in chunks of
        shape (m, n, rank) in sample-space coordinates (n = sample_dim; see
        :meth:`embed`). Each sample consumes 2 n rank normals, so the stream
        does not depend on the chunking."""
        n = self.sample_dim
        _check_rank_dim(rank, n)
        per_chunk = max(1, CHUNK_ENTRIES // (n * rank))
        for start in range(0, count, per_chunk):
            g = self._rng.standard_normal((min(per_chunk, count - start), 2, n, rank))
            q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
            # absorb the R-diagonal phases so the distribution is exactly
            # Haar, not just orthonormal
            diag = np.diagonal(r, axis1=1, axis2=2)
            yield q * (diag / np.abs(diag))[:, None, :]

    def embed(self, f: np.ndarray) -> np.ndarray:
        """Frames ``f`` of shape (..., n, k) in sample-space coordinates as
        frames (..., d, k) of the full space: ``f`` itself when no vector is
        excluded, else H [0; f] = [0; f] - 2 w (w^dag [0; f])."""
        w = self._reflector
        if w is None:
            return f
        out = (-2.0 * w)[:, None] * (w[1:].conj() @ f)[..., None, :]
        out[..., 1:, :] += f
        return out

    def frame(self, rank: int) -> np.ndarray:
        """First ``rank`` columns of the next sample, as an orthonormal d x
        rank frame (inside the complement when an excluded vector is set)."""
        return self.embed(next(self.batches(rank, 1))[0])

    def projector(self, rank: int) -> Projector:
        return Projector.from_factor(self.frame(rank))


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


def _overlap_deficit(v, state_t: QuantumState, omega: EquilibriumState) -> float:
    """<v|rho_t|v> - <v|omega|v>, both read through the states' factors."""
    c = v[:, None]
    return float(state_t.column_traces(c)[0] - omega.column_traces(c)[0])


def _initial_overlap_deficit(state0: QuantumState, state_t: QuantumState,
                             omega: EquilibriumState) -> float:
    """f(t) = tr(rho_0 (rho_t - omega)) for a pure rho_0 = c c^dag."""
    _check_constrained(state0.dim, state0.is_pure)
    return _overlap_deficit(state0.amplitudes, state_t, omega)


def constrained_mean_bound(state0: QuantumState, state_t: QuantumState,
                           omega: EquilibriumState, rank: int) -> float:
    """Haar-mean bound for two-outcome measurements containing the initial
    state as an outcome direction: D_{rho_0}(rho_t, omega) + 1/(2 sqrt(d-1))."""
    d = state0.dim
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
    d = state0.dim
    _check_constrained(d, state0.is_pure)
    _check_rank_dim(rank, d)
    t0_omega = float(omega.column_traces(state0.amplitudes[:, None])[0])
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


def n_outcome_constrained_bound(state0: QuantumState, state_t: QuantumState,
                                omega: EquilibriumState, outcomes: int) -> float:
    """|f(t)| + (1/2) sqrt(N / (d-1)) for N-outcome measurements containing
    the initial state."""
    d = state0.dim
    if outcomes < 2:
        raise ValueError("need at least two outcomes")
    f = _initial_overlap_deficit(state0, state_t, omega)
    return abs(f) + 0.5 * np.sqrt(outcomes / (d - 1.0))


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
    """alpha * Pi_sym + beta * Pi_antisym as a full d^2 x d^2 matrix."""
    p = np.asarray(projector_matrix, dtype=complex)
    d = p.shape[0]
    alpha, beta = twirl_second_moment(p)
    s = swap_operator(d)
    eye = np.eye(d * d)
    return alpha * (eye + s) / 2.0 + beta * (eye - s) / 2.0


def _check_samples(samples: int):
    if samples < 2:
        raise ValueError(f"a Monte Carlo estimate needs at least 2 samples "
                         f"for its standard error, got {samples}")


def _partition_traces(sampler: HaarSampler, state_t: QuantumState,
                      omega: EquilibriumState, ranks, count: int,
                      total: float) -> np.ndarray:
    """tr(F_b^dag (rho_t - omega) F_b) for each block F_b of a rank partition
    of the sample space, for ``count`` samples, as a (count, len(ranks)) array.

    ``ranks`` (zeros allowed) sum to the sampler's sample dimension n, and
    ``total`` is tr(rho_t - omega) on the sample space. Frames are drawn only
    for the blocks other than the (first) largest, in their order, n -
    max(ranks) columns per sample, embedded by :meth:`HaarSampler.embed`,
    and read through both states' column traces; the largest block's trace
    is ``total`` less theirs.
    """
    _check_samples(count)
    n = sampler.sample_dim
    if state_t.dim != sampler.dim or sum(ranks) != n:
        raise ValueError(f"need states of dimension {sampler.dim} and ranks summing "
                         f"to {n}, the sampler's sample dimension; got "
                         f"{state_t.dim} and {ranks}")
    big = int(np.argmax(ranks))
    rest = [i for i in range(len(ranks)) if i != big]
    edges = np.cumsum([0, *(ranks[i] for i in rest)])
    out = np.zeros((count, len(ranks)))
    if edges[-1]:
        chunks = []
        for f in map(sampler.embed, sampler.batches(int(edges[-1]), count)):
            cols = state_t.column_traces(f) - omega.column_traces(f)
            chunks.append(np.stack([cols[:, a:b].sum(axis=1)
                                    for a, b in zip(edges[:-1], edges[1:])], axis=1))
        out[:, rest] = np.concatenate(chunks)
    out[:, big] = total - out.sum(axis=1)
    return out


def mc_distinguishabilities(state_t: QuantumState, omega: EquilibriumState, ranks,
                            sampler: HaarSampler, samples: int) -> np.ndarray:
    """Per-sample N-outcome distinguishability (1/2) sum_b |tr(P_b (rho_t -
    omega))| of ``samples`` Haar-random measurements, one per element.

    The outcomes are a rank partition ``ranks`` (zeros allowed) of the
    sampler's sample space, conjugated by a Haar unitary on it. When the
    sampler excludes a vector v, v is also in outcome 0: its trace gains
    f = <v|rho_t - omega|v>, and the traces on the complement sum to -f.
    """
    ranks = [int(k) for k in ranks]
    v = sampler.excluded_vector
    f = 0.0 if v is None else _overlap_deficit(v, state_t, omega)
    t = _partition_traces(sampler, state_t, omega, ranks, samples, -f)
    t[:, 0] += f
    # the builtin sum adds the outcomes in order, one sample per element
    return 0.5 * sum(np.abs(t).T)


def mc_mean_stderr(values: np.ndarray) -> tuple:
    """(mean, standard error) of per-sample Monte Carlo ``values``, the
    standard error from the ``ddof=1`` sample deviation."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def mc_twirl_pair(projector_matrix, sampler: HaarSampler, samples: int):
    """Entrywise Monte Carlo twirl <(U P U^dag) tensor (U P U^dag)> over
    whole Haar unitaries U, so the sampler may not exclude a vector.

    Returns ``(mean, stderr)`` matrices for comparison with the exact
    symmetric/antisymmetric reconstruction.
    """
    _check_samples(samples)
    if sampler.excluded_vector is not None:
        raise ValueError("the twirl needs a sampler without an excluded vector")
    p = np.asarray(projector_matrix, dtype=complex)
    d = p.shape[0]
    acc = np.zeros((d * d, d * d), dtype=complex)
    acc_sq = np.zeros((d * d, d * d))
    step = max(1, CHUNK_ENTRIES // d ** 4)
    for chunk in sampler.batches(sampler.dim, samples):
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
