"""Scenario builders and the slow-equilibration snapshot subspace.

A scenario is its initial state, which carries its spectrum. The snapshot
subspace spans sequential evolved copies of a pure state at step
2*eps/sigma_E; measuring its projector stays far from equilibrium for a
window that grows with the number of snapshots, yet the projector's small
rank forces eventual equilibration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from .averaging import TimeGrid, time_average
from .measure import (Measurement, Projector, _phases, expectation_series,
                      series_distinguishability)
from .spectra import DEGENERACY_RTOL, EnergySpectrum, _degeneracy_array
from .states import (QuantumState, dephase, effective_dimension, energy_moments,
                     level_distribution)

__all__ = [
    "harmonic_oscillator_1d",
    "harmonic_oscillator_3d_boltzmann",
    "gaussian_scenario",
    "random_scenario",
    "SnapshotSubspace",
    "snapshot_subspace",
    "SlowWindowReport",
    "slow_window_check",
    "partitioned_slow_measurement",
]

SNAPSHOT_SVD_CUTOFF = 1e-8
CEILING_SLACK = 1e-3  # quadrature allowance on the eventual-equilibration ceiling
MIN_LONG_WINDOW_SIGMA_T = 500.0  # the ceiling's averaging window is at least 500 / sigma_E


def harmonic_oscillator_1d(levels: int, spacing: float) -> QuantumState:
    """Equally spaced nondegenerate ladder E_n = (n + 1/2) * spacing with a
    pure state spread evenly (real positive amplitudes) over all levels."""
    if levels < 2:
        raise ValueError("need at least two levels")
    energies = (np.arange(levels) + 0.5) * spacing
    amps = np.full(levels, 1.0 / np.sqrt(levels))
    spec = EnergySpectrum(energies, np.ones(levels, dtype=int))
    return QuantumState(spec, amps)


def harmonic_oscillator_3d_boltzmann(levels: int, spacing: float,
                                     temperature: float) -> QuantumState:
    """Ladder E_n = (n + 1/2) * spacing with three-dimensional oscillator
    degeneracies (n+1)(n+2)/2 and a thermal diagonal state, level weights
    proportional to degeneracy times the Boltzmann factor."""
    if levels < 1:
        raise ValueError("need at least one level")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    n = np.arange(levels)
    energies = (n + 0.5) * spacing
    degs = ((n + 1) * (n + 2)) // 2
    weights = degs * np.exp(-(energies - energies[0]) / temperature)
    probs = weights / weights.sum()
    spec = EnergySpectrum(energies, degs)
    diag = np.repeat(probs / degs, degs)
    return QuantumState(spec, np.diag(np.sqrt(diag)))


def gaussian_scenario(num_levels: int, sigma: float, span: float) -> QuantumState:
    """Equally spaced levels across a window of total width span * sigma,
    carrying a pure state with Gaussian level probabilities of target
    standard deviation sigma.
    """
    if num_levels < 100:
        raise ValueError("need at least 100 levels for continuum fidelity")
    if not (sigma > 0 and span > 0):
        raise ValueError("sigma and span must be positive")
    half = span * sigma / 2.0
    energies = np.linspace(-half, half, num_levels)
    probs = np.exp(-energies ** 2 / (2.0 * sigma ** 2))
    probs /= probs.sum()
    spec = EnergySpectrum(energies, np.ones(num_levels, dtype=int))
    return QuantumState(spec, np.sqrt(probs))


def random_scenario(seed: int, dim: int, degeneracies=None) -> QuantumState:
    """Seeded generic scenario: level spacings drawn i.i.d. exponential with
    unit mean (a Poisson spectrum), and a Haar-random pure state.

    Levels that land within the :class:`EnergySpectrum` separation limit of
    the one below merge, transitively, into one degenerate level at the
    first one's energy, with the degeneracies summed. The draws do not
    change, so a seed without such a collision gives the same scenario.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if degeneracies is None:
        degeneracies = np.ones(dim, dtype=int)
    degeneracies = _degeneracy_array(degeneracies)
    if degeneracies.sum() != dim:
        raise ValueError("degeneracies must sum to the dimension")
    num_levels = degeneracies.size
    spacings = rng.exponential(1.0, num_levels - 1)
    levels = np.concatenate(([0.0], np.cumsum(spacings)))
    scale = max(1.0, float(np.abs(levels).max()))
    first = np.concatenate(([True], np.diff(levels) > DEGENERACY_RTOL * scale))
    spec = EnergySpectrum(levels[first],
                          np.add.reduceat(degeneracies, np.flatnonzero(first)))
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuantumState(spec, z / np.linalg.norm(z))


@dataclass(frozen=True, eq=False)
class SnapshotSubspace:
    """Orthonormal basis of the span of sequential snapshots of a pure state.

    The snapshots are nearly parallel by design (consecutive overlaps at
    least 1 - eps^2), so the basis comes from a rank-revealing SVD with a
    relative singular-value cutoff, never from sequential orthogonalization.
    """

    count: int
    tau: float
    epsilon: float
    basis: np.ndarray
    singular_values: np.ndarray
    snapshot_residual: float

    @property
    def effective_rank(self) -> int:
        return int(self.basis.shape[1])

    def projector(self) -> Projector:
        return Projector.from_factor(self.basis)


def snapshot_subspace(state: QuantumState, count: int, epsilon: float) -> SnapshotSubspace:
    """Span of |psi(j tau)> for j = 0..count-1 with tau = 2 eps / sigma_E.

    Rank deficiency (near-parallel snapshots) is reported through
    ``effective_rank``, not treated as an error; the slow-equilibration
    bounds only need rank <= count. An epsilon whose square or last
    snapshot time overflows is rejected.
    """
    if count < 1:
        raise ValueError("need at least one snapshot")
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    if not state.is_pure:
        raise ValueError("snapshot subspaces are built from pure states")
    sigma = float(energy_moments(level_distribution(state)).std)
    tau = 2.0 * epsilon / sigma if sigma > 0 else 0.0
    if not np.isfinite([float(epsilon) * float(epsilon), tau * (count - 1)]).all():
        raise ValueError(f"epsilon {epsilon!r} is too large: its square or the last "
                         "snapshot time overflows")
    energies = state.spectrum.index_energies
    times = tau * np.arange(count)
    snaps = state.amplitudes[:, None] * _phases(energies, times)
    u, s, _ = np.linalg.svd(snaps, full_matrices=False)
    keep = s > SNAPSHOT_SVD_CUTOFF * s[0]
    basis = u[:, keep]
    residual = float((1.0 - np.sum(np.abs(basis.conj().T @ snaps) ** 2, axis=0)).max())
    return SnapshotSubspace(count=count, tau=tau, epsilon=epsilon, basis=basis,
                            singular_values=s, snapshot_residual=residual)


@dataclass(frozen=True, eq=False)
class SlowWindowReport:
    """Floor, ceiling and refinement checks for a snapshot-subspace
    measurement, with the sampled distinguishability ``values`` at
    ``times``; ``worst_value`` is their minimum."""

    times: np.ndarray
    values: np.ndarray
    floor: float
    worst_time: float
    worst_value: float
    trace_omega: float
    trace_omega_bound: float
    long_time_average: float
    ceiling: float
    refinement_holds: bool

    @property
    def checks(self) -> list:
        """The four checks as ``(name, record)`` pairs, each record with its
        ``holds`` verdict."""
        return [
            ("window_floor", {"worst_time": self.worst_time, "worst_value": self.worst_value,
                              "floor": self.floor,
                              "holds": self.worst_value >= self.floor}),
            ("equilibrium_weight", {"value": self.trace_omega, "limit": self.trace_omega_bound,
                                    "holds": self.trace_omega <= self.trace_omega_bound}),
            ("long_time_ceiling", {"value": self.long_time_average, "limit": self.ceiling,
                                   "holds": (self.long_time_average
                                             <= self.ceiling + CEILING_SLACK)}),
            ("refinement_dominance", {"holds": self.refinement_holds}),
        ]


def slow_window_check(subspace: SnapshotSubspace, state: QuantumState, outcomes: int,
                      num_samples: int) -> SlowWindowReport:
    """Sample the distinguishability of the snapshot projector across the
    guaranteed window [0, t_end], t_end = (2K-1) eps / sigma_E, and check it
    stays above 1 - eps^2 - sqrt(K / d_eff), and that splitting the subspace
    into ``outcomes`` - 1 blocks plus the complement stays at or above it up
    to 1e-10 on the same grid; then check that the average over [0, T] stays
    under the eventual-equilibration ceiling 2 sqrt(K / d_eff), with
    T = max(MIN_LONG_WINDOW_SIGMA_T / sigma_E, 4 t_end / ceiling). The
    distinguishability is at most 1, so the slow stretch then adds at most
    t_end / T <= ceiling / 4 to the average at any d. Where 4 t_end / ceiling
    is smaller, as at the slow experiment's default d=2048, T is the minimum."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    dist = level_distribution(state)
    sigma = energy_moments(dist).std
    if not sigma > 0:
        raise ValueError("slow-window check needs a state with energy spread")
    d_eff = effective_dimension(dist)
    k = subspace.count
    eps = subspace.epsilon
    omega = dephase(state)
    proj = subspace.projector()
    p_omega = proj.expectation(omega)

    t_end = (2.0 * k - 1.0) * eps / sigma
    times = np.linspace(0.0, t_end, num_samples)
    # the floor's projector and the refined outcomes share one series call;
    # the complement outcome reuses the projector's factor
    meas = partitioned_slow_measurement(subspace, outcomes)
    stacked = expectation_series([proj, *meas.projectors], state, times)
    values = np.abs(stacked[0] - p_omega)
    floor = 1.0 - eps ** 2 - np.sqrt(k / d_eff)
    worst = int(np.argmin(values))
    refined = series_distinguishability(stacked[1:], meas.outcome_probabilities(omega))

    ceiling = 2.0 * np.sqrt(k / d_eff)
    grid = TimeGrid(max(MIN_LONG_WINDOW_SIGMA_T / sigma, 4.0 * t_end / ceiling),
                    state.spectrum.span)
    long_avg = time_average(np.abs(expectation_series(proj, state, grid) - p_omega),
                            grid)

    return SlowWindowReport(
        times=times,
        values=values,
        floor=float(floor),
        worst_time=float(times[worst]),
        worst_value=float(values[worst]),
        trace_omega=float(p_omega),
        trace_omega_bound=float(np.sqrt(k / d_eff)),
        long_time_average=float(long_avg.value),
        ceiling=float(ceiling),
        refinement_holds=bool(np.all(refined >= values - 1e-10)),
    )


def partitioned_slow_measurement(subspace: SnapshotSubspace,
                                 outcomes: int) -> Measurement:
    """Split the snapshot subspace into outcomes-1 blocks plus the
    complement; refining the two-outcome measurement this way can only
    increase the distinguishability."""
    r = subspace.effective_rank
    if outcomes < 2:
        raise ValueError("need at least two outcomes")
    if outcomes - 1 > r:
        raise ValueError(f"cannot split rank {r} into {outcomes - 1} blocks")
    edges = np.linspace(0, r, outcomes).round().astype(int)
    blocks = [Projector.from_factor(subspace.basis[:, a:b])
              for a, b in zip(edges[:-1], edges[1:])]
    return Measurement([*blocks, subspace.projector().complement()])
