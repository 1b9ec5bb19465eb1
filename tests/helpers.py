"""Independent brute-force oracles and small utilities shared by the tests.

These deliberately avoid the library's sliding-window / closed-form code
paths so that agreement is meaningful. The paper's bounds that no
experiment evaluates (the population term, the N-outcome extension, the
window-width optimizer, the bound chain and the tight constrained mean) live
here too, as references the theorem checks compare against.
"""
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate

from qequil import batteries, cli, haar
from qequil.averaging import (LORENTZIAN_DOMINATION_FACTOR, MIN_GRID_SAMPLES,
                              lorentzian_purity, lorentzian_purity_product,
                              lorentzian_state)
from qequil.bounds import (fast_equilibration_constant, gap_counting_terms,
                           gaussian_purity_asymptote, gaussian_purity_exact,
                           general_distinguishability_bound, general_expectation_bound)
from qequil.constructions import gaussian_scenario
from qequil.measure import (PROJECTOR_TOL, Projector, _phases, expectation_series,
                            series_distinguishability, two_outcome)
from qequil.spectra import (EnergySpectrum, LevelDistribution, max_window_probability,
                            max_window_probability_window)
from qequil.states import (TRACE_TOL, EquilibriumState, QuantumState, dephase,
                           effective_dimension, energy_moments, level_distribution,
                           purity)

HERMITICITY_TOL = 1e-10


def linspace_grid(window: float, max_gap: float) -> np.ndarray:
    """The times of one window's averaging grid from ``np.linspace``: the
    sample count rule of :class:`qequil.averaging.TimeGrid` written out
    (spacing at most pi / (4 max_gap), at least MIN_GRID_SAMPLES, odd)."""
    n = max(MIN_GRID_SAMPLES, int(np.ceil(4.0 * max_gap * window / np.pi)) + 1)
    return np.linspace(0.0, window, n + 1 - n % 2)


def trapezoid_average(values, times) -> tuple:
    """(average, refinement error) over one window's grid by ``np.trapezoid``:
    the integral over the span, and its distance to the same on every other
    time."""
    values = np.asarray(values, dtype=float)
    full = float(np.trapezoid(values, times) / (times[-1] - times[0]))
    half = float(np.trapezoid(values[::2], times[::2]) / (times[::2][-1] - times[::2][0]))
    return full, abs(full - half)


def dephased_purity_bound(dist: LevelDistribution, window, delta):
    """Window-probability bound on the Lorentzian-averaged purity,
    2 eta_{delta / 2T} / (1 - e^{-delta}), from its own window scan:
    the oracle of the battery's caps, which share one scan with eta."""
    eta = max_window_probability(dist, delta / (2.0 * window))
    return 2.0 * eta / (1.0 - np.exp(-delta))


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


def all_gaps(levels) -> np.ndarray:
    """E_n - E_m over every ordered pair n != m of the levels, unsorted."""
    return np.array([a - b for n, a in enumerate(levels)
                     for m, b in enumerate(levels) if n != m], dtype=float)


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


def projector_from_matrix(matrix) -> Projector:
    """A projector from its dense d x d matrix: checked for Hermiticity and
    idempotency, then reduced to the eigenvectors of eigenvalue 1."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("projector must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("projector matrix has non-finite entries")
    herm = float(np.abs(m - m.conj().T).max(initial=0.0))
    idem = float(np.abs(m @ m - m).max(initial=0.0))
    if herm > PROJECTOR_TOL or idem > PROJECTOR_TOL:
        raise ValueError(
            f"not a projector: hermiticity residual {herm:.3e}, "
            f"idempotency residual {idem:.3e} (tol {PROJECTOR_TOL:g})"
        )
    eigvals, vecs = np.linalg.eigh(m)
    return Projector(vecs[:, eigvals > 0.5])


def gap_series(projector, state: QuantumState, times) -> np.ndarray:
    """tr(P rho_t) = sum_jk conj(P)_jk rho_jk e^{-i(E_j - E_k)t}, summed over
    all d^2 gaps of the dense projector and the dense rho."""
    times = np.asarray(times, dtype=float)
    energies = state.spectrum.index_energies
    coeff = (dense(projector).conj() * dense_rho(state)).ravel()
    gaps = (energies[:, None] - energies[None, :]).ravel()
    return (coeff @ np.exp(-1j * np.outer(gaps, times))).real


def direct_series(projector, state: QuantumState, times) -> np.ndarray:
    """tr(P rho_t) from the whole (d, n) phase array exp(-i E t), one state
    column a at a time: sum |(V^dag * a) @ phases|^2, the form that
    expectation_series factors into block starts and offsets."""
    times = np.asarray(times, dtype=float)
    phases = _phases(state.spectrum.index_energies, times)
    v = projector.factor
    values = sum(np.sum(np.abs((v.conj().T * a[None, :]) @ phases) ** 2, axis=0)
                 for a in state.factor.T)
    return 1.0 - values if projector.is_complement else values


def dense_rho(state: QuantumState) -> np.ndarray:
    """A A^dag as a d x d matrix, by the formula of
    :func:`qequil.averaging.lorentzian_state`: one column goes through
    np.outer, whose entries are the single rounded products c_j conj(c_k); a
    matrix product does not promise those bits."""
    a = state.factor
    return np.outer(a[:, 0], a[:, 0].conj()) if state.is_pure else a @ a.conj().T


def mixed_state(spectrum: EnergySpectrum, rho) -> QuantumState:
    """Density-matrix oracle: factor a finite, Hermitian, unit-trace,
    positive semidefinite density matrix. rho = V diag(w) V^dag gives
    A = V sqrt(w) over the eigenvalues w above the eigensolver's roundoff,
    d eps max(w). An eigenvalue below -TRACE_TOL is rejected."""
    d = spectrum.dim
    m = np.asarray(rho, dtype=complex)
    if m.shape != (d, d):
        raise ValueError(f"density matrix has shape {m.shape}, expected {(d, d)}")
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix entries must be finite")
    herm = float(np.abs(m - m.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: residual {herm:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace is {tr!r}, not 1")
    w, v = np.linalg.eigh(m)
    if w[0] < -TRACE_TOL:
        raise ValueError(f"density matrix not positive semidefinite: "
                         f"eigenvalue {w[0]:.3e}")
    keep = w > d * np.finfo(float).eps * w[-1]
    return QuantumState(spectrum, v[:, keep] * np.sqrt(w[keep]))


def dense_dephase(state: QuantumState) -> np.ndarray:
    """Dense equilibrium density matrix: every element of rho between
    distinct levels zeroed, the within-level blocks kept, as a d x d array
    (never factored, so it is bit for bit the masked copy of rho)."""
    lvl = state.spectrum.level_of_index
    mask = lvl[:, None] == lvl[None, :]
    return np.where(mask, dense_rho(state), 0.0)


def matrix_from_column_traces(state) -> np.ndarray:
    """The d x d matrix of a state or an equilibrium state, read back through
    its column traces alone by polarization: tr(v^dag M v) on e_j, on
    (e_j + e_k)/sqrt(2) and on (e_j + i e_k)/sqrt(2) is M_jj,
    (M_jj + M_kk)/2 + Re M_jk and (M_jj + M_kk)/2 - Im M_jk."""
    eye = np.eye(state.dim)
    diag = state.column_traces(eye)
    mean = (diag[:, None] + diag[None, :]) / 2.0
    # frame j holds the vectors (e_j + c e_k)/sqrt(2) as its columns k
    re = state.column_traces((eye[:, :, None] + eye[None]) / np.sqrt(2.0)) - mean
    im = mean - state.column_traces((eye[:, :, None] + 1j * eye[None]) / np.sqrt(2.0))
    return re + 1j * im


def dense_expectation(projector, rho) -> float:
    """tr(P rho) from the dense projector and a dense density matrix."""
    return float(np.trace(dense(projector) @ rho).real)


def dense_distinguishability(measurement, a, b) -> float:
    """Half the L1 distance of the outcome statistics of two dense density
    matrices."""
    return 0.5 * sum(abs(dense_expectation(p, a) - dense_expectation(p, b))
                     for p in measurement.projectors)


def distinguishability_series(m, state: QuantumState, fixed, times) -> np.ndarray:
    """D(rho_t, fixed) under m for an array of times, with state evolving
    and the comparison state (typically the equilibrium state) held fixed:
    series_distinguishability of one stacked series call for all outcomes,
    the form gap_counting_battery takes on its window grids."""
    return series_distinguishability(expectation_series(m.projectors, state, times),
                                     m.outcome_probabilities(fixed))


def sigma_e_of(state: QuantumState) -> float:
    """Energy standard deviation sigma_E of the state's level distribution."""
    return energy_moments(level_distribution(state)).std


def d_eff_of(state: QuantumState) -> float:
    """Effective dimension d_eff of the state's level distribution."""
    return effective_dimension(level_distribution(state))


def overlap(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|^2 for two pure states."""
    if not (a.is_pure and b.is_pure):
        raise ValueError("overlap is defined for pure states only")
    if a.dim != b.dim:
        raise ValueError("states live on different dimensions")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def success_probability(distance: float) -> float:
    """Probability of correctly guessing which of two equally likely states
    was measured, given their distinguishability."""
    if not 0.0 <= distance <= 1.0 + 1e-12:
        raise ValueError(f"distinguishability {distance!r} outside [0, 1]")
    return 0.5 + 0.5 * min(distance, 1.0)


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    eigs = np.linalg.eigvalsh(dense_rho(a) - dense_rho(b))
    return 0.5 * float(np.abs(eigs).sum())


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def random_pure(rng, spectrum: EnergySpectrum) -> QuantumState:
    z = rng.standard_normal(spectrum.dim) + 1j * rng.standard_normal(spectrum.dim)
    return QuantumState.pure(spectrum, z / np.linalg.norm(z))


def random_mixed(rng, spectrum: EnergySpectrum, components=3) -> QuantumState:
    """sum_i w_i z_i z_i^dag over ``components`` random unit vectors z_i with
    Dirichlet weights w_i, built as its factor with columns sqrt(w_i) z_i."""
    d = spectrum.dim
    weights = rng.dirichlet(np.ones(components))
    columns = []
    for w in weights:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        columns.append(np.sqrt(w) * z / np.linalg.norm(z))
    return QuantumState(spectrum, np.column_stack(columns))


def poisson_spectrum(rng, num_levels, mean_spacing=1.0) -> EnergySpectrum:
    spac = rng.exponential(mean_spacing, num_levels - 1)
    return EnergySpectrum(np.concatenate(([0.0], np.cumsum(spac))),
                          np.ones(num_levels, dtype=int))


class PerSampleHaar:
    """Reference Haar stream: one n x k Ginibre matrix, one QR and one phase
    fix per rank-k sample, on the random stream of a fresh ``HaarSampler``."""

    def __init__(self, sampler):
        self._rng = sampler._rng
        self.excluded = sampler.excluded_vector
        self.embed = sampler.embed
        self.n = sampler.sample_dim

    def sample(self, rank):
        """First ``rank`` columns of the next sample, in sample-space
        coordinates."""
        n = self.n
        z = (self._rng.standard_normal((n, rank))
             + 1j * self._rng.standard_normal((n, rank))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diag(r)
        return q * (diag / np.abs(diag))

    def frame(self, rank):
        """The next sample embedded in the full space by the sampler's own
        :meth:`~qequil.haar.HaarSampler.embed`."""
        return self.embed(self.sample(rank))


def _two_outcome_value(frame, delta):
    return float(np.sum(frame.conj() * (delta @ frame)).real)


def _split(frame, ranks):
    edges = np.cumsum([0, *ranks])
    return [frame[:, a:b] for a, b in zip(edges[:-1], edges[1:])]


def per_sample_stats(vals):
    """(mean, stderr) as the Monte Carlo estimators report them."""
    n = vals.size
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def per_sample_partition(haar, delta, ranks, samples):
    """Block traces of a rank partition of the sample space, one sample at a
    time and densely in the full d-dimensional space (``delta`` is d x d).

    The blocks other than the (first) largest are the column blocks, in
    order, of one embedded frame F of n - max(ranks) columns; the largest is
    tr((I_s - F F^dag) delta), with I_s the projector onto the sample space:
    the identity, or I - v v^dag for an excluded vector v.
    """
    big = int(np.argmax(ranks))
    others = [k for i, k in enumerate(ranks) if i != big]
    d = delta.shape[0]
    eye = np.eye(d)
    if haar.excluded is not None:
        eye = eye - np.outer(haar.excluded, haar.excluded.conj())
    out = np.empty((samples, len(ranks)))
    for s in range(samples):
        f = haar.frame(sum(others)) if sum(others) else np.zeros((d, 0))
        vals = [_two_outcome_value(b, delta) for b in _split(f, others)]
        vals.insert(big, float(np.trace((eye - f @ f.conj().T) @ delta).real))
        out[s] = vals
    return out


def per_sample_distinguishabilities(haar, delta, ranks, samples):
    """(1/2) sum_b |t_b| per sample for the block traces of
    :func:`per_sample_partition`; an excluded vector v belongs to outcome 0,
    which gains <v|delta|v>."""
    t = per_sample_partition(haar, delta, ranks, samples)
    if haar.excluded is not None:
        t[:, 0] += float(np.vdot(haar.excluded, delta @ haar.excluded).real)
    return 0.5 * np.abs(t).sum(axis=1)


def per_sample_twirl(haar, p, samples):
    d = p.shape[0]
    acc = np.zeros((d * d, d * d), dtype=complex)
    acc_sq = np.zeros((d * d, d * d))
    for _ in range(samples):
        u = haar.frame(d)
        pu = u @ p @ u.conj().T
        k = np.kron(pu, pu)
        acc += k
        acc_sq += np.abs(k) ** 2
    mean = acc / samples
    var = np.maximum(acc_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


def running_average_trapezoid(times, values) -> np.ndarray:
    """Reference running average: scipy's cumulative trapezoid, then the
    same division as :func:`qequil.averaging.running_average`."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    cum = integrate.cumulative_trapezoid(values, times, initial=0.0)
    out = np.empty_like(values)
    out[0] = values[0]
    out[1:] = cum[1:] / (times[1:] - times[0])
    return out


def lorentzian_kernel(t, window: float) -> np.ndarray:
    """Cauchy weight T / (pi (T^2 + (t - T/2)^2)), normalized over the line."""
    t = np.asarray(t, dtype=float)
    return window / (np.pi * (window ** 2 + (t - window / 2.0) ** 2))


def lorentzian_phase_average(nu, window: float):
    """Closed-form Lorentzian average e^{-|nu| T} e^{i nu T / 2} of e^{i nu t},
    entrywise for an array of frequencies; 1 at T = 0, the kernel's limit,
    and 0 wherever the damping underflows, where nu T may be infinite. The
    entrywise oracle of :func:`qequil.averaging.lorentzian_state`."""
    if not 0 <= window < np.inf:  # at T = inf the zero gaps damp by inf * 0 = NaN
        raise ValueError("window must be nonnegative and finite")
    with np.errstate(over="ignore"):  # -inf at a huge T is the T -> inf limit
        damp = np.exp(-abs(nu) * window)
    return damp * np.exp(1j * np.where(damp > 0, nu, 0.0) * window / 2.0)


def lorentzian_state_entrywise(state: QuantumState, window: float) -> np.ndarray:
    """rho_jk times the phase average at nu = E_k - E_j, taken entrywise
    over the d x d frequencies: the Lorentzian-averaged state without its
    per-index phases."""
    e = state.spectrum.index_energies
    return dense_rho(state) * lorentzian_phase_average(e[None, :] - e[:, None], window)


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


def rows(table: dict) -> list:
    """The rows of a table (a dict of equal-length columns) as dicts of
    Python scalars, for tests that compare rows."""
    columns = [column.tolist() if isinstance(column, np.ndarray) else list(column)
               for column in table.values()]
    return [dict(zip(table, values)) for values in zip(*columns)]


def scalar_kind(value) -> type:
    """The Python type a cell is written as: a numpy scalar counts as the
    Python scalar it holds."""
    return type(value.item() if isinstance(value, np.generic) else value)


def write_rows_csv_oracle(path, rows: list, comment: str) -> None:
    """The per-row CSV writer that the column writer replaced: one line per
    dict row under the first row's keys, each cell through ``cli._fmt``; a
    row with other keys raises ``ValueError``."""
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        if not rows:
            return
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for i, row in enumerate(rows):
            if row.keys() != rows[0].keys():
                raise ValueError(f"{path}: row {i} has keys {sorted(row)}, "
                                 f"expected {sorted(cols)}")
            fh.write(",".join(cli._fmt(row[c]) for c in cols) + "\n")


def per_point_gaussian_checks(config: dict) -> list:
    """The ``eta_estimate`` checks of :func:`qequil.batteries.run_gaussian`,
    then its ``purity_asymptote`` checks, one grid point at a time."""
    dist = level_distribution(gaussian_scenario(config["levels"], config["sigma"],
                                                config["span"]))
    sigma = energy_moments(dist).std
    limit = batteries.GAUSSIAN_ETA_LIMIT
    estimates, asymptotes = [], []
    for st in config["sigma_t_grid"]:
        window = float(st) / sigma
        eta, _ = max_window_probability_window(dist, 1.0 / window)
        product = eta * sigma * window
        estimates.append(("eta_estimate", {"sigma_T": float(st), "value": product,
                                           "limit": limit, "holds": product <= limit}))
        if float(st) >= 5.0:
            exact = gaussian_purity_exact(sigma, window)
            asym = gaussian_purity_asymptote(sigma, window)
            asymptotes.append(("purity_asymptote", {"sigma_T": float(st), "exact": exact,
                                                    "asymptote": asym,
                                                    "holds": abs(exact - asym) <= 0.1 * asym}))
    return estimates + asymptotes


def per_window_fast_equilibration_battery(seed: int, trials: int, t_points: int,
                                          max_rank: int) -> list:
    """Rows of :func:`qequil.batteries.fast_equilibration_battery`, computed
    window by window with the scalar form of every call: one series on the
    window's own grid, one window scan with the bound c sqrt(eta K) written
    out, one Lorentzian purity and five window-probability caps per window,
    and the matrix path of the purity from the entrywise phase average."""
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        state, label = batteries._random_trial_scenario(rng)
        spec = state.spectrum
        dist = level_distribution(state)
        sigma = energy_moments(dist).std
        omega = dephase(state)
        d = spec.dim
        rank = int(rng.integers(1, min(max_rank, d // 2) + 1))
        proj = haar.HaarSampler(int(rng.integers(2 ** 62)), d).projector(rank)
        p_omega = proj.expectation(omega)
        for window in np.geomspace(0.1, 100.0, t_points) / sigma:
            times = linspace_grid(window, spec.span)
            measured, error = trapezoid_average(
                np.abs(expectation_series(proj, state, times) - p_omega), times)
            eta = max_window_probability(dist, 1.0 / window)
            value = fast_equilibration_constant() * np.sqrt(eta * rank)
            rows.append({"name": "fast_equilibration", "T": float(window),
                         "eps": 1.0 / window, "K": rank, "value": value,
                         "measured": measured,
                         "holds": measured <= value + batteries.FAST_EQUILIBRATION_SLACK,
                         "battery": "fast_equilibration", "trial": trial,
                         "label": label, "d": d, "levels": spec.num_levels,
                         "eta": eta, "refinement_error": error})

            exact = float(lorentzian_purity(state, [window])[0])
            product = float(lorentzian_purity_product(dist, [window])[0])
            damped = lorentzian_state_entrywise(state, window)
            matrix_path = float(np.vdot(damped, damped).real)
            agreement = abs(exact - matrix_path)
            row = {"battery": "purity_chain", "trial": trial, "T": float(window),
                   "purity_exact": exact, "purity_matrix": matrix_path,
                   "agreement": agreement, "product_bound": product}
            ok = (agreement <= batteries.PURITY_DUAL_PATH_TOL
                  and exact <= product + 1e-12)
            matched = 2.0 * window * (sigma / 2.0)
            names = [f"bound_delta_{delta:g}" for delta in batteries.PURITY_CHAIN_DELTAS]
            for name, delta in zip([*names, "bound_delta_matched"],
                                   (*batteries.PURITY_CHAIN_DELTAS, matched)):
                cap = dephased_purity_bound(dist, window, delta)
                row[name] = cap
                ok = ok and exact <= cap + 1e-12
            row["holds"] = ok
            rows.append(row)
    return rows


def per_window_gap_counting_battery(seed: int, dim: int) -> list:
    """Rows of :func:`qequil.batteries.gap_counting_battery`, computed window
    by window: one series call of {P, 1 - P} on each window's own grid, and
    N(eps) and d_eff recomputed for every row."""
    state, proj = batteries.gap_counting_scenario(seed, dim)
    sigma = energy_moments(level_distribution(state)).std
    meas = two_outcome(proj)
    p_omega = meas.outcome_probabilities(dephase(state))
    rows = []
    for window in np.geomspace(1.0, 100.0, batteries.GAP_COUNTING_WINDOWS) / sigma:
        times = linspace_grid(window, state.spectrum.span)
        stack = expectation_series(meas.projectors, state, times)
        sq_avg, _ = trapezoid_average((stack[0] - p_omega[0]) ** 2, times)
        d_avg, _ = trapezoid_average(series_distinguishability(stack, p_omega), times)
        for factor in batteries.GAP_COUNTING_EPS_FACTORS:
            eps = factor * sigma
            for name, measured in (("general_expectation", sq_avg),
                                   ("general_distinguishability", d_avg)):
                n_eps, d_eff = gap_counting_terms(state, eps)
                value = (general_expectation_bound(n_eps, d_eff, eps, window)
                         if name == "general_expectation" else
                         general_distinguishability_bound(n_eps, d_eff, 2, eps, window))
                rows.append({"name": name, "T": float(window), "eps": float(eps),
                             "K": proj.rank, "value": value, "measured": measured,
                             "holds": measured <= value + 1e-3,
                             "battery": "gap_counting", "d": dim, "N_eps": n_eps,
                             "informative": value < 1.0})
    return rows


def population_term_bound(dist: LevelDistribution, rank: int, window: float) -> float:
    """Bound on the averaged population <tr(P rho_t)>_T alone (the full
    two-outcome bound minus the sqrt(K eta) equilibrium term)."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if not window > 0:
        raise ValueError("window must be positive")
    eta = max_window_probability(dist, 1.0 / window)
    return float(LORENTZIAN_DOMINATION_FACTOR
                 * np.sqrt(2.0 / (1.0 - np.exp(-2.0)) * eta * rank))


def n_outcome_fast_bound(dist: LevelDistribution, ranks, window: float) -> float:
    """N-outcome generalization: (c/2) sqrt(eta_{1/T}) * sum_i sqrt(k_i)
    where k_i = min(rank P_i, d - rank P_i)."""
    ranks = [int(k) for k in ranks]
    d = dist.spectrum.dim
    if sum(ranks) != d:
        raise ValueError("outcome ranks must sum to the dimension")
    if not window > 0:
        raise ValueError("window must be positive")
    eta = max_window_probability(dist, 1.0 / window)
    ksum = sum(np.sqrt(min(k, d - k)) for k in ranks)
    return float(0.5 * fast_equilibration_constant() * np.sqrt(eta) * ksum)


def best_epsilon(state: QuantumState, window: float, num: int = 25,
                 total_outcomes: int = 2) -> tuple:
    """Scan a log grid of window widths and return (eps, bound) minimizing
    the distinguishability form; the width is a free parameter of the bound."""
    span = state.spectrum.span
    if not span > 0:
        raise ValueError("spectrum has a single level; no gaps to count")
    best = None
    for eps in np.geomspace(span * 1e-6, 2.0 * span, num):
        n_eps, d_eff = gap_counting_terms(state, eps)
        value = float(general_distinguishability_bound(n_eps, d_eff, total_outcomes,
                                                       eps, window))
        if best is None or value < best[1]:
            best = (float(eps), value)
    return best


def constrained_mean_bound_tight(state0: QuantumState, state_t: QuantumState,
                                 omega: EquilibriumState, rank: int) -> float:
    """Pre-relaxation version sqrt(f(t)^2 + 1/(4 (d-1))) of
    :func:`qequil.haar.constrained_mean_bound`."""
    d = state0.dim
    haar._check_rank_dim(rank, d)
    f = haar._initial_overlap_deficit(state0, state_t, omega)
    return float(np.sqrt(f ** 2 + 1.0 / (4.0 * (d - 1.0))))


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
    times = linspace_grid(window, state.spectrum.span)
    p_omega = projector.expectation(omega)
    series = expectation_series(projector, state, times)
    measured, measured_error = trapezoid_average(np.abs(series - p_omega), times)
    pop_avg, pop_error = trapezoid_average(series, times)

    v = projector.factor
    p_lor = float(np.sum(v.conj() * (lorentzian_state(state, window) @ v)).real)
    if projector.is_complement:
        p_lor = 1.0 - p_lor
    pur_lor = lorentzian_purity(state, [window])[0]
    pur_omega = purity(omega)
    eta = max_window_probability(level_distribution(state), 1.0 / window)

    links = {
        "measured": measured,
        "triangle": pop_avg + p_omega,
        "lorentzian_population": (LORENTZIAN_DOMINATION_FACTOR * p_lor
                                  + np.sqrt(pur_omega * rank)),
        "purity_cauchy_schwarz": (LORENTZIAN_DOMINATION_FACTOR
                                  * np.sqrt(rank * pur_lor)
                                  + np.sqrt(rank * pur_omega)),
        "window_probability": fast_equilibration_constant() * np.sqrt(eta * rank),
    }
    links["refinement_error"] = measured_error + pop_error
    return links
