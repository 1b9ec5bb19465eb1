"""Seeded trial batteries and the experiments behind the command line.

A table is a dict of equal-length columns, in the order they are written:
a numpy array for numbers and for the ``holds`` verdicts, a list for
strings. No row is held as a dict. Each battery is deterministic given its
seed and returns its table (or tables), one row per check with its
``holds`` verdict; a row that does not hold is a violation, and none is the
expected verdict.

Each experiment (``run_figure3`` ... ``run_spectrum_info``) takes a config
dict and returns an :class:`ExperimentResult`: its tables (a ``.csv`` file
name to a table, a ``.json`` one to a payload), a summary and every check it
made, as :class:`Checks`. Experiments write no files; the CLI stamps and
writes what they return.
"""
from __future__ import annotations

import json
import os
import sys
from typing import NamedTuple

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from . import bounds as bounds_mod
from .averaging import (TimeGrid, lorentzian_purity, lorentzian_purity_product,
                        lorentzian_state, running_average, time_average)
from .constructions import (gaussian_scenario, harmonic_oscillator_1d, random_scenario,
                            snapshot_subspace, slow_window_check)
from .haar import (HaarSampler, constrained_mean_bound, exact_mean_sq_distinguishability,
                   initial_distinguishability_exact, initial_distinguishability_floor,
                   mc_distinguishabilities, mc_mean_stderr, mc_twirl_pair,
                   n_outcome_constrained_bound, n_outcome_typical_bound,
                   n_outcome_typical_cap, twirl_reconstruction,
                   typical_distinguishability_bound)
from .measure import Projector, expectation_series, series_distinguishability, two_outcome
from .spectra import (EnergySpectrum, LevelDistribution, max_gaps_in_window,
                      max_window_probability, max_window_probability_window,
                      spectrum_from_hermitian)
from .states import (QuantumState, complex_in, dephase, effective_dimension,
                     energy_moments, evolve, level_distribution, load_state)

__all__ = [
    "Checks",
    "ExperimentResult",
    "fast_equilibration_battery",
    "gap_counting_battery",
    "haar_battery",
    "run_figure3",
    "run_bounds",
    "run_slow",
    "run_gaussian",
    "run_haar",
    "run_eta",
    "run_spectrum_info",
    "table_length",
]

PURITY_DUAL_PATH_TOL = 1e-12
# Sweep settings: dimensions of the randomized trials (inclusive), purity-chain
# widths delta (the one matched to sigma_E is added), gap-counting widths
# eps / sigma_E and number of windows T, the Monte Carlo allowance in standard
# errors.
TRIAL_DIM_RANGE = (24, 60)
PURITY_CHAIN_DELTAS = (0.5, 1.0, 2.0, 4.0)
GAP_COUNTING_EPS_FACTORS = (0.1, 1.0, 10.0)
GAP_COUNTING_WINDOWS = 6
HAAR_STDERR_SIGMAS = 3.0
FAST_EQUILIBRATION_SLACK = 1e-3  # quadrature allowance on the two-outcome bound
GAUSSIAN_ETA_LIMIT = 0.42  # cap on a Gaussian spectrum's eta_{1/T} sigma_E T
# The purity chain's cap columns: one per fixed width, then the matched one.
PURITY_CAP_COLUMNS = (*(f"bound_delta_{delta:g}" for delta in PURITY_CHAIN_DELTAS),
                      "bound_delta_matched")


def _check_count(name: str, value: int, least: int = 1):
    """A battery with no trials, scenarios or grid points checks nothing, and
    a Monte Carlo estimate needs two samples for its standard error."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def table_length(table) -> int:
    """The number of rows of ``table``, a dict of equal-length columns, each
    a list or a 1-D numpy array; anything else raises ``ValueError``."""
    if not isinstance(table, dict) or not all(
            isinstance(column, list) or (isinstance(column, np.ndarray) and column.ndim == 1)
            for column in table.values()):
        raise ValueError("a table must be a dict of columns, each a list or a 1-D array, "
                         f"got {type(table).__name__}")
    lengths = {name: len(column) for name, column in table.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    return next(iter(lengths.values()), 0)


def _table_row(table: dict, index: int) -> dict:
    """Row ``index`` of ``table`` as a record of Python scalars."""
    return {name: column[index].item() if isinstance(column, np.ndarray) else column[index]
            for name, column in table.items()}


class Checks:
    """Every check an experiment made, as ``(name, record)`` pairs whose
    record carries ``holds``: first ``records``, listed one by one, then one
    per row of each ``(name, table)`` of ``tables``, whose record is that
    row. A row's record is built only when it is read; :meth:`failures`
    reads each table's ``holds`` column and builds the failing rows alone."""

    def __init__(self, records=(), tables=()):
        self.records = list(records)
        self.tables = list(tables)

    def __len__(self) -> int:
        return len(self.records) + sum(table_length(table) for _, table in self.tables)

    def __iter__(self):
        yield from self.records
        for name, table in self.tables:
            for index in range(table_length(table)):
                yield name, _table_row(table, index)

    def violations(self) -> int:
        """How many checks did not hold, read from the records' and the
        tables' ``holds`` without building a record."""
        return (sum(not record["holds"] for _, record in self.records)
                + sum(int(np.count_nonzero(np.logical_not(table["holds"])))
                      for _, table in self.tables))

    def failures(self) -> list:
        """One record per check that did not hold, named by its ``check``."""
        failed = [{"check": name, **record} for name, record in self.records
                  if not record["holds"]]
        for name, table in self.tables:
            failed += [{"check": name, **_table_row(table, index)}
                       for index in np.flatnonzero(np.logical_not(table["holds"]))]
        return failed


class ExperimentResult(NamedTuple):
    """What an experiment returns: ``tables`` maps a ``.csv`` file name to a
    table and a ``.json`` one to a JSON payload (a dict); ``checks`` holds
    every check made."""

    tables: dict
    summary: dict
    checks: Checks

    @property
    def failures(self) -> list:
        """One record per check that did not hold, named by its ``check``."""
        return self.checks.failures()


def _random_trial_scenario(rng) -> tuple:
    """One randomized state and its label, ``random-{seed}-d{d}`` for a
    :func:`random_scenario` and ``trial-{seed}`` otherwise; spectra alternate
    between Poisson-spaced ladders, versions with degenerate levels, and dense
    random-matrix spectra; states alternate pure and low-rank mixed."""
    d = int(rng.integers(TRIAL_DIM_RANGE[0], TRIAL_DIM_RANGE[1] + 1))
    flavor = int(rng.integers(3))
    seed = int(rng.integers(2 ** 62))
    if flavor == 0:
        state = random_scenario(seed, d)
    elif flavor == 1:
        # collapse random levels into degenerate blocks
        num_levels = max(2, int(0.7 * d))
        degs = np.ones(num_levels, dtype=int)
        bump = rng.choice(num_levels, size=d - num_levels, replace=True)
        np.add.at(degs, bump, 1)
        state = random_scenario(seed, d, degeneracies=degs)
    else:
        return _random_state(rng, _random_matrix_spectrum(rng, d)), f"trial-{seed}"
    if rng.random() < 0.2:
        return _random_state(rng, state.spectrum), f"trial-{seed}"
    return state, f"random-{seed}-d{d}"


def _random_matrix_spectrum(rng, d: int) -> EnergySpectrum:
    """Spectrum of the Hermitian part of a d x d complex Ginibre matrix,
    scaled by 1/sqrt(d), with levels merged below a relative 1e-9."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return spectrum_from_hermitian((z + z.conj().T) / (2.0 * np.sqrt(d)), tol=1e-9)


def _random_state(rng, spec) -> QuantumState:
    d = spec.dim
    if rng.random() < 0.8:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return QuantumState.pure(spec, z / np.linalg.norm(z))
    columns = []
    for w in rng.dirichlet(np.ones(int(rng.integers(2, 5)))):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        columns.append(np.sqrt(w) * z / np.linalg.norm(z))
    return QuantumState(spec, np.column_stack(columns))


def fast_equilibration_battery(seed: int, trials: int, t_points: int, max_rank: int) -> dict:
    """Randomized sweep of the two-outcome fast-equilibration bound, with the
    Lorentzian-purity chain checked at every grid point along the way. Each
    trial takes its windows as one sweep: one window scan for every eta and
    every cap, one :class:`TimeGrid` of all its windows, one series call and
    one time average over it; only the matrix path of the purity runs window
    by window. Returns the tables ``fast_equilibration`` (the bound) and
    ``purity_chain``, each with one row per trial and window, their columns
    allocated for every trial up front and filled a trial's slice at a
    time."""
    _check_count("trials", trials)
    _check_count("t_points", t_points)
    _check_count("max_rank", max_rank)
    size = trials * t_points
    fast = {"name": ["fast_equilibration"] * size, "T": np.empty(size),
            "eps": np.empty(size), "K": np.empty(size, dtype=int),
            "value": np.empty(size), "measured": np.empty(size),
            "holds": np.empty(size, dtype=bool), "battery": ["fast_equilibration"] * size,
            "trial": np.repeat(np.arange(trials), t_points), "label": [""] * size,
            "d": np.empty(size, dtype=int), "levels": np.empty(size, dtype=int),
            "eta": np.empty(size), "refinement_error": np.empty(size)}
    chain = _purity_chain_table(fast["trial"], fast["T"])
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        state, label = _random_trial_scenario(rng)
        spec = state.spectrum
        dist = level_distribution(state)
        sigma = energy_moments(dist).std
        omega = dephase(state)
        d = spec.dim
        rank = int(rng.integers(1, min(max_rank, d // 2) + 1))
        proj = HaarSampler(int(rng.integers(2 ** 62)), d).projector(rank)
        p_omega = proj.expectation(omega)
        t_grid = np.geomspace(0.1, 100.0, t_points) / sigma
        # the purity-chain widths delta (the fixed ones, then the one matched
        # to sigma_E) and one scan: width 1/T for eta, delta / 2T for each cap
        deltas = np.column_stack([np.tile(PURITY_CHAIN_DELTAS, (t_points, 1)),
                                  2.0 * t_grid * (sigma / 2.0)])
        scan = max_window_probability(dist, np.column_stack(
            [1.0 / t_grid, deltas / (2.0 * t_grid[:, None])]))
        etas = scan[:, 0]
        bounds = bounds_mod.fast_equilibration_bound(etas, rank)
        grid = TimeGrid(t_grid, spec.span)
        avg = time_average(np.abs(expectation_series(proj, state, grid) - p_omega), grid)
        rows = slice(trial * t_points, (trial + 1) * t_points)
        fast["T"][rows] = t_grid
        fast["eps"][rows] = 1.0 / t_grid
        fast["K"][rows] = rank
        fast["value"][rows] = bounds
        fast["measured"][rows] = avg.value
        fast["holds"][rows] = avg.value <= bounds + FAST_EQUILIBRATION_SLACK
        fast["label"][rows] = [label] * t_points
        fast["d"][rows] = d
        fast["levels"][rows] = spec.num_levels
        fast["eta"][rows] = etas
        fast["refinement_error"][rows] = avg.refinement_error
        _fill_purity_chain(chain, rows, state, dist, t_grid,
                           bounds_mod.window_purity_bound(scan[:, 1:], deltas))
    return {"fast_equilibration": fast, "purity_chain": chain}


def _purity_chain_table(trials: np.ndarray, windows: np.ndarray) -> dict:
    """Unfilled purity-chain columns beside the given trial and window
    columns: the exact Lorentzian purity against its matrix path, its
    product bound and the window-probability caps at every width delta (the
    fixed ones, then ``bound_delta_matched``, the one matched to sigma_E)."""
    size = windows.size
    table = {"battery": ["purity_chain"] * size, "trial": trials, "T": windows}
    for name in ("purity_exact", "purity_matrix", "agreement", "product_bound",
                 *PURITY_CAP_COLUMNS):
        table[name] = np.empty(size)
    table["holds"] = np.empty(size, dtype=bool)
    return table


def _fill_purity_chain(table: dict, rows: slice, state, dist, windows, caps) -> None:
    """The purity chain of one trial's ``windows`` into ``rows`` of
    ``table``, with ``caps`` the window-probability caps, one row of them
    per window."""
    exact = lorentzian_purity(state, windows)
    products = lorentzian_purity_product(dist, windows)
    matrix_path = np.array([np.vdot(damped, damped).real
                            for damped in lorentzian_state(state, windows)])
    agreement = np.abs(exact - matrix_path)
    table["purity_exact"][rows] = exact
    table["purity_matrix"][rows] = matrix_path
    table["agreement"][rows] = agreement
    table["product_bound"][rows] = products
    for name, cap in zip(PURITY_CAP_COLUMNS, caps.T):
        table[name][rows] = cap
    table["holds"][rows] = ((agreement <= PURITY_DUAL_PATH_TOL)
                            & (exact <= products + 1e-12)
                            & np.all(exact[:, None] <= caps + 1e-12, axis=1))


def gap_counting_scenario(seed: int, dim: int):
    """Dense random-matrix spectrum with a Haar pure state and a half-rank
    projector, shared by the gap-counting checks."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA]))
    spec = _random_matrix_spectrum(rng, dim)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = QuantumState.pure(spec, z / np.linalg.norm(z))
    proj = HaarSampler(int(rng.integers(2 ** 62)), dim).projector(dim // 2)
    return state, proj


def gap_counting_battery(seed: int, dim: int) -> dict:
    """Gap-counting bound checks on a dense random-matrix scenario, for both
    the expectation and distinguishability forms: a table with one row per
    window, width and form, in that order."""
    _check_count("dim", dim, 2)
    state, proj = gap_counting_scenario(seed, dim)
    sigma = energy_moments(level_distribution(state)).std
    meas = two_outcome(proj)
    p_omega = meas.outcome_probabilities(dephase(state))

    windows = np.geomspace(1.0, 100.0, GAP_COUNTING_WINDOWS) / sigma
    grid = TimeGrid(windows, state.spectrum.span)
    # one stacked call: row 0 is P's own series, and {P, 1 - P} share its factor
    stack = expectation_series(meas.projectors, state, grid)
    sq_avgs = time_average((stack[0] - p_omega[0]) ** 2, grid).value
    d_avgs = time_average(series_distinguishability(stack, p_omega), grid).value
    widths = [factor * sigma for factor in GAP_COUNTING_EPS_FACTORS]
    terms = [bounds_mod.gap_counting_terms(state, eps) for eps in widths]
    values = np.array([
        bound for window in windows for eps, (n_eps, d_eff) in zip(widths, terms)
        for bound in (bounds_mod.general_expectation_bound(n_eps, d_eff, eps, window),
                      bounds_mod.general_distinguishability_bound(n_eps, d_eff, 2, eps,
                                                                  window))])
    measured = np.tile(np.column_stack([sq_avgs, d_avgs]), len(widths)).ravel()
    per_window = 2 * len(widths)
    size = per_window * windows.size
    return {"name": ["general_expectation", "general_distinguishability"] * (size // 2),
            "T": np.repeat(windows, per_window),
            "eps": np.tile(np.repeat(widths, 2), windows.size),
            "K": np.full(size, proj.rank), "value": values, "measured": measured,
            "holds": measured <= values + 1e-3, "battery": ["gap_counting"] * size,
            "d": np.full(size, dim),
            "N_eps": np.tile(np.repeat([n_eps for n_eps, _ in terms], 2), windows.size),
            "informative": values < 1.0}


HAAR_BATTERY_CHECKS = ("typical_two_outcome", "constrained_two_outcome",
                       "typical_n_outcome", "constrained_n_outcome")


def haar_battery(seed: int, scenarios: int, samples: int) -> dict:
    """Monte Carlo sweep of all four Haar-ensemble bounds (two-outcome and
    N-outcome, unconstrained and initial-state-constrained): a table with one
    row per scenario and check. The scenarios run on the usable CPUs (see
    :func:`_map_in_processes`); each is seeded by its index alone, so the
    table does not depend on how many run at once."""
    _check_count("scenarios", scenarios)
    per_scenario = len(HAAR_BATTERY_CHECKS)
    size = per_scenario * scenarios
    table = {"name": list(HAAR_BATTERY_CHECKS) * scenarios, "T": np.empty(size),
             "K": np.empty(size, dtype=int), "value": np.empty(size),
             "measured": np.empty(size), "holds": np.empty(size, dtype=bool),
             "battery": ["haar"] * size,
             "scenario": np.repeat(np.arange(scenarios), per_scenario),
             "d": np.empty(size, dtype=int), "N": np.empty(size, dtype=int),
             "mc_stderr": np.empty(size)}
    results = _map_in_processes(_haar_scenario,
                                [(seed, idx, samples) for idx in range(scenarios)])
    for idx, (t, rank, d, outcomes, caps, measured, stderr) in enumerate(results):
        rows = slice(idx * per_scenario, (idx + 1) * per_scenario)
        table["T"][rows] = t
        table["K"][rows] = rank
        table["d"][rows] = d
        table["N"][rows] = outcomes
        table["value"][rows] = caps
        table["measured"][rows] = measured
        table["mc_stderr"][rows] = stderr
    table["holds"][:] = table["measured"] <= (table["value"]
                                              + HAAR_STDERR_SIGMAS * table["mc_stderr"])
    return table


def _haar_scenario(seed: int, idx: int, samples: int) -> tuple:
    """Scenario ``idx`` of :func:`haar_battery`: its time ``T``, rank ``K``,
    dimension ``d`` and outcome count ``N``, then the cap, the Monte Carlo
    mean and its standard error of each of the four checks, as lists in
    ``HAAR_BATTERY_CHECKS`` order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x44A, idx]))
    d = int(rng.integers(8, 25))
    state0 = random_scenario(int(rng.integers(2 ** 62)), d)
    sigma = energy_moments(level_distribution(state0)).std
    t = float(rng.uniform(0.0, 20.0 / sigma))
    state_t = evolve(state0, t)
    omega = dephase(state0)
    rank = int(rng.integers(1, d))
    outcomes = int(rng.integers(2, min(6, d // 2) + 1))
    seeds = [int(x) for x in rng.integers(0, 2 ** 62, size=4)]
    ranks = _random_partition(rng, d, outcomes)
    ranks_c = _random_partition(rng, d - 1, outcomes)
    # (excluded vector, rank partition of the sample space, cap) of each
    # check; an excluded initial state sits inside outcome 0
    checks = [
        (None, [rank, d - rank], typical_distinguishability_bound(rank, d)),
        (state0.amplitudes, [rank - 1, d - rank],
         constrained_mean_bound(state0, state_t, omega, rank)),
        (None, ranks,
         min(n_outcome_typical_bound(ranks, d), n_outcome_typical_cap(outcomes, d))),
        (state0.amplitudes, ranks_c,
         n_outcome_constrained_bound(state0, state_t, omega, len(ranks_c))),
    ]
    caps, measured, stderr = [], [], []
    for (excluded, part, cap), sampler_seed in zip(checks, seeds):
        sampler = HaarSampler(sampler_seed, d, excluded_vector=excluded)
        mean, err = mc_mean_stderr(
            mc_distinguishabilities(state_t, omega, part, sampler, samples))
        caps.append(cap)
        measured.append(mean)
        stderr.append(err)
    return t, rank, d, outcomes, caps, measured, stderr


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of the machine's where the
    platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_processes(task, arguments: list) -> list:
    """``[task(*args) for args in arguments]``, in that order, on a ``fork``
    pool of ``min(usable CPUs, tasks)`` worker processes. It runs in this
    process instead with one worker, where there is no ``fork`` start
    method, and on CPython 3.12 and later, which warns when a process with
    live threads (OpenBLAS's) forks. ``task`` must be a module-level
    function. A task's exception reaches the caller as raised; a worker
    that dies raises ``BrokenProcessPool``. Either way, and on success, the
    workers are joined before this returns."""
    workers = min(_usable_cpus(), len(arguments))
    if workers > 1 and sys.version_info < (3, 12):
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers,
                                       mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(task, *zip(*arguments)))
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return [task(*args) for args in arguments]


def _random_partition(rng, total: int, parts: int):
    """Random composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    edges = np.concatenate(([0], cuts, [total]))
    return [int(b - a) for a, b in zip(edges[:-1], edges[1:])]


def _series_table(times, values, **constant) -> dict:
    """Columns t, D, running_avg of a series, then any constant columns."""
    return {"t": times, "D": values, "running_avg": running_average(times, values),
            **{name: np.full(times.size, value) for name, value in constant.items()}}


def _initial_projector_series(state: QuantumState, times) -> np.ndarray:
    """|tr(P rho_t) - tr(P omega)| under the initial-state projector P."""
    proj = Projector.from_factor(state.amplitudes)
    return np.abs(expectation_series(proj, state, times)
                  - proj.expectation(dephase(state)))


def run_figure3(config: dict) -> ExperimentResult:
    """Full-period distinguishability of the evenly spread oscillator state
    against its equilibrium, under the initial-state projector."""
    levels = int(config["levels"])
    spacing = float(config["spacing"])
    state = harmonic_oscillator_1d(levels, spacing)
    samples = int(config["samples"])
    _check_count("samples", samples)
    times = np.linspace(0.0, 2.0 * np.pi / spacing, samples)
    values = _initial_projector_series(state, times)
    table = _series_table(times, values)

    # same populations with seeded random phases; the averaged curve should
    # not care about them
    rng = np.random.default_rng(np.random.SeedSequence(int(config["phase_seed"])))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, levels))
    rand_state = QuantumState.pure(state.spectrum, state.amplitudes * phases)
    rand_table = _series_table(times, _initial_projector_series(rand_state, times))

    d0 = float(values[0])
    revival_gap = float(abs(values[-1] - values[0]))
    avg_at_period = float(table["running_avg"][-1])
    rand_avg = float(rand_table["running_avg"][-1])
    expected_d0 = 1.0 - 1.0 / levels
    checks = [
        ("initial_distinguishability", {"value": d0, "expected": expected_d0,
                                        "holds": abs(d0 - expected_d0) <= 1e-9}),
        ("revival", {"value": revival_gap, "holds": revival_gap <= 1e-9}),
        ("average_at_revival", {"value": avg_at_period, "limit": 0.2 * d0,
                                "holds": avg_at_period <= 0.2 * d0}),
    ]
    summary = {"levels": levels, "initial_distinguishability": d0,
               "revival_gap": revival_gap, "average_at_revival": avg_at_period,
               "average_at_revival_random_phase": rand_avg,
               "phase_insensitivity_gap": abs(avg_at_period - rand_avg)}
    tables = {"figure3.csv": table, "figure3_random_phase.csv": rand_table}
    return ExperimentResult(tables, summary, Checks(checks))


def run_bounds(config: dict) -> ExperimentResult:
    """Seeded trial batteries for the two-outcome bound, the purity chain,
    and the gap-counting bounds."""
    _check_count("gap_counting_dim", int(config["gap_counting_dim"]), 2)
    seed = int(config["seed"])
    battery_tables = fast_equilibration_battery(
        seed, int(config["trials"]), int(config["t_points"]), int(config["max_rank"]))
    battery_tables["gap_counting"] = gap_counting_battery(
        seed, dim=int(config["gap_counting_dim"]))
    checks = Checks(tables=battery_tables.items())
    summary = {"trials": int(config["trials"]), "rows": len(checks),
               "violations": checks.violations()}
    tables = {f"{name}_trials.csv": table for name, table in battery_tables.items()}
    return ExperimentResult(tables, summary, checks)


def run_slow(config: dict) -> ExperimentResult:
    """Scaled slow-equilibration scenario: snapshot-subspace floor across the
    guaranteed window, eventual-equilibration ceiling, and N-outcome
    refinement dominance."""
    _check_count("samples", int(config["samples"]))
    state = random_scenario(int(config["seed"]), int(config["dim"]))
    k = int(config["snapshots"])
    eps = float(config["epsilon"])
    sub = snapshot_subspace(state, k, eps)
    rep = slow_window_check(sub, state, int(config["outcomes"]), int(config["samples"]))
    summary = {"dim": state.spectrum.dim,
               "d_eff": effective_dimension(level_distribution(state)),
               "snapshots": k, "epsilon": eps,
               "effective_rank": sub.effective_rank, "floor": rep.floor,
               "min_window_value": rep.worst_value,
               "trace_omega": rep.trace_omega,
               "trace_omega_bound": rep.trace_omega_bound,
               "long_time_average": rep.long_time_average,
               "floor_informative": rep.floor > 0,
               "ceiling": rep.ceiling, "refinement_holds": rep.refinement_holds}
    table = _series_table(rep.times, rep.values, bound=rep.floor)
    return ExperimentResult({"slow.csv": table}, summary, Checks(rep.checks))


def run_gaussian(config: dict) -> ExperimentResult:
    """Discretized Gaussian spectrum: window-probability estimate, measured
    Lorentzian purity, and the exact-vs-asymptotic continuum forms."""
    grid = config["sigma_t_grid"]
    if not grid or not all(isinstance(st, (int, float)) and not isinstance(st, bool)
                           and 0 < st < np.inf for st in grid):
        raise ValueError("sigma_t_grid must be a non-empty list of positive "
                         f"finite numbers, got {grid!r}")
    dist = level_distribution(gaussian_scenario(int(config["levels"]),
                                                float(config["sigma"]),
                                                float(config["span"])))
    sigma = energy_moments(dist).std
    sigma_t = np.array(grid, dtype=float)
    windows = sigma_t / sigma
    eta, (left, right) = max_window_probability_window(dist, 1.0 / windows)
    product = eta * sigma * windows
    exact = np.array([bounds_mod.gaussian_purity_exact(sigma, w) for w in windows])
    asym = np.array([bounds_mod.gaussian_purity_asymptote(sigma, w) for w in windows])
    table = {"sigma_T": sigma_t, "T": windows, "eta": eta, "eta_sigma_T": product,
             "eta_limit": np.full(windows.size, GAUSSIAN_ETA_LIMIT),
             "window_left": left, "window_right": right,
             "purity_measured": lorentzian_purity_product(dist, windows),
             "purity_exact_form": exact, "purity_asymptote": asym,
             "holds": product <= GAUSSIAN_ETA_LIMIT}
    far = sigma_t >= 5.0  # where the asymptote is checked against the exact form
    checks = Checks(tables=[
        ("eta_estimate", {"sigma_T": sigma_t, "value": product, "limit": table["eta_limit"],
                          "holds": table["holds"]}),
        ("purity_asymptote", {"sigma_T": sigma_t[far], "exact": exact[far],
                              "asymptote": asym[far],
                              "holds": np.abs(exact - asym)[far] <= 0.1 * asym[far]})])
    summary = {"sigma_target": float(config["sigma"]), "sigma_measured": sigma,
               "max_eta_sigma_T": max(product.tolist()), "points": windows.size}
    return ExperimentResult({"gaussian.csv": table}, summary, checks)


def run_haar(config: dict) -> ExperimentResult:
    """Exact-vs-Monte-Carlo comparisons for the measurement-ensemble
    formulas, plus the full Haar bound battery."""
    for key, least in (("samples", 2), ("battery_scenarios", 1),
                       ("battery_samples", 2), ("twirl_samples", 2)):
        _check_count(key, int(config[key]), least)  # by config key, as the user set it
    seed = int(config["seed"])
    samples = int(config["samples"])
    reports = {}

    def check(name: str, values: np.ndarray, exact: float, sampler: HaarSampler,
              sigmas: float, cap_only: bool):
        mean, stderr = mc_mean_stderr(values)
        gap = mean - exact
        ok = gap <= sigmas * stderr if cap_only else abs(gap) <= sigmas * stderr
        reports[name] = {"exact": float(exact), "mc_mean": mean, "mc_stderr": stderr,
                         "samples": values.size, "seed": sampler.seed, "holds": bool(ok)}

    # exact second moment vs MC
    state = random_scenario(seed + 1, 8)
    state_t = evolve(state, 0.7)
    omega = dephase(state)
    sampler = HaarSampler(seed + 2, 8)
    x = mc_distinguishabilities(state_t, omega, [3, 5], sampler, samples)
    check("mean_sq_d8_k3", x * x, exact_mean_sq_distinguishability(state_t, omega, 3),
          sampler, 5.0, cap_only=False)

    # constrained ensemble
    state10 = random_scenario(seed + 3, 10)
    st10 = evolve(state10, 1.3)
    om10 = dephase(state10)
    sampler = HaarSampler(seed + 4, 10, excluded_vector=state10.amplitudes)
    check("constrained_d10_k3",
          mc_distinguishabilities(st10, om10, [2, 7], sampler, samples),
          constrained_mean_bound(state10, st10, om10, 3), sampler, 3.0,
          cap_only=True)

    # initial distinguishability floor, uniform state over 6 of 12 levels
    spec12 = EnergySpectrum(np.arange(12, dtype=float), np.ones(12, dtype=int))
    amps = np.zeros(12, dtype=complex)
    amps[:6] = 1.0 / np.sqrt(6.0)
    state12 = QuantumState.pure(spec12, amps)
    om12 = dephase(state12)
    sampler = HaarSampler(seed + 5, 12, excluded_vector=amps)
    check("initial_floor_d12_k4",
          mc_distinguishabilities(state12, om12, [3, 8], sampler, samples),
          initial_distinguishability_exact(state12, om12, 4), sampler, 3.0,
          cap_only=False)
    reports["initial_floor_d12_k4"]["floor"] = initial_distinguishability_floor(
        4, 12, effective_dimension(level_distribution(state12)))

    # N-outcome cap
    state16 = random_scenario(seed + 6, 16)
    st16 = evolve(state16, 0.9)
    om16 = dephase(state16)
    sampler = HaarSampler(seed + 7, 16)
    check("n_outcome_d16_n4",
          mc_distinguishabilities(st16, om16, [4, 4, 4, 4], sampler, samples),
          n_outcome_typical_bound([4, 4, 4, 4], 16), sampler, 3.0, cap_only=True)
    reports["n_outcome_d16_n4"]["cap"] = n_outcome_typical_cap(4, 16)

    # entrywise twirl
    v = HaarSampler(seed + 8, 4).projector(2).factor
    p = v @ v.conj().T
    mean, stderr = mc_twirl_pair(p, HaarSampler(seed + 9, 4), int(config["twirl_samples"]))
    exact = twirl_reconstruction(p)
    worst = float(np.abs(mean - exact).max())
    allowance = float(6.0 * stderr.max() + 1e-3)
    reports["twirl_d4_k2"] = {"max_entry_gap": worst, "allowance": allowance,
                              "samples": int(config["twirl_samples"]),
                              "holds": worst <= allowance}

    battery = haar_battery(seed, int(config["battery_scenarios"]),
                           int(config["battery_samples"]))
    checks = Checks(reports.items(), [("haar_battery", battery)])
    summary = {"reports": len(reports), "battery_rows": table_length(battery),
               "violations": checks.violations()}
    tables = {"haar_battery.csv": battery,
              "haar_reports.json": {"reports": reports}}
    return ExperimentResult(tables, summary, checks)


def _load_spectrum_arg(config) -> EnergySpectrum:
    if config.get("spectrum"):
        return EnergySpectrum.load(config["spectrum"])
    if config.get("hermitian"):
        with open(config["hermitian"]) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            if "matrix" not in payload:
                raise ValueError('a hermitian file must hold a list or a {"matrix": [...]} object')
            payload = payload["matrix"]
        return spectrum_from_hermitian(complex_in(payload))
    raise ValueError("provide a spectrum file (or a hermitian matrix file)")


def run_eta(config: dict) -> ExperimentResult:
    """Window probability of a state (or the uniform distribution) over a
    spectrum, with the maximizing window."""
    spec = _load_spectrum_arg(config)
    if config.get("state"):
        dist = level_distribution(load_state(config["state"], spectrum=spec))
        source = config["state"]
    else:
        dist = LevelDistribution(spec, np.full(spec.num_levels, 1.0 / spec.num_levels))
        source = "uniform"
    eps = float(config["epsilon"])
    value, window = max_window_probability_window(dist, eps)
    summary = {"epsilon": eps, "eta": value,
               "window": [window[0], window[1]], "probs_source": source,
               "num_levels": spec.num_levels}
    return ExperimentResult({}, summary, Checks())


def run_spectrum_info(config: dict) -> ExperimentResult:
    """Structural report for a spectrum: dimensions, gap extremes, and the
    gap count inside a window when a width is given."""
    spec = _load_spectrum_arg(config)
    levels = spec.levels
    # rounding is monotone, so the smallest positive gap is between
    # neighbours and the largest is the span, bit for bit; no L x L array
    summary = {"num_levels": spec.num_levels, "dim": spec.dim,
               "span": spec.span,
               "min_gap": float(np.diff(levels).min()) if levels.size > 1 else 0.0,
               "max_gap": spec.span,
               "gap_count": levels.size * (levels.size - 1),
               "degenerate": not spec.is_nondegenerate()}
    if config.get("epsilon"):
        eps = float(config["epsilon"])
        summary["epsilon"] = eps
        summary["gaps_in_window"] = max_gaps_in_window(spec.levels, eps)
    return ExperimentResult({}, summary, Checks())
