"""Seeded trial batteries and the experiments behind the command line.

Each battery is deterministic given its seed and returns a list of row
dictionaries, each with a ``holds`` verdict; a row that does not hold is a
violation, and none is the expected verdict.

Each experiment (``run_figure3`` ... ``run_spectrum_info``) takes a config
dict and returns an :class:`ExperimentResult`: its tables (file name to CSV
rows or a JSON payload), a summary and every check it made, as named records
that carry ``holds``. Experiments write no files; the CLI stamps and writes
what they return.
"""
from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from . import bounds as bounds_mod
from .averaging import (TimeGrid, dephased_purity_bound, lorentzian_purity,
                        lorentzian_purity_product, lorentzian_state,
                        running_average, time_average)
from .constructions import (Scenario, gaussian_scenario, harmonic_oscillator_1d,
                            random_scenario, snapshot_subspace, slow_window_check)
from .haar import (HaarSampler, constrained_mean_bound, exact_mean_sq_distinguishability,
                   initial_distinguishability_exact, initial_distinguishability_floor,
                   mc_distinguishabilities, mc_mean_stderr, mc_twirl_pair,
                   n_outcome_constrained_bound, n_outcome_typical_bound,
                   n_outcome_typical_cap, twirl_reconstruction,
                   typical_distinguishability_bound)
from .measure import (Projector, expectation_series, grid_series,
                      series_distinguishability, two_outcome)
from .spectra import (EnergySpectrum, LevelDistribution, max_gaps_in_window,
                      max_window_probability, max_window_probability_window,
                      spectrum_from_hermitian)
from .states import (QuantumState, complex_in, dephase, effective_dimension,
                     energy_moments, evolve, level_distribution, load_state)

__all__ = [
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


def _check_count(name: str, value: int, least: int = 1):
    """A battery with no trials, scenarios or grid points checks nothing, and
    a Monte Carlo estimate needs two samples for its standard error."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


class ExperimentResult(NamedTuple):
    """What an experiment returns: ``tables`` maps a file name to CSV rows (a
    list of dicts) or to a JSON payload (a dict); ``checks`` lists every
    check made as a ``(name, record)`` pair, each record with its ``holds``
    verdict."""

    tables: dict
    summary: dict
    checks: list

    @property
    def failures(self) -> list:
        """One record per check that did not hold, named by its ``check``."""
        return [{"check": name, **record} for name, record in self.checks
                if not record["holds"]]


def _random_trial_scenario(rng) -> Scenario:
    """One randomized (spectrum, state) pair; spectra alternate between
    Poisson-spaced ladders, versions with degenerate levels, and dense
    random-matrix spectra; states alternate pure and low-rank mixed."""
    d = int(rng.integers(TRIAL_DIM_RANGE[0], TRIAL_DIM_RANGE[1] + 1))
    flavor = int(rng.integers(3))
    seed = int(rng.integers(2 ** 62))
    if flavor == 0:
        scenario = random_scenario(seed, d)
    elif flavor == 1:
        # collapse random levels into degenerate blocks
        num_levels = max(2, int(0.7 * d))
        degs = np.ones(num_levels, dtype=int)
        bump = rng.choice(num_levels, size=d - num_levels, replace=True)
        np.add.at(degs, bump, 1)
        scenario = random_scenario(seed, d, degeneracies=degs)
    else:
        return Scenario(_random_state(rng, _random_matrix_spectrum(rng, d)),
                        f"trial-{seed}")
    if rng.random() < 0.2:
        return Scenario(_random_state(rng, scenario.spectrum), f"trial-{seed}")
    return scenario


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


def fast_equilibration_battery(seed: int, trials: int = 200, t_points: int = 12,
                               max_rank: int = 8, slack: float = 1e-3) -> list:
    """Randomized sweep of the two-outcome fast-equilibration bound, with the
    Lorentzian-purity chain checked at every grid point along the way. Each
    trial evaluates its window scans, bounds, exact purities and the series
    on every window's grid at once; only the time averages and the matrix
    path of the purity run window by window."""
    _check_count("trials", trials)
    _check_count("t_points", t_points)
    _check_count("max_rank", max_rank)
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        scenario = _random_trial_scenario(rng)
        spec = scenario.spectrum
        state = scenario.state
        dist = level_distribution(state)
        sigma = energy_moments(dist).std
        omega = dephase(state)
        d = spec.dim
        rank = int(rng.integers(1, min(max_rank, d // 2) + 1))
        proj = HaarSampler(int(rng.integers(2 ** 62)), d).projector(rank)
        p_omega = proj.expectation(omega)
        t_grid = np.geomspace(0.1, 100.0, t_points) / sigma
        etas = max_window_probability(dist, 1.0 / t_grid)
        bounds = bounds_mod.fast_equilibration_bound(etas, rank)
        chain_rows = _purity_chain_rows(state, dist, sigma, t_grid, trial)
        grids = [TimeGrid(window, spec.span) for window in t_grid]
        series = grid_series(proj, state, [grid.times for grid in grids])
        for window, grid, values, eta, bound, chain_row in zip(t_grid, grids, series,
                                                               etas, bounds, chain_rows):
            avg = time_average(np.abs(values - p_omega), grid)
            row = {"name": "fast_equilibration", "T": float(window), "eps": 1.0 / window,
                   "K": rank, "value": bound, "measured": avg.value,
                   "holds": avg.value <= bound + slack, "battery": "fast_equilibration",
                   "trial": trial, "label": scenario.label, "d": d,
                   "levels": spec.num_levels, "eta": float(eta),
                   "refinement_error": avg.refinement_error}
            rows += [row, chain_row]
    return rows


def _purity_chain_rows(state, dist, sigma, windows, trial) -> list:
    """One purity-chain row per window: the exact Lorentzian purity against
    its matrix path, its product bound and the window-probability caps at
    every width delta (the fixed ones, then ``bound_delta_matched``, the one
    matched to sigma_E)."""
    exact = lorentzian_purity(state, windows).tolist()
    products = lorentzian_purity_product(dist, windows).tolist()
    deltas = np.column_stack([np.tile(PURITY_CHAIN_DELTAS, (windows.size, 1)),
                              2.0 * windows * (sigma / 2.0)])
    caps = dephased_purity_bound(dist, windows[:, None], deltas)
    names = [f"bound_delta_{delta:g}" for delta in PURITY_CHAIN_DELTAS]
    names.append("bound_delta_matched")
    rows = []
    for window, purity, product, row_caps in zip(windows, exact, products, caps):
        damped = lorentzian_state(state, window)
        matrix_path = float(np.vdot(damped, damped).real)
        agreement = abs(purity - matrix_path)
        row = {"battery": "purity_chain", "trial": trial, "T": float(window),
               "purity_exact": purity, "purity_matrix": matrix_path,
               "agreement": agreement, "product_bound": product}
        ok = agreement <= PURITY_DUAL_PATH_TOL and purity <= product + 1e-12
        for name, cap in zip(names, row_caps):
            row[name] = cap
            ok = ok and purity <= cap + 1e-12
        row["holds"] = ok
        rows.append(row)
    return rows


def gap_counting_scenario(seed: int, dim: int = 40):
    """Dense random-matrix spectrum with a Haar pure state and a half-rank
    projector, shared by the gap-counting checks."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA]))
    spec = _random_matrix_spectrum(rng, dim)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = QuantumState.pure(spec, z / np.linalg.norm(z))
    proj = HaarSampler(int(rng.integers(2 ** 62)), dim).projector(dim // 2)
    return state, proj


def gap_counting_battery(seed: int, dim: int = 40) -> list:
    """Gap-counting bound checks on a dense random-matrix scenario, for both
    the expectation and distinguishability forms."""
    _check_count("dim", dim, 2)
    rows = []
    state, proj = gap_counting_scenario(seed, dim)
    sigma = energy_moments(level_distribution(state)).std
    meas = two_outcome(proj)
    p_omega = meas.outcome_probabilities(dephase(state))

    windows = np.geomspace(1.0, 100.0, GAP_COUNTING_WINDOWS) / sigma
    grids = [TimeGrid(window, state.spectrum.span) for window in windows]
    # one stacked call: row 0 is P's own series, and {P, 1 - P} share its factor
    stacks = grid_series(meas.projectors, state, [grid.times for grid in grids])
    widths = [factor * sigma for factor in GAP_COUNTING_EPS_FACTORS]
    terms = [bounds_mod.gap_counting_terms(state, eps) for eps in widths]
    for window, grid, stack in zip(windows, grids, stacks):
        sq_avg = time_average((stack[0] - p_omega[0]) ** 2, grid)
        d_avg = time_average(series_distinguishability(stack, p_omega), grid)
        for eps, (n_eps, d_eff) in zip(widths, terms):
            for name, measured, value in (
                    ("general_expectation", sq_avg.value,
                     bounds_mod.general_expectation_bound(n_eps, d_eff, eps, window)),
                    ("general_distinguishability", d_avg.value,
                     bounds_mod.general_distinguishability_bound(n_eps, d_eff, 2, eps,
                                                                 window))):
                rows.append({
                    "name": name, "T": float(window), "eps": float(eps), "K": proj.rank,
                    "value": value, "measured": measured,
                    "holds": measured <= value + 1e-3, "battery": "gap_counting",
                    "d": dim, "N_eps": n_eps, "informative": value < 1.0})
    return rows


def haar_battery(seed: int, scenarios: int = 50, samples: int = 300) -> list:
    """Monte Carlo sweep of all four Haar-ensemble bounds (two-outcome and
    N-outcome, unconstrained and initial-state-constrained)."""
    _check_count("scenarios", scenarios)
    rows = []
    for idx in range(scenarios):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x44A, idx]))
        d = int(rng.integers(8, 25))
        scenario = random_scenario(int(rng.integers(2 ** 62)), d)
        state0 = scenario.state
        sigma = scenario.sigma_e
        t = float(rng.uniform(0.0, 20.0 / sigma))
        state_t = evolve(state0, t)
        omega = dephase(state0)
        rank = int(rng.integers(1, d))
        outcomes = int(rng.integers(2, min(6, d // 2) + 1))
        seeds = [int(x) for x in rng.integers(0, 2 ** 62, size=4)]
        ranks = _random_partition(rng, d, outcomes)
        ranks_c = _random_partition(rng, d - 1, outcomes)
        # (name, excluded vector, rank partition of the sample space, cap);
        # an excluded initial state sits inside outcome 0
        checks = [
            ("typical_two_outcome", None, [rank, d - rank],
             typical_distinguishability_bound(rank, d)),
            ("constrained_two_outcome", state0.amplitudes, [rank - 1, d - rank],
             constrained_mean_bound(state0, state_t, omega, rank)),
            ("typical_n_outcome", None, ranks,
             min(n_outcome_typical_bound(ranks, d), n_outcome_typical_cap(outcomes, d))),
            ("constrained_n_outcome", state0.amplitudes, ranks_c,
             n_outcome_constrained_bound(state0, state_t, omega, len(ranks_c))),
        ]
        for (name, excluded, part, cap), sampler_seed in zip(checks, seeds):
            sampler = HaarSampler(sampler_seed, d, excluded_vector=excluded)
            mean, stderr = mc_mean_stderr(
                mc_distinguishabilities(state_t, omega, part, sampler, samples))
            rows.append({"name": name, "T": t, "K": rank, "value": cap, "measured": mean,
                         "holds": mean <= cap + HAAR_STDERR_SIGMAS * stderr,
                         "battery": "haar", "scenario": idx, "d": d, "N": outcomes,
                         "mc_stderr": stderr})
    return rows


def _random_partition(rng, total: int, parts: int):
    """Random composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    edges = np.concatenate(([0], cuts, [total]))
    return [int(b - a) for a, b in zip(edges[:-1], edges[1:])]


def _series_rows(times, values, **constant) -> list:
    """CSV rows t, D, running_avg of a series, then any constant columns."""
    return [{"t": t, "D": v, "running_avg": r, **constant}
            for t, v, r in zip(times, values, running_average(times, values))]


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
    scenario = harmonic_oscillator_1d(levels, spacing)
    state = scenario.state
    samples = int(config["samples"])
    _check_count("samples", samples)
    times = np.linspace(0.0, 2.0 * np.pi / spacing, samples)
    values = _initial_projector_series(state, times)
    rows = _series_rows(times, values)

    # same populations with seeded random phases; the averaged curve should
    # not care about them
    rng = np.random.default_rng(np.random.SeedSequence(int(config["phase_seed"])))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, levels))
    rand_state = QuantumState.pure(scenario.spectrum, state.amplitudes * phases)
    rand_rows = _series_rows(times, _initial_projector_series(rand_state, times))

    d0 = float(values[0])
    revival_gap = float(abs(values[-1] - values[0]))
    avg_at_period = float(rows[-1]["running_avg"])
    rand_avg = float(rand_rows[-1]["running_avg"])
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
    tables = {"figure3.csv": rows, "figure3_random_phase.csv": rand_rows}
    return ExperimentResult(tables, summary, checks)


def run_bounds(config: dict) -> ExperimentResult:
    """Seeded trial batteries for the two-outcome bound, the purity chain,
    and the gap-counting bounds."""
    _check_count("gap_counting_dim", int(config["gap_counting_dim"]), 2)
    seed = int(config["seed"])
    rows = fast_equilibration_battery(seed, trials=int(config["trials"]),
                                      t_points=int(config["t_points"]),
                                      max_rank=int(config["max_rank"]),
                                      slack=float(config["slack"]))
    rows += gap_counting_battery(seed, dim=int(config["gap_counting_dim"]))
    tables = {}
    for row in rows:
        tables.setdefault(f"{row['battery']}_trials.csv", []).append(row)
    summary = {"trials": int(config["trials"]), "rows": len(rows),
               "violations": sum(not row["holds"] for row in rows)}
    return ExperimentResult(tables, summary, [(row["battery"], row) for row in rows])


def run_slow(config: dict) -> ExperimentResult:
    """Scaled slow-equilibration scenario: snapshot-subspace floor across the
    guaranteed window, eventual-equilibration ceiling, and N-outcome
    refinement dominance."""
    _check_count("samples", int(config["samples"]))
    scenario = random_scenario(int(config["seed"]), int(config["dim"]))
    k = int(config["snapshots"])
    eps = float(config["epsilon"])
    sub = snapshot_subspace(scenario, k, eps)
    rep = slow_window_check(sub, scenario, int(config["outcomes"]),
                            num_samples=int(config["samples"]),
                            long_window_sigma=float(config["long_window_sigma"]))
    summary = {"dim": scenario.spectrum.dim, "d_eff": scenario.d_eff,
               "snapshots": k, "epsilon": eps,
               "effective_rank": sub.effective_rank, "floor": rep.floor,
               "min_window_value": rep.worst_value,
               "trace_omega": rep.trace_omega,
               "trace_omega_bound": rep.trace_omega_bound,
               "long_time_average": rep.long_time_average,
               "ceiling": rep.ceiling, "refinement_holds": rep.refinement_holds}
    rows = _series_rows(rep.times, rep.values, bound=rep.floor)
    return ExperimentResult({"slow.csv": rows}, summary, rep.checks)


def run_gaussian(config: dict) -> ExperimentResult:
    """Discretized Gaussian spectrum: window-probability estimate, measured
    Lorentzian purity, and the exact-vs-asymptotic continuum forms."""
    grid = config["sigma_t_grid"]
    if not grid or not all(isinstance(st, (int, float)) and not isinstance(st, bool)
                           and 0 < st < np.inf for st in grid):
        raise ValueError("sigma_t_grid must be a non-empty list of positive "
                         f"finite numbers, got {grid!r}")
    scenario = gaussian_scenario(int(config["levels"]), float(config["sigma"]),
                                 float(config["span"]))
    dist = level_distribution(scenario.state)
    sigma = energy_moments(dist).std
    limit_coeff = float(config["eta_limit_coeff"])
    windows = [float(st) / sigma for st in grid]
    purities = lorentzian_purity_product(dist, windows).tolist()
    rows = []
    checks = []
    for st, window, measured_purity in zip(grid, windows, purities):
        eta, win = max_window_probability_window(dist, 1.0 / window)
        product = eta * sigma * window
        exact = bounds_mod.gaussian_purity_exact(sigma, window)
        asym = bounds_mod.gaussian_purity_asymptote(sigma, window)
        row = {"sigma_T": float(st), "T": window, "eta": eta,
               "eta_sigma_T": product, "eta_limit": limit_coeff,
               "window_left": win[0], "window_right": win[1],
               "purity_measured": measured_purity, "purity_exact_form": exact,
               "purity_asymptote": asym,
               "holds": product <= limit_coeff}
        rows.append(row)
        checks.append(("eta_estimate", {"sigma_T": float(st), "value": product,
                                        "limit": limit_coeff, "holds": row["holds"]}))
        if float(st) >= 5.0:
            checks.append(("purity_asymptote", {"sigma_T": float(st), "exact": exact,
                                                "asymptote": asym,
                                                "holds": abs(exact - asym) <= 0.1 * asym}))
    summary = {"sigma_target": float(config["sigma"]), "sigma_measured": sigma,
               "max_eta_sigma_T": max(r["eta_sigma_T"] for r in rows),
               "points": len(rows)}
    return ExperimentResult({"gaussian.csv": rows}, summary, checks)


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
    scenario = random_scenario(seed + 1, 8)
    state_t = evolve(scenario.state, 0.7)
    omega = dephase(scenario.state)
    sampler = HaarSampler(seed + 2, 8)
    x = mc_distinguishabilities(state_t, omega, [3, 5], sampler, samples)
    check("mean_sq_d8_k3", x * x, exact_mean_sq_distinguishability(state_t, omega, 3),
          sampler, 5.0, cap_only=False)

    # constrained ensemble
    scen10 = random_scenario(seed + 3, 10)
    st10 = evolve(scen10.state, 1.3)
    om10 = dephase(scen10.state)
    sampler = HaarSampler(seed + 4, 10, excluded_vector=scen10.state.amplitudes)
    check("constrained_d10_k3",
          mc_distinguishabilities(st10, om10, [2, 7], sampler, samples),
          constrained_mean_bound(scen10.state, st10, om10, 3), sampler, 3.0,
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
    scen16 = random_scenario(seed + 6, 16)
    st16 = evolve(scen16.state, 0.9)
    om16 = dephase(scen16.state)
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
    checks = [*reports.items(), *(("haar_battery", row) for row in battery)]
    summary = {"reports": len(reports), "battery_rows": len(battery),
               "violations": sum(not record["holds"] for _, record in checks)}
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
    return ExperimentResult({}, summary, [])


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
    return ExperimentResult({}, summary, [])
