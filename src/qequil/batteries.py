"""Seeded trial batteries and the experiments behind the command line.

Each battery is deterministic given its seed and returns row dictionaries,
each with a ``holds`` verdict; the violations are the rows that do not hold,
and an empty list is the expected verdict.

Each experiment (``run_figure3`` ... ``run_spectrum_info``) takes a config
dict and returns an :class:`ExperimentResult`: its tables (file name to CSV
rows or a JSON payload), a summary and the failed checks. Experiments write
no files; the CLI stamps and writes what they return.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from .averaging import (TimeGrid, TimeSeries, dephased_purity_bound,
                        lorentzian_purity, lorentzian_purity_product,
                        lorentzian_state, time_average)
from .constructions import (Scenario, gaussian_scenario, harmonic_oscillator_1d,
                            random_scenario, snapshot_subspace, slow_window_check)
from .haar import (HaarSampler, TwirlResult, initial_distinguishability_floor,
                   mc_constrained_mean, mc_initial_distinguishability,
                   mc_mean_distinguishability, mc_mean_sq_distinguishability,
                   mc_n_outcome_constrained_mean, mc_n_outcome_mean, mc_twirl_pair,
                   n_outcome_typical_cap, twirl_reconstruction)
from .measure import (Projector, distinguishability_series, expectation_series,
                      two_outcome)
from .spectra import (EnergySpectrum, max_gaps_in_window,
                      max_window_probability_window, spectrum_from_hermitian)
from .states import (QuantumState, complex_in, dephase, effective_dimension,
                     energy_moments, evolve, level_distribution, load_state, purity)

__all__ = [
    "BatteryReport",
    "ExperimentResult",
    "fast_equilibration_battery",
    "gap_counting_battery",
    "haar_battery",
    "slow_battery",
    "run_figure3",
    "run_bounds",
    "run_slow",
    "run_gaussian",
    "run_haar",
    "run_eta",
    "run_spectrum_info",
]

PURITY_DUAL_PATH_TOL = 1e-12
# Sweep settings: purity-chain widths delta (the one matched to sigma_E is
# added), gap-counting widths eps / sigma_E and number of windows T, the
# Monte Carlo allowance in standard errors, samples across the slow window.
PURITY_CHAIN_DELTAS = (0.5, 1.0, 2.0, 4.0)
GAP_COUNTING_EPS_FACTORS = (0.1, 1.0, 10.0)
GAP_COUNTING_WINDOWS = 6
HAAR_STDERR_SIGMAS = 3.0
SLOW_BATTERY_SAMPLES = 128


@dataclass
class BatteryReport:
    rows: list = field(default_factory=list)

    @property
    def violations(self) -> list:
        """The rows whose ``holds`` is false."""
        return [row for row in self.rows if not row["holds"]]

    @property
    def ok(self) -> bool:
        return not self.violations


class ExperimentResult(NamedTuple):
    """What an experiment returns: ``tables`` maps a file name to CSV rows (a
    list of dicts) or to a JSON payload (a dict); ``failures`` lists the
    checks that did not hold."""

    tables: dict
    summary: dict
    failures: list


def _random_trial_scenario(rng, dim_range=(24, 60)) -> Scenario:
    """One randomized (spectrum, state) pair; spectra alternate between
    Poisson-spaced ladders, versions with degenerate levels, and dense
    random-matrix spectra; states alternate pure and low-rank mixed."""
    d = int(rng.integers(dim_range[0], dim_range[1] + 1))
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
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        spec, _ = spectrum_from_hermitian((z + z.conj().T) / (2.0 * np.sqrt(d)),
                                          tol=1e-9)
        return Scenario(spec, _random_state(rng, spec), f"trial-{seed}")
    if rng.random() < 0.2:
        return Scenario(scenario.spectrum, _random_state(rng, scenario.spectrum),
                        f"trial-{seed}")
    return scenario


def _random_state(rng, spec) -> QuantumState:
    d = spec.dim
    if rng.random() < 0.8:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return QuantumState.pure(spec, z / np.linalg.norm(z))
    rho = np.zeros((d, d), dtype=complex)
    for w in rng.dirichlet(np.ones(int(rng.integers(2, 5)))):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z /= np.linalg.norm(z)
        rho += w * np.outer(z, z.conj())
    return QuantumState.mixed(spec, rho)


def fast_equilibration_battery(seed: int, trials: int = 200, t_points: int = 12,
                               max_rank: int = 8, slack: float = 1e-3) -> BatteryReport:
    """Randomized sweep of the two-outcome fast-equilibration bound, with the
    Lorentzian-purity chain checked at every grid point along the way."""
    report = BatteryReport()
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        scenario = _random_trial_scenario(rng)
        spec = scenario.spectrum
        state = scenario.state
        dist = level_distribution(state)
        probs = dist.probs
        sigma = energy_moments(dist, spec).std
        omega = dephase(state)
        d = spec.dim
        rank = int(rng.integers(1, min(max_rank, d // 2) + 1))
        proj = HaarSampler(int(rng.integers(2 ** 62)), d).projector(rank)
        p_omega = proj.expectation(omega)
        t_grid = np.geomspace(0.1, 100.0, t_points) / sigma
        for window in t_grid:
            grid = TimeGrid.for_window(window, spec.span)
            avg = time_average(
                lambda ts: np.abs(expectation_series(proj, state, ts) - p_omega),
                grid)
            rep = bounds_mod.fast_equilibration_bound(spec, probs, rank, window)
            rep.measured = avg.value
            rep.slack = slack
            row = {"name": rep.name, "T": float(window), "eps": 1.0 / window,
                   "K": rank, "value": rep.value, "measured": avg.value,
                   "holds": rep.holds, "battery": "fast_equilibration", "trial": trial,
                   "label": scenario.label, "d": d, "levels": spec.num_levels,
                   "eta": rep.inputs["eta"],
                   "refinement_error": avg.refinement_error}
            report.rows.append(row)
            report.rows.append(_purity_chain_row(spec, state, probs, sigma,
                                                 window, trial))
    return report


def _purity_chain_row(spec, state, probs, sigma, window, trial) -> dict:
    pair = lorentzian_purity(state, window)
    matrix_path = purity(lorentzian_state(state, window))
    agreement = abs(pair.exact - matrix_path)
    row = {"battery": "purity_chain", "trial": trial, "T": float(window),
           "purity_exact": pair.exact, "purity_matrix": matrix_path,
           "agreement": agreement, "product_bound": pair.product_bound}
    ok = agreement <= PURITY_DUAL_PATH_TOL and pair.exact <= pair.product_bound + 1e-12
    for delta in (*PURITY_CHAIN_DELTAS, 2.0 * window * (sigma / 2.0)):
        cap = dephased_purity_bound(spec, probs, window, delta=delta)
        row[f"bound_delta_{delta:g}"] = cap
        ok = ok and pair.exact <= cap + 1e-12
    row["holds"] = ok
    return row


def gap_counting_scenario(seed: int, dim: int = 40):
    """Dense random-matrix spectrum with a Haar pure state and a half-rank
    projector, shared by the gap-counting checks."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA]))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    spec, _ = spectrum_from_hermitian((z + z.conj().T) / (2.0 * np.sqrt(dim)),
                                      tol=1e-9)
    zz = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = QuantumState.pure(spec, zz / np.linalg.norm(zz))
    proj = HaarSampler(int(rng.integers(2 ** 62)), dim).projector(dim // 2)
    return spec, state, proj


def gap_counting_battery(seed: int, dim: int = 40) -> BatteryReport:
    """Gap-counting bound checks on a dense random-matrix scenario, for both
    the expectation and distinguishability forms."""
    report = BatteryReport()
    spec, state, proj = gap_counting_scenario(seed, dim)
    dist = level_distribution(state)
    sigma = energy_moments(dist, spec).std
    omega = dephase(state)
    p_omega = proj.expectation(omega)
    gaps = spec.gaps()
    meas = two_outcome(proj)

    for window in np.geomspace(1.0, 100.0, GAP_COUNTING_WINDOWS) / sigma:
        grid = TimeGrid.for_window(window, spec.span)
        sq_avg = time_average(
            lambda ts: (expectation_series(proj, state, ts) - p_omega) ** 2, grid)
        d_avg = time_average(
            lambda ts: distinguishability_series(meas, state, omega, ts), grid)
        for factor in GAP_COUNTING_EPS_FACTORS:
            eps = factor * sigma
            exp_rep = bounds_mod.general_expectation_bound(
                spec, state, 1.0, eps, window, gaps=gaps)
            exp_rep.measured, exp_rep.slack = sq_avg.value, 1e-3
            dis_rep = bounds_mod.general_distinguishability_bound(
                spec, state, 2, eps, window, gaps=gaps)
            dis_rep.measured, dis_rep.slack = d_avg.value, 1e-3
            for rep in (exp_rep, dis_rep):
                row = {"name": rep.name, "T": float(window), "eps": float(eps),
                       "K": proj.rank, "value": rep.value,
                       "measured": rep.measured, "holds": rep.holds,
                       "battery": "gap_counting", "d": dim,
                       "N_eps": rep.inputs["N_eps"],
                       "informative": rep.value < 1.0}
                report.rows.append(row)
    return report


def haar_battery(seed: int, scenarios: int = 50, samples: int = 300) -> BatteryReport:
    """Monte Carlo sweep of all four Haar-ensemble bounds (two-outcome and
    N-outcome, unconstrained and initial-state-constrained)."""
    report = BatteryReport()
    for idx in range(scenarios):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x44A, idx]))
        d = int(rng.integers(8, 25))
        scenario = random_scenario(int(rng.integers(2 ** 62)), d)
        state0 = scenario.state
        spec = scenario.spectrum
        sigma = scenario.sigma_e
        t = float(rng.uniform(0.0, 20.0 / sigma))
        state_t = evolve(state0, t)
        omega = dephase(state0)
        rank = int(rng.integers(1, d))
        outcomes = int(rng.integers(2, min(6, d // 2) + 1))
        seeds = [int(x) for x in rng.integers(0, 2 ** 62, size=4)]

        checks = []
        res = mc_mean_distinguishability(state_t, omega, rank,
                                         HaarSampler(seeds[0], d), samples)
        checks.append(("typical_two_outcome", res, res.exact))

        res = mc_constrained_mean(state0, state_t, omega, max(rank, 1),
                                  HaarSampler(seeds[1], d,
                                              excluded_vector=state0.amplitudes),
                                  samples)
        checks.append(("constrained_two_outcome", res, res.exact))

        ranks = _random_partition(rng, d, outcomes)
        res = mc_n_outcome_mean(state_t, omega, ranks,
                                HaarSampler(seeds[2], d), samples)
        checks.append(("typical_n_outcome", res,
                       min(res.exact, n_outcome_typical_cap(outcomes, d))))

        ranks_c = _random_partition(rng, d - 1, outcomes - 1)
        res = mc_n_outcome_constrained_mean(
            state0, state_t, omega, ranks_c,
            HaarSampler(seeds[3], d, excluded_vector=state0.amplitudes), samples)
        checks.append(("constrained_n_outcome", res, res.exact))

        for name, res, cap in checks:
            limit = cap + HAAR_STDERR_SIGMAS * res.mc_stderr
            row = {"name": name, "T": t, "K": rank, "value": cap,
                   "measured": res.mc_mean, "holds": res.mc_mean <= limit,
                   "battery": "haar", "scenario": idx, "d": d, "N": outcomes,
                   "mc_stderr": res.mc_stderr}
            report.rows.append(row)
    return report


def _random_partition(rng, total: int, parts: int):
    """Random composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    edges = np.concatenate(([0], cuts, [total]))
    return [int(b - a) for a, b in zip(edges[:-1], edges[1:])]


def slow_battery(seed: int, scenarios: int = 20) -> BatteryReport:
    """Snapshot-subspace floor/ceiling checks plus N-outcome refinement
    dominance across a range of dimensions and snapshot counts."""
    report = BatteryReport()
    dims = (256, 512, 1024, 2048)
    counts = (4, 8, 16, 32)
    eps_choices = (0.25, 0.5)
    for idx in range(scenarios):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x510, idx]))
        d = int(dims[idx % len(dims)])
        k = int(counts[int(rng.integers(len(counts)))])
        # keep the guaranteed floor strictly positive and meaningful
        while np.sqrt(k / (d / 2.2)) > 0.5:
            k //= 2
        eps = float(eps_choices[int(rng.integers(2))])
        scenario = random_scenario(int(rng.integers(2 ** 62)), d)
        sub = snapshot_subspace(scenario, k, eps)
        rep = slow_window_check(sub, scenario, 3, num_samples=SLOW_BATTERY_SAMPLES)

        row = {"battery": "slow", "scenario": idx, "d": d, "K": k, "eps": eps,
               "d_eff": scenario.d_eff, "floor": rep.floor,
               "min_value": rep.worst_value, "floor_holds": rep.floor_holds,
               "trace_omega": rep.trace_omega,
               "trace_omega_bound": rep.trace_omega_bound,
               "long_time_average": rep.long_time_average,
               "ceiling": rep.ceiling, "ceiling_holds": rep.ceiling_holds,
               "refinement_holds": rep.refinement_holds,
               "holds": rep.holds}
        report.rows.append(row)
    return report


def _series_rows(series: TimeSeries, **constant) -> list:
    """CSV rows t, D, running_avg of a series, then any constant columns."""
    return [{"t": t, "D": v, "running_avg": r, **constant}
            for t, v, r in zip(series.times, series.values, series.running)]


def _initial_projector_series(state: QuantumState, times) -> TimeSeries:
    """|tr(P rho_t) - tr(P omega)| under the initial-state projector P."""
    proj = Projector.rank_one(state.amplitudes)
    values = np.abs(expectation_series(proj, state, times)
                    - proj.expectation(dephase(state)))
    return TimeSeries(times, values).with_running_average()


def run_figure3(config: dict) -> ExperimentResult:
    """Full-period distinguishability of the evenly spread oscillator state
    against its equilibrium, under the initial-state projector."""
    levels = int(config["levels"])
    spacing = float(config["spacing"])
    scenario = harmonic_oscillator_1d(levels, spacing)
    state = scenario.state
    times = np.linspace(0.0, 2.0 * np.pi / spacing, int(config["samples"]))
    series = _initial_projector_series(state, times)

    # same populations with seeded random phases; the averaged curve should
    # not care about them
    rng = np.random.default_rng(np.random.SeedSequence(int(config["phase_seed"])))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, levels))
    rand_state = QuantumState.pure(scenario.spectrum, state.amplitudes * phases)
    rand_series = _initial_projector_series(rand_state, times)

    d0 = float(series.values[0])
    revival_gap = float(abs(series.values[-1] - series.values[0]))
    avg_at_period = float(series.running[-1])
    rand_avg = float(rand_series.running[-1])
    expected_d0 = 1.0 - 1.0 / levels
    failures = []
    if abs(d0 - expected_d0) > 1e-9:
        failures.append({"check": "initial_distinguishability", "value": d0,
                         "expected": expected_d0})
    if revival_gap > 1e-9:
        failures.append({"check": "revival", "value": revival_gap})
    if avg_at_period > 0.2 * d0:
        failures.append({"check": "average_at_revival", "value": avg_at_period,
                         "limit": 0.2 * d0})
    summary = {"levels": levels, "initial_distinguishability": d0,
               "revival_gap": revival_gap, "average_at_revival": avg_at_period,
               "average_at_revival_random_phase": rand_avg,
               "phase_insensitivity_gap": abs(avg_at_period - rand_avg)}
    tables = {"figure3.csv": _series_rows(series),
              "figure3_random_phase.csv": _series_rows(rand_series)}
    return ExperimentResult(tables, summary, failures)


def run_bounds(config: dict) -> ExperimentResult:
    """Seeded trial batteries for the two-outcome bound, the purity chain,
    and the gap-counting bounds."""
    seed = int(config["seed"])
    report = fast_equilibration_battery(seed, trials=int(config["trials"]),
                                        t_points=int(config["t_points"]),
                                        max_rank=int(config["max_rank"]),
                                        slack=float(config["slack"]))
    gap_checks = gap_counting_battery(seed, dim=int(config["gap_counting_dim"]))
    rows = report.rows + gap_checks.rows
    tables = {}
    for row in rows:
        tables.setdefault(f"{row['battery']}_trials.csv", []).append(row)
    failures = [{"check": v["battery"], **v}
                for v in report.violations + gap_checks.violations]
    summary = {"trials": int(config["trials"]), "rows": len(rows),
               "violations": len(failures)}
    return ExperimentResult(tables, summary, failures)


def run_slow(config: dict) -> ExperimentResult:
    """Scaled slow-equilibration scenario: snapshot-subspace floor across the
    guaranteed window, eventual-equilibration ceiling, and N-outcome
    refinement dominance."""
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
    return ExperimentResult({"slow.csv": _series_rows(rep.series, bound=rep.floor)},
                            summary, rep.failures)


def run_gaussian(config: dict) -> ExperimentResult:
    """Discretized Gaussian spectrum: window-probability estimate, measured
    Lorentzian purity, and the exact-vs-asymptotic continuum forms."""
    scenario = gaussian_scenario(int(config["levels"]), float(config["sigma"]),
                                 float(config["span"]))
    dist = level_distribution(scenario.state)
    sigma = energy_moments(dist, scenario.spectrum).std
    limit_coeff = float(config["eta_limit_coeff"])
    rows = []
    failures = []
    for st in config["sigma_t_grid"]:
        window = float(st) / sigma
        eta, win = max_window_probability_window(scenario.spectrum, dist.probs,
                                                 1.0 / window)
        product = eta * sigma * window
        measured_purity = lorentzian_purity_product(scenario.spectrum, dist.probs,
                                                    window)
        exact = bounds_mod.gaussian_purity_exact(sigma, window)
        asym = bounds_mod.gaussian_purity_asymptote(sigma, window)
        row = {"sigma_T": float(st), "T": window, "eta": eta,
               "eta_sigma_T": product, "eta_limit": limit_coeff,
               "window_left": win[0], "window_right": win[1],
               "purity_measured": measured_purity, "purity_exact_form": exact,
               "purity_asymptote": asym,
               "holds": product <= limit_coeff}
        rows.append(row)
        if not row["holds"]:
            failures.append({"check": "eta_estimate", "sigma_T": float(st),
                             "value": product, "limit": limit_coeff})
        if float(st) >= 5.0 and abs(exact - asym) > 0.1 * asym:
            failures.append({"check": "purity_asymptote", "sigma_T": float(st),
                             "exact": exact, "asymptote": asym})
    summary = {"sigma_target": float(config["sigma"]), "sigma_measured": sigma,
               "max_eta_sigma_T": max(r["eta_sigma_T"] for r in rows),
               "points": len(rows)}
    return ExperimentResult({"gaussian.csv": rows}, summary, failures)


def run_haar(config: dict) -> ExperimentResult:
    """Exact-vs-Monte-Carlo comparisons for the measurement-ensemble
    formulas, plus the full Haar bound battery."""
    seed = int(config["seed"])
    samples = int(config["samples"])
    reports = {}

    def check(name: str, res: TwirlResult, sigmas: float, cap_only: bool):
        gap = res.mc_mean - res.exact
        ok = gap <= sigmas * res.mc_stderr if cap_only else abs(gap) <= sigmas * res.mc_stderr
        reports[name] = {**res.to_dict(), "holds": bool(ok)}

    # exact second moment vs MC
    scenario = random_scenario(seed + 1, 8)
    state_t = evolve(scenario.state, 0.7)
    omega = dephase(scenario.state)
    res = mc_mean_sq_distinguishability(state_t, omega, 3,
                                        HaarSampler(seed + 2, 8), samples)
    check("mean_sq_d8_k3", res, 5.0, cap_only=False)

    # constrained ensemble
    scen10 = random_scenario(seed + 3, 10)
    st10 = evolve(scen10.state, 1.3)
    om10 = dephase(scen10.state)
    res = mc_constrained_mean(scen10.state, st10, om10, 3,
                              HaarSampler(seed + 4, 10,
                                          excluded_vector=scen10.state.amplitudes),
                              samples)
    check("constrained_d10_k3", res, 3.0, cap_only=True)

    # initial distinguishability floor, uniform state over 6 of 12 levels
    spec12 = EnergySpectrum(np.arange(12, dtype=float), np.ones(12, dtype=int))
    amps = np.zeros(12, dtype=complex)
    amps[:6] = 1.0 / np.sqrt(6.0)
    state12 = QuantumState.pure(spec12, amps)
    om12 = dephase(state12)
    res = mc_initial_distinguishability(state12, om12, 4,
                                        HaarSampler(seed + 5, 12,
                                                    excluded_vector=amps),
                                        samples)
    check("initial_floor_d12_k4", res, 3.0, cap_only=False)
    reports["initial_floor_d12_k4"]["floor"] = initial_distinguishability_floor(
        4, 12, effective_dimension(level_distribution(state12)))

    # N-outcome cap
    scen16 = random_scenario(seed + 6, 16)
    st16 = evolve(scen16.state, 0.9)
    om16 = dephase(scen16.state)
    res = mc_n_outcome_mean(st16, om16, [4, 4, 4, 4],
                            HaarSampler(seed + 7, 16), samples)
    check("n_outcome_d16_n4", res, 3.0, cap_only=True)
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
    failures = [{"check": name, **report} for name, report in reports.items()
                if not report["holds"]]
    failures += [{"check": "haar_battery", **v} for v in battery.violations]
    summary = {"reports": len(reports), "battery_rows": len(battery.rows),
               "violations": len(failures)}
    tables = {"haar_battery.csv": battery.rows,
              "haar_reports.json": {"reports": reports}}
    return ExperimentResult(tables, summary, failures)


def _load_spectrum_arg(config) -> EnergySpectrum:
    if config.get("spectrum"):
        return EnergySpectrum.load(config["spectrum"])
    if config.get("hermitian"):
        with open(config["hermitian"]) as fh:
            payload = json.load(fh)
        matrix = complex_in(payload["matrix"] if isinstance(payload, dict) else payload)
        spec, _ = spectrum_from_hermitian(matrix)
        return spec
    raise ValueError("provide a spectrum file (or a hermitian matrix file)")


def run_eta(config: dict) -> ExperimentResult:
    """Window probability of a state (or the uniform distribution) over a
    spectrum, with the maximizing window."""
    spec = _load_spectrum_arg(config)
    if config.get("state"):
        state = load_state(config["state"], spectrum=spec)
        probs = level_distribution(state).probs
        source = config["state"]
    else:
        probs = np.full(spec.num_levels, 1.0 / spec.num_levels)
        source = "uniform"
    eps = float(config["epsilon"])
    value, window = max_window_probability_window(spec, probs, eps)
    summary = {"epsilon": eps, "eta": value,
               "window": [window[0], window[1]], "probs_source": source,
               "num_levels": spec.num_levels}
    return ExperimentResult({}, summary, [])


def run_spectrum_info(config: dict) -> ExperimentResult:
    """Structural report for a spectrum: dimensions, gap extremes, and the
    gap count inside a window when a width is given."""
    spec = _load_spectrum_arg(config)
    gaps = spec.gaps()
    positive = gaps.values[gaps.values > 0]
    summary = {"num_levels": spec.num_levels, "dim": spec.dim,
               "span": spec.span,
               "min_gap": float(positive.min()) if positive.size else 0.0,
               "max_gap": float(positive.max()) if positive.size else 0.0,
               "gap_count": gaps.count,
               "degenerate": not spec.is_nondegenerate()}
    if config.get("epsilon"):
        eps = float(config["epsilon"])
        summary["epsilon"] = eps
        summary["gaps_in_window"] = max_gaps_in_window(gaps, eps)
    return ExperimentResult({}, summary, [])
