"""Seeded trial batteries that sweep the bounds over randomized scenarios.

Each battery is deterministic given its seed and returns row dictionaries
(ready for CSV emission) plus a list of violations; an empty violation list
is the expected verdict.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .averaging import TimeGrid, lorentzian_purity, lorentzian_state, time_average
from .constructions import (Scenario, random_scenario, refinement_holds,
                            snapshot_subspace, slow_window_check)
from .haar import (HaarSampler, mc_constrained_mean, mc_mean_distinguishability,
                   mc_n_outcome_constrained_mean, mc_n_outcome_mean,
                   n_outcome_typical_cap)
from .measure import distinguishability_series, expectation_series, two_outcome
from .spectra import spectrum_from_hermitian
from .states import (QuantumState, dephase, energy_moments, evolve,
                     level_distribution)

__all__ = [
    "BatteryReport",
    "fast_equilibration_battery",
    "gap_counting_battery",
    "haar_battery",
    "slow_battery",
]

PURITY_DUAL_PATH_TOL = 1e-12


@dataclass
class BatteryReport:
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, other: "BatteryReport") -> None:
        self.rows.extend(other.rows)
        self.violations.extend(other.violations)


def _rng_ints(rng, n):
    return [int(x) for x in rng.integers(0, 2 ** 62, size=n)]


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
        return Scenario(spec, _random_state(rng, spec), f"trial-{seed}",
                        {"seed": seed})
    if rng.random() < 0.2:
        return Scenario(scenario.spectrum,
                        _random_state(rng, scenario.spectrum),
                        f"trial-{seed}", {"seed": seed})
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
                               max_rank: int = 8, slack: float = 1e-3,
                               check_purity_chain: bool = True,
                               deltas=(0.5, 1.0, 2.0, 4.0)) -> BatteryReport:
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
            if not rep.holds:
                report.violations.append(row)
            if check_purity_chain:
                _purity_chain_point(report, spec, state, probs, sigma, window,
                                    trial, deltas)
    return report


def _purity_chain_point(report, spec, state, probs, sigma, window, trial, deltas):
    pair = lorentzian_purity(state, window)
    m = lorentzian_state(state, window).rho
    matrix_path = float(np.trace(m @ m).real)
    agreement = abs(pair.exact - matrix_path)
    row = {"battery": "purity_chain", "trial": trial, "T": float(window),
           "purity_exact": pair.exact, "purity_matrix": matrix_path,
           "agreement": agreement, "product_bound": pair.product_bound}
    ok = agreement <= PURITY_DUAL_PATH_TOL and pair.exact <= pair.product_bound + 1e-12
    from .averaging import dephased_purity_bound
    for delta in (*deltas, 2.0 * window * (sigma / 2.0)):
        cap = dephased_purity_bound(spec, probs, window, delta=delta)
        row[f"bound_delta_{delta:g}"] = cap
        ok = ok and pair.exact <= cap + 1e-12
    row["holds"] = ok
    report.rows.append(row)
    if not ok:
        report.violations.append(row)


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


def gap_counting_battery(seed: int, dim: int = 40, eps_factors=(0.1, 1.0, 10.0),
                       t_points: int = 6) -> BatteryReport:
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

    for window in np.geomspace(1.0, 100.0, t_points) / sigma:
        grid = TimeGrid.for_window(window, spec.span)
        sq_avg = time_average(
            lambda ts: (expectation_series(proj, state, ts) - p_omega) ** 2, grid)
        d_avg = time_average(
            lambda ts: distinguishability_series(meas, state, omega, ts), grid)
        for factor in eps_factors:
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
                if not rep.holds:
                    report.violations.append(row)
    return report


def haar_battery(seed: int, scenarios: int = 50, samples: int = 300,
                 stderr_sigmas: float = 3.0) -> BatteryReport:
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
        seeds = _rng_ints(rng, 4)

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
            limit = cap + stderr_sigmas * res.mc_stderr
            row = {"name": name, "T": t, "K": rank, "value": cap,
                   "measured": res.mc_mean, "holds": res.mc_mean <= limit,
                   "battery": "haar", "scenario": idx, "d": d, "N": outcomes,
                   "mc_stderr": res.mc_stderr}
            report.rows.append(row)
            if not row["holds"]:
                report.violations.append(row)
    return report


def _random_partition(rng, total: int, parts: int):
    """Random composition of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    edges = np.concatenate(([0], cuts, [total]))
    return [int(b - a) for a, b in zip(edges[:-1], edges[1:])]


def slow_battery(seed: int, scenarios: int = 20, num_samples: int = 128,
                 refine_times: int = 64) -> BatteryReport:
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
        rep = slow_window_check(sub, scenario, num_samples=num_samples)

        refine_ok = refinement_holds(sub, scenario, 3, refine_times)

        row = {"battery": "slow", "scenario": idx, "d": d, "K": k, "eps": eps,
               "d_eff": scenario.d_eff, "floor": rep.floor,
               "min_value": rep.worst_value, "floor_holds": rep.floor_holds,
               "trace_omega": rep.trace_omega,
               "trace_omega_bound": rep.trace_omega_bound,
               "long_time_average": rep.long_time_average,
               "ceiling": rep.ceiling, "ceiling_holds": rep.ceiling_holds,
               "refinement_holds": refine_ok,
               "holds": rep.holds and refine_ok}
        report.rows.append(row)
        if not row["holds"]:
            report.violations.append(row)
    return report
