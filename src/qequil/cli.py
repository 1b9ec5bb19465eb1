"""Scenario-driven command-line runner.

Each subcommand reads an optional JSON config, applies flag overrides (flags
win), runs a named experiment, and emits CSV/JSON artifacts. Every file
carries the config hash and seed (a leading ``#`` comment for CSV, meta keys
for JSON); outputs are byte-identical for identical configs. The exit code
is 0 exactly when all embedded assertions pass; failures are additionally
written to ``failures.json``.

Energies are treated in units with hbar = 1; to convert a time column to
seconds multiply by hbar / (energy unit in joules).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import batteries, bounds
from .averaging import (TimeSeries, lorentzian_purity_product, running_average)
from .constructions import (gaussian_scenario, harmonic_oscillator_1d,
                            random_scenario, refinement_holds, snapshot_subspace,
                            slow_window_check)
from .haar import (HaarSampler, TwirlResult, initial_distinguishability_floor,
                   mc_constrained_mean, mc_initial_distinguishability,
                   mc_mean_sq_distinguishability, mc_n_outcome_mean, mc_twirl_pair,
                   n_outcome_typical_cap, twirl_reconstruction)
from .measure import Projector, expectation_series
from .spectra import (EnergySpectrum, max_gaps_in_window,
                      max_window_probability_window, spectrum_from_hermitian)
from .states import (QuantumState, complex_in, dephase, effective_dimension,
                     energy_moments, evolve, level_distribution, load_state)

__all__ = ["main"]

DEFAULTS = {
    "figure3": {"levels": 50, "spacing": 1.0, "samples": 2049, "phase_seed": 0},
    "bounds": {"seed": 20240811, "trials": 200, "t_points": 12, "max_rank": 8,
               "slack": 1e-3, "gap_counting_dim": 40},
    "slow": {"seed": 20240811, "dim": 2048, "snapshots": 16, "epsilon": 0.5,
             "samples": 256, "outcomes": 3, "long_window_sigma": 500.0},
    "gaussian": {"levels": 2000, "sigma": 1.0, "span": 8.0,
                 "sigma_t_grid": [2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0, 25.0, 50.0],
                 "eta_limit_coeff": 0.42},
    "haar": {"seed": 20240811, "samples": 2000, "battery_scenarios": 50,
             "battery_samples": 300, "twirl_samples": 10000},
    "eta": {"spectrum": None, "state": None, "epsilon": 1.0},
    "spectrum-info": {"spectrum": None, "hermitian": None, "epsilon": None},
}


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _effective_config(name: str, args) -> dict:
    """DEFAULTS[name] updated by the config file, then the flags; a key that
    the experiment does not read is rejected rather than hashed and ignored."""
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides.update(json.load(fh))
    for key in ("seed", "samples"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    overrides.update(args.set or [])
    unknown = sorted(set(overrides) - set(DEFAULTS[name]))
    if unknown:
        raise SystemExit(f"{name}: unknown config key(s) {', '.join(unknown)}; "
                         f"known: {', '.join(sorted(DEFAULTS[name]))}")
    return {**DEFAULTS[name], **overrides}


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_rows_csv(path, rows, comment: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        if not rows:
            return
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")


class ExperimentFailure(Exception):
    def __init__(self, failures):
        super().__init__(f"{len(failures)} check(s) failed")
        self.failures = failures


def _finish(name, config, out_dir, summary, failures):
    meta = {"experiment": name, "config_hash": _config_hash(config),
            "seed": config.get("seed")}
    summary = {**summary, **{f"_{k}": v for k, v in meta.items()}}
    _write_json(os.path.join(out_dir, f"{name}_summary.json"), summary)
    if failures:
        _write_json(os.path.join(out_dir, "failures.json"),
                    {**meta, "failures": failures})
        raise ExperimentFailure(failures)
    return summary


def run_figure3(config: dict, out_dir: str) -> dict:
    """Full-period distinguishability of the evenly spread oscillator state
    against its equilibrium, under the initial-state projector."""
    levels = int(config["levels"])
    spacing = float(config["spacing"])
    n = int(config["samples"])
    scenario = harmonic_oscillator_1d(levels, spacing)
    state = scenario.state
    omega = dephase(state)
    proj = Projector.rank_one(state.amplitudes)
    p_omega = proj.expectation(omega)
    period = 2.0 * np.pi / spacing
    times = np.linspace(0.0, period, n)
    values = np.abs(expectation_series(proj, state, times) - p_omega)
    series = TimeSeries(times, values).with_running_average()
    comment = f"config={_config_hash(config)} seed={config.get('phase_seed')}"
    series.to_csv(os.path.join(out_dir, "figure3.csv"), value_name="D",
                  comment=comment)

    # same populations with seeded random phases; the averaged curve should
    # not care about them
    rng = np.random.default_rng(np.random.SeedSequence(int(config["phase_seed"])))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, levels))
    rand_state = QuantumState.pure(scenario.spectrum, state.amplitudes * phases)
    rand_omega = dephase(rand_state)
    rand_proj = Projector.rank_one(rand_state.amplitudes)
    rand_vals = np.abs(expectation_series(rand_proj, rand_state, times)
                       - rand_proj.expectation(rand_omega))
    TimeSeries(times, rand_vals).with_running_average().to_csv(
        os.path.join(out_dir, "figure3_random_phase.csv"), value_name="D",
        comment=comment)

    d0 = float(values[0])
    revival_gap = float(abs(values[-1] - values[0]))
    avg_at_period = float(series.running[-1])
    rand_avg = float(running_average(times, rand_vals)[-1])
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
    return _finish("figure3", config, out_dir, summary, failures)


def run_bounds(config: dict, out_dir: str) -> dict:
    """Seeded trial batteries for the two-outcome bound, the purity chain,
    and the gap-counting bounds."""
    seed = int(config["seed"])
    report = batteries.fast_equilibration_battery(seed, trials=int(config["trials"]),
                                        t_points=int(config["t_points"]),
                                        max_rank=int(config["max_rank"]),
                                        slack=float(config["slack"]))
    gap_checks = batteries.gap_counting_battery(seed, dim=int(config["gap_counting_dim"]))
    comment = f"config={_config_hash(config)} seed={seed}"
    by_battery = {}
    for row in report.rows + gap_checks.rows:
        by_battery.setdefault(row["battery"], []).append(row)
    for name, rows in sorted(by_battery.items()):
        _write_rows_csv(os.path.join(out_dir, f"{name}_trials.csv"), rows, comment)
    failures = [{"check": v.get("battery", "bound"), **{k: _fmt(x) for k, x in v.items()}}
                for v in report.violations + gap_checks.violations]
    summary = {"trials": int(config["trials"]),
               "rows": len(report.rows) + len(gap_checks.rows),
               "violations": len(failures)}
    return _finish("bounds", config, out_dir, summary, failures)


def run_slow(config: dict, out_dir: str) -> dict:
    """Scaled slow-equilibration scenario: snapshot-subspace floor across the
    guaranteed window, eventual-equilibration ceiling, and N-outcome
    refinement dominance."""
    seed = int(config["seed"])
    scenario = random_scenario(seed, int(config["dim"]))
    k = int(config["snapshots"])
    eps = float(config["epsilon"])
    sub = snapshot_subspace(scenario, k, eps)
    rep = slow_window_check(sub, scenario, num_samples=int(config["samples"]),
                            long_window_sigma=float(config["long_window_sigma"]))
    comment = f"config={_config_hash(config)} seed={seed}"
    series = TimeSeries(rep.series.times, rep.series.values,
                        running=rep.series.running,
                        bound=np.full_like(rep.series.values, rep.floor))
    series.to_csv(os.path.join(out_dir, "slow.csv"), value_name="D",
                  comment=comment)

    refinement_ok = refinement_holds(sub, scenario, int(config["outcomes"]))

    failures = []
    if not rep.floor_holds:
        failures.append({"check": "window_floor", "worst_time": rep.worst_time,
                         "worst_value": rep.worst_value, "floor": rep.floor})
    if rep.trace_omega > rep.trace_omega_bound:
        failures.append({"check": "equilibrium_weight", "value": rep.trace_omega,
                         "limit": rep.trace_omega_bound})
    if not rep.ceiling_holds:
        failures.append({"check": "long_time_ceiling",
                         "value": rep.long_time_average, "limit": rep.ceiling})
    if not refinement_ok:
        failures.append({"check": "refinement_dominance"})
    summary = {"dim": scenario.spectrum.dim, "d_eff": scenario.d_eff,
               "snapshots": k, "epsilon": eps,
               "effective_rank": sub.effective_rank, "floor": rep.floor,
               "min_window_value": rep.worst_value,
               "trace_omega": rep.trace_omega,
               "trace_omega_bound": rep.trace_omega_bound,
               "long_time_average": rep.long_time_average,
               "ceiling": rep.ceiling, "refinement_holds": refinement_ok}
    return _finish("slow", config, out_dir, summary, failures)


def run_gaussian(config: dict, out_dir: str) -> dict:
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
        exact = bounds.gaussian_purity_exact(sigma, window)
        asym = bounds.gaussian_purity_asymptote(sigma, window)
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
    comment = f"config={_config_hash(config)} seed={config.get('seed')}"
    _write_rows_csv(os.path.join(out_dir, "gaussian.csv"), rows, comment)
    summary = {"sigma_target": float(config["sigma"]), "sigma_measured": sigma,
               "max_eta_sigma_T": max(r["eta_sigma_T"] for r in rows),
               "points": len(rows)}
    return _finish("gaussian", config, out_dir, summary, failures)


def run_haar(config: dict, out_dir: str) -> dict:
    """Exact-vs-Monte-Carlo comparisons for the measurement-ensemble
    formulas, plus the full Haar bound battery."""
    seed = int(config["seed"])
    samples = int(config["samples"])
    reports = {}
    failures = []

    def check(name: str, res: TwirlResult, sigmas: float, cap_only: bool):
        reports[name] = res.to_dict()
        gap = res.mc_mean - res.exact
        ok = gap <= sigmas * res.mc_stderr if cap_only else abs(gap) <= sigmas * res.mc_stderr
        reports[name]["holds"] = bool(ok)
        if not ok:
            failures.append({"check": name, "mc_mean": res.mc_mean,
                             "reference": res.exact, "stderr": res.mc_stderr})

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
    proj = HaarSampler(seed + 8, 4).projector(2)
    mean, stderr = mc_twirl_pair(proj.matrix, HaarSampler(seed + 9, 4),
                                 int(config["twirl_samples"]))
    exact = twirl_reconstruction(proj.matrix)
    worst = float(np.abs(mean - exact).max())
    allowance = float(6.0 * stderr.max() + 1e-3)
    reports["twirl_d4_k2"] = {"max_entry_gap": worst, "allowance": allowance,
                              "samples": int(config["twirl_samples"]),
                              "holds": worst <= allowance}
    if worst > allowance:
        failures.append({"check": "twirl_d4_k2", "gap": worst,
                         "allowance": allowance})

    battery = batteries.haar_battery(seed, int(config["battery_scenarios"]),
                                     int(config["battery_samples"]))
    comment = f"config={_config_hash(config)} seed={seed}"
    _write_rows_csv(os.path.join(out_dir, "haar_battery.csv"), battery.rows, comment)
    for v in battery.violations:
        failures.append({"check": "haar_battery", **{k: _fmt(x) for k, x in v.items()}})
    _write_json(os.path.join(out_dir, "haar_reports.json"),
                {"reports": reports, "_config_hash": _config_hash(config),
                 "_seed": seed})
    summary = {"reports": len(reports), "battery_rows": len(battery.rows),
               "violations": len(failures)}
    return _finish("haar", config, out_dir, summary, failures)


def _load_spectrum_arg(config) -> EnergySpectrum:
    if config.get("spectrum"):
        return EnergySpectrum.load(config["spectrum"])
    if config.get("hermitian"):
        with open(config["hermitian"]) as fh:
            payload = json.load(fh)
        matrix = complex_in(payload["matrix"] if isinstance(payload, dict) else payload)
        spec, _ = spectrum_from_hermitian(matrix)
        return spec
    raise SystemExit("provide a spectrum file (or a hermitian matrix file)")


def run_eta(config: dict, out_dir: str) -> dict:
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
    return _finish("eta", config, out_dir, summary, [])


def run_spectrum_info(config: dict, out_dir: str) -> dict:
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
    return _finish("spectrum-info", config, out_dir, summary, [])


RUNNERS = {
    "figure3": run_figure3,
    "bounds": run_bounds,
    "slow": run_slow,
    "gaussian": run_gaussian,
    "haar": run_haar,
    "eta": run_eta,
    "spectrum-info": run_spectrum_info,
}


def _parse_set(pairs):
    out = []
    for item in pairs or []:
        key, _, raw = item.partition("=")
        if not _:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.append((key, value))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qequil",
        description="Equilibration numerics: seeded experiments with CSV/JSON artifacts.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in RUNNERS.items():
        p = sub.add_parser(name, help=(runner.__doc__ or "").strip().splitlines()[0])
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key (value parsed as JSON)")
    args = parser.parse_args(argv)
    args.set = _parse_set(args.set)
    name = args.experiment
    config = _effective_config(name, args)
    os.makedirs(args.out, exist_ok=True)
    try:
        summary = RUNNERS[name](config, args.out)
    except ExperimentFailure as exc:
        print(f"{name}: {len(exc.failures)} check(s) FAILED", file=sys.stderr)
        return 1
    printable = {k: v for k, v in summary.items() if not k.startswith("_")}
    print(json.dumps({name: printable}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
