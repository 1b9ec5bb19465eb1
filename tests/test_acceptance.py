"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line each (printed in the terminal summary)."""
import numpy as np
import pytest

from qequil import batteries, cli
from qequil.averaging import running_average
from qequil.bounds import (fast_equilibration_constant, gaussian_purity_asymptote,
                           gaussian_purity_exact, population_constant)
from qequil.constructions import (gaussian_scenario, harmonic_oscillator_1d,
                                  partitioned_slow_measurement, random_scenario,
                                  snapshot_subspace, slow_window_check)
from qequil.haar import HaarSampler, exact_mean_sq_distinguishability, \
    mc_distinguishabilities, mc_mean_stderr, n_outcome_typical_cap
from qequil.measure import Projector, expectation_series, two_outcome
from qequil.spectra import (EnergySpectrum, LevelDistribution, max_gaps_in_window,
                            max_window_probability)
from qequil.states import dephase, energy_moments, evolve, level_distribution, purity

from helpers import (all_gaps, best_epsilon, brute_eta, brute_gap_count, d_eff_of, dense,
                     dense_dephase, dense_rho, distinguishability_series,
                     matrix_from_column_traces, mixed_state, overlap, poisson_spectrum,
                     projector_from_matrix, random_mixed, random_pure, rows)

SEED = 20240811
# The criteria certify the configuration the command line ships.
FIGURE3, BOUNDS, SLOW, GAUSSIAN, HAAR = (
    cli.DEFAULTS[name] for name in ("figure3", "bounds", "slow", "gaussian", "haar"))

# Measured once at the default grid (2049 samples over one period) and
# frozen; the primary assertion is the 0.2 * D(0) cap.
FIGURE3_AVERAGE_PIN = 0.03541217011724115


@pytest.fixture(scope="module")
def fast_bound_report():
    return batteries.fast_equilibration_battery(BOUNDS["seed"], BOUNDS["trials"],
                                                BOUNDS["t_points"], BOUNDS["max_rank"])


def test_criterion_1_constant_regression(acceptance):
    c = fast_equilibration_constant()
    pop = population_constant()
    ok = abs(c - 6.97) <= 0.005 and abs(pop - 5.98) <= 0.01
    acceptance(1, f"derived constants c={c:.6f} (6.97+-0.005), "
                  f"population={pop:.6f} (5.98+-0.01)", ok)
    assert ok


def test_criterion_2_exact_haar_formula_vs_monte_carlo(acceptance):
    state = random_scenario(11, 8)
    state_t = evolve(state, 0.7)
    omega = dephase(state)
    sampler = HaarSampler(5, 8)
    x = mc_distinguishabilities(state_t, omega, [3, 5], sampler, 2000)
    mean, stderr = mc_mean_stderr(x * x)
    gap = abs(mean - exact_mean_sq_distinguishability(state_t, omega, 3))
    ok = stderr <= 1e-3 and gap <= 5.0 * stderr
    acceptance(2, f"exact second moment vs MC at d=8, K=3: gap={gap:.2e} "
                  f"<= 5*stderr={5 * stderr:.2e}", ok)
    assert ok


def test_criterion_3_typical_measurement_caps(acceptance):
    battery = rows(batteries.haar_battery(HAAR["seed"], HAAR["battery_scenarios"],
                                          HAAR["battery_samples"]))
    named = [r for r in battery
             if r["name"] in ("typical_two_outcome", "typical_n_outcome")]
    ok = bool(named) and all(r["holds"] for r in battery)

    state = random_scenario(SEED + 16, 16)
    state_t = evolve(state, 0.9)
    omega = dephase(state)
    sampler = HaarSampler(SEED + 17, 16)
    mean, stderr = mc_mean_stderr(
        mc_distinguishabilities(state_t, omega, [4, 4, 4, 4], sampler, 2000))
    ok = ok and mean <= n_outcome_typical_cap(4, 16) + 3.0 * stderr
    acceptance(3, f"typical-measurement caps over {len(named)} battery rows "
                  f"plus N=4, d=16 cap check", ok)
    assert ok


def test_criterion_4_fast_equilibration_battery(acceptance, fast_bound_report):
    fast = rows(fast_bound_report["fast_equilibration"])
    bad = [r for r in fast if not r["holds"]]
    ok = len(fast) == BOUNDS["trials"] * BOUNDS["t_points"] and not bad
    acceptance(4, f"two-outcome bound battery: {len(bad)}/{len(fast)} violations "
                  f"({BOUNDS['trials']} trials x {BOUNDS['t_points']} windows, "
                  f"slack {batteries.FAST_EQUILIBRATION_SLACK:g})", ok)
    assert ok, bad[:3]


def test_criterion_5_purity_chain(acceptance, fast_bound_report):
    chain = rows(fast_bound_report["purity_chain"])
    bad = [r for r in chain if not r["holds"]]
    worst_gap = max(r["agreement"] for r in chain)
    ok = (len(chain) == BOUNDS["trials"] * BOUNDS["t_points"] and not bad
          and worst_gap <= 1e-12)
    acceptance(5, f"Lorentzian purity chain: dual-path agreement "
                  f"{worst_gap:.1e} <= 1e-12, {len(bad)} bound violations", ok)
    assert ok, bad[:3]


def test_criterion_6_gaussian_analytics(acceptance):
    dist = level_distribution(gaussian_scenario(GAUSSIAN["levels"], 1.0, GAUSSIAN["span"]))
    sigma = energy_moments(dist).std
    worst = 0.0
    for sigma_t in GAUSSIAN["sigma_t_grid"]:
        window = sigma_t / sigma
        eta = max_window_probability(dist, 1.0 / window)
        worst = max(worst, eta * sigma * window)
    eta_ok = worst <= 0.42

    purity_ok = True
    for sigma_t in (5.0, 10.0, 20.0, 50.0):
        exact = gaussian_purity_exact(1.0, sigma_t)
        asym = gaussian_purity_asymptote(1.0, sigma_t)
        purity_ok = purity_ok and abs(exact - asym) <= 0.1 * asym
    ok = eta_ok and purity_ok
    acceptance(6, f"gaussian spectrum: max eta*sigma*T={worst:.4f} <= 0.42, "
                  "erf-form purity within 10% of asymptote", ok)
    assert ok


def test_criterion_7_oscillator_revival(acceptance):
    state = harmonic_oscillator_1d(FIGURE3["levels"], 1.0)
    omega = dephase(state)
    proj = Projector.from_factor(state.amplitudes)
    p_omega = proj.expectation(omega)
    times = np.linspace(0.0, 2.0 * np.pi, FIGURE3["samples"])
    values = np.abs(expectation_series(proj, state, times) - p_omega)
    avg = running_average(times, values)[-1]
    d0 = values[0]
    revival_gap = abs(values[-1] - values[0])
    ok = (abs(d0 - (1.0 - 1.0 / FIGURE3["levels"])) <= 1e-9 and revival_gap <= 1e-9
          and avg <= 0.2 * d0
          and abs(avg - FIGURE3_AVERAGE_PIN) <= 1e-9)
    acceptance(7, f"oscillator revival: D(0)={d0:.12f}, revival gap "
                  f"{revival_gap:.1e}, average {avg:.4f} <= {0.2 * d0:.3f}", ok)
    assert ok


def test_criterion_8_slow_equilibration_scaled(acceptance):
    state = random_scenario(SLOW["seed"], SLOW["dim"])
    sub = snapshot_subspace(state, SLOW["snapshots"], SLOW["epsilon"])
    rep = slow_window_check(sub, state, SLOW["outcomes"], num_samples=SLOW["samples"])
    omega = dephase(state)
    meas = partitioned_slow_measurement(sub, SLOW["outcomes"])
    proj = sub.projector()
    p_omega = proj.expectation(omega)
    times = np.linspace(0.0, rep.times[-1], 64)
    refined = distinguishability_series(meas, state, omega, times)
    base = np.abs(expectation_series(proj, state, times) - p_omega)
    refine_ok = bool(np.all(refined >= base - 1e-10))
    ok = all(record["holds"] for _, record in rep.checks) and refine_ok
    acceptance(8, f"slow equilibration: d_eff={d_eff_of(state):.0f}, floor "
                  f"{rep.floor:.3f} held at {SLOW['samples']} samples, tr(P omega)="
                  f"{rep.trace_omega:.4f} <= {rep.trace_omega_bound:.4f}, "
                  "refinement dominance at 64 samples", ok)
    assert ok


def test_criterion_9_gap_counting_bounds(acceptance):
    dim = BOUNDS["gap_counting_dim"]
    gap_rows = rows(batteries.gap_counting_battery(BOUNDS["seed"], dim))
    bad = [r for r in gap_rows if not r["holds"]]
    # a distinct-gap spectrum admits an informative (< 1) regime once the
    # window width is optimized and the averaging window is long
    state, _ = batteries.gap_counting_scenario(BOUNDS["seed"], dim)
    sigma = energy_moments(level_distribution(state)).std
    _, optimized = best_epsilon(state, window=2000.0 / sigma)
    ok = not bad and optimized < 1.0
    acceptance(9, f"gap-counting bounds on d={dim}: {len(bad)}/{len(gap_rows)} "
                  f"violations, optimized bound {optimized:.3f} < 1", ok)
    assert ok


def test_criterion_10_structural_properties(acceptance):
    rng = np.random.default_rng(SEED)
    ok = True

    # evolve group law; dephase idempotent and commuting; overlap identity
    spec = poisson_spectrum(rng, 9)
    state = random_mixed(rng, spec)
    a = dense_rho(evolve(evolve(state, 1.3), 2.1))
    b = dense_rho(evolve(state, 3.4))
    ok &= np.abs(a - b).max() < 1e-12
    omega = mixed_state(spec, dense_dephase(state))
    ok &= np.abs(dense_dephase(omega) - dense_rho(omega)).max() < 1e-13
    ok &= np.abs(matrix_from_column_traces(dephase(omega)) - dense_rho(omega)).max() < 1e-13
    ok &= np.abs(dense_dephase(evolve(state, 2.7)) - dense_rho(omega)).max() < 1e-12
    ok &= abs(float(np.vdot(dense_rho(evolve(state, 1.9)), dense_rho(omega)).real)
              - purity(dephase(state))) < 1e-12

    # two-outcome symmetry under complement
    pure = random_pure(rng, spec)
    omega_p = dephase(pure)
    proj = HaarSampler(SEED + 1, spec.dim).projector(3)
    comp = projector_from_matrix(np.eye(spec.dim) - dense(proj))
    times = np.linspace(0.0, 10.0, 32)
    da = np.abs(expectation_series(proj, pure, times) - proj.expectation(omega_p))
    db = np.abs(expectation_series(comp, pure, times) - comp.expectation(omega_p))
    ok &= np.abs(da - db).max() < 1e-12

    # window-probability monotonicity, floor, and brute-force agreement
    for _ in range(40):
        n = int(rng.integers(1, 13))
        levels = np.sort(rng.choice(np.arange(300), size=n, replace=False)) * 0.13
        spec_n = EnergySpectrum(levels, np.ones(n, dtype=int))
        p = rng.dirichlet(np.ones(n))
        widths = np.sort(rng.uniform(0.01, 60.0, 3))
        dist = LevelDistribution(spec_n, p)
        vals = [max_window_probability(dist, w) for w in widths]
        ok &= all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        d_eff = 1.0 / float(np.sum(p ** 2))
        ok &= all(v >= 1.0 / d_eff - 1e-12 for v in vals)
        ok &= vals[0] == pytest.approx(brute_eta(levels, p, widths[0]), abs=1e-12)
        ok &= (max_gaps_in_window(levels, widths[1])
               == brute_gap_count(all_gaps(levels), widths[1]))

    # short-time overlap lemma
    spec_o = poisson_spectrum(rng, 20)
    for _ in range(10):
        psi = random_pure(rng, spec_o)
        sigma = energy_moments(level_distribution(psi)).std
        for t in np.linspace(0.0, 1.0 / sigma, 7):
            ok &= overlap(psi, evolve(psi, t)) >= 1.0 - (sigma * t) ** 2 - 1e-12

    acceptance(10, "structural suites: group law, dephasing algebra, "
                   "complement symmetry, window stats vs brute force, "
                   "overlap lemma", bool(ok))
    assert ok
