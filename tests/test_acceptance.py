"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line each (printed in the terminal summary)."""
import numpy as np
import pytest

from qequil import batteries
from qequil.averaging import running_average
from qequil.bounds import (fast_equilibration_constant, gaussian_purity_asymptote,
                           gaussian_purity_exact, population_constant)
from qequil.constructions import (gaussian_scenario, harmonic_oscillator_1d,
                                  partitioned_slow_measurement, random_scenario,
                                  snapshot_subspace, slow_window_check)
from qequil.haar import HaarSampler, mc_mean_sq_distinguishability, mc_n_outcome_mean, \
    n_outcome_typical_cap
from qequil.measure import (Projector, distinguishability_series,
                            expectation_series, two_outcome)
from qequil.spectra import EnergySpectrum, max_window_probability
from qequil.states import (dephase, energy_moments, evolve,
                           level_distribution, overlap, purity)

from helpers import brute_eta, brute_gap_count, dense, poisson_spectrum, random_mixed, \
    random_pure

SEED = 20240811

# Measured once at the default grid (2049 samples over one period) and
# frozen; the primary assertion is the 0.2 * D(0) cap.
FIGURE3_AVERAGE_PIN = 0.03541217011724115


@pytest.fixture(scope="module")
def fast_bound_report():
    return batteries.fast_equilibration_battery(SEED, trials=200, t_points=12)


def test_criterion_1_constant_regression(acceptance):
    c = fast_equilibration_constant()
    pop = population_constant()
    ok = abs(c - 6.97) <= 0.005 and abs(pop - 5.98) <= 0.01
    acceptance(1, f"derived constants c={c:.6f} (6.97+-0.005), "
                  f"population={pop:.6f} (5.98+-0.01)", ok)
    assert ok


def test_criterion_2_exact_haar_formula_vs_monte_carlo(acceptance):
    scen = random_scenario(11, 8)
    state_t = evolve(scen.state, 0.7)
    omega = dephase(scen.state)
    res = mc_mean_sq_distinguishability(state_t, omega, 3, HaarSampler(5, 8), 2000)
    gap = abs(res.mc_mean - res.exact)
    ok = res.mc_stderr <= 1e-3 and gap <= 5.0 * res.mc_stderr
    acceptance(2, f"exact second moment vs MC at d=8, K=3: gap={gap:.2e} "
                  f"<= 5*stderr={5 * res.mc_stderr:.2e}", ok)
    assert ok


def test_criterion_3_typical_measurement_caps(acceptance):
    report = batteries.haar_battery(SEED, scenarios=50, samples=300)
    named = [r for r in report.rows
             if r["name"] in ("typical_two_outcome", "typical_n_outcome")]
    ok = bool(named) and all(r["holds"] for r in named) and report.ok

    scen = random_scenario(SEED + 16, 16)
    state_t = evolve(scen.state, 0.9)
    omega = dephase(scen.state)
    res = mc_n_outcome_mean(state_t, omega, [4, 4, 4, 4],
                            HaarSampler(SEED + 17, 16), 2000)
    cap = n_outcome_typical_cap(4, 16)
    ok = ok and res.mc_mean <= cap + 3.0 * res.mc_stderr
    acceptance(3, f"typical-measurement caps over {len(named)} battery rows "
                  f"plus N=4, d=16 cap check", ok)
    assert ok


def test_criterion_4_fast_equilibration_battery(acceptance, fast_bound_report):
    rows = [r for r in fast_bound_report.rows if r["battery"] == "fast_equilibration"]
    bad = [r for r in rows if not r["holds"]]
    ok = len(rows) == 200 * 12 and not bad
    acceptance(4, f"two-outcome bound battery: {len(bad)}/{len(rows)} violations "
                  "(200 trials x 12 windows, slack 1e-3)", ok)
    assert ok, bad[:3]


def test_criterion_5_purity_chain(acceptance, fast_bound_report):
    rows = [r for r in fast_bound_report.rows if r["battery"] == "purity_chain"]
    bad = [r for r in rows if not r["holds"]]
    worst_gap = max(r["agreement"] for r in rows)
    ok = len(rows) == 200 * 12 and not bad and worst_gap <= 1e-12
    acceptance(5, f"Lorentzian purity chain: dual-path agreement "
                  f"{worst_gap:.1e} <= 1e-12, {len(bad)} bound violations", ok)
    assert ok, bad[:3]


def test_criterion_6_gaussian_analytics(acceptance):
    scenario = gaussian_scenario(2000, sigma=1.0, span=8.0)
    dist = level_distribution(scenario.state)
    sigma = scenario.sigma_e
    worst = 0.0
    for sigma_t in (2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0, 25.0, 50.0):
        window = sigma_t / sigma
        eta = max_window_probability(scenario.spectrum, dist.probs, 1.0 / window)
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
    scenario = harmonic_oscillator_1d(50)
    state = scenario.state
    omega = dephase(state)
    proj = Projector.rank_one(state.amplitudes)
    p_omega = proj.expectation(omega)
    times = np.linspace(0.0, 2.0 * np.pi, 2049)
    values = np.abs(expectation_series(proj, state, times) - p_omega)
    avg = running_average(times, values)[-1]
    d0 = values[0]
    revival_gap = abs(values[-1] - values[0])
    ok = (abs(d0 - 0.98) <= 1e-9 and revival_gap <= 1e-9
          and avg <= 0.2 * d0
          and abs(avg - FIGURE3_AVERAGE_PIN) <= 1e-9)
    acceptance(7, f"oscillator revival: D(0)={d0:.12f}, revival gap "
                  f"{revival_gap:.1e}, average {avg:.4f} <= {0.2 * d0:.3f}", ok)
    assert ok


def test_criterion_8_slow_equilibration_scaled(acceptance):
    scenario = random_scenario(SEED, 2048)
    sub = snapshot_subspace(scenario, 16, 0.5)
    rep = slow_window_check(sub, scenario, 3, num_samples=256)
    omega = dephase(scenario.state)
    meas = partitioned_slow_measurement(sub, 3)
    proj = sub.projector()
    p_omega = proj.expectation(omega)
    times = np.linspace(0.0, rep.series.times[-1], 64)
    refined = distinguishability_series(meas, scenario.state, omega, times)
    base = np.abs(expectation_series(proj, scenario.state, times) - p_omega)
    refine_ok = bool(np.all(refined >= base - 1e-10))
    ok = (rep.floor_holds and rep.trace_omega <= rep.trace_omega_bound
          and rep.ceiling_holds and refine_ok)
    acceptance(8, f"slow equilibration: d_eff={scenario.d_eff:.0f}, floor "
                  f"{rep.floor:.3f} held at 256 samples, tr(P omega)="
                  f"{rep.trace_omega:.4f} <= {rep.trace_omega_bound:.4f}, "
                  "refinement dominance at 64 samples", ok)
    assert ok


def test_criterion_9_gap_counting_bounds(acceptance):
    report = batteries.gap_counting_battery(SEED, dim=40)
    bad = [r for r in report.rows if not r["holds"]]
    # a distinct-gap spectrum admits an informative (< 1) regime once the
    # window width is optimized and the averaging window is long
    from qequil.bounds import best_epsilon
    spec, state, _ = batteries.gap_counting_scenario(SEED, 40)
    sigma = energy_moments(level_distribution(state), spec).std
    _, optimized = best_epsilon(spec, state, window=2000.0 / sigma)
    ok = not bad and optimized.value < 1.0
    acceptance(9, f"gap-counting bounds on d=40: {len(bad)}/{len(report.rows)} "
                  f"violations, optimized bound {optimized.value:.3f} < 1", ok)
    assert ok


def test_criterion_10_structural_properties(acceptance):
    rng = np.random.default_rng(SEED)
    ok = True

    # evolve group law; dephase idempotent and commuting; overlap identity
    spec = poisson_spectrum(rng, 9)
    state = random_mixed(rng, spec)
    a = evolve(evolve(state, 1.3), 2.1).rho
    b = evolve(state, 3.4).rho
    ok &= np.abs(a - b).max() < 1e-12
    omega = dephase(state)
    ok &= np.abs(dephase(omega).rho - omega.rho).max() < 1e-13
    ok &= np.abs(dephase(evolve(state, 2.7)).rho - omega.rho).max() < 1e-12
    ok &= abs(float(np.vdot(evolve(state, 1.9).rho, omega.rho).real)
              - purity(omega)) < 1e-12

    # two-outcome symmetry under complement
    pure = random_pure(rng, spec)
    omega_p = dephase(pure)
    proj = HaarSampler(SEED + 1, spec.dim).projector(3)
    comp = Projector.from_matrix(np.eye(spec.dim) - dense(proj))
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
        vals = [max_window_probability(spec_n, p, w) for w in widths]
        ok &= all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        d_eff = 1.0 / float(np.sum(p ** 2))
        ok &= all(v >= 1.0 / d_eff - 1e-12 for v in vals)
        ok &= vals[0] == pytest.approx(brute_eta(levels, p, widths[0]), abs=1e-12)
        gaps = spec_n.gaps()
        from qequil.spectra import max_gaps_in_window
        ok &= (max_gaps_in_window(gaps, widths[1])
               == brute_gap_count(gaps.values, widths[1]))

    # short-time overlap lemma
    spec_o = poisson_spectrum(rng, 20)
    for _ in range(10):
        psi = random_pure(rng, spec_o)
        sigma = energy_moments(level_distribution(psi), spec_o).std
        for t in np.linspace(0.0, 1.0 / sigma, 7):
            ok &= overlap(psi, evolve(psi, t)) >= 1.0 - (sigma * t) ** 2 - 1e-12

    acceptance(10, "structural suites: group law, dephasing algebra, "
                   "complement symmetry, window stats vs brute force, "
                   "overlap lemma", bool(ok))
    assert ok
