import dataclasses

import numpy as np
import pytest
from scipy import stats

from qequil.averaging import running_average
from qequil.constructions import (Scenario, gaussian_scenario,
                                  harmonic_oscillator_1d,
                                  harmonic_oscillator_3d_boltzmann,
                                  partitioned_slow_measurement, random_scenario,
                                  snapshot_subspace, slow_window_check)
from qequil.measure import (Projector, distinguishability, distinguishability_series,
                            expectation_series, two_outcome)
from qequil.spectra import max_window_probability
from qequil.states import QuantumState, dephase, evolve, level_distribution, overlap

from helpers import brute_eta, dense


@pytest.fixture(scope="module")
def scenario():
    return harmonic_oscillator_1d(50)


@pytest.fixture(scope="module")
def gaussian_2000():
    return gaussian_scenario(2000, sigma=1.0, span=8.0)


@pytest.fixture(scope="module")
def slow_checked():
    scen = random_scenario(13, 512)
    sub = snapshot_subspace(scen, 8, 0.5)
    rep = slow_window_check(sub, scen, 3, num_samples=128, long_window_sigma=300.0)
    return scen, sub, rep


class TestHarmonicOscillator1D:
    def test_ladder(self, scenario):
        assert np.allclose(scenario.spectrum.levels, np.arange(50) + 0.5)
        assert scenario.spectrum.is_nondegenerate()

    def test_effective_dimension(self, scenario):
        assert scenario.d_eff == pytest.approx(50.0, rel=1e-12)

    def test_energy_spread(self, scenario):
        assert scenario.sigma_e == pytest.approx(np.sqrt(2499.0 / 12.0), rel=1e-12)

    def test_initial_distinguishability(self, scenario):
        omega = dephase(scenario.state)
        m = two_outcome(Projector.rank_one(scenario.state.amplitudes))
        assert distinguishability(m, scenario.state, omega) == pytest.approx(
            0.98, abs=1e-12)

    def test_full_revival(self, scenario):
        period = 2.0 * np.pi
        omega = dephase(scenario.state)
        m = two_outcome(Projector.rank_one(scenario.state.amplitudes))
        d0 = distinguishability(m, scenario.state, omega)
        dt = distinguishability(m, evolve(scenario.state, period), omega)
        assert abs(dt - d0) < 1e-9

    def test_average_suppressed_despite_revival(self, scenario):
        state = scenario.state
        omega = dephase(state)
        proj = Projector.rank_one(state.amplitudes)
        p_omega = proj.expectation(omega)
        times = np.linspace(0.0, 2.0 * np.pi, 2049)
        values = np.abs(expectation_series(proj, state, times) - p_omega)
        avg = running_average(times, values)[-1]
        assert avg <= 0.2 * values[0]

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            harmonic_oscillator_1d(1)


class TestHarmonicOscillator3D:
    def test_degeneracies(self):
        scen = harmonic_oscillator_3d_boltzmann(5, 1.0, 10.0)
        assert list(scen.spectrum.degeneracies[:3]) == [1, 3, 6]
        assert scen.spectrum.dim == sum((n + 1) * (n + 2) // 2 for n in range(5))

    def test_cold_limit_concentrates(self):
        scen = harmonic_oscillator_3d_boltzmann(6, 1.0, 1e-3)
        probs = level_distribution(scen.state).probs
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_boltzmann_weights(self):
        nu, temp = 1.0, 10.0
        scen = harmonic_oscillator_3d_boltzmann(8, nu, temp)
        n = np.arange(8)
        expected = (n + 1) * (n + 2) / 2 * np.exp(-n * nu / temp)
        expected /= expected.sum()
        assert np.abs(level_distribution(scen.state).probs - expected).max() < 1e-12

    def test_window_probability_against_brute_force(self):
        scen = harmonic_oscillator_3d_boltzmann(30, 1.0, 10.0)
        probs = level_distribution(scen.state).probs
        fast = max_window_probability(scen.spectrum, probs, 8.0)
        assert fast == pytest.approx(
            brute_eta(scen.spectrum.levels, probs, 8.0), abs=1e-14)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            harmonic_oscillator_3d_boltzmann(5, 1.0, 0.0)


class TestGaussianScenario:
    def test_symmetric_probabilities(self, gaussian_2000):
        probs = level_distribution(gaussian_2000.state).probs
        assert np.abs(probs - probs[::-1]).max() < 1e-15

    def test_measured_spread_near_target(self, gaussian_2000):
        assert abs(gaussian_2000.sigma_e - 1.0) < 0.01

    def test_peak_window_at_center(self, gaussian_2000):
        from qequil.spectra import max_window_probability_window
        probs = level_distribution(gaussian_2000.state).probs
        _, window = max_window_probability_window(gaussian_2000.spectrum, probs, 0.5)
        center = 0.5 * (window[0] + window[1])
        assert abs(center) < 0.01

    def test_rejects_sparse_discretization(self):
        with pytest.raises(ValueError):
            gaussian_scenario(50)


class TestRandomScenario:
    def test_reproducible(self):
        a = random_scenario(5, 32)
        b = random_scenario(5, 32)
        assert np.array_equal(a.spectrum.levels, b.spectrum.levels)
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)

    def test_effective_dimension_range(self):
        for seed in range(5):
            scen = random_scenario(seed, 24)
            assert 1.0 <= scen.d_eff <= scen.spectrum.num_levels + 1e-9

    def test_spacing_statistics(self):
        scen = random_scenario(1234, 1001)
        spacings = np.diff(scen.spectrum.levels)
        result = stats.kstest(spacings, "expon", args=(0.0, 1.0))
        assert result.pvalue > 1e-4

    def test_degeneracy_profile(self):
        degs = [2, 2, 3, 1]
        scen = random_scenario(9, 8, degeneracies=degs)
        assert list(scen.spectrum.degeneracies) == degs
        with pytest.raises(ValueError):
            random_scenario(9, 8, degeneracies=[2, 2])

    def test_dimension_mismatch_rejected(self):
        scen = random_scenario(3, 8)
        with pytest.raises(ValueError):
            Scenario(scen.spectrum, random_scenario(3, 9).state, "bad")


class TestSnapshotSubspace:
    def test_single_snapshot_is_initial_projector(self):
        scen = random_scenario(7, 32)
        sub = snapshot_subspace(scen, 1, 0.5)
        assert sub.effective_rank == 1
        p = dense(sub.projector())
        rho0 = np.outer(scen.state.amplitudes, scen.state.amplitudes.conj())
        assert np.abs(p - rho0).max() < 1e-12

    def test_eigenstate_collapses_to_rank_one(self):
        scen = random_scenario(8, 16)
        amps = np.zeros(16, dtype=complex)
        amps[3] = 1.0
        eigen = Scenario(scen.spectrum, QuantumState.pure(scen.spectrum, amps),
                         "eigen")
        sub = snapshot_subspace(eigen, 6, 0.5)
        assert sub.effective_rank == 1

    def test_reproducible_projector(self):
        scen = random_scenario(9, 64)
        a = dense(snapshot_subspace(scen, 5, 0.5).projector())
        b = dense(snapshot_subspace(scen, 5, 0.5).projector())
        assert np.abs(a - b).max() < 1e-10

    def test_rank_and_residual(self):
        scen = random_scenario(10, 128)
        sub = snapshot_subspace(scen, 8, 0.25)
        assert sub.effective_rank <= 8
        assert sub.snapshot_residual < 1e-10
        assert sub.tau == pytest.approx(2.0 * 0.25 / scen.sigma_e, rel=1e-12)

    def test_requires_pure_state(self):
        scen = random_scenario(11, 8)
        mixed = Scenario(scen.spectrum, dephase(scen.state), "mixed")
        with pytest.raises(ValueError):
            snapshot_subspace(mixed, 2, 0.5)

    def test_overlap_lemma_between_snapshots(self):
        scen = random_scenario(12, 256)
        eps = 0.5
        sub = snapshot_subspace(scen, 6, eps)
        tau = sub.tau
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(0.0, 5.0 * tau)
            dt = rng.uniform(-tau / 2.0, tau / 2.0)
            a = evolve(scen.state, t)
            b = evolve(scen.state, t + dt)
            assert overlap(a, b) >= 1.0 - eps ** 2 - 1e-12


class TestSlowWindow:
    def test_floor_holds(self, slow_checked):
        scen, sub, rep = slow_checked
        assert rep.floor == pytest.approx(
            1.0 - 0.25 - np.sqrt(8.0 / scen.d_eff), rel=1e-12)
        assert rep.floor_holds
        assert rep.worst_value >= rep.floor

    def test_equilibrium_weight_bound(self, slow_checked):
        scen, sub, rep = slow_checked
        assert rep.trace_omega <= rep.trace_omega_bound

    def test_ceiling_holds(self, slow_checked):
        _, _, rep = slow_checked
        assert rep.ceiling_holds
        assert rep.long_time_average <= rep.ceiling
        assert rep.holds

    def test_series_starts_high(self, slow_checked):
        _, _, rep = slow_checked
        assert rep.series.values[0] >= 0.9

    def test_failures_name_each_failed_check(self, slow_checked):
        _, _, rep = slow_checked
        assert rep.failures == [] and rep.refinement_holds
        broken = dataclasses.replace(rep, floor_holds=False, ceiling_holds=False,
                                     trace_omega=2.0 * rep.trace_omega_bound,
                                     refinement_holds=False)
        assert [f["check"] for f in broken.failures] == [
            "window_floor", "equilibrium_weight", "long_time_ceiling",
            "refinement_dominance"]
        assert broken.failures[0] == {"check": "window_floor",
                                      "worst_time": rep.worst_time,
                                      "worst_value": rep.worst_value,
                                      "floor": rep.floor}
        assert broken.failures[2] == {"check": "long_time_ceiling",
                                      "value": rep.long_time_average,
                                      "limit": rep.ceiling}
        assert not broken.holds
        for flag in ("floor_holds", "ceiling_holds", "refinement_holds"):
            one = dataclasses.replace(rep, **{flag: False})
            assert len(one.failures) == 1 and not one.holds


class TestPartitionedMeasurement:
    def test_two_outcomes_match_plain_projector(self):
        scen = random_scenario(14, 64)
        sub = snapshot_subspace(scen, 4, 0.5)
        omega = dephase(scen.state)
        meas = partitioned_slow_measurement(sub, 2)
        plain = two_outcome(sub.projector())
        times = np.linspace(0.0, 3.0 * sub.tau, 16)
        a = distinguishability_series(meas, scen.state, omega, times)
        b = distinguishability_series(plain, scen.state, omega, times)
        assert np.abs(a - b).max() < 1e-12

    def test_refinement_dominates(self):
        scen = random_scenario(15, 128)
        sub = snapshot_subspace(scen, 6, 0.5)
        omega = dephase(scen.state)
        meas = partitioned_slow_measurement(sub, 3)
        proj = sub.projector()
        p_omega = proj.expectation(omega)
        t_end = (2 * 6 - 1) * 0.5 / scen.sigma_e
        times = np.linspace(0.0, t_end, 64)
        refined = distinguishability_series(meas, scen.state, omega, times)
        base = np.abs(expectation_series(proj, scen.state, times) - p_omega)
        assert np.all(refined >= base - 1e-12)
        assert slow_window_check(sub, scen, 3, num_samples=64).refinement_holds

    def test_blocks_sum_to_subspace_projector(self):
        scen = random_scenario(16, 48)
        sub = snapshot_subspace(scen, 5, 0.5)
        meas = partitioned_slow_measurement(sub, 3)
        total = sum(dense(p) for p in meas.projectors[:-1])
        assert np.abs(total - dense(sub.projector())).max() < 1e-12

    def test_too_many_outcomes_rejected(self):
        scen = random_scenario(17, 32)
        sub = snapshot_subspace(scen, 3, 0.5)
        with pytest.raises(ValueError):
            partitioned_slow_measurement(sub, 6)
