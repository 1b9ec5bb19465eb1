import dataclasses

import numpy as np
import pytest
from scipy import stats

from qequil import constructions
from qequil.averaging import running_average
from qequil.constructions import (gaussian_scenario, harmonic_oscillator_1d,
                                  harmonic_oscillator_3d_boltzmann,
                                  partitioned_slow_measurement, random_scenario,
                                  snapshot_subspace, slow_window_check)
from qequil.measure import Projector, distinguishability, expectation_series, two_outcome
from qequil.spectra import max_window_probability, max_window_probability_window
from qequil.states import QuantumState, dephase, energy_moments, evolve, level_distribution

from helpers import (brute_eta, d_eff_of, dense, distinguishability_series, overlap,
                     sigma_e_of)


@pytest.fixture(scope="module")
def scenario():
    return harmonic_oscillator_1d(50, 1.0)


@pytest.fixture(scope="module")
def gaussian_2000():
    return gaussian_scenario(2000, sigma=1.0, span=8.0)


@pytest.fixture(scope="module")
def slow_checked():
    scen = random_scenario(13, 512)
    sub = snapshot_subspace(scen, 8, 0.5)
    rep = slow_window_check(sub, scen, 3, num_samples=128)
    return scen, sub, rep


class TestHarmonicOscillator1D:
    def test_ladder(self, scenario):
        assert np.allclose(scenario.spectrum.levels, np.arange(50) + 0.5)
        assert scenario.spectrum.is_nondegenerate()

    def test_effective_dimension(self, scenario):
        assert d_eff_of(scenario) == pytest.approx(50.0, rel=1e-12)

    def test_energy_spread(self, scenario):
        assert sigma_e_of(scenario) == pytest.approx(np.sqrt(2499.0 / 12.0), rel=1e-12)

    def test_initial_distinguishability(self, scenario):
        omega = dephase(scenario)
        m = two_outcome(Projector.from_factor(scenario.amplitudes))
        assert distinguishability(m, scenario, omega) == pytest.approx(
            0.98, abs=1e-12)

    def test_full_revival(self, scenario):
        period = 2.0 * np.pi
        omega = dephase(scenario)
        m = two_outcome(Projector.from_factor(scenario.amplitudes))
        d0 = distinguishability(m, scenario, omega)
        dt = distinguishability(m, evolve(scenario, period), omega)
        assert abs(dt - d0) < 1e-9

    def test_average_suppressed_despite_revival(self, scenario):
        state = scenario
        omega = dephase(state)
        proj = Projector.from_factor(state.amplitudes)
        p_omega = proj.expectation(omega)
        times = np.linspace(0.0, 2.0 * np.pi, 2049)
        values = np.abs(expectation_series(proj, state, times) - p_omega)
        avg = running_average(times, values)[-1]
        assert avg <= 0.2 * values[0]

    def test_rejects_single_level(self):
        with pytest.raises(ValueError, match="at least two levels"):
            harmonic_oscillator_1d(1, 1.0)


class TestHarmonicOscillator3D:
    def test_degeneracies(self):
        scen = harmonic_oscillator_3d_boltzmann(5, 1.0, 10.0)
        assert list(scen.spectrum.degeneracies[:3]) == [1, 3, 6]
        assert scen.spectrum.dim == sum((n + 1) * (n + 2) // 2 for n in range(5))

    def test_cold_limit_concentrates(self):
        scen = harmonic_oscillator_3d_boltzmann(6, 1.0, 1e-3)
        probs = level_distribution(scen).probs
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_boltzmann_weights(self):
        nu, temp = 1.0, 10.0
        scen = harmonic_oscillator_3d_boltzmann(8, nu, temp)
        n = np.arange(8)
        expected = (n + 1) * (n + 2) / 2 * np.exp(-n * nu / temp)
        expected /= expected.sum()
        assert np.abs(level_distribution(scen).probs - expected).max() < 1e-12

    def test_window_probability_against_brute_force(self):
        scen = harmonic_oscillator_3d_boltzmann(30, 1.0, 10.0)
        dist = level_distribution(scen)
        fast = max_window_probability(dist, 8.0)
        assert fast == pytest.approx(
            brute_eta(scen.spectrum.levels, dist.probs, 8.0), abs=1e-14)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            harmonic_oscillator_3d_boltzmann(5, 1.0, 0.0)


class TestGaussianScenario:
    def test_symmetric_probabilities(self, gaussian_2000):
        probs = level_distribution(gaussian_2000).probs
        assert np.abs(probs - probs[::-1]).max() < 1e-15

    def test_measured_spread_near_target(self, gaussian_2000):
        assert abs(sigma_e_of(gaussian_2000) - 1.0) < 0.01

    def test_peak_window_at_center(self, gaussian_2000):
        dist = level_distribution(gaussian_2000)
        _, window = max_window_probability_window(dist, 0.5)
        center = 0.5 * (window[0] + window[1])
        assert abs(center) < 0.01

    def test_rejects_sparse_discretization(self):
        with pytest.raises(ValueError, match="at least 100 levels"):
            gaussian_scenario(50, 1.0, 8.0)


class TestRandomScenario:
    def test_reproducible(self):
        a = random_scenario(5, 32)
        b = random_scenario(5, 32)
        assert np.array_equal(a.spectrum.levels, b.spectrum.levels)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_effective_dimension_range(self):
        for seed in range(5):
            scen = random_scenario(seed, 24)
            assert 1.0 <= d_eff_of(scen) <= scen.spectrum.num_levels + 1e-9

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

    @pytest.mark.parametrize("degs", [[1.5, 2.9], [1.0, np.nan], [True, 2]])
    def test_non_integer_degeneracies_are_rejected(self, degs):
        # [1.5, 2.9] used to truncate to [1, 2], a valid dimension-3 profile
        with pytest.raises(ValueError, match="positive integers"):
            random_scenario(1, 3, degeneracies=degs)

    @staticmethod
    def _draws(seed, dim):
        """The unmerged levels and the amplitudes, drawn as the builder does."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        levels = np.concatenate(([0.0], np.cumsum(rng.exponential(1.0, dim - 1))))
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return levels, z / np.linalg.norm(z)

    def test_colliding_levels_merge(self):
        # the default CLI seed draws spacings below the separation limit here
        seed, dim = 20240811, 65536
        scen = random_scenario(seed, dim)
        spec = scen.spectrum
        levels, amps = self._draws(seed, dim)
        assert spec.dim == dim
        assert spec.num_levels < dim
        assert np.array_equal(scen.amplitudes, amps)
        # each merged level keeps the energy of its first member
        assert np.array_equal(spec.levels, levels[np.isin(levels, spec.levels)])
        assert np.all(np.abs(spec.index_energies - levels) <= 1e-10 * levels[-1])

    def test_collision_chain_merges_transitively(self, monkeypatch):
        # a separation limit just above the largest drawn spacing but below
        # the span joins every level to the one below it, and so all of them
        levels, _ = self._draws(4, 8)
        limit = 1.01 * np.diff(levels).max()
        assert limit < levels[-1]
        monkeypatch.setattr(constructions, "DEGENERACY_RTOL", limit / max(1.0, levels[-1]))
        scen = random_scenario(4, 8)
        assert list(scen.spectrum.degeneracies) == [8]
        assert list(scen.spectrum.levels) == [0.0]

    def test_non_colliding_seed_unchanged(self):
        levels, amps = self._draws(5, 4096)
        scen = random_scenario(5, 4096)
        assert np.array_equal(scen.spectrum.levels, levels)
        assert np.all(scen.spectrum.degeneracies == 1)
        assert np.array_equal(scen.amplitudes, amps)


class TestSnapshotSubspace:
    def test_single_snapshot_is_initial_projector(self):
        scen = random_scenario(7, 32)
        sub = snapshot_subspace(scen, 1, 0.5)
        assert sub.effective_rank == 1
        p = dense(sub.projector())
        rho0 = np.outer(scen.amplitudes, scen.amplitudes.conj())
        assert np.abs(p - rho0).max() < 1e-12

    def test_eigenstate_collapses_to_rank_one(self):
        scen = random_scenario(8, 16)
        amps = np.zeros(16, dtype=complex)
        amps[3] = 1.0
        eigen = QuantumState.pure(scen.spectrum, amps)
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
        assert sub.tau == pytest.approx(2.0 * 0.25 / sigma_e_of(scen), rel=1e-12)

    def test_requires_pure_state(self):
        scen = random_scenario(11, 8)
        mixed = dephase(scen)
        with pytest.raises(ValueError):
            snapshot_subspace(mixed, 2, 0.5)

    @pytest.mark.parametrize("epsilon", [1e155, 1e300, 1e308])
    def test_epsilon_whose_square_overflows_is_rejected(self, epsilon):
        # eps ** 2 raised OverflowError at 1e300; at 1e308 the infinite
        # snapshot step made every snapshot NaN and the SVD did not converge.
        # At 1e155 only the square overflows, not the last snapshot time.
        scen = random_scenario(16, 8)
        with pytest.raises(ValueError, match=r"too large: its square or the last"):
            snapshot_subspace(scen, 3, epsilon)

    def test_largest_epsilon_with_a_finite_square_is_kept(self):
        scen = random_scenario(16, 8)
        sub = snapshot_subspace(scen, 1, 1e154)
        assert sub.epsilon == 1e154
        assert np.isfinite(sub.tau)
        assert sub.effective_rank == 1

    def test_overlap_lemma_between_snapshots(self):
        scen = random_scenario(12, 256)
        eps = 0.5
        sub = snapshot_subspace(scen, 6, eps)
        tau = sub.tau
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(0.0, 5.0 * tau)
            dt = rng.uniform(-tau / 2.0, tau / 2.0)
            a = evolve(scen, t)
            b = evolve(scen, t + dt)
            assert overlap(a, b) >= 1.0 - eps ** 2 - 1e-12


class TestSlowWindow:
    def test_floor_holds(self, slow_checked):
        scen, sub, rep = slow_checked
        assert rep.floor == pytest.approx(
            1.0 - 0.25 - np.sqrt(8.0 / d_eff_of(scen)), rel=1e-12)
        assert rep.worst_value == rep.values.min() >= rep.floor
        assert dict(rep.checks)["window_floor"]["holds"]

    def test_equilibrium_weight_bound(self, slow_checked):
        scen, sub, rep = slow_checked
        assert rep.trace_omega <= rep.trace_omega_bound

    def test_ceiling_holds(self, slow_checked):
        _, _, rep = slow_checked
        assert dict(rep.checks)["long_time_ceiling"]["holds"]
        assert rep.long_time_average <= rep.ceiling
        assert all(record["holds"] for _, record in rep.checks)

    @pytest.mark.parametrize("epsilon, derived", [(0.5, False), (4.0, True)])
    def test_long_window_is_its_minimum_or_four_t_end_over_ceiling(self, monkeypatch,
                                                                   epsilon, derived):
        # 4 t_end / ceiling = 2 (2K - 1) eps sqrt(d_eff / K) / sigma_E: about
        # 84 / sigma_E at d=512, K=8, eps=0.5 (below the minimum 500 / sigma_E)
        # and 671 / sigma_E at eps=4
        scen = random_scenario(13, 512)
        sub = snapshot_subspace(scen, 8, epsilon)
        windows = []
        grid = constructions.TimeGrid
        monkeypatch.setattr(constructions, "TimeGrid", lambda window, max_gap:
                            windows.append(window) or grid(window, max_gap))
        rep = slow_window_check(sub, scen, 3, num_samples=64)
        minimum = (constructions.MIN_LONG_WINDOW_SIGMA_T
                   / energy_moments(level_distribution(scen)).std)
        derived_window = 4.0 * rep.times[-1] / rep.ceiling
        assert bool(derived_window > minimum) is derived
        assert windows == [derived_window if derived else minimum]
        assert all(record["holds"] for _, record in rep.checks)

    def test_series_starts_high(self, slow_checked):
        _, _, rep = slow_checked
        assert rep.values[0] >= 0.9

    def test_failures_name_each_failed_check(self, slow_checked):
        _, _, rep = slow_checked
        assert [name for name, _ in rep.checks] == [
            "window_floor", "equilibrium_weight", "long_time_ceiling",
            "refinement_dominance"]
        assert all(record["holds"] for _, record in rep.checks)
        below_floor = rep.floor - 0.1
        above_ceiling = rep.ceiling + 2 * constructions.CEILING_SLACK
        broken = dataclasses.replace(rep, worst_value=below_floor,
                                     trace_omega=2.0 * rep.trace_omega_bound,
                                     long_time_average=above_ceiling,
                                     refinement_holds=False)
        assert [record["holds"] for _, record in broken.checks] == [False] * 4
        assert dict(broken.checks)["window_floor"] == {
            "worst_time": rep.worst_time, "worst_value": below_floor,
            "floor": rep.floor, "holds": False}
        assert dict(broken.checks)["long_time_ceiling"] == {
            "value": above_ceiling, "limit": rep.ceiling, "holds": False}
        assert dict(broken.checks)["refinement_dominance"] == {"holds": False}
        # the ceiling allows the quadrature slack, and no more
        edge = dataclasses.replace(
            rep, long_time_average=rep.ceiling + constructions.CEILING_SLACK)
        assert dict(edge.checks)["long_time_ceiling"]["holds"]
        for change in ({"worst_value": below_floor},
                       {"trace_omega": 2.0 * rep.trace_omega_bound},
                       {"long_time_average": above_ceiling},
                       {"refinement_holds": False}):
            one = dataclasses.replace(rep, **change)
            assert sum(not record["holds"] for _, record in one.checks) == 1


class TestPartitionedMeasurement:
    def test_two_outcomes_match_plain_projector(self):
        scen = random_scenario(14, 64)
        sub = snapshot_subspace(scen, 4, 0.5)
        omega = dephase(scen)
        meas = partitioned_slow_measurement(sub, 2)
        plain = two_outcome(sub.projector())
        times = np.linspace(0.0, 3.0 * sub.tau, 16)
        a = distinguishability_series(meas, scen, omega, times)
        b = distinguishability_series(plain, scen, omega, times)
        assert np.abs(a - b).max() < 1e-12

    def test_refinement_dominates(self):
        scen = random_scenario(15, 128)
        sub = snapshot_subspace(scen, 6, 0.5)
        omega = dephase(scen)
        meas = partitioned_slow_measurement(sub, 3)
        proj = sub.projector()
        p_omega = proj.expectation(omega)
        t_end = (2 * 6 - 1) * 0.5 / sigma_e_of(scen)
        times = np.linspace(0.0, t_end, 64)
        refined = distinguishability_series(meas, scen, omega, times)
        base = np.abs(expectation_series(proj, scen, times) - p_omega)
        assert np.all(refined >= base - 1e-12)
        assert slow_window_check(sub, scen, 3, num_samples=64).refinement_holds

    def test_floor_and_refined_series_share_one_call(self, monkeypatch):
        scen = random_scenario(15, 128)
        sub = snapshot_subspace(scen, 6, 0.5)
        grids = []
        kernel = constructions.expectation_series
        monkeypatch.setattr(constructions, "expectation_series",
                            lambda stack, state, times: grids.append(times)
                            or kernel(stack, state, times))
        rep = slow_window_check(sub, scen, 3, num_samples=64)
        assert sum(np.array_equal(t, rep.times) for t in grids) == 1
        proj = sub.projector()
        alone = np.abs(kernel(proj, scen, rep.times)
                       - proj.expectation(dephase(scen)))
        assert np.array_equal(rep.values, alone)

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
