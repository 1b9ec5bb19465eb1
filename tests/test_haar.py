import tracemalloc

import numpy as np
import pytest

from helpers import (PerSampleHaar, dense, per_sample_constrained,
                     per_sample_mean, per_sample_mean_sq, per_sample_n_outcome,
                     per_sample_n_outcome_constrained, per_sample_stats,
                     per_sample_twirl)
from qequil.constructions import random_scenario
from qequil.haar import (CHUNK_ENTRIES, HaarSampler, constrained_mean_bound,
                         constrained_mean_bound_tight,
                         exact_mean_sq_distinguishability,
                         initial_distinguishability_exact,
                         initial_distinguishability_floor,
                         mc_constrained_mean, mc_initial_distinguishability,
                         mc_mean_distinguishability, mc_mean_sq_distinguishability,
                         mc_n_outcome_constrained_mean, mc_n_outcome_mean,
                         mc_twirl_pair, n_outcome_constrained_bound,
                         n_outcome_typical_bound, n_outcome_typical_cap,
                         swap_operator, twirl_reconstruction,
                         twirl_second_moment, typical_bound_cap,
                         typical_distinguishability_bound)
from qequil.spectra import EnergySpectrum
from qequil.states import (QuantumState, dephase, effective_dimension, evolve,
                           level_distribution, purity)


class TestSampler:
    def test_unitarity(self):
        s = HaarSampler(1, 7)
        for _ in range(5):
            u = s.unitary()
            assert np.abs(u @ u.conj().T - np.eye(7)).max() < 1e-10
            assert np.abs(np.abs(np.linalg.norm(u, axis=0)) - 1.0).max() < 1e-12

    def test_dimension_one(self):
        u = HaarSampler(2, 1).unitary()
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_seed_reproducibility(self):
        a = HaarSampler(99, 5)
        b = HaarSampler(99, 5)
        for _ in range(3):
            assert np.array_equal(a.unitary(), b.unitary())

    def test_first_moment_vanishes(self):
        s = HaarSampler(3, 4)
        acc = np.zeros((4, 4), dtype=complex)
        n = 3000
        for _ in range(n):
            acc += s.unitary()
        assert np.abs(acc / n).max() < 5.0 / np.sqrt(n)

    def test_entry_second_moment(self):
        # <|U_00|^2> = 1/d, with variance (d-1)/(d^2 (d+1))
        d, n = 6, 10000
        s = HaarSampler(18, d)
        vals = np.array([abs(s.unitary()[0, 0]) ** 2 for _ in range(n)])
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) <= 3.0 * stderr

    def test_projector_and_frame(self):
        s = HaarSampler(4, 6)
        p = s.projector(2)
        assert p.rank == 2
        m = dense(p)
        assert np.abs(m @ m - m).max() < 1e-10

    def test_excluded_vector_partial_unitary(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v /= np.linalg.norm(v)
        s = HaarSampler(11, 5, excluded_vector=v)
        u = s.unitary()
        proj_comp = np.eye(5) - np.outer(v, v.conj())
        assert np.abs(u @ u.conj().T - proj_comp).max() < 1e-10
        assert np.abs(u @ v).max() < 1e-12
        frame = s.frame(2)
        assert np.abs(frame.conj().T @ v).max() < 1e-12

    def test_excluded_vector_requires_dim_above_two(self):
        with pytest.raises(ValueError, match="dim > 2"):
            HaarSampler(1, 2, excluded_vector=np.array([1.0, 0.0]))


def _sampler_pair(seed, scen, excluded):
    """The batched sampler and the per-sample reference on the same stream."""
    v = scen.state.amplitudes if excluded else None
    d = scen.spectrum.dim
    return HaarSampler(seed, d, v), PerSampleHaar(HaarSampler(seed, d, v))


def _crossing_count(n):
    """A sample count that runs one sample past the second kernel chunk."""
    return 2 * max(1, CHUNK_ENTRIES // (n * n)) + 1


class TestBatchedKernel:
    """The batched kernel against the per-sample loop it replaced: the same
    samples, and the same estimates, bit for bit."""

    @pytest.mark.parametrize("excluded", [False, True])
    @pytest.mark.parametrize("d", [4, 8, 13, 24, 64])
    def test_draws_match_per_sample(self, d, excluded):
        scen = random_scenario(d, d)
        sampler, ref = _sampler_pair(100 + d, scen, excluded)
        n = sampler.sample_dim
        count = _crossing_count(n)
        for rank in sorted({1, n // 2, n}):
            chunks = list(sampler.batches(rank, count))
            assert len(chunks) == 3
            got = np.concatenate(chunks)
            want = np.stack([ref.frame(rank) for _ in range(count)])
            assert got.shape == (count, d, rank)
            assert np.array_equal(got, want)
            assert np.array_equal(sampler.frame(rank), ref.frame(rank))
            assert np.array_equal(sampler.unitary(), ref.unitary())
        with pytest.raises(ValueError, match="outside"):
            sampler.frame(n + 1)

    @pytest.mark.parametrize("excluded", [False, True])
    @pytest.mark.parametrize("d", [4, 8, 13, 24, 64])
    def test_estimators_match_per_sample(self, d, excluded):
        scen = random_scenario(d + 1, d)
        state_t = evolve(scen.state, 0.8)
        omega = dephase(scen.state)
        delta = state_t.rho - omega.rho
        count = _crossing_count(d - excluded)
        seeds = iter(range(200 + d, 300 + d))

        def check(res, vals):
            assert (res.mc_mean, res.mc_stderr) == per_sample_stats(vals)
            assert res.samples == count

        for rank in sorted({1, d // 2, d - 1}):
            sampler, ref = _sampler_pair(next(seeds), scen, excluded)
            check(mc_mean_sq_distinguishability(state_t, omega, rank, sampler, count),
                  per_sample_mean_sq(ref, delta, rank, count))
            sampler, ref = _sampler_pair(next(seeds), scen, excluded)
            check(mc_mean_distinguishability(state_t, omega, rank, sampler, count),
                  per_sample_mean(ref, delta, rank, count))
        for ranks in ([1, d // 2 - 1, d - d // 2], [1] * d):
            sampler, ref = _sampler_pair(next(seeds), scen, excluded)
            check(mc_n_outcome_mean(state_t, omega, ranks, sampler, count),
                  per_sample_n_outcome(ref, delta, ranks, count))
        if not excluded:
            return
        a = scen.state.amplitudes
        base = float(np.vdot(np.outer(a, a.conj()), delta).real)
        for rank in sorted({1, 2, d // 2, d - 1}):
            sampler, ref = _sampler_pair(next(seeds), scen, excluded)
            check(mc_constrained_mean(scen.state, state_t, omega, rank, sampler, count),
                  per_sample_constrained(ref, base, delta, rank, count))
        for ranks in ([d - 1], [2, d - 3], [1, d // 2 - 1, d - 1 - d // 2],
                      [1] * (d - 1)):
            sampler, ref = _sampler_pair(next(seeds), scen, excluded)
            check(mc_n_outcome_constrained_mean(scen.state, state_t, omega, ranks,
                                                sampler, count),
                  per_sample_n_outcome_constrained(ref, base, delta, ranks, count))

    @pytest.mark.parametrize("excluded", [False, True])
    @pytest.mark.parametrize("d", [4, 8])
    def test_twirl_matches_per_sample(self, d, excluded):
        scen = random_scenario(d + 2, d)
        p = dense(HaarSampler(d, d).projector(d // 2))
        sampler, ref = _sampler_pair(300 + d, scen, excluded)
        count = _crossing_count(d - excluded)
        mean, stderr = mc_twirl_pair(p, sampler, count)
        want_mean, want_stderr = per_sample_twirl(ref, p, count)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(stderr, want_stderr)

    @pytest.mark.parametrize("excluded", [False, True])
    def test_blocked_qr_dimension_agrees_to_rounding(self, excluded):
        # at d >= 100 LAPACK factors blocked, so factoring only the first
        # columns agrees with the full factorization to rounding only
        d, count = 128, 3
        scen = random_scenario(5, d)
        sampler, ref = _sampler_pair(400, scen, excluded)
        got = np.concatenate(list(sampler.batches(5, count)))
        want = np.stack([ref.frame(5) for _ in range(count)])
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(sampler.unitary(), ref.unitary())
        state_t = evolve(scen.state, 0.8)
        omega = dephase(scen.state)
        sampler, ref = _sampler_pair(401, scen, excluded)
        res = mc_mean_distinguishability(state_t, omega, 7, sampler, count)
        mean, stderr = per_sample_stats(
            per_sample_mean(ref, state_t.rho - omega.rho, 7, count))
        assert res.mc_mean == pytest.approx(mean, rel=1e-10, abs=1e-14)
        assert res.mc_stderr == pytest.approx(stderr, rel=1e-8, abs=1e-14)

    def test_n_outcome_memory_is_chunk_bounded(self):
        scen = random_scenario(9, 24)
        state_t = evolve(scen.state, 0.8)
        omega = dephase(scen.state)
        sampler = HaarSampler(10, 24)
        tracemalloc.start()
        try:
            res = mc_n_outcome_mean(state_t, omega, [6, 6, 6, 6], sampler, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.samples == 2000
        assert peak < 2 * 2 ** 20


@pytest.fixture
def d8_scenario():
    scen = random_scenario(11, 8)
    state_t = evolve(scen.state, 0.7)
    omega = dephase(scen.state)
    return scen, state_t, omega


class TestExactSecondMoment:
    def test_full_rank_vanishes(self, d8_scenario):
        _, state_t, omega = d8_scenario
        assert exact_mean_sq_distinguishability(state_t, omega, 8) == pytest.approx(0.0)

    def test_equilibrated_state_vanishes(self, d8_scenario):
        scen, _, omega = d8_scenario
        assert exact_mean_sq_distinguishability(omega, omega, 3) == pytest.approx(0.0)

    def test_time_invariance(self, d8_scenario):
        scen, _, omega = d8_scenario
        vals = [exact_mean_sq_distinguishability(evolve(scen.state, t), omega, 3)
                for t in (0.0, 0.4, 2.9, 11.0)]
        assert max(vals) - min(vals) < 1e-12

    def test_matches_monte_carlo(self, d8_scenario):
        _, state_t, omega = d8_scenario
        res = mc_mean_sq_distinguishability(state_t, omega, 3,
                                            HaarSampler(5, 8), 2000)
        assert res.mc_stderr <= 1e-3
        assert abs(res.mc_mean - res.exact) <= 5.0 * res.mc_stderr

    def test_rank_validation(self, d8_scenario):
        _, state_t, omega = d8_scenario
        with pytest.raises(ValueError):
            exact_mean_sq_distinguishability(state_t, omega, 0)
        with pytest.raises(ValueError):
            exact_mean_sq_distinguishability(state_t, omega, 9)


class TestTypicalBound:
    def test_extremes(self):
        assert typical_distinguishability_bound(8, 8) == 0.0
        assert typical_distinguishability_bound(4, 8) == pytest.approx(
            typical_bound_cap(8), rel=1e-12)

    def test_jensen_consistency(self, d8_scenario):
        _, state_t, omega = d8_scenario
        mean = mc_mean_distinguishability(state_t, omega, 3, HaarSampler(7, 8), 1500)
        meansq = mc_mean_sq_distinguishability(state_t, omega, 3,
                                               HaarSampler(7, 8), 1500)
        assert mean.mc_mean <= np.sqrt(meansq.mc_mean) + 3.0 * mean.mc_stderr

    def test_monte_carlo_below_cap(self, d8_scenario):
        _, state_t, omega = d8_scenario
        res = mc_mean_distinguishability(state_t, omega, 3, HaarSampler(9, 8), 1500)
        assert res.mc_mean <= res.exact + 3.0 * res.mc_stderr

    def test_rotated_base_projector_is_equivalent(self, d8_scenario):
        # conjugating the base projector by a fixed unitary leaves the
        # ensemble invariant, so two estimates agree within error bars
        _, state_t, omega = d8_scenario
        delta = state_t.rho - omega.rho
        rot = HaarSampler(100, 8).unitary()
        base = np.zeros((8, 8), dtype=complex)
        base[:3, :3] = np.eye(3)
        rotated = rot @ base @ rot.conj().T
        n = 4000
        direct = mc_mean_distinguishability(state_t, omega, 3,
                                            HaarSampler(13, 8), n)
        s = HaarSampler(14, 8)
        vals = np.empty(n)
        for i in range(n):
            u = s.unitary()
            pu = u @ rotated @ u.conj().T
            vals[i] = abs(np.vdot(pu, delta).real)
        gap = abs(direct.mc_mean - vals.mean())
        stderr = np.hypot(direct.mc_stderr, vals.std(ddof=1) / np.sqrt(n))
        assert gap <= 4.0 * stderr

    def test_stderr_scaling(self, d8_scenario):
        _, state_t, omega = d8_scenario
        small = mc_mean_distinguishability(state_t, omega, 3,
                                           HaarSampler(15, 8), 500)
        large = mc_mean_distinguishability(state_t, omega, 3,
                                           HaarSampler(15, 8), 8000)
        ratio = small.mc_stderr / large.mc_stderr
        assert ratio == pytest.approx(4.0, rel=0.3)


class TestConstrainedEnsemble:
    @pytest.fixture
    def d10(self):
        scen = random_scenario(21, 10)
        state_t = evolve(scen.state, 1.3)
        omega = dephase(scen.state)
        return scen, state_t, omega

    def test_initial_value_nonnegative(self, d10):
        scen, _, omega = d10
        f0 = 1.0 - float(np.vdot(scen.state.amplitudes,
                                 omega.rho @ scen.state.amplitudes).real)
        assert f0 >= 0.0
        assert constrained_mean_bound(scen.state, scen.state, omega, 3) == \
            pytest.approx(f0 + 0.5 / np.sqrt(9.0), rel=1e-12)

    def test_tight_version_is_tighter(self, d10):
        scen, state_t, omega = d10
        tight = constrained_mean_bound_tight(scen.state, state_t, omega, 3)
        loose = constrained_mean_bound(scen.state, state_t, omega, 3)
        assert tight <= loose + 1e-15

    def test_monte_carlo_below_bound(self, d10):
        scen, state_t, omega = d10
        sampler = HaarSampler(23, 10, excluded_vector=scen.state.amplitudes)
        res = mc_constrained_mean(scen.state, state_t, omega, 3, sampler, 1500)
        assert res.mc_mean <= res.exact + 3.0 * res.mc_stderr
        tight = constrained_mean_bound_tight(scen.state, state_t, omega, 3)
        assert res.mc_mean <= tight + 3.0 * res.mc_stderr

    def test_correction_vanishes_with_dimension(self):
        values = []
        for d in (10, 100, 1000):
            scen = random_scenario(5, 4)  # reuse small state for f(t)
            omega = dephase(scen.state)
            f = 1.0 - purity(omega)
            values.append(n_outcome_constrained_bound(f, 2, d) - abs(f))
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.025

    def test_mixed_initial_state_rejected(self, d10):
        scen, state_t, omega = d10
        with pytest.raises(ValueError):
            constrained_mean_bound(omega, state_t, omega, 3)

    def test_small_dimension_rejected(self):
        spec = EnergySpectrum([0.0, 1.0], [1, 1])
        state = QuantumState.pure(spec, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            constrained_mean_bound(state, state, dephase(state), 1)


class TestInitialDistinguishability:
    @pytest.fixture
    def uniform_six_of_twelve(self):
        spec = EnergySpectrum(np.arange(12, dtype=float), np.ones(12, dtype=int))
        amps = np.zeros(12, dtype=complex)
        amps[:6] = 1.0 / np.sqrt(6.0)
        state = QuantumState.pure(spec, amps)
        return state, dephase(state)

    def test_floor_extremes(self, uniform_six_of_twelve):
        state, omega = uniform_six_of_twelve
        d_eff = effective_dimension(level_distribution(state))
        assert initial_distinguishability_floor(12, 12, d_eff) == pytest.approx(0.0)
        assert initial_distinguishability_floor(1, 12, d_eff) == pytest.approx(
            1.0 - 1.0 / d_eff)

    def test_exact_equals_floor_for_uniform_state(self, uniform_six_of_twelve):
        state, omega = uniform_six_of_twelve
        d_eff = effective_dimension(level_distribution(state))
        assert initial_distinguishability_exact(state, omega, 4) == pytest.approx(
            initial_distinguishability_floor(4, 12, d_eff), rel=1e-12)

    def test_monte_carlo_matches_exact(self, uniform_six_of_twelve):
        state, omega = uniform_six_of_twelve
        sampler = HaarSampler(31, 12, excluded_vector=state.amplitudes)
        res = mc_initial_distinguishability(state, omega, 4, sampler, 1500)
        d_eff = effective_dimension(level_distribution(state))
        floor = initial_distinguishability_floor(4, 12, d_eff)
        assert res.mc_mean >= floor - 3.0 * res.mc_stderr
        assert abs(res.mc_mean - res.exact) <= 3.0 * res.mc_stderr


class TestNOutcome:
    def test_two_outcome_consistency(self):
        # a rank partition {K, d-K} gives twice the same term, recovering
        # the two-outcome bound
        assert n_outcome_typical_bound([3, 5], 8) == pytest.approx(
            typical_distinguishability_bound(3, 8), rel=1e-12)

    def test_equal_ranks_maximize(self):
        d, n = 12, 3
        best = n_outcome_typical_bound([4, 4, 4], d)
        for a in range(1, d - 1):
            for b in range(1, d - a):
                c = d - a - b
                if c < 1:
                    continue
                assert n_outcome_typical_bound([a, b, c], d) <= best + 1e-12

    def test_cap(self):
        assert n_outcome_typical_bound([4, 4, 4, 4], 16) <= n_outcome_typical_cap(4, 16)

    def test_rank_sum_validation(self):
        with pytest.raises(ValueError):
            n_outcome_typical_bound([3, 3], 8)

    def test_monte_carlo_below_cap(self):
        scen = random_scenario(41, 16)
        state_t = evolve(scen.state, 0.9)
        omega = dephase(scen.state)
        res = mc_n_outcome_mean(state_t, omega, [4, 4, 4, 4],
                                HaarSampler(43, 16), 1200)
        assert res.mc_mean <= res.exact + 3.0 * res.mc_stderr
        assert res.mc_mean <= n_outcome_typical_cap(4, 16) + 3.0 * res.mc_stderr

    def test_constrained_monte_carlo(self):
        scen = random_scenario(51, 12)
        state_t = evolve(scen.state, 1.7)
        omega = dephase(scen.state)
        sampler = HaarSampler(53, 12, excluded_vector=scen.state.amplitudes)
        res = mc_n_outcome_constrained_mean(scen.state, state_t, omega,
                                            [4, 4, 3], sampler, 1200)
        assert res.mc_mean <= res.exact + 3.0 * res.mc_stderr

    def test_constrained_bound_validation(self):
        with pytest.raises(ValueError):
            n_outcome_constrained_bound(0.1, 1, 10)
        with pytest.raises(ValueError):
            n_outcome_constrained_bound(0.1, 3, 2)


class TestTwirl:
    def test_identity_projector(self):
        alpha, beta = twirl_second_moment(np.eye(5, dtype=complex))
        assert alpha == pytest.approx(1.0, rel=1e-12)
        assert beta == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_kills_antisymmetric(self):
        p = np.zeros((4, 4), dtype=complex)
        p[0, 0] = 1.0
        alpha, beta = twirl_second_moment(p)
        assert beta == pytest.approx(0.0, abs=1e-15)
        assert alpha == pytest.approx(2.0 / (4 * 5), rel=1e-12)

    def test_closed_form(self):
        d, k = 6, 2
        p = np.zeros((d, d), dtype=complex)
        p[:k, :k] = np.eye(k)
        alpha, beta = twirl_second_moment(p)
        assert alpha == pytest.approx(k * (k + 1) / (d * (d + 1)), rel=1e-12)
        assert beta == pytest.approx(k * (k - 1) / (d * (d - 1)), rel=1e-12)

    def test_swap_operator(self):
        s = swap_operator(3)
        assert np.abs(s @ s - np.eye(9)).max() < 1e-15
        a = np.arange(3.0)
        b = np.array([5.0, 7.0, 11.0])
        assert np.allclose(s @ np.kron(a, b), np.kron(b, a))

    def test_entrywise_monte_carlo_agreement(self):
        proj = HaarSampler(61, 4).projector(2)
        mean, stderr = mc_twirl_pair(dense(proj), HaarSampler(62, 4), 10000)
        exact = twirl_reconstruction(dense(proj))
        assert np.abs(mean - exact).max() <= 6.0 * stderr.max() + 1e-3


def test_twirl_result_json(d8_scenario):
    _, state_t, omega = d8_scenario
    res = mc_mean_sq_distinguishability(state_t, omega, 2, HaarSampler(71, 8), 100)
    data = res.to_dict()
    assert set(data) == {"exact", "mc_mean", "mc_stderr", "samples", "seed"}
    assert data["samples"] == 100
    assert data["seed"] == 71
