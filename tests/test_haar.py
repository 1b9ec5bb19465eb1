import tracemalloc

import numpy as np
import pytest

from helpers import (PerSampleHaar, constrained_mean_bound_tight, dense, dense_dephase,
                     per_sample_distinguishabilities, per_sample_stats, per_sample_twirl,
                     dense_rho, random_mixed, random_pure)
from qequil import haar
from qequil.constructions import random_scenario
from qequil.haar import (CHUNK_ENTRIES, HaarSampler, constrained_mean_bound,
                         exact_mean_sq_distinguishability,
                         initial_distinguishability_exact,
                         initial_distinguishability_floor, mc_distinguishabilities,
                         mc_mean_stderr, mc_twirl_pair, n_outcome_constrained_bound,
                         n_outcome_typical_bound, n_outcome_typical_cap,
                         swap_operator, twirl_reconstruction,
                         twirl_second_moment, typical_distinguishability_bound)
from qequil.spectra import EnergySpectrum
from qequil.states import (QuantumState, dephase, effective_dimension, evolve,
                           level_distribution)


class TestSampler:
    def test_unitarity(self):
        s = HaarSampler(1, 7)
        for _ in range(5):
            u = s.frame(7)
            assert np.abs(u @ u.conj().T - np.eye(7)).max() < 1e-10
            assert np.abs(np.abs(np.linalg.norm(u, axis=0)) - 1.0).max() < 1e-12

    def test_dimension_one(self):
        u = HaarSampler(2, 1).frame(1)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_seed_reproducibility(self):
        a = HaarSampler(99, 5)
        b = HaarSampler(99, 5)
        for _ in range(3):
            assert np.array_equal(a.frame(5), b.frame(5))

    def test_first_moment_vanishes(self):
        s = HaarSampler(3, 4)
        acc = np.zeros((4, 4), dtype=complex)
        n = 3000
        for _ in range(n):
            acc += s.frame(4)
        assert np.abs(acc / n).max() < 5.0 / np.sqrt(n)

    def test_entry_second_moment(self):
        # <|U_00|^2> = 1/d, with variance (d-1)/(d^2 (d+1))
        d, n = 6, 10000
        s = HaarSampler(18, d)
        vals = np.array([abs(s.frame(d)[0, 0]) ** 2 for _ in range(n)])
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) <= 3.0 * stderr

    def test_projector_and_frame(self):
        s = HaarSampler(4, 6)
        p = s.projector(2)
        assert p.rank == 2
        m = dense(p)
        assert np.abs(m @ m - m).max() < 1e-10

    def test_excluded_vector_partial_unitary(self):
        # a full frame of the complement is the partial unitary's image:
        # F F^dag is the projector onto the complement of v
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v /= np.linalg.norm(v)
        s = HaarSampler(11, 5, excluded_vector=v)
        u = s.frame(4)
        proj_comp = np.eye(5) - np.outer(v, v.conj())
        assert np.abs(u @ u.conj().T - proj_comp).max() < 1e-10
        assert np.abs(u.conj().T @ v).max() < 1e-12
        frame = s.frame(2)
        assert np.abs(frame.conj().T @ v).max() < 1e-12

    def test_excluded_vector_requires_dim_above_two(self):
        with pytest.raises(ValueError, match="dim > 2"):
            HaarSampler(1, 2, excluded_vector=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_excluded_vector_must_be_finite_and_nonzero(self, bad):
        v = np.zeros(5) if bad == 0.0 else np.array([1.0, bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite and nonzero"):
            HaarSampler(1, 5, excluded_vector=v)

    @pytest.mark.parametrize("d", [3, 5, 64])
    @pytest.mark.parametrize("kind", ["e0", "phase_e0", "v0_zero", "real", "complex"])
    def test_embed_is_the_householder_reflector(self, d, kind):
        # embed maps f to H [0; f] for the reflector H = I - 2 w w^dag built
        # here from v alone, and a full embedded frame is an orthonormal
        # basis of the complement of v
        rng = np.random.default_rng(d)
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = {"e0": np.eye(d)[0], "phase_e0": np.exp(2.1j) * np.eye(d)[0],
             "v0_zero": np.concatenate([[0.0], z[1:]]), "real": z.real,
             "complex": 3.0 * z}[kind]
        unit = v / np.linalg.norm(v)
        a = -unit[0] / abs(unit[0]) if unit[0] != 0 else -1.0
        w = unit - a * np.eye(d)[0]
        w /= np.linalg.norm(w)
        h = np.eye(d) - 2.0 * np.outer(w, w.conj())
        s = HaarSampler(17, d, excluded_vector=v)
        f = np.concatenate(list(s.batches(2, _crossing_count(d - 1, 2))))
        assert np.abs(s.embed(f) - h[:, 1:] @ f).max() <= 1e-12
        assert np.abs(s.embed(f[0]) - h[:, 1:] @ f[0]).max() <= 1e-12
        full = s.frame(d - 1)
        assert full.shape == (d, d - 1)
        assert np.abs(full.conj().T @ full - np.eye(d - 1)).max() <= 1e-12
        assert np.abs(full.conj().T @ unit).max() <= 1e-12

    def test_embed_without_excluded_vector_is_the_identity(self):
        f = np.concatenate(list(HaarSampler(1, 6).batches(3, 4)))
        assert HaarSampler(2, 6).embed(f) is f

    def test_constrained_sampling_memory_is_linear_in_dim(self):
        # no d x d array: a constrained sampler at d = 2048 and 200 rank-4
        # samples stay within a few MB (a dense d x (d - 1) complement basis
        # alone would be 64 MB)
        d = 2048
        scen = random_scenario(7, d)
        state_t, omega = evolve(scen, 0.8), dephase(scen)
        tracemalloc.start()
        try:
            sampler = HaarSampler(3, d, excluded_vector=scen.amplitudes)
            values = mc_distinguishabilities(state_t, omega, [3, d - 4], sampler, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (200,)
        assert peak < 4 * 2 ** 20


def _sampler_pair(seed, scen, excluded):
    """The batched sampler and the per-sample reference on the same stream."""
    v = scen.amplitudes if excluded else None
    d = scen.spectrum.dim
    return HaarSampler(seed, d, v), PerSampleHaar(HaarSampler(seed, d, v))


def _mc(state_t, omega, ranks, sampler, samples, square=False) -> tuple:
    """(mean, stderr) from the estimator's samples, squared for the mean
    square, as the experiments report it."""
    x = mc_distinguishabilities(state_t, omega, ranks, sampler, samples)
    return mc_mean_stderr(x * x if square else x)


def _crossing_count(n, rank):
    """A sample count that runs one sample past the second kernel chunk of
    rank-``rank`` draws in an n-dimensional sample space."""
    return 2 * max(1, CHUNK_ENTRIES // (n * rank)) + 1


# Largest |estimator - per-sample oracle| allowed for a mean or stderr. The
# kernel and the oracle sum the same unit-bounded products of n <= 64 terms in
# different orders, and the largest block comes from a difference of traces:
# rounding stays well below n^2 eps ~ 1e-12.
ORACLE_TOL = 1e-12


def _assert_matches_oracle(got, want, sampler):
    """Per-sample values, and the mean and stderr reported from them, within
    ORACLE_TOL of the oracle's."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= ORACLE_TOL
    got_mean, got_stderr = mc_mean_stderr(got)
    mean, stderr = per_sample_stats(want)
    assert abs(got_mean - mean) <= ORACLE_TOL
    assert abs(got_stderr - stderr) <= ORACLE_TOL


class TestBatchedKernel:
    """The batched kernel against per-sample reference loops: the same
    samples bit for bit, and the same estimates to rounding."""

    @pytest.mark.parametrize("excluded", [False, True])
    @pytest.mark.parametrize("d", [4, 8, 13, 24, 64])
    def test_draws_match_per_sample(self, d, excluded):
        scen = random_scenario(d, d)
        sampler, ref = _sampler_pair(100 + d, scen, excluded)
        n = sampler.sample_dim
        for rank in sorted({1, n // 2, n}):
            count = _crossing_count(n, rank)
            chunks = list(sampler.batches(rank, count))
            assert len(chunks) == 3
            got = np.concatenate(chunks)
            want = np.stack([ref.sample(rank) for _ in range(count)])
            assert got.shape == (count, n, rank)
            assert np.array_equal(got, want)
            assert np.array_equal(sampler.frame(rank), ref.frame(rank))
        with pytest.raises(ValueError, match="outside"):
            sampler.frame(n + 1)

    @pytest.mark.parametrize("excluded", [False, True])
    @pytest.mark.parametrize("d", [4, 8, 13, 24, 64])
    def test_estimators_match_per_sample(self, d, excluded):
        scen = random_scenario(d + 1, d)
        state_t = evolve(scen, 0.8)
        omega = dephase(scen)
        delta = dense_rho(state_t) - dense_dephase(scen)
        n = d - excluded
        seeds = iter(range(200 + d, 300 + d))

        def run(ranks):
            # enough samples to cross two chunks of the frames drawn
            count = _crossing_count(n, max(1, n - max(ranks)))
            sampler, ref = _sampler_pair(next(seeds), scen, excluded)
            got = mc_distinguishabilities(state_t, omega, ranks, sampler, count)
            _assert_matches_oracle(
                got, per_sample_distinguishabilities(ref, delta, ranks, count), sampler)

        if not excluded:
            for rank in sorted({1, d // 2, d - 1, d}):
                run([rank, d - rank])
            # the largest block last, first, in the middle, and a tie
            for ranks in ([1, d // 2 - 1, d - d // 2], [d // 2 + 1, 1, d - d // 2 - 2],
                          [1, d - 2, 1], [1] * d):
                run(ranks)
            return
        # the rank-K two-outcome measurements containing the initial state
        for rank in sorted({1, 2, d // 2, d - 1, d}):
            run([rank - 1, d - rank])
        for ranks in ([d - 1], [2, d - 3], [1, d // 2 - 1, d - 1 - d // 2],
                      [d - 3, 1, 1], [1] * (d - 1)):
            run(ranks)

    def test_degenerate_spectrum_matches_per_sample(self):
        # omega keeps the within-level coherences of a degenerate spectrum:
        # a mixed rho_t, and for the constrained ensemble a pure one, against
        # the dense oracle
        d = 12
        spec = EnergySpectrum(np.arange(5, dtype=float), [1, 3, 2, 4, 2])
        rng = np.random.default_rng(7)

        def setup(state):
            state_t, omega = evolve(state, 0.8), dephase(state)
            oracle = dense_dephase(state)
            assert abs(oracle[1, 2]) > 1e-3  # a kept coherence
            return state_t, omega, dense_rho(state_t) - oracle

        def run(seed, v, ranks):
            n = d - (v is not None)
            count = _crossing_count(n, n - max(ranks))
            sampler = HaarSampler(seed, d, v)
            got = mc_distinguishabilities(state_t, omega, ranks, sampler, count)
            ref = PerSampleHaar(HaarSampler(seed, d, v))
            _assert_matches_oracle(
                got, per_sample_distinguishabilities(ref, delta, ranks, count), sampler)

        state_t, omega, delta = setup(random_mixed(rng, spec, components=3))
        run(500, None, [5, 7])
        run(501, None, [3, 5, 4])
        pure = random_pure(rng, spec)
        state_t, omega, delta = setup(pure)
        run(502, pure.amplitudes, [2, 9])

    def test_unconstrained_estimators_reject_excluded_sampler(self):
        scen = random_scenario(3, 8)
        state_t = evolve(scen, 0.8)
        omega = dephase(scen)
        sampler = HaarSampler(1, 8, excluded_vector=scen.amplitudes)
        # ranks that partition the whole space do not partition the
        # complement of the excluded vector
        for ranks in ([3, 5], [4, 4]):
            with pytest.raises(ValueError, match="sample dimension"):
                mc_distinguishabilities(state_t, omega, ranks, sampler, 10)

    @pytest.mark.parametrize("entries", [1, 7, CHUNK_ENTRIES])
    def test_samples_do_not_depend_on_chunking(self, entries, monkeypatch):
        scen = random_scenario(5, 12)
        state_t = evolve(scen, 0.8)
        omega = dephase(scen)
        count = 40
        frames = np.concatenate(list(HaarSampler(3, 12).batches(5, count)))
        est = mc_distinguishabilities(state_t, omega, [3, 5, 4], HaarSampler(4, 12), count)
        monkeypatch.setattr(haar, "CHUNK_ENTRIES", entries)
        chunks = list(HaarSampler(3, 12).batches(5, count))
        assert len(chunks) == -(-count // max(1, entries // 60))
        assert np.array_equal(np.concatenate(chunks), frames)
        again = mc_distinguishabilities(state_t, omega, [3, 5, 4], HaarSampler(4, 12), count)
        assert np.array_equal(again, est)

    @pytest.mark.parametrize("excluded", [False, True])
    @pytest.mark.parametrize("d", [4, 8])
    def test_twirl_matches_per_sample(self, d, excluded):
        scen = random_scenario(d + 2, d)
        p = dense(HaarSampler(d, d).projector(d // 2))
        sampler, ref = _sampler_pair(300 + d, scen, excluded)
        count = _crossing_count(d, d)
        if excluded:
            # the twirl averages over the whole unitary group
            with pytest.raises(ValueError, match="excluded vector"):
                mc_twirl_pair(p, sampler, count)
            return
        mean, stderr = mc_twirl_pair(p, sampler, count)
        want_mean, want_stderr = per_sample_twirl(ref, p, count)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(stderr, want_stderr)

    @pytest.mark.parametrize("excluded", [False, True])
    def test_blocked_qr_dimension_agrees_to_rounding(self, excluded):
        # at d >= 100 LAPACK factors blocked: the stacked and per-sample QRs
        # of the same n x k draws still give the same frames, and the
        # estimates agree with the dense oracle to rounding
        d, count = 128, 3
        scen = random_scenario(5, d)
        sampler, ref = _sampler_pair(400, scen, excluded)
        got = np.concatenate(list(sampler.batches(5, count)))
        want = np.stack([ref.sample(5) for _ in range(count)])
        assert np.array_equal(got, want)
        assert np.array_equal(sampler.frame(d - excluded), ref.frame(d - excluded))
        state_t = evolve(scen, 0.8)
        omega = dephase(scen)
        delta = dense_rho(state_t) - dense_dephase(scen)
        sampler, ref = _sampler_pair(401, scen, excluded)
        ranks = [7 - excluded, d - 7]
        got_mean, got_stderr = _mc(state_t, omega, ranks, sampler, count)
        mean, stderr = per_sample_stats(per_sample_distinguishabilities(ref, delta, ranks, count))
        assert got_mean == pytest.approx(mean, rel=1e-10, abs=1e-14)
        assert got_stderr == pytest.approx(stderr, rel=1e-8, abs=1e-14)

    def test_n_outcome_memory_is_chunk_bounded(self):
        scen = random_scenario(9, 24)
        state_t = evolve(scen, 0.8)
        omega = dephase(scen)
        sampler = HaarSampler(10, 24)
        tracemalloc.start()
        try:
            values = mc_distinguishabilities(state_t, omega, [6, 6, 6, 6], sampler, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (2000,)
        assert peak < 2 * 2 ** 20


@pytest.fixture
def d8_scenario():
    scen = random_scenario(11, 8)
    state_t = evolve(scen, 0.7)
    omega = dephase(scen)
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
        vals = [exact_mean_sq_distinguishability(evolve(scen, t), omega, 3)
                for t in (0.0, 0.4, 2.9, 11.0)]
        assert max(vals) - min(vals) < 1e-12

    def test_matches_monte_carlo(self, d8_scenario):
        _, state_t, omega = d8_scenario
        mean, stderr = _mc(state_t, omega, [3, 5], HaarSampler(5, 8), 2000, square=True)
        assert stderr <= 1e-3
        assert abs(mean - exact_mean_sq_distinguishability(state_t, omega, 3)) <= 5.0 * stderr

    def test_matches_monte_carlo_when_measured_block_is_subtracted(self, d8_scenario):
        # K > d/2: the measured block is the largest, so its trace is the
        # total trace less the drawn d - K columns
        _, state_t, omega = d8_scenario
        mean, stderr = _mc(state_t, omega, [6, 2], HaarSampler(6, 8), 2000, square=True)
        assert stderr <= 1e-3
        assert abs(mean - exact_mean_sq_distinguishability(state_t, omega, 6)) <= 5.0 * stderr

    def test_rank_validation(self, d8_scenario):
        _, state_t, omega = d8_scenario
        with pytest.raises(ValueError):
            exact_mean_sq_distinguishability(state_t, omega, 0)
        with pytest.raises(ValueError):
            exact_mean_sq_distinguishability(state_t, omega, 9)


class TestTypicalBound:
    def test_extremes(self):
        assert typical_distinguishability_bound(8, 8) == 0.0
        # the worst case over ranks, at K = d/2, is 1 / (2 sqrt(d + 1))
        assert typical_distinguishability_bound(4, 8) == pytest.approx(
            1.0 / (2.0 * np.sqrt(9.0)), rel=1e-12)

    def test_jensen_consistency(self, d8_scenario):
        _, state_t, omega = d8_scenario
        mean, stderr = _mc(state_t, omega, [3, 5], HaarSampler(7, 8), 1500)
        meansq, _ = _mc(state_t, omega, [3, 5], HaarSampler(7, 8), 1500, square=True)
        assert mean <= np.sqrt(meansq) + 3.0 * stderr

    def test_monte_carlo_below_cap(self, d8_scenario):
        _, state_t, omega = d8_scenario
        mean, stderr = _mc(state_t, omega, [3, 5], HaarSampler(9, 8), 1500)
        assert mean <= typical_distinguishability_bound(3, 8) + 3.0 * stderr

    def test_rotated_base_projector_is_equivalent(self, d8_scenario):
        # conjugating the base projector by a fixed unitary leaves the
        # ensemble invariant, so two estimates agree within error bars
        scen, state_t, omega = d8_scenario
        delta = dense_rho(state_t) - dense_dephase(scen)
        rot = HaarSampler(100, 8).frame(8)
        base = np.zeros((8, 8), dtype=complex)
        base[:3, :3] = np.eye(3)
        rotated = rot @ base @ rot.conj().T
        n = 4000
        direct, direct_stderr = _mc(state_t, omega, [3, 5], HaarSampler(13, 8), n)
        s = HaarSampler(14, 8)
        vals = np.empty(n)
        for i in range(n):
            u = s.frame(8)
            pu = u @ rotated @ u.conj().T
            vals[i] = abs(np.vdot(pu, delta).real)
        gap = abs(direct - vals.mean())
        stderr = np.hypot(direct_stderr, vals.std(ddof=1) / np.sqrt(n))
        assert gap <= 4.0 * stderr

    def test_stderr_scaling(self, d8_scenario):
        _, state_t, omega = d8_scenario
        _, small = _mc(state_t, omega, [3, 5], HaarSampler(15, 8), 500)
        _, large = _mc(state_t, omega, [3, 5], HaarSampler(15, 8), 8000)
        ratio = small / large
        assert ratio == pytest.approx(4.0, rel=0.3)


class TestConstrainedEnsemble:
    @pytest.fixture
    def d10(self):
        scen = random_scenario(21, 10)
        state_t = evolve(scen, 1.3)
        omega = dephase(scen)
        return scen, state_t, omega

    def test_initial_value_nonnegative(self, d10):
        scen, _, omega = d10
        f0 = 1.0 - float(np.vdot(scen.amplitudes,
                                 dense_dephase(scen) @ scen.amplitudes).real)
        assert f0 >= 0.0
        assert constrained_mean_bound(scen, scen, omega, 3) == \
            pytest.approx(f0 + 0.5 / np.sqrt(9.0), rel=1e-12)

    def test_tight_version_is_tighter(self, d10):
        scen, state_t, omega = d10
        tight = constrained_mean_bound_tight(scen, state_t, omega, 3)
        loose = constrained_mean_bound(scen, state_t, omega, 3)
        assert tight <= loose + 1e-15

    def test_monte_carlo_below_bound(self, d10):
        scen, state_t, omega = d10
        sampler = HaarSampler(23, 10, excluded_vector=scen.amplitudes)
        mean, stderr = _mc(state_t, omega, [2, 7], sampler, 1500)
        assert mean <= constrained_mean_bound(scen, state_t, omega, 3) + 3.0 * stderr
        tight = constrained_mean_bound_tight(scen, state_t, omega, 3)
        assert mean <= tight + 3.0 * stderr

    def test_correction_vanishes_with_dimension(self):
        values = []
        for d in (10, 100, 1000):
            scen = random_scenario(5, d)
            state_t, omega = evolve(scen, 0.7), dephase(scen)
            f = haar._initial_overlap_deficit(scen, state_t, omega)
            values.append(n_outcome_constrained_bound(scen, state_t, omega, 2) - abs(f))
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.025

    def test_sampler_excluding_another_vector_measures_that_vector(self, d10):
        # no initial state is passed: the excluded vector w, whatever it is
        # and up to its phase, is the one inside outcome 0
        scen, state_t, omega = d10
        delta = dense_rho(state_t) - dense_dephase(scen)
        w = random_scenario(22, 10).amplitudes
        for v in (w, 1j * w):
            got = mc_distinguishabilities(state_t, omega, [2, 7], HaarSampler(5, 10, v), 100)
            want = per_sample_distinguishabilities(PerSampleHaar(HaarSampler(5, 10, v)),
                                                   delta, [2, 7], 100)
            assert np.abs(got - want).max() <= ORACLE_TOL

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
        mean, stderr = _mc(state, omega, [3, 8], sampler, 1500)
        d_eff = effective_dimension(level_distribution(state))
        floor = initial_distinguishability_floor(4, 12, d_eff)
        assert mean >= floor - 3.0 * stderr
        assert abs(mean - initial_distinguishability_exact(state, omega, 4)) <= 3.0 * stderr


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
        state_t = evolve(scen, 0.9)
        omega = dephase(scen)
        mean, stderr = _mc(state_t, omega, [4, 4, 4, 4], HaarSampler(43, 16), 1200)
        assert mean <= n_outcome_typical_bound([4, 4, 4, 4], 16) + 3.0 * stderr
        assert mean <= n_outcome_typical_cap(4, 16) + 3.0 * stderr

    def test_largest_block_not_last(self):
        # the column blocks of a Haar unitary are exchangeable: with the
        # largest block (the subtracted one) in the middle, the mean agrees
        # with the same partition ordered largest-last, and stays below the cap
        scen = random_scenario(41, 16)
        state_t = evolve(scen, 0.9)
        omega = dephase(scen)
        middle, middle_stderr = _mc(state_t, omega, [3, 8, 5], HaarSampler(44, 16), 2000)
        last, last_stderr = _mc(state_t, omega, [3, 5, 8], HaarSampler(45, 16), 2000)
        cap = n_outcome_typical_bound([3, 8, 5], 16)
        assert cap == pytest.approx(n_outcome_typical_bound([3, 5, 8], 16), rel=1e-12)
        assert middle <= cap + 3.0 * middle_stderr
        assert abs(middle - last) <= 4.0 * np.hypot(middle_stderr, last_stderr)

    def test_constrained_monte_carlo(self):
        scen = random_scenario(51, 12)
        state_t = evolve(scen, 1.7)
        omega = dephase(scen)
        sampler = HaarSampler(53, 12, excluded_vector=scen.amplitudes)
        mean, stderr = _mc(state_t, omega, [4, 4, 3], sampler, 1200)
        assert mean <= n_outcome_constrained_bound(scen, state_t, omega, 3) + 3.0 * stderr

    def test_constrained_bound_validation(self):
        state = random_scenario(51, 10)
        omega = dephase(state)
        with pytest.raises(ValueError, match="two outcomes"):
            n_outcome_constrained_bound(state, state, omega, 1)
        with pytest.raises(ValueError, match="pure initial state"):
            n_outcome_constrained_bound(omega, state, omega, 3)
        spec = EnergySpectrum([0.0, 1.0], [1, 1])
        small = QuantumState.pure(spec, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="dim > 2"):
            n_outcome_constrained_bound(small, small, dephase(small), 3)
        with pytest.raises(ValueError, match="pure initial state"):
            initial_distinguishability_exact(omega, omega, 3)
        with pytest.raises(ValueError, match="dim > 2"):
            initial_distinguishability_exact(small, dephase(small), 1)


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
        # on every product basis vector, so the permutation is the swap itself
        e = np.eye(3)
        assert all(np.array_equal(s @ np.kron(e[i], e[j]), np.kron(e[j], e[i]))
                   for i in range(3) for j in range(3))

    def test_entrywise_monte_carlo_agreement(self):
        proj = HaarSampler(61, 4).projector(2)
        mean, stderr = mc_twirl_pair(dense(proj), HaarSampler(62, 4), 10000)
        exact = twirl_reconstruction(dense(proj))
        assert np.abs(mean - exact).max() <= 6.0 * stderr.max() + 1e-3


def test_mc_mean_stderr_is_the_sample_mean_and_ddof1_error():
    values = np.array([0.25, 1.0, 0.5, 0.75])
    mean, stderr = mc_mean_stderr(values)
    assert (mean, stderr) == (0.625, float(np.std(values, ddof=1) / 2.0))
    assert type(mean) is float and type(stderr) is float


@pytest.mark.parametrize("samples", [0, 1])
def test_estimators_need_two_samples(d8_scenario, samples):
    state0, state_t, omega = d8_scenario
    excluded = HaarSampler(1, 8, excluded_vector=state0.amplitudes)
    calls = [
        lambda: mc_distinguishabilities(state_t, omega, [3, 5], HaarSampler(1, 8), samples),
        lambda: mc_distinguishabilities(state_t, omega, [2, 5], excluded, samples),
        lambda: mc_distinguishabilities(state0, omega, [0, 7], excluded, samples),
        lambda: mc_twirl_pair(np.eye(4) / 2.0, HaarSampler(1, 4), samples),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="at least 2 samples"):
            call()
