import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qequil.averaging import (LORENTZIAN_DOMINATION_FACTOR, MIN_GRID_SAMPLES, TimeGrid,
                              lorentzian_purity, lorentzian_purity_product,
                              lorentzian_state, running_average, time_average)
from qequil.bounds import gaussian_purity_asymptote, window_purity_bound
from qequil.constructions import gaussian_scenario, harmonic_oscillator_1d
from qequil.measure import Projector, expectation_series
from qequil.spectra import EnergySpectrum, max_window_probability
from qequil.states import (QuantumState, dephase, effective_dimension, energy_moments,
                           level_distribution, purity)

from helpers import (dense_dephase, dense_rho, dephased_purity_bound, linspace_grid,
                     lorentzian_domination_check, lorentzian_phase_average,
                     lorentzian_phase_average_quadrature, lorentzian_state_entrywise,
                     mixed_state, poisson_spectrum, random_mixed, random_pure,
                     running_average_trapezoid, trapezoid_average)


class TestTimeGrid:
    def test_nyquist_spacing(self):
        grid = TimeGrid(10.0, max_gap=3.0)
        assert grid.times[1] - grid.times[0] <= np.pi / (4.0 * 3.0)
        assert grid.times[0] == 0.0 and grid.times[-1] == 10.0
        assert grid.times.size % 2 == 1

    def test_minimum_samples_floor(self):
        grid = TimeGrid(1.0, max_gap=0.0)
        assert grid.times.size >= 64

    def test_validation(self):
        for window in (-1.0, 0.0):
            with pytest.raises(ValueError, match="window must be positive"):
                TimeGrid(window, 1.0)

    @pytest.mark.parametrize("window, max_gap", [
        (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_non_finite(self, window, max_gap):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(window, max_gap)

    def test_rejects_a_sample_count_past_the_float_range(self):
        # 4 max_gap T / pi overflows to inf, which int() would not take
        with pytest.raises(ValueError, match="more samples than a grid can hold"):
            TimeGrid(1e308, 3.0)


# A sweep's windows span 1e-3 to 1e6; max_gap is 0 (MIN_GRID_SAMPLES times
# each) or scaled so that the longest window takes up to about 3,800 times,
# even counts rounded up to odd among them.
_SWEEP_WINDOWS = st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=12)
_SWEEP_SCALES = st.one_of(st.just(0.0), st.floats(0.0, 3000.0))


class TestSweep:
    @settings(max_examples=200, deadline=None)
    @given(windows=_SWEEP_WINDOWS, scale=_SWEEP_SCALES)
    def test_sweep_times_are_each_windows_linspace(self, windows, scale):
        max_gap = scale / max(windows)
        grid = TimeGrid(np.array(windows), max_gap)
        wants = [linspace_grid(window, max_gap) for window in windows]
        assert all(w.size % 2 == 1 and w.size >= MIN_GRID_SAMPLES for w in wants)
        assert grid.offsets.tolist() == np.cumsum([0, *(w.size for w in wants)]).tolist()
        assert grid.times.tobytes() == np.concatenate(wants).tobytes()
        for window, want in zip(windows, wants):
            assert TimeGrid(window, max_gap).times.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(windows=_SWEEP_WINDOWS, scale=_SWEEP_SCALES, data=st.data())
    def test_sweep_average_is_each_windows_trapezoid(self, windows, scale, data):
        grid = TimeGrid(np.array(windows), scale / max(windows))
        values = data.draw(hnp.arrays(float, grid.times.size,
                                      elements=st.floats(-1e3, 1e3)), label="values")
        avg = time_average(values, grid)
        assert avg.value.shape == avg.refinement_error.shape == (len(windows),)
        for i, (a, b) in enumerate(zip(grid.offsets[:-1], grid.offsets[1:])):
            part = values[a:b]
            want = trapezoid_average(part, grid.times[a:b])
            assert (avg.value[i], avg.refinement_error[i]) == want
            alone = TimeGrid(windows[i], scale / max(windows))
            assert time_average(part, alone) == want

    def test_subnormal_step_follows_linspace(self):
        # T / (n - 1) underflows to 0: linspace divides j by n - 1 first
        grid = TimeGrid(np.array([5e-324, 1e-300, 2.0]), 0.0)
        for window, a, b in zip(grid.window, grid.offsets[:-1], grid.offsets[1:]):
            assert grid.times[a:b].tobytes() == np.linspace(0.0, window, b - a).tobytes()

    def test_scalar_grid_gives_floats(self):
        grid = TimeGrid(2.0, 1.0)
        assert grid.offsets.tolist() == [0, grid.times.size]
        avg = time_average(np.cos(grid.times), grid)
        assert type(avg.value) is float and type(avg.refinement_error) is float


class TestTimeAverage:
    def test_constant(self):
        grid = TimeGrid(3.0, 1.0)
        res = time_average(np.full_like(grid.times, 2.5), grid)
        assert res.value == pytest.approx(2.5, rel=1e-15)
        assert res.refinement_error < 1e-15

    def test_full_period_cosine(self):
        nu = 2.0
        grid = TimeGrid(2.0 * np.pi / nu, max_gap=nu)
        res = time_average(np.cos(nu * grid.times), grid)
        assert abs(res.value) < 1e-10

    @pytest.mark.parametrize("size", [0, 1, 64, 66])
    def test_values_of_the_wrong_length_are_rejected(self, size):
        grid = TimeGrid(1.0, 0.0)  # 65 samples
        with pytest.raises(ValueError, match="one value per grid time"):
            time_average(np.ones(size), grid)
        with pytest.raises(ValueError, match="one value per grid time"):
            time_average(np.ones((1, grid.times.size)), grid)

    def test_oversampled_oracle_agreement(self):
        state = harmonic_oscillator_1d(50, 1.0)
        omega = dephase(state)
        proj = Projector.from_factor(state.amplitudes)
        p_omega = proj.expectation(omega)

        def f(ts):
            return np.abs(expectation_series(proj, state, ts) - p_omega)

        window = 2.0 * np.pi
        grid = TimeGrid(window, state.spectrum.span)
        fine = TimeGrid(window, 4.0 * state.spectrum.span)
        coarse_avg = time_average(f(grid.times), grid)
        fine_avg = time_average(f(fine.times), fine)
        assert coarse_avg.value == pytest.approx(fine_avg.value, abs=1e-4)

    def test_running_average(self):
        times = np.linspace(0.0, 4.0, 201)
        values = times ** 2
        run = running_average(times, values)
        assert run[0] == 0.0
        assert run[-1] == pytest.approx(16.0 / 3.0, rel=1e-3)
        assert np.all(run >= -1e-15)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3000))
    def test_running_average_matches_scipy_bitwise(self, data, n):
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        start = data.draw(finite)
        steps = data.draw(hnp.arrays(float, n - 1, elements=st.floats(1e-3, 1e3)))
        times = start + np.concatenate(([0.0], np.cumsum(steps)))
        assume(np.all(np.diff(times) > 0))
        values = data.draw(hnp.arrays(float, n, elements=finite))
        run = running_average(times, values)
        assert run.tobytes() == running_average_trapezoid(times, values).tobytes()

    @pytest.mark.parametrize("times, values", [
        ([], []),
        ([0.0], [1.0, 2.0]),
        ([0.0, 1.0, 2.0], [1.0, 2.0]),
    ])
    def test_running_average_rejects_empty_or_mismatched(self, times, values):
        with pytest.raises(ValueError, match="at least one point|same length"):
            running_average(times, values)


class TestLorentzianPhaseAverage:
    def test_zero_frequency(self):
        assert lorentzian_phase_average(0.0, 3.0) == 1.0

    def test_magnitude_decreasing(self):
        mags = [abs(lorentzian_phase_average(nu, 2.0)) for nu in (0.1, 0.5, 1.0, 4.0)]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("window", [0.4, 2.7])
    @pytest.mark.parametrize("nu_t", [0.0, 0.05, 0.3, 1.0, 5.0, 30.0])
    def test_matches_quadrature_oracle(self, window, nu_t):
        nu = nu_t / window
        for sign in (1.0, -1.0):
            analytic = lorentzian_phase_average(sign * nu, window)
            numeric, err = lorentzian_phase_average_quadrature(sign * nu, window)
            assert abs(analytic - numeric) <= 1e-6 + err

    def test_zero_window_is_the_kernel_limit(self):
        assert lorentzian_phase_average(1.7, 0.0) == 1.0

    def test_rejects_bad_window(self):
        for window in (-1e-9, -1.0, np.nan):
            with pytest.raises(ValueError):
                lorentzian_phase_average(1.0, window)


class TestLorentzianState:
    @pytest.fixture
    def spec(self):
        return EnergySpectrum([0.0, 1.1, 2.3, 4.0], [1, 1, 1, 1])

    def test_diagonal_invariant(self, spec):
        diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        state = mixed_state(spec, diag)
        assert np.abs(lorentzian_state(state, 2.0) - diag).max() < 1e-15

    def test_trace_and_hermiticity(self, spec):
        rng = np.random.default_rng(0)
        state = random_mixed(rng, spec)
        avg = lorentzian_state(state, 1.3)
        assert abs(np.trace(avg) - 1.0) < 1e-12
        assert np.abs(avg - avg.conj().T).max() < 1e-12

    def test_long_window_approaches_dephased(self, spec):
        rng = np.random.default_rng(1)
        state = random_mixed(rng, spec)
        min_gap = np.diff(spec.levels).min()
        T = 20.0
        avg = lorentzian_state(state, T)
        omega = dense_dephase(state)
        assert np.abs(avg - omega).max() <= np.exp(-min_gap * T)

    def test_entries_are_damped_by_the_phase_average(self, spec):
        # rho_jk picks up the average of e^{-i (E_j - E_k) t}; at T = 0 the
        # state comes back unchanged
        rng = np.random.default_rng(5)
        state = random_mixed(rng, spec)
        e, rho = spec.index_energies, dense_rho(state)
        for T in (0.3, 7.0):
            want = np.array([[rho[j, k] * lorentzian_phase_average(e[k] - e[j], T)
                              for k in range(4)] for j in range(4)])
            assert np.abs(lorentzian_state(state, T) - want).max() < 1e-15
        assert np.array_equal(lorentzian_state(state, 0.0), rho)

    @pytest.mark.parametrize("close", [False, True])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("seed", range(3))
    def test_per_index_phases_match_the_entrywise_average(self, seed, kind, offset, close):
        # conj(u_j) u_k rounds each index's phase on its own, so an entry is
        # within about eps span T / 2 |rho_jk| of rho_jk times the phase
        # average at nu = E_k - E_j, plus a few eps |rho_jk| from the
        # products; on degenerate levels, with energies offset by 10^3
        # sigma_E and windows from 0 to 10^3 / sigma_E, that is within 1e-14.
        # With close, the top two levels sit about 1e-6 sigma_E apart and
        # stay undamped at every window, where the bound is widest.
        rng = np.random.default_rng(seed)
        degs = [3, 1, 2, 1, 4, 1, 2]
        levels = np.cumsum(rng.exponential(1.0, len(degs)))
        if close:
            levels[-1] = levels[-2] + 1e-6 * levels.std()
        spec = EnergySpectrum(levels, degs)
        state = random_pure(rng, spec) if kind == "pure" else random_mixed(rng, spec)
        sigma = energy_moments(level_distribution(state)).std
        state = QuantumState(EnergySpectrum(levels + offset * sigma, degs), state.factor)
        top = spec.level_of_index >= len(degs) - 2
        pair = np.ix_(top, top)
        rho = np.abs(dense_rho(state))
        for T in (0.0, *np.geomspace(1e-3, 1e3, 13) / sigma):
            got = lorentzian_state(state, T)
            err = np.abs(got - lorentzian_state_entrywise(state, T))
            assert err.max() <= 1e-14
            assert np.all(err <= np.finfo(float).eps * (spec.span * T / 2.0 + 4.0) * rho)
            if close:
                assert np.all(np.abs(got[pair]) >= 0.99 * rho[pair])

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_window_array_stacks_each_windows_matrix(self, kind):
        # the gaps, centred energies and rho are formed once; every matrix
        # of the stack is bit for bit its own window's
        rng = np.random.default_rng(12)
        spec = EnergySpectrum([-3.0, -0.5, 0.0, 2.0, 7.5], [2, 1, 3, 1, 2])
        state = random_pure(rng, spec) if kind == "pure" else random_mixed(rng, spec)
        windows = np.array([0.0, 0.3, 0.3, 7.0, 1e308])
        with np.errstate(all="raise"):
            stack = lorentzian_state(state, windows)
        assert stack.shape == (windows.size, spec.dim, spec.dim)
        for T, matrix in zip(windows, stack):
            assert matrix.tobytes() == lorentzian_state(state, T).tobytes()
        assert lorentzian_state(state, windows[:0]).shape == (0, spec.dim, spec.dim)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_per_index_phases_take_the_huge_window_limit_quietly(self, kind):
        # at T = 1e308 the phase arguments overflow: those indices' nonzero
        # gaps have damped to 0, so their phase is 1 and no flag is raised
        rng = np.random.default_rng(11)
        spec = EnergySpectrum([-3.0, -0.5, 0.0, 2.0, 7.5], [2, 1, 3, 1, 2])
        state = random_pure(rng, spec) if kind == "pure" else random_mixed(rng, spec)
        with np.errstate(all="raise"):
            got = lorentzian_state(state, 1e308)
        assert np.abs(got - lorentzian_state_entrywise(state, 1e308)).max() <= 1e-14
        assert np.abs(got - dense_dephase(state)).max() <= 1e-15


class TestLorentzianPurity:
    @pytest.fixture
    def spec(self):
        return EnergySpectrum([0.0, 0.8, 1.9, 3.5, 4.2], [1, 1, 1, 1, 1])

    def test_dual_path_agreement(self, spec):
        rng = np.random.default_rng(2)
        for state in (random_pure(rng, spec), random_mixed(rng, spec)):
            for T in (0.01, 0.5, 3.0):
                exact = lorentzian_purity(state, [T])[0]
                m = lorentzian_state(state, T)
                matrix_path = float(np.trace(m @ m).real)
                assert exact == pytest.approx(matrix_path, abs=1e-12)
                product = lorentzian_purity_product(level_distribution(state), [T])[0]
                assert exact <= product + 1e-12

    def test_zero_window_limit(self, spec):
        rng = np.random.default_rng(3)
        state = random_mixed(rng, spec)
        exact = lorentzian_purity(state, [0.0])[0]
        assert exact == pytest.approx(purity(state), rel=1e-12)
        product = lorentzian_purity_product(level_distribution(state), [0.0])[0]
        assert product == pytest.approx(1.0, rel=1e-12)

    def test_long_window_limit_pure(self, spec):
        rng = np.random.default_rng(4)
        state = random_pure(rng, spec)
        d_eff = effective_dimension(level_distribution(state))
        assert lorentzian_purity(state, [50.0])[0] == pytest.approx(1.0 / d_eff, rel=1e-9)

    def test_monotone_and_bracketed(self, spec):
        rng = np.random.default_rng(5)
        state = random_mixed(rng, spec)
        omega_purity = purity(dephase(state))
        rho_purity = purity(state)
        values = lorentzian_purity(state, [0.05, 0.2, 1.0, 5.0, 25.0])
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(omega_purity - 1e-12 <= v <= rho_purity + 1e-12 for v in values)

    def test_product_form_equals_exact_for_pure(self, spec):
        rng = np.random.default_rng(6)
        state = random_pure(rng, spec)
        dist = level_distribution(state)
        for T in (0.3, 2.0):
            exact = lorentzian_purity(state, [T])[0]
            via_levels = lorentzian_purity_product(dist, [T])[0]
            assert exact == pytest.approx(via_levels, abs=1e-12)

    def test_window_probability_chain(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            spec = poisson_spectrum(rng, int(rng.integers(4, 16)))
            state = random_pure(rng, spec) if trial % 2 else random_mixed(rng, spec)
            dist = level_distribution(state)
            for T in (0.2, 1.0, 8.0):
                exact = lorentzian_purity(state, [T])[0]
                for delta in (0.5, 1.0, 2.0, 4.0):
                    cap = dephased_purity_bound(dist, T, delta)
                    assert exact <= cap + 1e-12

    @pytest.mark.parametrize("seed", [1 << 20, 30])
    def test_windows_array_matches_per_window_sums(self, seed):
        # each window of the array is bit for bit its own one-element call,
        # and equals sum_jk |rho_jk|^2 e^{-2 T |E_j - E_k|} entry by entry, on
        # degenerate levels for pure and mixed factors of ranks 2 and 4 (d = 6,
        # L = 4: ranks 1 and 2 take the level Gram form, rank 4 |A A^dag|^2);
        # the product form likewise, against sum_nm p_n p_m e^{-2 T |E_n - E_m|}
        rng = np.random.default_rng(seed)
        spec = EnergySpectrum([0.0, 0.8, 1.9, 3.5], [1, 2, 1, 2])
        e, lv = spec.index_energies, spec.levels
        windows = np.array([0.0, 0.05, 0.7, 0.7, 3.0, 40.0])
        states = (random_pure(rng, spec), random_mixed(rng, spec, components=2),
                  random_mixed(rng, spec, components=4))
        for state in states:
            rho = dense_rho(state)
            dist = level_distribution(state)
            p = dist.probs
            values = lorentzian_purity(state, windows)
            products = lorentzian_purity_product(dist, windows)
            assert values.shape == products.shape == windows.shape
            for T, value, product in zip(windows, values, products):
                assert value == lorentzian_purity(state, [T])[0]
                oracle = sum(abs(rho[j, k]) ** 2 * np.exp(-2.0 * T * abs(e[j] - e[k]))
                             for j in range(spec.dim) for k in range(spec.dim))
                assert value == pytest.approx(oracle, rel=0, abs=1e-12)
                assert product == lorentzian_purity_product(dist, [T])[0]
                oracle = sum(p[n] * p[m] * np.exp(-2.0 * T * abs(lv[n] - lv[m]))
                             for n in range(lv.size) for m in range(lv.size))
                assert product == pytest.approx(oracle, rel=0, abs=1e-12)

    @pytest.mark.parametrize("degeneracies", [[1], [1, 2, 3]])
    def test_full_rank_mixed_state_matches_index_pair_sum(self, degeneracies):
        # a full-rank mixed_state (s = d = 96) equals the index-pair sum
        # and allocates a few d x d arrays at most, not the level Gram form's
        # d s^2 complex products (16 MB here)
        rng = np.random.default_rng(17)
        degs = np.resize(degeneracies, 96 // sum(degeneracies) * len(degeneracies))
        spec = EnergySpectrum(np.cumsum(rng.exponential(1.0, degs.size)), degs)
        d = spec.dim
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = z @ z.conj().T
        state = mixed_state(spec, rho / np.trace(rho).real)
        assert state.factor.shape == (96, 96)
        windows = np.array([0.0, 0.02, 0.3, 4.0, 1e308])
        tracemalloc.start()
        try:
            values = lorentzian_purity(state, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * d * d
        e = spec.index_energies
        gaps = np.abs(e[:, None] - e[None, :])
        rho_sq = np.abs(dense_rho(state)) ** 2
        for T, value in zip(windows, values):
            with np.errstate(over="ignore"):
                oracle = np.sum(rho_sq * np.exp(-2.0 * gaps * T))
            assert value == pytest.approx(oracle, rel=1e-13)

    def test_caps_from_one_scan_match_scalar_calls(self):
        # the battery's form: every width delta / 2T scanned in one call,
        # each cap bit for bit the single-window oracle's
        rng = np.random.default_rng(9)
        spec = poisson_spectrum(rng, 12)
        dist = level_distribution(random_pure(rng, spec))
        windows = np.array([0.1, 1.0, 1.0, 9.0])
        deltas = np.column_stack([np.tile([0.5, 2.0], (windows.size, 1)), windows])
        caps = window_purity_bound(
            max_window_probability(dist, deltas / (2.0 * windows[:, None])), deltas)
        assert caps.shape == deltas.shape
        for T, row_deltas, row_caps in zip(windows, deltas, caps):
            for delta, cap in zip(row_deltas, row_caps):
                assert cap == dephased_purity_bound(dist, T, delta)

    def test_gaussian_scenario_matches_continuum(self):
        scenario = gaussian_scenario(2000, sigma=1.0, span=8.0)
        dist = level_distribution(scenario)
        sigma_t = 10.0
        measured = lorentzian_purity_product(dist, [sigma_t])[0]
        target = gaussian_purity_asymptote(1.0, sigma_t)
        assert abs(measured - target) <= 0.1 * target


class TestDominationCheck:
    def test_constant_function(self):
        rep = lorentzian_domination_check(lambda t: np.ones_like(t), 2.0, 0.1)
        assert rep.holds
        assert rep.uniform_average == pytest.approx(1.0, rel=1e-12)

    def test_measured_distinguishability(self):
        rng = np.random.default_rng(8)
        spec = poisson_spectrum(rng, 12)
        state = random_pure(rng, spec)
        omega = dephase(state)
        z = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        proj = Projector.from_factor(np.linalg.qr(z)[0])
        p_omega = proj.expectation(omega)

        def f(ts):
            return np.abs(expectation_series(proj, state, ts) - p_omega)

        T = 5.0
        rep = lorentzian_domination_check(f, T, np.pi / (4 * spec.span))
        assert rep.holds

    def test_peaked_function_still_dominated(self):
        T = 3.0

        def bump(ts):
            return np.exp(-((ts - T / 2.0) / (T / 40.0)) ** 2)

        rep = lorentzian_domination_check(bump, T, T / 1000.0)
        assert rep.holds
        # peaked at the kernel maximum the ratio approaches pi < 5 pi / 4
        ratio = rep.uniform_average / rep.lorentzian_average
        assert ratio == pytest.approx(np.pi, rel=0.01)
        assert ratio < LORENTZIAN_DOMINATION_FACTOR

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            lorentzian_domination_check(lambda t: -np.ones_like(t), 1.0, 0.05)

