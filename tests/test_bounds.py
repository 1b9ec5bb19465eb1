import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from qequil.averaging import (LORENTZIAN_DOMINATION_FACTOR, TimeGrid, lorentzian_purity,
                              lorentzian_purity_product, lorentzian_state, time_average)
from qequil.bounds import (_erfcx, fast_equilibration_bound, fast_equilibration_constant,
                           gap_counting_terms, gaussian_purity_asymptote,
                           gaussian_purity_exact, general_distinguishability_bound,
                           general_expectation_bound, population_constant,
                           window_purity_bound)
from qequil.cli import DEFAULTS
from qequil.constructions import (gaussian_scenario, harmonic_oscillator_1d,
                                  harmonic_oscillator_3d_boltzmann, random_scenario,
                                  snapshot_subspace)
from qequil.haar import HaarSampler
from qequil.measure import Projector, expectation_series
from qequil.spectra import (EnergySpectrum, LevelDistribution, max_gaps_in_window,
                            max_window_probability, max_window_probability_window,
                            spectrum_from_hermitian)
from qequil.states import (dephase, effective_dimension, energy_moments,
                           level_distribution, purity)

from helpers import (all_gaps, best_epsilon, brute_gap_count, dense_dephase,
                     fast_equilibration_chain, lorentzian_phase_average, n_outcome_fast_bound,
                     poisson_spectrum, population_term_bound, random_mixed, random_pure)

NAN = float("nan")
_STATE = random_scenario(3, 6)
_SPEC = _STATE.spectrum
_DIST = level_distribution(_STATE)

# Every scalar guard against a nonpositive (or negative) width, window,
# spread or value, called with NaN, which fails every comparison.
NAN_CALLS = {
    "max_window_probability_window": lambda: max_window_probability_window(_DIST, NAN),
    "max_gaps_in_window": lambda: max_gaps_in_window(_SPEC.levels, NAN),
    "spectrum_from_hermitian": lambda: spectrum_from_hermitian(
        np.array([[0.0, NAN], [NAN, 1.0]])),
    "fast_equilibration_bound": lambda: fast_equilibration_bound(NAN, 1),
    "population_term_bound": lambda: population_term_bound(_DIST, 1, NAN),
    "gap_counting_terms": lambda: gap_counting_terms(_STATE, NAN),
    "general_expectation_bound": lambda: general_expectation_bound(3, 2.0, NAN, 1.0),
    "general_distinguishability_bound": lambda: general_distinguishability_bound(
        3, 2.0, 2, 1.0, NAN),
    # a NaN input that the eps and window guards do not see reaches the value
    "general_expectation_bound value": lambda: general_expectation_bound(
        3, NAN, 1.0, 1.0),
    "general_distinguishability_bound value": lambda: general_distinguishability_bound(
        3, NAN, 2, 1.0, 1.0),
    "gaussian_purity_exact": lambda: gaussian_purity_exact(1.0, NAN),
    "gaussian_purity_asymptote": lambda: gaussian_purity_asymptote(NAN, 1.0),
    "TimeGrid": lambda: TimeGrid(NAN, 1.0),
    "lorentzian_phase_average": lambda: lorentzian_phase_average(1.0, NAN),
    "lorentzian_state": lambda: lorentzian_state(_STATE, NAN),
    "lorentzian_purity_product": lambda: lorentzian_purity_product(_DIST, [NAN]),
    "lorentzian_purity": lambda: lorentzian_purity(_STATE, NAN),
    "window_purity_bound": lambda: window_purity_bound(0.5, NAN),
    "harmonic_oscillator_3d_boltzmann": lambda: harmonic_oscillator_3d_boltzmann(
        3, 1.0, NAN),
    "gaussian_scenario": lambda: gaussian_scenario(100, NAN, 8.0),
    "snapshot_subspace": lambda: snapshot_subspace(_STATE, 3, NAN),
    "TimeGrid max_gap": lambda: TimeGrid(1.0, NAN),
    "window_purity_bound eta": lambda: window_purity_bound(NAN, 2.0),
    # an array of windows or widths is rejected for any NaN element
    "max_window_probability_window array": lambda: max_window_probability_window(
        _DIST, [1.0, NAN]),
    "fast_equilibration_bound array": lambda: fast_equilibration_bound([0.5, NAN], 1),
    "lorentzian_purity array": lambda: lorentzian_purity(_STATE, [1.0, NAN]),
    "lorentzian_state array": lambda: lorentzian_state(_STATE, np.array([1.0, NAN])),
    "window_purity_bound array": lambda: window_purity_bound([0.5, 0.5], [2.0, NAN]),
    "TimeGrid array": lambda: TimeGrid(np.array([1.0, NAN]), 1.0),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_scalar_is_rejected(name):
    with pytest.raises(ValueError):
        NAN_CALLS[name]()


# An infinite window or width is rejected by name: a Lorentzian window would
# damp the zero gaps by inf * 0 = NaN, the window-probability bounds would scan
# a zero width the caller never passed, a scan of an infinite width (a
# window T = 0) would sum every level, a gap count of an infinite width
# would count every gap, and snapshots an infinite time apart would have NaN
# phases that the SVD cannot take.
INF_CALLS = {
    "max_window_probability_window": lambda: max_window_probability_window(_DIST, np.inf),
    "window_purity_bound delta": lambda: window_purity_bound(0.5, np.inf),
    "TimeGrid array": lambda: TimeGrid(np.array([2.0, np.inf]), 1.0),
    "lorentzian_phase_average": lambda: lorentzian_phase_average(0.0, np.inf),
    "lorentzian_state": lambda: lorentzian_state(_STATE, np.inf),
    "lorentzian_purity_product": lambda: lorentzian_purity_product(_DIST, [np.inf]),
    "lorentzian_purity": lambda: lorentzian_purity(_STATE, [np.inf]),
    "lorentzian_purity array": lambda: lorentzian_purity(_STATE, [1.0, np.inf]),
    "lorentzian_state array": lambda: lorentzian_state(_STATE, np.array([0.0, np.inf])),
    "snapshot_subspace": lambda: snapshot_subspace(_STATE, 3, np.inf),
    "max_gaps_in_window": lambda: max_gaps_in_window(_SPEC.levels, np.inf),
    "gap_counting_terms": lambda: gap_counting_terms(_STATE, np.inf),
}


@pytest.mark.parametrize("name", sorted(INF_CALLS))
def test_infinite_lorentzian_window_is_rejected(name):
    with pytest.raises(ValueError, match="finite"):
        INF_CALLS[name]()


# A finite window so large that 2T (or |nu| T) overflows takes the T -> inf
# limit: the zero gaps, between degenerate indices too, keep weight 1 and
# every other pair gets 0, where it once got -inf * 0 = NaN.
_HUGE_SPEC = random_scenario(1, 10, degeneracies=[3, 1, 2, 4]).spectrum
HUGE_WINDOW_STATES = {
    "pure": random_pure(np.random.default_rng(5), _HUGE_SPEC),
    "mixed": random_mixed(np.random.default_rng(5), _HUGE_SPEC),
}


@pytest.mark.parametrize("kind", sorted(HUGE_WINDOW_STATES))
def test_huge_finite_lorentzian_window_gives_the_dephased_limit(kind):
    state = HUGE_WINDOW_STATES[kind]
    dist = level_distribution(state)
    limit = purity(dephase(state))
    assert limit < purity(state)
    assert lorentzian_purity(state, [1e308]) == pytest.approx([limit], rel=1e-12)
    product = lorentzian_purity_product(dist, [1e308])[0]
    assert product == pytest.approx(dist.probs @ dist.probs, rel=1e-12)
    if kind == "pure":
        assert product == pytest.approx(limit, rel=1e-12)
    np.testing.assert_allclose(lorentzian_state(state, 1e308), dense_dephase(state),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("call", [
    lambda: window_purity_bound(0.5, 0.0),
    lambda: window_purity_bound(np.array([0.5, -0.5]), 2.0),
    lambda: max_window_probability(_DIST, np.array([0.5, 0.0])),
    lambda: TimeGrid(1.0, np.inf),    # was an OverflowError
    lambda: TimeGrid(1.0, -1.0),
    lambda: TimeGrid(np.array([1.0, 0.0, 3.0]), 1.0),
    lambda: n_outcome_fast_bound(_DIST, [3, 3], 0.0),   # was a ZeroDivisionError
], ids=["cap-zero-delta", "cap-array-negative-eta",
        "scan-array-zero", "grid-inf-gap", "grid-negative-gap", "grid-array-zero",
        "n-outcome-zero"])
def test_nonpositive_or_infinite_window_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


# Frozen regression pins for the derived constants (recomputed from
# primitives on every run; a drift beyond 1e-6 is a build defect).
FAST_CONSTANT_PIN = 6.972429263085601
POPULATION_CONSTANT_PIN = 5.972429263085601


class TestConstants:
    def test_regression_pins(self):
        assert fast_equilibration_constant() == pytest.approx(FAST_CONSTANT_PIN,
                                                              abs=1e-6)
        assert population_constant() == pytest.approx(POPULATION_CONSTANT_PIN,
                                                      abs=1e-6)

    def test_published_roundings(self):
        assert abs(fast_equilibration_constant() - 6.97) <= 0.005
        assert abs(population_constant() - 5.98) <= 0.01

    def test_chain_factor(self):
        # the population term's chain factor is 2 / (1 - e^{-2}), bit for bit
        assert population_constant() == (LORENTZIAN_DOMINATION_FACTOR
                                         * np.sqrt(2.0 / (1 - np.exp(-2.0))))


@pytest.fixture
def flat_dist():
    # one level inside every window: eta = 1 for any width
    return LevelDistribution(EnergySpectrum([0.0], [4]), [1.0])


class TestFastBound:
    def test_saturated_window_probability(self, flat_dist):
        eta = max_window_probability(flat_dist, 1.0 / 1e-6)
        assert eta == pytest.approx(1.0)
        value = fast_equilibration_bound(eta, 1)
        assert value == pytest.approx(fast_equilibration_constant())
        assert value >= 1.0  # trivially true bound

    def test_rank_scaling(self):
        one = fast_equilibration_bound(0.3, 1)
        four = fast_equilibration_bound(0.3, 4)
        assert four == pytest.approx(2.0 * one, rel=1e-12)

    def test_array_is_the_scalar_values(self):
        etas = np.array([0.0, 0.1, 0.35, 1.0])
        got = fast_equilibration_bound(etas, 3)
        assert got.shape == etas.shape
        assert got.tolist() == [fast_equilibration_bound(eta, 3) for eta in etas]

    def test_population_term_relation(self):
        spec = EnergySpectrum(np.arange(6, dtype=float), np.ones(6, dtype=int))
        dist = LevelDistribution(spec, np.full(6, 1.0 / 6.0))
        for rank, window in ((1, 0.5), (3, 4.0)):
            eta = max_window_probability(dist, 1.0 / window)
            full = fast_equilibration_bound(eta, rank)
            pop = population_term_bound(dist, rank, window)
            assert pop == pytest.approx(full - np.sqrt(rank * eta), rel=1e-12)

    def test_population_constant_value(self, flat_dist):
        assert abs(population_term_bound(flat_dist, 1, 1.0) - 5.98) <= 0.01

    def test_holds_on_oscillator_scenario(self):
        state = harmonic_oscillator_1d(50, 1.0)
        spec = state.spectrum
        dist = level_distribution(state)
        sigma = energy_moments(dist).std
        omega = dephase(state)
        proj = Projector.from_factor(state.amplitudes)
        p_omega = proj.expectation(omega)
        window = 50.0 / sigma
        grid = TimeGrid(window, spec.span)
        measured = time_average(
            np.abs(expectation_series(proj, state, grid.times) - p_omega), grid)
        eta = max_window_probability(dist, 1.0 / window)
        assert measured.value <= fast_equilibration_bound(eta, 1) + 1e-3

    def test_rejections(self):
        with pytest.raises(ValueError, match="rank"):
            fast_equilibration_bound(0.5, 0)
        with pytest.raises(ValueError, match="eta must be nonnegative"):
            fast_equilibration_bound(-0.1, 1)
        with pytest.raises(ValueError, match="eta must be nonnegative"):
            fast_equilibration_bound(np.array([0.5, -0.1]), 1)


class TestChainLinks:
    def test_ordered_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            num = int(rng.integers(6, 14))
            spec = poisson_spectrum(rng, num)
            state = random_pure(rng, spec) if trial % 2 else random_mixed(rng, spec)
            rank = int(rng.integers(1, num // 2 + 1))
            proj = HaarSampler(int(rng.integers(2 ** 31)), spec.dim).projector(rank)
            sigma = energy_moments(level_distribution(state)).std
            for window in (0.5 / sigma, 5.0 / sigma, 50.0 / sigma):
                links = fast_equilibration_chain(state, proj, window)
                slack = links["refinement_error"] + 1e-9
                order = ["measured", "triangle", "lorentzian_population",
                         "purity_cauchy_schwarz", "window_probability"]
                values = [links[k] for k in order]
                # first two links involve quadrature; the rest are exact
                assert values[0] <= values[1] + slack
                assert values[1] <= values[2] + slack
                assert values[2] <= values[3] + 1e-12
                assert values[3] <= values[4] + 1e-12

    def test_large_rank_projector_uses_complement(self):
        rng = np.random.default_rng(43)
        spec = poisson_spectrum(rng, 8)
        state = random_pure(rng, spec)
        proj = HaarSampler(3, 8).projector(6)  # complement rank 2
        links = fast_equilibration_chain(state, proj, 2.0)
        eta = max_window_probability(level_distribution(state), 0.5)
        assert links["window_probability"] == pytest.approx(
            fast_equilibration_constant() * np.sqrt(eta * 2.0), rel=1e-12)


class TestNOutcomeFastBound:
    def test_reduces_to_two_outcome(self):
        spec = EnergySpectrum(np.arange(8, dtype=float), np.ones(8, dtype=int))
        dist = LevelDistribution(spec, np.full(8, 1.0 / 8.0))
        window = 3.0
        pair = n_outcome_fast_bound(dist, [3, 5], window)
        two = fast_equilibration_bound(max_window_probability(dist, 1.0 / window), 3)
        assert pair == pytest.approx(two, rel=1e-12)

    def test_rejects_bad_partition(self):
        spec = EnergySpectrum(np.arange(4, dtype=float), np.ones(4, dtype=int))
        with pytest.raises(ValueError):
            n_outcome_fast_bound(LevelDistribution(spec, np.full(4, 0.25)),
                                 [1, 1, 1], 1.0)


class TestGeneralBounds:
    @pytest.fixture
    def scenario(self):
        rng = np.random.default_rng(77)
        spec = poisson_spectrum(rng, 24)
        return spec, random_pure(rng, spec)

    def test_vacuous_regime(self, scenario):
        spec, state = scenario
        eps = 4.0 * spec.span
        n_eps, d_eff = gap_counting_terms(state, eps)
        assert n_eps == spec.num_levels * (spec.num_levels - 1)  # every gap
        assert general_expectation_bound(n_eps, d_eff, eps, 1.0) > 1.0

    def test_terms(self, scenario):
        spec, state = scenario
        assert gap_counting_terms(state, 0.3) == (
            brute_gap_count(all_gaps(spec.levels), 0.3),
            effective_dimension(level_distribution(state)))

    def test_gap_count_keeps_no_gap_array(self):
        # the L(L - 1) gaps live for the call only; a spectrum that kept them
        # held 33.5 MB at d = 2048 after one call
        scen = random_scenario(20240811, 2048)
        tracemalloc.start()
        try:
            gap_counting_terms(scen, 0.3)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 1 << 20

    def test_large_window_limit(self, scenario):
        # with eps * T -> infinity only the 3/2 term survives
        _, state = scenario
        eps = 0.3
        n_eps, d_eff = gap_counting_terms(state, eps)
        limit = (15.0 * np.pi / 4.0) * n_eps / d_eff
        assert general_expectation_bound(n_eps, d_eff, eps, 1e12) == pytest.approx(
            limit, rel=1e-9)

    def test_mixed_state_rejected(self, scenario):
        spec, _ = scenario
        rng = np.random.default_rng(78)
        mixed = random_mixed(rng, spec)
        with pytest.raises(ValueError, match="pure"):
            gap_counting_terms(mixed, 0.5)

    def test_rejections(self):
        for call in (lambda: general_expectation_bound(3, 2.0, 0.0, 1.0),
                     lambda: general_distinguishability_bound(3, 2.0, 2, 1.0, -1.0),
                     lambda: gap_counting_terms(_STATE, 0.0)):
            with pytest.raises(ValueError, match="must be positive"):
                call()
        with pytest.raises(ValueError, match="at least 2"):
            general_distinguishability_bound(3, 2.0, 1, 1.0, 1.0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            general_expectation_bound(3, -2.0, 1.0, 1.0)

    def test_outcome_scaling(self):
        two = general_distinguishability_bound(5, 7.0, 2, 0.5, 2.0)
        four = general_distinguishability_bound(5, 7.0, 4, 0.5, 2.0)
        assert four == pytest.approx(2.0 * two, rel=1e-12)

    def test_best_epsilon_minimizes_grid(self, scenario):
        spec, state = scenario
        _, best = best_epsilon(state, window=10.0, num=15)
        sweep = [general_distinguishability_bound(*gap_counting_terms(state, e), 2, e, 10.0)
                 for e in np.geomspace(spec.span * 1e-6, 2 * spec.span, 15)]
        assert best == pytest.approx(min(sweep), rel=1e-12)


class TestGaussianAnalytics:
    # _erfcx switches from e^{x^2} erfc(x) to the continued fraction at x = 2
    @settings(max_examples=400, deadline=None)
    @given(x=st.one_of(st.floats(0.0, 1e6), st.floats(1.5, 2.5)))
    @example(x=0.0)
    @example(x=float(np.nextafter(2.0, 0.0)))
    @example(x=2.0)
    @example(x=1e300)
    @example(x=np.inf)    # both are 0 there
    def test_erfcx_matches_scipy(self, x):
        assert _erfcx(x) == pytest.approx(special.erfcx(x), rel=2e-15, abs=0.0)

    def test_purity_exact_form_pinned_to_scipy(self):
        # criterion 6's grid, which `qequil gaussian` runs by default
        for sigma_t in DEFAULTS["gaussian"]["sigma_t_grid"]:
            assert gaussian_purity_exact(1.0, sigma_t) == pytest.approx(
                special.erfcx(2.0 * sigma_t), rel=1e-15, abs=0.0)

    def test_purity_exact_form_against_asymptote(self):
        for sigma_t in (5.0, 10.0, 40.0):
            exact = gaussian_purity_exact(1.0, sigma_t)
            asym = gaussian_purity_asymptote(1.0, sigma_t)
            assert abs(exact - asym) <= 0.01 * asym

    def test_purity_exact_form_small_argument(self):
        # at sigma T -> 0 the averaged state is still pure
        assert gaussian_purity_exact(1.0, 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_discretized_spectrum_obeys_estimate(self):
        scenario = gaussian_scenario(2000, sigma=1.0, span=8.0)
        dist = level_distribution(scenario)
        sigma = energy_moments(dist).std
        assert abs(sigma - 1.0) < 0.01
        for sigma_t in (2.0, 5.0, 10.0, 25.0, 50.0):
            window = sigma_t / sigma
            eta = max_window_probability(dist, 1.0 / window)
            assert eta <= 1.05 * 0.4 / sigma_t
