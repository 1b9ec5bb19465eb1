import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qequil.constructions import random_scenario
from qequil.spectra import (EnergySpectrum, LevelDistribution, max_gaps_in_window,
                            max_window_probability, max_window_probability_window,
                            spectrum_from_hermitian)
from qequil.states import level_distribution

from helpers import all_gaps, brute_eta, brute_gap_count, charpoly_eigenvalues, random_hermitian


def test_construction_and_index_maps():
    spec = EnergySpectrum([0.0, 1.0, 2.5], [2, 1, 3])
    assert spec.dim == 6
    assert spec.num_levels == 3
    assert list(spec.level_of_index) == [0, 0, 1, 2, 2, 2]
    assert np.allclose(spec.index_energies, [0, 0, 1, 2.5, 2.5, 2.5])
    assert spec.span == 2.5


def test_rejects_non_finite_levels():
    for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            EnergySpectrum(bad, [1, 1, 1])


@pytest.mark.parametrize("levels,degs", [
    ([1.0, 0.5], [1, 1]),          # not increasing
    ([0.0, 1e-14], [1, 1]),        # closer than the degeneracy tolerance
    ([0.0, 1.0], [1, 0]),          # nonpositive degeneracy
    ([0.0, 1.0], [1]),             # length mismatch
])
def test_construction_rejections(levels, degs):
    with pytest.raises(ValueError):
        EnergySpectrum(levels, degs)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
def test_spectrum_tolerance_must_be_finite_and_positive(tol):
    # with tol=nan, levels 1e-30 apart passed the separation check
    with pytest.raises(ValueError, match="tol must be a finite positive"):
        EnergySpectrum([0.0, 1e-30], [1, 1], tol=tol)


@pytest.mark.parametrize("bad", [1.5, True, np.nan])
def test_non_integer_degeneracy_rejected(bad):
    with pytest.raises(ValueError, match=f"positive integers, got {bad!r}"):
        EnergySpectrum.from_dict({"levels": [0.0, 1.0], "degeneracies": [bad, 2]})
    with pytest.raises(ValueError, match="positive integers"):
        EnergySpectrum([0.0, 1.0], np.array([bad, bad]))


def test_spectrum_json_roundtrip(tmp_path):
    spec = EnergySpectrum([-1.0, 0.25, 3.0], [1, 2, 1])
    path = tmp_path / "spec.json"
    spec.save(path)
    back = EnergySpectrum.load(path)
    assert np.array_equal(back.levels, spec.levels)
    assert np.array_equal(back.degeneracies, spec.degeneracies)


class TestFromHermitian:
    def test_diagonal_degenerate(self):
        spec = spectrum_from_hermitian(np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(spec.levels, [0.0, 1.0])
        assert list(spec.degeneracies) == [2, 1]

    def test_identity(self):
        spec = spectrum_from_hermitian(np.eye(4))
        assert spec.num_levels == 1
        assert list(spec.degeneracies) == [4]

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            spectrum_from_hermitian(m)

    @pytest.mark.parametrize("entries", [[(0, 1)], [(0, 1), (1, 0)], [(2, 2)]],
                             ids=["asymmetric", "symmetric-pair", "diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, entries, bad):
        # a NaN passed the Hermiticity check and failed later, in eigh or in
        # the level validation, with an unrelated message
        m = np.diag([0.0, 1.0, 2.0]).astype(complex)
        for ij in entries:
            m[ij] = bad
        with pytest.raises(ValueError, match="finite"):
            spectrum_from_hermitian(m)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-9])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, tol):
        # a NaN tolerance let a non-Hermitian matrix through and merged
        # every eigenvalue into one level
        m = np.array([[0.0, 1.0], [0.0, 3.0]])
        with pytest.raises(ValueError, match="tol must be a finite positive"):
            spectrum_from_hermitian(m, tol=tol)

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(206)
        h = random_hermitian(rng, 6)
        spec = spectrum_from_hermitian(h)
        oracle = charpoly_eigenvalues(h)
        mine = np.repeat(spec.levels, spec.degeneracies)
        assert np.abs(mine - oracle).max() < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_degeneracies_match_eigh(self, seed):
        # a rotated diagonal with repeated entries: the eigenvalue-only
        # solver's merged levels are eigh's eigenvalues, level by level
        rng = np.random.default_rng(seed)
        degs = rng.integers(1, 5, size=7)
        levels = np.sort(rng.uniform(-3.0, 3.0, size=degs.size))
        n = int(degs.sum())
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        h = u @ np.diag(np.repeat(levels, degs)) @ u.conj().T
        spec = spectrum_from_hermitian(h)
        assert list(spec.degeneracies) == list(degs)
        oracle = np.linalg.eigh((h + h.conj().T) / 2.0)[0]
        assert np.abs(np.repeat(spec.levels, spec.degeneracies) - oracle).max() < 1e-12

    def test_transitive_closure_grouping(self):
        # eigenvalues chained below tolerance merge into one level
        vals = np.array([0.0, 4e-11, 8e-11, 1.0])
        spec = spectrum_from_hermitian(np.diag(vals), tol=5e-11)
        assert spec.num_levels == 2
        assert list(spec.degeneracies) == [3, 1]


class TestWindowProbability:
    def test_worked_example(self):
        spec = EnergySpectrum([0.0, 1.0, 3.0], [1, 1, 1])
        dist = LevelDistribution(spec, [0.5, 0.3, 0.2])
        value, window = max_window_probability_window(dist, 1.0)
        assert value == pytest.approx(0.8, abs=1e-15)
        assert window == (0.0, 1.0)

    def test_covering_window_is_one(self):
        spec = EnergySpectrum([0.0, 0.7, 2.0], [1, 1, 1])
        value = max_window_probability(LevelDistribution(spec, [0.2, 0.5, 0.3]), 2.0)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_level(self):
        spec = EnergySpectrum([5.0], [3])
        dist = LevelDistribution(spec, [1.0])
        assert max_window_probability(dist, 0.01) == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        spec = EnergySpectrum([0.0, 1.0], [1, 1])
        with pytest.raises(ValueError):
            max_window_probability(LevelDistribution(spec, [0.5, 0.5]), 0.0)
        with pytest.raises(ValueError, match="sum"):
            LevelDistribution(spec, [0.6, 0.6])
        with pytest.raises(ValueError, match="nonnegative"):
            LevelDistribution(spec, [-0.1, 1.1])
        for wrong in ([1.0], [0.2, 0.3, 0.5]):
            with pytest.raises(ValueError, match="expected 2 level probabilities"):
                LevelDistribution(spec, wrong)

    def test_rejects_non_finite_probabilities(self):
        spec = EnergySpectrum([0.0, 1.0, 2.0], [1, 1, 1])
        for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5]):
            with pytest.raises(ValueError, match="finite"):
                LevelDistribution(spec, bad)

    def test_stores_a_clipped_copy(self):
        spec = EnergySpectrum([0.0, 1.0], [1, 1])
        dist = LevelDistribution(spec, [-1e-14, 1.0 + 1e-14])
        assert dist.spectrum is spec
        assert dist.probs.min() == 0.0

    def test_monotone_and_floor(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 13)
            levels = np.sort(rng.choice(np.arange(100), size=n, replace=False)) * 0.37
            spec = EnergySpectrum(levels, np.ones(n, dtype=int))
            p = rng.dirichlet(np.ones(n))
            widths = np.sort(rng.uniform(0.01, 50.0, 4))
            dist = LevelDistribution(spec, p)
            vals = [max_window_probability(dist, w) for w in widths]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            d_eff = 1.0 / np.sum(p ** 2)
            assert all(v >= p.max() - 1e-12 for v in vals)
            assert all(v >= 1.0 / d_eff - 1e-12 for v in vals)

    def test_subadditive_in_width(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = rng.integers(2, 13)
            levels = np.sort(rng.choice(np.arange(200), size=n, replace=False)) * 0.11
            spec = EnergySpectrum(levels, np.ones(n, dtype=int))
            p = rng.dirichlet(np.ones(n))
            w1, w2 = rng.uniform(0.01, 20.0, 2)
            dist = LevelDistribution(spec, p)
            lhs = max_window_probability(dist, w1 + w2)
            rhs = max_window_probability(dist, w1) + max_window_probability(dist, w2)
            assert lhs <= rhs + 1e-12


@st.composite
def _spectrum_probs_width(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ints = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n, unique=True))
    scale = draw(st.floats(min_value=0.05, max_value=5.0, allow_nan=False))
    levels = np.sort(np.array(ints, dtype=float)) * scale
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    probs = np.array(weights) / np.sum(weights)
    width = draw(st.floats(min_value=1e-3, max_value=700.0))
    return levels, probs, width


@settings(max_examples=120, deadline=None)
@given(_spectrum_probs_width())
def test_window_probability_matches_brute_force(case):
    levels, probs, width = case
    spec = EnergySpectrum(levels, np.ones(levels.size, dtype=int))
    fast = max_window_probability(LevelDistribution(spec, probs), width)
    assert fast == pytest.approx(brute_eta(levels, probs, width), abs=1e-12)


@st.composite
def _spectrum_probs_widths(draw):
    """A case of ``_spectrum_probs_width`` with an array of widths instead:
    free widths, level gaps (a window edge then lands on a level) and
    repeats of both."""
    levels, probs, _ = draw(_spectrum_probs_width())
    pool = st.floats(min_value=1e-3, max_value=700.0)
    gaps = [b - a for i, a in enumerate(levels) for b in levels[i + 1:]]
    if gaps:
        pool = pool | st.sampled_from(gaps)
    widths = draw(st.lists(pool, min_size=1, max_size=10))
    widths += draw(st.lists(st.sampled_from(widths), max_size=4))
    return levels, probs, np.array(widths)


@settings(max_examples=120, deadline=None)
@given(_spectrum_probs_widths())
def test_array_scan_equals_scalar_scans_bitwise(case):
    levels, probs, widths = case
    spec = EnergySpectrum(levels, np.ones(levels.size, dtype=int))
    dist = LevelDistribution(spec, probs)
    values, (lo, hi) = max_window_probability_window(dist, widths)
    assert values.shape == lo.shape == hi.shape == widths.shape
    for k, width in enumerate(widths):
        value, (left, right) = max_window_probability_window(dist, float(width))
        assert (values[k], lo[k], hi[k]) == (value, left, right)  # exact, no tolerance
    assert np.array_equal(max_window_probability(dist, widths), values)


def test_window_probability_of_every_level_is_one():
    # the cumulative total of these ten probabilities rounds to
    # 1.0000000000000004, which the scan returned unclipped
    scen = random_scenario(1, 10)
    value, _ = max_window_probability_window(level_distribution(scen),
                                             2.0 * scen.spectrum.span)
    assert value == 1.0


@settings(max_examples=120, deadline=None)
@given(_spectrum_probs_widths())
def test_window_probability_never_exceeds_one(case):
    levels, probs, widths = case
    dist = LevelDistribution(EnergySpectrum(levels, np.ones(levels.size, dtype=int)), probs)
    values, _ = max_window_probability_window(dist, widths)
    assert np.all(values <= 1.0)
    assert max_window_probability(dist, 2.0 * (levels[-1] - levels[0]) + 1.0) <= 1.0


@settings(max_examples=120, deadline=None)
@given(_spectrum_probs_width())
def test_gap_count_matches_brute_force(case):
    levels, _, width = case
    spec = EnergySpectrum(levels, np.ones(levels.size, dtype=int))
    assert (max_gaps_in_window(spec.levels, width)
            == brute_gap_count(all_gaps(spec.levels), width))


class TestGaps:
    def test_gap_set_structure(self):
        # the gaps of 0, 1, 2 are -2, -1, -1, 1, 1, 2: both signs, with
        # multiplicity, and without the zero gaps n = m, which a window
        # [-1, 1] would otherwise add three of
        levels = EnergySpectrum([0.0, 1.0, 2.0], [1, 1, 1]).levels
        assert [max_gaps_in_window(levels, w) for w in (0.5, 1.0, 2.0, 3.0, 4.0)] == [
            2, 3, 4, 5, 6]

    def test_equally_spaced_small_window(self):
        spec = EnergySpectrum([0.0, 1.0, 2.0], [1, 1, 1])
        assert max_gaps_in_window(spec.levels, 0.5) == 2

    def test_covering_window_counts_all(self):
        spec = EnergySpectrum([0.0, 0.3, 1.1, 4.0], [1, 1, 1, 1])
        assert max_gaps_in_window(spec.levels, 2 * spec.span) == 4 * 3

    def test_single_level_has_no_gaps(self):
        spec = EnergySpectrum([2.0], [4])
        assert max_gaps_in_window(spec.levels, 1.0) == 0

    def test_monotone_and_negation_symmetric(self):
        rng = np.random.default_rng(9)
        levels = np.sort(rng.choice(np.arange(100), size=8, replace=False)) * 0.21
        spec = EnergySpectrum(levels, np.ones(8, dtype=int))
        neg = EnergySpectrum(np.sort(-levels), np.ones(8, dtype=int))
        widths = np.sort(rng.uniform(0.01, 40.0, 5))
        counts = [max_gaps_in_window(spec.levels, w) for w in widths]
        assert counts == sorted(counts)
        for w in widths:
            assert (max_gaps_in_window(spec.levels, w)
                    == max_gaps_in_window(neg.levels, w))

    def test_rejects_nonpositive_width(self):
        spec = EnergySpectrum([0.0, 1.0], [1, 1])
        with pytest.raises(ValueError):
            max_gaps_in_window(spec.levels, -1.0)
