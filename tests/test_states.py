import json
import re

import numpy as np
import pytest

from qequil.spectra import EnergySpectrum, LevelDistribution
from qequil.states import (QuantumState, dephase, effective_dimension,
                           energy_moments, evolve, level_distribution,
                           load_state, purity, save_state)

from helpers import (dense_dephase, dense_rho, matrix_from_column_traces, mixed_state, overlap,
                     poisson_spectrum, random_mixed, random_pure)


@pytest.fixture
def small_spec():
    return EnergySpectrum([0.0, 1.0, 2.7, 4.1], [1, 1, 1, 1])


@pytest.fixture
def degenerate_spec():
    return EnergySpectrum([0.0, 1.5, 3.0], [1, 2, 1])


def test_constructor_validation(small_spec):
    with pytest.raises(ValueError):
        QuantumState(small_spec, [1.0, 0.0, 0.0])             # wrong length
    with pytest.raises(ValueError):
        QuantumState(small_spec, [1.0, 1.0, 0.0, 0.0])        # not normalized
    with pytest.raises(ValueError):
        mixed_state(small_spec, np.eye(4) / 2.0)               # trace 2
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        mixed_state(small_spec, bad)                           # not Hermitian
    with pytest.raises(TypeError):
        QuantumState(small_spec)                               # nothing given
    with pytest.raises(ValueError):
        QuantumState(small_spec, np.ones((3, 2)) / np.sqrt(6))  # wrong row count
    with pytest.raises(ValueError):
        QuantumState(small_spec, np.ones((4, 2)))              # tr(A A^dag) = 8


def test_rejects_non_finite_input(small_spec):
    with pytest.raises(ValueError, match="finite"):
        QuantumState(small_spec, [np.nan, 1.0, 0.0, 0.0])
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 2] = rho[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        mixed_state(small_spec, rho)


def test_mixed_rejects_matrices_that_are_not_positive_semidefinite():
    spec = EnergySpectrum([0.0, 1.0], [1, 1])
    for m in (np.diag([1.5, -0.5]), [[0.5, 0.6], [0.6, 0.5]]):
        with pytest.raises(ValueError, match="positive semidefinite"):
            mixed_state(spec, m)
    four = EnergySpectrum([0.0, 1.0, 2.7, 4.1], [1, 1, 1, 1])
    with pytest.raises(ValueError, match="positive semidefinite"):
        mixed_state(four, np.diag([0.8, 0.4, -0.1, -0.1]))
    # an eigenvalue within the tolerance below zero is dropped, not rejected
    state = mixed_state(spec, np.diag([1.0 + 5e-11, -5e-11]))
    assert state.factor.shape == (2, 1)
    assert purity(state) == pytest.approx(1.0, abs=1e-9)


def test_mixed_factor_reproduces_the_matrix(small_spec):
    rng = np.random.default_rng(15)
    for components in (1, 2, 4):
        rho = dense_rho(random_mixed(rng, small_spec, components))
        state = mixed_state(small_spec, rho)
        assert state.factor.shape[1] <= 4
        assert np.abs(dense_rho(state) - rho).max() < 1e-15
        assert np.abs(state.diagonal() - rho.diagonal().real).max() < 1e-15
        assert purity(state) == pytest.approx(float(np.vdot(rho, rho).real), abs=1e-14)


@pytest.mark.parametrize("rank", [1, 3])
def test_mixed_drops_eigensolver_roundoff_columns(rank):
    # eigh returns the null space of a low-rank rho as eigenvalues of about
    # 1e-17; kept, they gave a rank-1 rho at d=40 a 40 x 21 factor
    spec = poisson_spectrum(np.random.default_rng(40), 40)
    rho = dense_rho(random_mixed(np.random.default_rng(41), spec, rank))
    state = mixed_state(spec, rho)
    assert state.factor.shape == (40, rank)
    assert state.is_pure == (rank == 1)
    assert np.abs(dense_rho(state) - rho).max() < 1e-15


class TestEvolve:
    def test_zero_time_identity(self, small_spec):
        rng = np.random.default_rng(0)
        state = random_pure(rng, small_spec)
        after = evolve(state, 0.0)
        assert np.allclose(after.amplitudes, state.amplitudes)

    def test_eigenstate_is_stationary(self, small_spec):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        state = QuantumState(small_spec, amps)
        after = evolve(state, 3.7)
        assert np.abs(dense_rho(after) - dense_rho(state)).max() < 1e-15

    def test_two_level_phase_flip(self):
        spec = EnergySpectrum([0.0, 1.0], [1, 1])
        plus = QuantumState(spec, np.array([1.0, 1.0]) / np.sqrt(2))
        moved = evolve(plus, np.pi)  # gap is 1, so half a period
        population = abs(np.vdot(plus.amplitudes, moved.amplitudes)) ** 2
        assert population == pytest.approx(0.0, abs=1e-28)

    def test_group_law(self, small_spec):
        rng = np.random.default_rng(1)
        state = random_mixed(rng, small_spec)
        a = evolve(evolve(state, 0.9), 1.7)
        b = evolve(state, 2.6)
        assert np.abs(dense_rho(a) - dense_rho(b)).max() < 1e-12

    def test_preserves_trace_hermiticity_spectrum(self, small_spec):
        rng = np.random.default_rng(2)
        state = random_mixed(rng, small_spec)
        after = evolve(state, 5.3)
        rho = dense_rho(after)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        before_eigs = np.linalg.eigvalsh(dense_rho(state))
        after_eigs = np.linalg.eigvalsh(rho)
        assert np.abs(before_eigs - after_eigs).max() < 1e-12

    def test_pure_and_mixed_paths_agree(self, small_spec):
        rng = np.random.default_rng(3)
        state = random_pure(rng, small_spec)
        as_mixed = mixed_state(small_spec, dense_rho(state))
        t = 1.234
        assert np.abs(dense_rho(evolve(state, t)) - dense_rho(evolve(as_mixed, t))).max() < 1e-12


class TestDephase:
    def test_diagonal_nondegenerate_unchanged(self, small_spec):
        diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        state = mixed_state(small_spec, diag)
        assert np.array_equal(dense_dephase(state), dense_rho(state))
        assert np.abs(matrix_from_column_traces(dephase(state)) - dense_rho(state)).max() < 1e-15
        assert np.abs(dense_rho(state) - diag).max() < 1e-16

    def test_pure_nondegenerate_gives_populations(self, small_spec):
        rng = np.random.default_rng(4)
        state = random_pure(rng, small_spec)
        omega = dense_dephase(state)
        assert np.abs(omega - np.diag(np.abs(state.amplitudes) ** 2)).max() < 1e-15

    def test_degenerate_block_survives(self, degenerate_spec):
        rng = np.random.default_rng(5)
        state = random_pure(rng, degenerate_spec)
        omega = dephase(state)
        dense = dense_dephase(state)
        assert abs(dense[1, 2]) > 1e-3      # within-level coherence kept
        assert abs(dense[0, 1]) == 0.0      # cross-level zeroed
        # blockwise purity oracle
        blocks = [[0], [1, 2], [3]]
        rho = dense_rho(state)
        block_purity = sum(float(np.vdot(rho[np.ix_(b, b)], rho[np.ix_(b, b)]).real)
                           for b in blocks)
        assert purity(omega) == pytest.approx(block_purity, abs=1e-12)

    def test_idempotent_and_commutes_with_evolve(self, degenerate_spec):
        rng = np.random.default_rng(6)
        state = random_mixed(rng, degenerate_spec)
        omega = mixed_state(degenerate_spec, dense_dephase(state))
        assert np.abs(dense_dephase(omega) - dense_rho(omega)).max() < 1e-15
        assert np.abs(matrix_from_column_traces(dephase(omega)) - dense_rho(omega)).max() < 1e-15
        t = 2.2
        a = dense_dephase(evolve(state, t))
        b = dense_rho(omega)
        assert np.abs(a - b).max() < 1e-12

    def test_level_probabilities_unchanged(self, degenerate_spec):
        rng = np.random.default_rng(7)
        state = random_mixed(rng, degenerate_spec)
        before = level_distribution(state).probs
        after = level_distribution(dephase(state)).probs
        assert np.abs(before - after).max() < 1e-14

    def test_equilibrium_overlap_identity(self, degenerate_spec):
        # tr(rho_t omega) equals tr(omega^2) at every time
        rng = np.random.default_rng(8)
        state = random_mixed(rng, degenerate_spec)
        omega = dense_dephase(state)
        target = purity(dephase(state))
        for t in (0.0, 0.3, 2.9, 17.0):
            val = float(np.vdot(dense_rho(evolve(state, t)), omega).real)
            assert val == pytest.approx(target, abs=1e-12)


class TestDistributionsAndMoments:
    def test_effective_dimension_uniform(self):
        spec = EnergySpectrum(np.arange(7, dtype=float), np.ones(7, dtype=int))
        amps = np.full(7, 1.0 / np.sqrt(7))
        d_eff = effective_dimension(level_distribution(QuantumState(spec, amps)))
        assert d_eff == pytest.approx(7.0, rel=1e-12)

    def test_effective_dimension_simple_cases(self, small_spec):
        one = LevelDistribution(small_spec, [1.0, 0, 0, 0])
        two = LevelDistribution(small_spec, [0.5, 0.5, 0, 0])
        assert effective_dimension(one) == pytest.approx(1.0)
        assert effective_dimension(two) == pytest.approx(2.0)

    def test_moments(self, small_spec):
        single = LevelDistribution(small_spec, [0.0, 1.0, 0.0, 0.0])
        mean, std = energy_moments(single)
        assert (mean, std) == (1.0, 0.0)
        spec2 = EnergySpectrum([0.0, 2.0], [1, 1])
        mean, std = energy_moments(LevelDistribution(spec2, [0.5, 0.5]))
        assert mean == pytest.approx(1.0)
        assert std == pytest.approx(1.0)  # half the spacing

    def test_uniform_ladder_std(self):
        levels = 50
        spec = EnergySpectrum((np.arange(levels) + 0.5) * 1.0,
                              np.ones(levels, dtype=int))
        amps = np.full(levels, 1.0 / np.sqrt(levels))
        _, std = energy_moments(level_distribution(QuantumState(spec, amps)))
        assert std == pytest.approx(np.sqrt((levels ** 2 - 1) / 12.0), rel=1e-12)

    def test_degenerate_level_probability(self, degenerate_spec):
        amps = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
        dist = level_distribution(QuantumState(degenerate_spec, amps))
        assert dist.spectrum is degenerate_spec
        assert np.allclose(dist.probs, [0.0, 1.0, 0.0])


class TestPurityOverlap:
    def test_pure_purity_is_one(self, small_spec):
        rng = np.random.default_rng(9)
        assert purity(random_pure(rng, small_spec)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self, small_spec):
        state = mixed_state(small_spec, np.eye(4, dtype=complex) / 4.0)
        assert purity(state) == pytest.approx(0.25, rel=1e-14)

    def test_dephased_purity_bounds(self, degenerate_spec):
        rng = np.random.default_rng(10)
        for _ in range(20):
            state = random_mixed(rng, degenerate_spec)
            omega = dephase(state)
            val = purity(omega)
            d_eff = effective_dimension(level_distribution(state))
            assert 1.0 / degenerate_spec.dim - 1e-12 <= val <= 1.0 + 1e-12
            assert val <= 1.0 / d_eff + 1e-12

    def test_pure_dephased_purity_is_inverse_effective_dimension(self, degenerate_spec):
        rng = np.random.default_rng(11)
        state = random_pure(rng, degenerate_spec)
        d_eff = effective_dimension(level_distribution(state))
        assert purity(dephase(state)) == pytest.approx(1.0 / d_eff, rel=1e-12)

    def test_overlap_basics(self, small_spec):
        rng = np.random.default_rng(12)
        a = random_pure(rng, small_spec)
        b = random_pure(rng, small_spec)
        assert overlap(a, a) == pytest.approx(1.0, rel=1e-12)
        assert overlap(a, b) == pytest.approx(overlap(b, a), rel=1e-12)
        assert 0.0 <= overlap(a, b) <= 1.0
        with pytest.raises(ValueError):
            overlap(a, dephase(b))

    def test_short_time_overlap_lemma(self):
        rng = np.random.default_rng(13)
        spec = poisson_spectrum(rng, 24)
        for _ in range(10):
            state = random_pure(rng, spec)
            _, sigma = energy_moments(level_distribution(state))
            for t in np.linspace(0.0, 1.0 / sigma, 9):
                assert overlap(state, evolve(state, t)) >= 1.0 - (sigma * t) ** 2 - 1e-12


def test_state_attributes_read_by_the_benchmark_tracer(small_spec):
    """perfbench's tracer wraps ``QuantumState.__init__`` and sizes
    expectation series and states from ``is_pure`` and ``dim``; a rename
    would silently change its per-layer counts."""
    assert "__init__" in vars(QuantumState)
    rng = np.random.default_rng(16)
    pure, mixed = random_pure(rng, small_spec), random_mixed(rng, small_spec)
    for state in (pure, mixed, evolve(pure, 0.3), evolve(mixed, 0.3)):
        assert state.dim == 4
    assert pure.is_pure is True and mixed.is_pure is False
    omega = dephase(pure)
    assert omega.is_pure is False and omega.dim == 4


def test_state_file_roundtrip(tmp_path, small_spec):
    # the factor's columns come back bit for bit, for pure and mixed states
    rng = np.random.default_rng(14)
    spec_path = tmp_path / "spec.json"
    small_spec.save(spec_path)
    path = tmp_path / "state.json"
    for state in (random_pure(rng, small_spec), random_mixed(rng, small_spec)):
        save_state(state, path, spec_path)
        assert set(json.loads(path.read_text())) == {"spectrum", "factor"}
        back = load_state(path)
        assert back.is_pure == state.is_pure
        assert np.array_equal(back.factor, state.factor)
        assert np.array_equal(back.spectrum.levels, small_spec.levels)
        assert np.array_equal(back.spectrum.degeneracies, small_spec.degeneracies)


@pytest.mark.parametrize("payload", [
    {"spectrum": "spec.json", "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    {"spectrum": "spec.json", "rho": [[[1.0, 0.0]] + [[0.0, 0.0]] * 3] + [[[0.0, 0.0]] * 4] * 3},
    {"spectrum": "spec.json", "factor": [[[1.0, 0.0]] + [[0.0, 0.0]] * 3], "rank": 1},
    {"spectrum": "spec.json", "factor": {"0": [1.0, 0.0]}},
    {"spectrum": 3, "factor": [[[1.0, 0.0]] + [[0.0, 0.0]] * 3]},
    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
])
def test_load_state_rejects_other_payloads(tmp_path, payload):
    # the amplitudes and rho forms that state files once held are rejected too
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape('{"spectrum": path, "factor": [column, ...]}')):
        load_state(path)


def test_load_state_rejects_a_factor_of_the_wrong_form(tmp_path, small_spec):
    # the columns go through the constructor's checks: row count, finite
    # entries and unit trace, and [re, im] pairs of numbers
    spec_path = tmp_path / "spec.json"
    small_spec.save(spec_path)
    path = tmp_path / "state.json"
    for factor, match in (([[[1.0, 0.0]] * 3], "expected 4 rows"),
                          ([[[1.0, 0.0]] * 4], "not 1"),
                          ([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]]], "finite"),
                          ([[{"re": 1.0}] * 4], "re, im"),
                          ([], "re, im")):
        path.write_text(json.dumps({"spectrum": str(spec_path), "factor": factor}))
        with pytest.raises(ValueError, match=match):
            load_state(path)


def test_rank_three_state_file_at_d_2048_is_small(tmp_path):
    # a d x d rho written as [re, im] pairs took 209 MB at this size
    spec = poisson_spectrum(np.random.default_rng(17), 2048)
    state = random_mixed(np.random.default_rng(18), spec, components=3)
    spec_path, path = tmp_path / "spec.json", tmp_path / "state.json"
    spec.save(spec_path)
    save_state(state, path, spec_path)
    assert path.stat().st_size < 1 << 20
    assert np.array_equal(load_state(path).factor, state.factor)
