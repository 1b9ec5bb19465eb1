"""The factor form of states and of the equilibrium state against dense
oracles.

Every state is a factor A with rho = A A^dag, and ``dephase`` returns
omega = sum_n P_n rho P_n as the same factor with the level partition. The
oracles in ``helpers`` work on dense d x d arrays: ``dense_dephase`` masks
rho, ``dense_expectation`` takes tr(P rho) and ``gap_series`` sums tr(P rho_t)
over all d^2 gaps. Every reader of a state or of omega (populations,
column traces, projector expectations, purity, evolution, expectation and
distinguishability series) must agree with them, for pure, low-rank and
full-rank mixed states on degenerate and nondegenerate spectra.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qequil import batteries, cli
from qequil.constructions import (partitioned_slow_measurement, random_scenario,
                                  slow_window_check, snapshot_subspace)
from qequil.measure import (Measurement, Projector, _phases, distinguishability,
                            expectation_series, two_outcome)
from qequil.spectra import EnergySpectrum
from qequil.states import (EquilibriumState, QuantumState, dephase, evolve,
                           level_distribution, purity)

from helpers import (dense_dephase, dense_distinguishability, dense_expectation, dense_rho,
                     distinguishability_series, gap_series, matrix_from_column_traces,
                     mixed_state, random_mixed, random_pure)

TOL = 1e-14
SERIES_TOL = 1e-12


def _spectrum(rng, d, degenerate):
    if not degenerate:
        return EnergySpectrum(np.cumsum(rng.uniform(0.1, 1.0, d)), np.ones(d, dtype=int))
    num_levels = int(rng.integers(1, d + 1))
    degs = np.ones(num_levels, dtype=int)
    np.add.at(degs, rng.integers(num_levels, size=d - num_levels), 1)
    return EnergySpectrum(np.cumsum(rng.uniform(0.1, 1.0, num_levels)), degs)


def _frame(rng, d, k):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0][:, :k]


@st.composite
def cases(draw):
    """A spectrum (degenerate or not), a pure, low-rank or full-rank mixed
    state over it (a mixed one possibly factored from its matrix by
    :func:`helpers.mixed_state`), and a projector of any rank 0..d, possibly a
    complement."""
    d = draw(st.integers(1, 10), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    spec = _spectrum(rng, d, draw(st.booleans(), label="degenerate"))
    kind = draw(st.sampled_from(["pure", "low-rank", "full-rank"]), label="kind")
    if kind == "pure":
        state = random_pure(rng, spec)
    else:
        components = d if kind == "full-rank" else draw(st.integers(1, max(1, d - 1)))
        state = random_mixed(rng, spec, components)
        if draw(st.booleans(), label="from_matrix"):
            state = mixed_state(spec, dense_rho(state))
    p = Projector.from_factor(_frame(rng, d, draw(st.integers(0, d), label="rank")))
    if draw(st.booleans(), label="complement"):
        p = p.complement()
    return rng, state, p


def _outer_sum(factor) -> np.ndarray:
    """sum_k a_k a_k^dag over the columns of a factor, one outer product at
    a time."""
    return sum(np.outer(a, a.conj()) for a in factor.T)


@settings(max_examples=150, deadline=None)
@given(case=cases(), t=st.floats(0.0, 30.0))
def test_factor_form_matches_dense_oracle(case, t):
    _, state, p = case
    rho = _outer_sum(state.factor)
    assert state.is_pure == (state.factor.shape[1] == 1)
    assert np.abs(dense_rho(state) - rho).max() <= TOL
    assert np.abs(state.diagonal() - rho.diagonal().real).max() <= TOL
    assert abs(p.expectation(state) - dense_expectation(p, rho)) <= TOL
    assert abs(purity(state) - float(np.vdot(rho, rho).real)) <= TOL
    phases = np.exp(-1j * state.spectrum.index_energies * t)
    assert np.abs(dense_rho(evolve(state, t)) - rho * np.outer(phases, phases.conj())).max() <= TOL
    times = np.linspace(0.0, t, 9)
    assert np.abs(expectation_series(p, state, times)
                  - gap_series(p, state, times)).max() <= SERIES_TOL


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_block_form_matches_dense_oracle(case):
    _, state, p = case
    omega, oracle = dephase(state), dense_dephase(state)
    assert isinstance(omega, EquilibriumState)
    assert not omega.is_pure and omega.dim == state.dim
    assert np.abs(matrix_from_column_traces(omega) - oracle).max() <= TOL
    # the populations are the state's own, so they agree bit for bit
    assert np.array_equal(omega.diagonal(), state.diagonal())
    assert np.array_equal(level_distribution(omega).probs, level_distribution(state).probs)
    assert np.abs(omega.diagonal() - oracle.diagonal().real).max() <= TOL
    assert abs(p.expectation(omega) - dense_expectation(p, oracle)) <= TOL
    assert abs(purity(omega) - float(np.vdot(oracle, oracle).real)) <= TOL


@settings(max_examples=100, deadline=None)
@given(case=cases(), m=st.integers(1, 3), k=st.integers(0, 4))
def test_column_traces_of_batched_frames(case, m, k):
    """Both kinds of state on (m, d, k) stacks of frames, against
    tr(v^dag rho v) and tr(v^dag omega v) from the dense matrices, column by
    column."""
    rng, state, _ = case
    d = state.dim
    v = np.stack([_frame(rng, d, min(k, d)) for _ in range(m)])
    for s, rho in ((state, dense_rho(state)), (dephase(state), dense_dephase(state))):
        got = s.column_traces(v)
        want = np.einsum("mjk,jl,mlk->mk", v.conj(), rho, v).real
        assert got.shape == (m, min(k, d))
        assert np.abs(got - want).max(initial=0.0) <= TOL
        assert np.array_equal(s.column_traces(v[0]), got[0])


@settings(max_examples=80, deadline=None)
@given(case=cases(), t_max=st.floats(0.0, 30.0))
def test_distinguishability_against_block_form(case, t_max):
    rng, state, p = case
    omega, oracle = dephase(state), dense_dephase(state)
    m = two_outcome(p)
    state_t = evolve(state, t_max)
    assert abs(distinguishability(m, state_t, omega)
               - dense_distinguishability(m, dense_rho(state_t), oracle)) <= TOL
    assert abs(distinguishability(m, omega, state_t)
               - dense_distinguishability(m, oracle, dense_rho(state_t))) <= TOL
    if state.dim >= 2:
        v = _frame(rng, state.dim, state.dim)
        k = int(rng.integers(1, state.dim))
        m = Measurement([Projector(v[:, :k]), Projector(v[:, :k], True)])
    times = np.linspace(0.0, t_max, 9)
    got = distinguishability_series(m, state, omega, times)
    want = 0.5 * sum(np.abs(gap_series(q, state, times) - dense_expectation(q, oracle))
                     for q in m.projectors)
    assert np.abs(got - want).max() <= SERIES_TOL


def test_slow_default_matches_dense_omega():
    """At the slow experiment's default scenario (d=2048, nondegenerate),
    tr(P omega) from the factor agrees with the dense product to a few
    rounding units for every outcome it measures."""
    config = cli.DEFAULTS["slow"]
    scen = random_scenario(config["seed"], config["dim"])
    assert scen.spectrum.is_nondegenerate()
    sub = snapshot_subspace(scen, config["snapshots"], config["epsilon"])
    omega = dephase(scen)
    rho = dense_dephase(scen)
    meas = partitioned_slow_measurement(sub, config["outcomes"])
    for p in (sub.projector(), *meas.projectors):
        dense_value = float(np.sum(p.factor.conj() * (rho @ p.factor)).real)
        if p.is_complement:
            dense_value = 1.0 - dense_value
        assert abs(p.expectation(omega) - dense_value) <= 1e-15


def test_pure_source_keeps_no_matrix():
    """omega shares its source's factor: a pure source keeps one column, a
    mixed one its s columns, and nothing d x d is stored."""
    spec = _spectrum(np.random.default_rng(3), 64, degenerate=True)
    pure = random_pure(np.random.default_rng(4), spec)
    omega = dephase(pure)
    assert omega.factor is pure.factor and omega.factor.shape == (64, 1)
    mixed = random_mixed(np.random.default_rng(5), spec)
    assert dephase(mixed).factor is mixed.factor and mixed.factor.shape == (64, 3)
    assert QuantumState.__slots__ == EquilibriumState.__slots__ == ("spectrum", "factor")
    with pytest.raises(TypeError):
        EquilibriumState(spec)


@pytest.mark.parametrize("dephased", [False, True])
def test_column_traces_take_only_frames(dephased):
    # a 1-d vector used to broadcast to an outer product and give a wrong
    # value (1.0 for <c|omega|c> = 0.2068 here)
    scen = random_scenario(3, 12)
    state = dephase(scen) if dephased else scen
    rho = dense_dephase(scen) if dephased else dense_rho(scen)
    c = scen.amplitudes
    want = float(np.vdot(c, rho @ c).real)
    assert state.column_traces(c[:, None]) == pytest.approx([want], rel=1e-12)
    for bad in (c, c[None, :], np.ones((11, 1)), np.ones((2, 11, 12))):
        with pytest.raises(ValueError, match=r"\(\.\.\., 12, r\)"):
            state.column_traces(bad)


def test_wide_factor_on_degenerate_levels_stays_below_one_dense_matrix():
    """tr(V^dag omega V) for a full-rank mixed state on doubly degenerate
    levels takes one factor column at a time; stacking all s = d columns
    would hold a d x r x d array (100 MB here)."""
    d = 512
    spec = EnergySpectrum(np.arange(d // 2, dtype=float), np.full(d // 2, 2))
    rng = np.random.default_rng(8)
    state = random_mixed(rng, spec, components=d)
    omega = dephase(state)
    v = _frame(rng, d, 16)
    tracemalloc.start()
    try:
        value = omega.column_traces(v).sum()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * d
    assert abs(value - dense_expectation(Projector(v), dense_dephase(state))) <= 1e-13


def test_phases_equal_complex_exponential_bitwise():
    rng = np.random.default_rng(7)
    energies = np.concatenate(([0.0, -3.5], np.sort(rng.uniform(-1e3, 7e4, 510))))
    times = np.concatenate(([0.0], rng.uniform(0.0, 150.0, 300)))
    got = _phases(energies, times)
    want = np.exp(-1j * np.outer(energies, times))
    assert got.shape == want.shape == (512, 301)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_slow_window_check_memory_is_small():
    """slow_window_check at the slow experiment's defaults (d=2048, 256
    samples) peaks below 10 MB (4.1 MB measured on the NUFFT path, 5.2 MB on
    the block path): per-level phases and GEMM row groups of at most
    _ROW_GROUP_ENTRIES complex entries, where a row group sized like the
    phase budget took 28 MB."""
    config = cli.DEFAULTS["slow"]
    scen = random_scenario(config["seed"], config["dim"])
    sub = snapshot_subspace(scen, config["snapshots"], config["epsilon"])
    tracemalloc.start()
    try:
        rep = slow_window_check(sub, scen, config["outcomes"], config["samples"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(record["holds"] for _, record in rep.checks)
    assert peak < 10 * 2 ** 20


def test_slow_memory_stays_below_one_dense_matrix():
    """run_slow at d=4096 must peak below 16 d^2 bytes, the size of one
    d x d complex matrix."""
    d = 4096
    config = {**cli.DEFAULTS["slow"], "dim": d}
    tracemalloc.start()
    try:
        result = batteries.run_slow(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.failures
    assert peak < 16 * d * d


def test_slow_memory_grows_no_faster_than_the_dimension():
    """The traced peak of run_slow at d=8192 is at most 5 times its peak at
    d=2048 (14.0 and 4.8 MB measured): nothing in it grows as d^2."""
    batteries.run_slow({**cli.DEFAULTS["slow"], "dim": 256})  # lazy set-up, untraced
    peaks = []
    for d in (2048, 8192):
        tracemalloc.start()
        try:
            result = batteries.run_slow({**cli.DEFAULTS["slow"], "dim": d})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.failures
        peaks.append(peak)
    assert peaks[1] <= 5 * peaks[0]
