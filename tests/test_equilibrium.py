"""The block-form equilibrium state against the dense oracle.

``dephase`` returns omega = sum_n P_n rho P_n level by level; the oracle in
``helpers.dense_dephase`` builds the masked d x d matrix. Every reader of
omega (projector expectations, purity, distinguishability and its series,
the populations and the dense view the Haar estimators use) must agree with
the oracle, across degenerate and nondegenerate spectra and pure and mixed
states.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qequil import batteries, cli
from qequil.constructions import (partitioned_slow_measurement, random_scenario,
                                  snapshot_subspace)
from qequil.measure import (Measurement, Projector, _phases, distinguishability,
                            distinguishability_series, two_outcome)
from qequil.spectra import EnergySpectrum
from qequil.states import EquilibriumState, dephase, evolve, level_distribution, purity

from helpers import dense_dephase, random_mixed, random_pure

TOL = 1e-14


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
    """A spectrum (degenerate or not), a pure or mixed state over it, and a
    projector of any rank 0..d, possibly a complement."""
    d = draw(st.integers(1, 10), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    spec = _spectrum(rng, d, draw(st.booleans(), label="degenerate"))
    mixed = draw(st.booleans(), label="mixed")
    state = random_mixed(rng, spec) if mixed else random_pure(rng, spec)
    p = Projector.from_factor(_frame(rng, d, draw(st.integers(0, d), label="rank")))
    if draw(st.booleans(), label="complement"):
        p = p.complement()
    return rng, state, p


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_block_form_matches_dense_oracle(case):
    _, state, p = case
    omega, oracle = dephase(state), dense_dephase(state)
    assert isinstance(omega, EquilibriumState)
    assert not omega.is_pure and omega.dim == state.dim
    # the dense view copies the masked entries and the populations are the
    # state's own, so both agree bit for bit
    assert np.array_equal(omega.dense(), oracle.rho)
    assert np.array_equal(omega.diagonal(), state.diagonal())
    assert np.array_equal(level_distribution(omega).probs, level_distribution(state).probs)
    assert np.abs(omega.diagonal() - oracle.diagonal()).max() <= TOL
    assert abs(p.expectation(omega) - p.expectation(oracle)) <= TOL
    assert abs(purity(omega) - purity(oracle)) <= TOL


@settings(max_examples=80, deadline=None)
@given(case=cases(), t_max=st.floats(0.0, 30.0))
def test_distinguishability_against_block_form(case, t_max):
    rng, state, p = case
    omega, oracle = dephase(state), dense_dephase(state)
    m = two_outcome(p)
    state_t = evolve(state, t_max)
    assert abs(distinguishability(m, state_t, omega)
               - distinguishability(m, state_t, oracle)) <= TOL
    assert abs(distinguishability(m, omega, state_t)
               - distinguishability(m, oracle, state_t)) <= TOL
    if state.dim >= 2:
        v = _frame(rng, state.dim, state.dim)
        k = int(rng.integers(1, state.dim))
        m = Measurement([Projector(v[:, :k]), Projector(v[:, :k], True)])
    times = np.linspace(0.0, t_max, 9)
    a = distinguishability_series(m, state, omega, times)
    b = distinguishability_series(m, state, oracle, times)
    assert np.abs(a - b).max() <= TOL


def test_slow_default_is_bit_for_bit():
    """At the slow experiment's default scenario (d=2048, nondegenerate),
    tr(P omega) from the diagonal equals the dense diagonal-matrix product
    bit for bit for every outcome it measures."""
    config = cli.DEFAULTS["slow"]
    scen = random_scenario(config["seed"], config["dim"])
    assert scen.spectrum.is_nondegenerate()
    sub = snapshot_subspace(scen, config["snapshots"], config["epsilon"])
    omega = dephase(scen.state)
    rho = omega.dense()
    meas = partitioned_slow_measurement(sub, config["outcomes"])
    for p in (sub.projector(), *meas.projectors):
        dense_value = float(np.sum(p.factor.conj() * (rho @ p.factor)).real)
        if p.is_complement:
            dense_value = 1.0 - dense_value
        assert p.expectation(omega) == dense_value


def test_pure_source_keeps_no_matrix():
    spec = _spectrum(np.random.default_rng(3), 64, degenerate=True)
    omega = dephase(random_pure(np.random.default_rng(4), spec))
    assert omega._blocks is None and omega._amps.shape == (64,)
    mixed = dephase(random_mixed(np.random.default_rng(5), spec))
    stored = sum(b.size for b in mixed._blocks.values())
    assert stored == int(np.sum(spec.degeneracies ** 2)) < 64 * 64
    with pytest.raises(ValueError, match="exactly one"):
        EquilibriumState(spec)


def test_phases_equal_complex_exponential_bitwise():
    rng = np.random.default_rng(7)
    energies = np.concatenate(([0.0, -3.5], np.sort(rng.uniform(-1e3, 7e4, 510))))
    times = np.concatenate(([0.0], rng.uniform(0.0, 150.0, 300)))
    got = _phases(energies, times)
    want = np.exp(-1j * np.outer(energies, times))
    assert got.shape == want.shape == (512, 301)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


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
