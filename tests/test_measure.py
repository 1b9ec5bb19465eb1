import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qequil import measure
from qequil.constructions import (partitioned_slow_measurement, random_scenario,
                                  snapshot_subspace)
from qequil.measure import (Measurement, Projector, distinguishability,
                            distinguishability_series, expectation_series,
                            load_measurement, save_measurement,
                            success_probability, two_outcome)
from qequil.spectra import EnergySpectrum
from qequil.states import QuantumState, complex_out, dephase, evolve

from helpers import dense, gap_series, random_mixed, random_pure, trace_distance


@pytest.fixture
def spec():
    return EnergySpectrum([0.0, 0.9, 2.1, 3.4, 5.0], [1, 1, 1, 1, 1])


def _haar_frame(rng, d, k):
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    q, _ = np.linalg.qr(z)
    return q


class TestProjector:
    def test_rejects_non_projector(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="idempotency residual"):
            Projector.from_matrix(m)

    def test_rejects_non_orthonormal_factor(self):
        v = np.array([[1.0], [1.0]], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            Projector.from_factor(v)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            Projector.from_factor([[np.nan], [0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            Projector.from_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_complement_shares_the_factor(self):
        rng = np.random.default_rng(14)
        p = Projector.from_factor(_haar_frame(rng, 6, 2))
        comp = p.complement()
        assert comp.factor is p.factor
        assert (comp.rank, comp.dim) == (4, 6)
        assert comp.complement().rank == 2
        assert np.abs(dense(comp) - (np.eye(6) - dense(p))).max() < 1e-15

    def test_factor_and_matrix_agree(self, spec):
        rng = np.random.default_rng(0)
        v = _haar_frame(rng, 5, 2)
        p = Projector.from_factor(v)
        q = Projector.from_matrix(v @ v.conj().T)
        assert p.rank == q.rank == 2
        state = random_mixed(rng, spec)
        assert p.expectation(state) == pytest.approx(q.expectation(state), abs=1e-12)

    def test_expectation_paths_agree(self, spec):
        rng = np.random.default_rng(1)
        v = _haar_frame(rng, 5, 3)
        p_fac = Projector.from_factor(v)
        p_mat = Projector.from_matrix(v @ v.conj().T)
        pure = random_pure(rng, spec)
        mixed = random_mixed(rng, spec)
        assert p_mat.expectation(pure) == pytest.approx(p_fac.expectation(pure), abs=1e-12)
        assert p_mat.expectation(mixed) == pytest.approx(p_fac.expectation(mixed), abs=1e-12)


class TestMeasurement:
    def test_residual_reporting(self, spec):
        rng = np.random.default_rng(2)
        v = _haar_frame(rng, 5, 5)
        projectors = [Projector.from_factor(v[:, :2]),
                      Projector.from_factor(v[:, 2:4]),
                      Projector.from_factor(v[:, 4:])]
        m = Measurement(projectors)
        resid = m.residuals()
        assert set(resid) == {"hermiticity", "idempotency", "orthogonality",
                              "completeness"}
        assert max(resid.values()) < 1e-10

    def test_rejects_incomplete(self, spec):
        rng = np.random.default_rng(3)
        v = _haar_frame(rng, 5, 4)
        with pytest.raises(ValueError):
            Measurement([Projector.from_factor(v[:, :2]),
                         Projector.from_factor(v[:, 2:3]),
                         Projector.from_factor(v[:, 3:4])])

    def test_rejects_non_finite_residual(self):
        class NanResiduals(Measurement):
            def residuals(self):
                return {**super().residuals(), "completeness": float("nan")}

        v = _haar_frame(np.random.default_rng(15), 5, 5)
        with pytest.raises(ValueError, match="residuals"):
            NanResiduals([Projector.from_factor(v[:, :2]),
                          Projector.from_factor(v[:, 2:])])

    def test_rejects_two_complements(self):
        v = _haar_frame(np.random.default_rng(16), 4, 4)
        with pytest.raises(ValueError, match="at most one"):
            Measurement([Projector.from_factor(v[:, :2]).complement(),
                         Projector.from_factor(v[:, 2:]).complement()])

    def test_rejects_overlapping(self, spec):
        rng = np.random.default_rng(4)
        v = _haar_frame(rng, 5, 3)
        with pytest.raises(ValueError, match="residuals"):
            Measurement([Projector.from_factor(v),
                         Projector.from_factor(v[:, :2])])


class TestDistinguishability:
    def test_same_state_zero(self, spec):
        rng = np.random.default_rng(5)
        state = random_mixed(rng, spec)
        m = two_outcome(Projector.from_factor(_haar_frame(rng, 5, 2)))
        assert distinguishability(m, state, state) == 0.0

    def test_pure_versus_maximally_mixed(self, spec):
        rng = np.random.default_rng(6)
        state = random_pure(rng, spec)
        mixed = QuantumState.mixed(spec, np.eye(5, dtype=complex) / 5.0)
        m = two_outcome(Projector.rank_one(state.amplitudes))
        assert distinguishability(m, state, mixed) == pytest.approx(1 - 1 / 5, abs=1e-12)

    def test_trivial_projectors_give_zero(self, spec):
        rng = np.random.default_rng(7)
        a, b = random_pure(rng, spec), random_mixed(rng, spec)
        zero = Projector.from_matrix(np.zeros((5, 5), dtype=complex))
        full = Projector.from_matrix(np.eye(5, dtype=complex))
        m = Measurement([zero, full])
        assert distinguishability(m, a, b) == pytest.approx(0.0, abs=1e-12)

    def test_complement_symmetry(self, spec):
        rng = np.random.default_rng(8)
        a, b = random_mixed(rng, spec), random_mixed(rng, spec)
        p = Projector.from_factor(_haar_frame(rng, 5, 2))
        comp = Projector.from_matrix(np.eye(5) - dense(p))
        da = distinguishability(two_outcome(p), a, b)
        db = distinguishability(two_outcome(comp), a, b)
        assert da == pytest.approx(db, abs=1e-12)

    def test_refinement_never_decreases(self, spec):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_mixed(rng, spec), random_mixed(rng, spec)
            v = _haar_frame(rng, 5, 5)
            coarse = Measurement([Projector.from_factor(v[:, :3]),
                                  Projector.from_factor(v[:, 3:])])
            fine = Measurement([Projector.from_factor(v[:, :1]),
                                Projector.from_factor(v[:, 1:3]),
                                Projector.from_factor(v[:, 3:])])
            assert (distinguishability(fine, a, b)
                    >= distinguishability(coarse, a, b) - 1e-12)

    def test_metric_properties_and_trace_distance_cap(self, spec):
        rng = np.random.default_rng(10)
        for _ in range(15):
            a, b, c = (random_mixed(rng, spec) for _ in range(3))
            v = _haar_frame(rng, 5, 5)
            m = Measurement([Projector.from_factor(v[:, :2]),
                             Projector.from_factor(v[:, 2:])])
            dab = distinguishability(m, a, b)
            assert dab == pytest.approx(distinguishability(m, b, a), abs=1e-14)
            assert dab <= (distinguishability(m, a, c)
                           + distinguishability(m, c, b) + 1e-12)
            assert dab <= trace_distance(a, b) + 1e-12

    def test_series_matches_pointwise(self, spec):
        rng = np.random.default_rng(11)
        state = random_pure(rng, spec)
        omega = dephase(state)
        m = two_outcome(Projector.from_factor(_haar_frame(rng, 5, 2)))
        times = np.linspace(0.0, 7.0, 13)
        series = distinguishability_series(m, state, omega, times)
        pointwise = [distinguishability(m, evolve(state, t), omega) for t in times]
        assert np.abs(series - pointwise).max() < 1e-12

    def test_expectation_series_mixed_path(self, spec):
        rng = np.random.default_rng(12)
        state = random_mixed(rng, spec)
        p = Projector.from_factor(_haar_frame(rng, 5, 2))
        times = np.linspace(0.0, 5.0, 9)
        series = expectation_series(p, state, times)
        pointwise = [p.expectation(evolve(state, t)) for t in times]
        assert np.abs(series - np.array(pointwise)).max() < 1e-12


def test_success_probability():
    assert success_probability(0.0) == 0.5
    assert success_probability(1.0) == 1.0
    assert success_probability(0.98) == pytest.approx(0.99, abs=1e-15)
    with pytest.raises(ValueError):
        success_probability(1.5)
    with pytest.raises(ValueError):
        success_probability(-0.1)


def test_measurement_file_roundtrip(tmp_path, spec):
    rng = np.random.default_rng(13)
    v = _haar_frame(rng, 5, 5)
    m = Measurement([Projector.rank_one(v[:, 0]),
                     Projector.from_factor(v[:, 1:3]),
                     Projector.from_factor(v[:, 3:])])
    path = tmp_path / "meas.json"
    save_measurement(m, path)
    back = load_measurement(path)
    assert back.ranks == (1, 2, 2)
    state = random_mixed(rng, spec)
    assert np.abs(back.outcome_probabilities(state)
                  - m.outcome_probabilities(state)).max() < 1e-12


def test_measurement_file_stores_factors(tmp_path):
    rng = np.random.default_rng(17)
    d = 512
    m = two_outcome(Projector.from_factor(_haar_frame(rng, d, 4)))
    path = tmp_path / "two.json"
    save_measurement(m, path)
    assert path.stat().st_size < 200_000  # a dense d x d entry is ~12 MB
    back = load_measurement(path)
    assert back.ranks == (4, d - 4)
    assert [p.is_complement for p in back.projectors] == [False, True]
    state = random_pure(rng, _random_spectrum(rng, d))
    assert np.abs(back.outcome_probabilities(state)
                  - m.outcome_probabilities(state)).max() < 1e-12


def test_measurement_file_rank_zero_outcome(tmp_path):
    zero = Projector.from_matrix(np.zeros((3, 3)))
    path = tmp_path / "trivial.json"
    save_measurement(Measurement([zero, zero.complement()]), path)
    assert load_measurement(path).ranks == (0, 3)


def test_legacy_measurement_file_loads(tmp_path, spec):
    rng = np.random.default_rng(19)
    v = _haar_frame(rng, 5, 5)
    rest = v[:, 1:] @ v[:, 1:].conj().T
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({"projectors": [{"rank_one": complex_out(v[:, 0])},
                                               complex_out(rest)]}))
    back = load_measurement(path)
    assert back.ranks == (1, 4)
    state = random_mixed(rng, spec)
    want = [Projector.rank_one(v[:, 0]).expectation(state),
            Projector.from_factor(v[:, 1:]).expectation(state)]
    assert np.abs(back.outcome_probabilities(state) - want).max() < 1e-12


def _random_spectrum(rng, d):
    return EnergySpectrum(np.cumsum(rng.uniform(0.1, 1.0, d)), np.ones(d, dtype=int))


def _degenerate_spectrum(rng, d):
    """Random levels whose degeneracies sum to d."""
    num_levels = int(rng.integers(1, d + 1))
    degs = np.ones(num_levels, dtype=int)
    np.add.at(degs, rng.integers(num_levels, size=d - num_levels), 1)
    return EnergySpectrum(np.cumsum(rng.uniform(0.1, 1.0, num_levels)), degs)


def _series_case(d, data):
    """A spectrum (degenerate or not), a projector of any rank 0..d (a
    complement or not) and a time grid, all drawn."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    degenerate = data.draw(st.booleans(), label="degenerate")
    spec = _degenerate_spectrum(rng, d) if degenerate else _random_spectrum(rng, d)
    rank = data.draw(st.integers(0, d), label="rank")
    p = Projector.from_factor(_haar_frame(rng, d, d)[:, :rank])
    if data.draw(st.booleans(), label="complement"):
        p = p.complement()
    times = np.linspace(0.0, data.draw(st.floats(0.0, 40.0), label="t_max"),
                        data.draw(st.integers(0, 40), label="times"))
    return rng, spec, p, times


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_mixed_series_matches_gap_oracle(d, data):
    rng, spec, p, times = _series_case(d, data)
    state = random_mixed(rng, spec, components=data.draw(st.integers(1, 4)))
    series = expectation_series(p, state, times)
    assert series.shape == times.shape
    assert np.abs(series - gap_series(p, state, times)).max(initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_pure_series_matches_same_state_as_rho(d, data):
    rng, spec, p, times = _series_case(d, data)
    pure = random_pure(rng, spec)
    as_rho = QuantumState.mixed(spec, np.outer(pure.amplitudes, pure.amplitudes.conj()))
    assert np.abs(expectation_series(p, pure, times)
                  - expectation_series(p, as_rho, times)).max(initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_chunked_series_matches_unchunked(d, data):
    rng, spec, p, times = _series_case(d, data)
    mixed = data.draw(st.booleans(), label="mixed")
    state = random_mixed(rng, spec) if mixed else random_pure(rng, spec)
    entries = data.draw(st.integers(1, 3 * d * max(p.factor.shape[1], 1)), label="entries")
    whole = expectation_series(p, state, times)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "SERIES_CHUNK_ENTRIES", entries)
        chunked = expectation_series(p, state, times)
    assert np.abs(chunked - whole).max(initial=0.0) <= 1e-12


def test_pure_series_memory_is_chunked():
    # d = 2048 over 8192 times: the whole d x nt phase matrix alone would
    # take 256 MB.
    scen = random_scenario(20240811, 2048)
    proj = snapshot_subspace(scen, 16, 0.5).projector()
    times = np.linspace(0.0, 50.0, 8192)
    tracemalloc.start()
    try:
        series = expectation_series(proj, scen.state, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.shape == (8192,)
    assert peak < 256 * 2 ** 20


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 9), data=st.data())
def test_complement_matches_dense_oracle(d, data):
    rank = data.draw(st.integers(1, d - 1), label="rank")
    mixed = data.draw(st.booleans(), label="mixed")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    spec = _random_spectrum(rng, d)
    state = random_mixed(rng, spec) if mixed else random_pure(rng, spec)
    omega = dephase(state)
    p = Projector.from_factor(_haar_frame(rng, d, rank))
    comp = p.complement()
    oracle = Projector.from_matrix(np.eye(d) - dense(p))
    assert comp.rank == oracle.rank == d - rank
    assert comp.expectation(state) == pytest.approx(oracle.expectation(state), abs=1e-12)
    times = np.linspace(0.0, 6.0, 11)
    assert np.abs(expectation_series(comp, state, times)
                  - expectation_series(oracle, state, times)).max() < 1e-12
    implicit = distinguishability_series(two_outcome(p), state, omega, times)
    explicit = distinguishability_series(Measurement([p, oracle]), state, omega, times)
    assert np.abs(implicit - explicit).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 9), data=st.data())
def test_residuals_reject_like_dense_oracle(d, data):
    k = data.draw(st.integers(2, d - 1), label="explicit rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    v = _haar_frame(rng, d, d)

    def blocks(*cols):
        return [Projector.from_factor(v[:, c]) for c in cols]

    def with_complement(explicit, w):
        # the implicit complement and its dense oracle
        p = Projector.from_factor(w)
        return ([*explicit, p.complement()],
                [*explicit, Projector.from_matrix(np.eye(d) - dense(p))])

    good = with_complement(blocks(slice(0, 1), slice(1, k)), v[:, :k])
    bad = {
        "overlapping": with_complement(blocks(slice(0, 1), slice(0, k - 1)), v[:, :k]),
        "rank sum": with_complement(blocks(slice(0, k)), v[:, :k - 1]),
        "not spanning": with_complement(blocks(slice(0, k)), _haar_frame(rng, d, k)),
    }
    for outcomes in good:
        assert max(Measurement(outcomes).residuals().values()) < 1e-10
    for pair in bad.values():
        for outcomes in pair:
            with pytest.raises(ValueError):
                Measurement(outcomes)


def test_two_outcome_and_partition_stay_factor_sized():
    # d = 2048 with a rank-16 snapshot projector: a dense d x d complex
    # matrix alone would take 64 MB.
    scen = random_scenario(20240811, 2048)
    sub = snapshot_subspace(scen, 16, 0.5)
    proj = sub.projector()
    assert proj.rank == 16
    tracemalloc.start()
    try:
        two_outcome(proj)
        partitioned_slow_measurement(sub, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
