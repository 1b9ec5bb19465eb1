import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qequil import measure
from qequil.averaging import TimeGrid
from qequil.cli import DEFAULTS
from qequil.constructions import (MIN_LONG_WINDOW_SIGMA_T, partitioned_slow_measurement,
                                  random_scenario, snapshot_subspace)
from qequil.measure import (Measurement, Projector, distinguishability, expectation_series,
                            load_measurement, save_measurement, two_outcome)
from qequil.spectra import EnergySpectrum
from qequil.states import complex_out, dephase, evolve

import helpers
from helpers import (dense, direct_series, distinguishability_series, gap_series,
                     mixed_state, projector_from_matrix, random_mixed, random_pure,
                     sigma_e_of, success_probability, trace_distance)


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
            projector_from_matrix(m)

    def test_rejects_non_orthonormal_factor(self):
        v = np.array([[1.0], [1.0]], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            Projector.from_factor(v)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            Projector.from_factor([[np.nan], [0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            projector_from_matrix([[np.nan, 0.0], [0.0, 1.0]])

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
        q = projector_from_matrix(v @ v.conj().T)
        assert p.rank == q.rank == 2
        state = random_mixed(rng, spec)
        assert p.expectation(state) == pytest.approx(q.expectation(state), abs=1e-12)

    def test_expectation_paths_agree(self, spec):
        rng = np.random.default_rng(1)
        v = _haar_frame(rng, 5, 3)
        p_fac = Projector.from_factor(v)
        p_mat = projector_from_matrix(v @ v.conj().T)
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
        assert set(resid) == {"idempotency", "orthogonality", "completeness"}
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
        mixed = mixed_state(spec, np.eye(5, dtype=complex) / 5.0)
        m = two_outcome(Projector.from_factor(state.amplitudes))
        assert distinguishability(m, state, mixed) == pytest.approx(1 - 1 / 5, abs=1e-12)

    def test_trivial_projectors_give_zero(self, spec):
        rng = np.random.default_rng(7)
        a, b = random_pure(rng, spec), random_mixed(rng, spec)
        zero = projector_from_matrix(np.zeros((5, 5), dtype=complex))
        full = projector_from_matrix(np.eye(5, dtype=complex))
        m = Measurement([zero, full])
        assert distinguishability(m, a, b) == pytest.approx(0.0, abs=1e-12)

    def test_complement_symmetry(self, spec):
        rng = np.random.default_rng(8)
        a, b = random_mixed(rng, spec), random_mixed(rng, spec)
        p = Projector.from_factor(_haar_frame(rng, 5, 2))
        comp = projector_from_matrix(np.eye(5) - dense(p))
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
    m = Measurement([Projector.from_factor(v[:, 0]),
                     Projector.from_factor(v[:, 1:3]),
                     Projector.from_factor(v[:, 3:])])
    path = tmp_path / "meas.json"
    save_measurement(m, path)
    back = load_measurement(path)
    assert [p.rank for p in back.projectors] == [1, 2, 2]
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
    assert [p.rank for p in back.projectors] == [4, d - 4]
    assert [p.is_complement for p in back.projectors] == [False, True]
    state = random_pure(rng, _random_spectrum(rng, d))
    assert np.abs(back.outcome_probabilities(state)
                  - m.outcome_probabilities(state)).max() < 1e-12


def test_measurement_file_rank_zero_outcome(tmp_path):
    zero = projector_from_matrix(np.zeros((3, 3)))
    path = tmp_path / "trivial.json"
    save_measurement(Measurement([zero, zero.complement()]), path)
    assert [p.rank for p in load_measurement(path).projectors] == [0, 3]


@pytest.mark.parametrize("form", ["rank_one", "matrix", "misspelled_key"])
def test_legacy_measurement_file_rejected(tmp_path, form):
    v = _haar_frame(np.random.default_rng(19), 5, 5)
    first = {
        "rank_one": {"rank_one": complex_out(v[:, 0])},
        "matrix": complex_out(v[:, :1] @ v[:, :1].conj().T),
        "misspelled_key": {"dim": 5, "factor": complex_out(v[:, :1].T),
                           "complment": False},
    }[form]
    rest = {"dim": 5, "factor": complex_out(v[:, :1].T), "complement": True}
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({"projectors": [first, rest]}))
    with pytest.raises(ValueError, match='"factor"'):
        load_measurement(path)


@pytest.mark.parametrize("dim", [7, 3, 4.0, "4", True])
def test_measurement_entry_dim_must_match_factor(tmp_path, dim):
    v = _haar_frame(np.random.default_rng(23), 4, 1)
    entry = {"dim": dim, "factor": complex_out(v.T), "complement": False}
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"projectors": [entry]}))
    with pytest.raises(ValueError, match="measurement entry 0: dim"):
        load_measurement(path)


@pytest.mark.parametrize("complement", ["no", 1, 0, None])
def test_measurement_entry_complement_must_be_boolean(tmp_path, complement):
    v = _haar_frame(np.random.default_rng(29), 4, 1)
    good = {"dim": 4, "factor": complex_out(v.T), "complement": False}
    bad = {**good, "complement": complement}
    path = tmp_path / "complement.json"
    path.write_text(json.dumps({"projectors": [good, bad]}))
    with pytest.raises(ValueError, match="measurement entry 1: complement"):
        load_measurement(path)


def _random_spectrum(rng, d):
    return EnergySpectrum(np.cumsum(rng.uniform(0.1, 1.0, d)), np.ones(d, dtype=int))


def _degenerate_spectrum(rng, d):
    """Random levels whose degeneracies sum to d."""
    num_levels = int(rng.integers(1, d + 1))
    degs = np.ones(num_levels, dtype=int)
    np.add.at(degs, rng.integers(num_levels, size=d - num_levels), 1)
    return EnergySpectrum(np.cumsum(rng.uniform(0.1, 1.0, num_levels)), degs)


def _spans(top):
    """Spans of drawn grids: 0, or wide enough that the step of a linspace
    is a normal float. A linspace of 11 times or more whose step is
    subnormal is not evenly spaced to within 4 ulp, and is rejected (see
    test_series_rejects_uneven_grids)."""
    return st.one_of(st.just(0.0), st.floats(1e-290, top))


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
    times = np.linspace(0.0, data.draw(_spans(40.0), label="t_max"),
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
    as_rho = mixed_state(spec, np.outer(pure.amplitudes, pure.amplitudes.conj()))
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


def _stack_case(d, data):
    """A state (pure or mixed), one to four projectors of any rank 0..d, each
    a complement or not, or the complement of an earlier one (a shared
    factor), the drawn time grid and a chunk budget."""
    rng, spec, p, times = _series_case(d, data)
    mixed = data.draw(st.booleans(), label="mixed")
    state = random_mixed(rng, spec, components=data.draw(st.integers(1, 4))) if mixed \
        else random_pure(rng, spec)
    stack = [p]
    for _ in range(data.draw(st.integers(0, 3), label="more")):
        if data.draw(st.booleans(), label="shared"):
            stack.append(stack[data.draw(st.integers(0, len(stack) - 1))].complement())
            continue
        rank = data.draw(st.integers(0, d), label="rank")
        q = Projector.from_factor(_haar_frame(rng, d, d)[:, :rank])
        stack.append(q.complement() if data.draw(st.booleans(), label="complement") else q)
    entries = data.draw(st.sampled_from([measure.SERIES_CHUNK_ENTRIES, 1, 2, 7, 64, 500]),
                        label="entries")
    return state, stack, times, entries


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_stacked_series_is_each_projector_series(d, data):
    state, stack, times, entries = _stack_case(d, data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "SERIES_CHUNK_ENTRIES", entries)
        stacked = expectation_series(stack, state, times)
        alone = [expectation_series(p, state, times) for p in stack]
    assert stacked.shape == (len(stack), times.size)
    for row, single in zip(stacked, alone):
        assert np.array_equal(row, single)
    if times.size >= 3:  # any two times are evenly spaced
        jittered = times + np.random.default_rng(d).uniform(-0.2, 0.2, times.size)
        with pytest.raises(ValueError, match="evenly spaced"):
            expectation_series(stack, state, jittered)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_row_group_bound_moves_no_bit(d, data):
    # Only the number of blocks per GEMM changes: each time's squares are
    # summed over the same rows in the same order.
    state, stack, times, entries = _stack_case(d, data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "SERIES_CHUNK_ENTRIES", entries)
        default = expectation_series(stack, state, times)
        for work in (1, 2 ** 40):
            mp.setattr(measure, "_GEMM_ONE_THREAD_WORK", work)
            for rows in (1, 2 ** 40):
                mp.setattr(measure, "_ROW_GROUP_ENTRIES", rows)
                assert np.array_equal(expectation_series(stack, state, times), default)


def _entry_groups(blocks, rows, width):
    """Groups of at most _ROW_GROUP_ENTRIES start-scaled entries, no lone
    row while there are more: the grouping of a block whose GEMM is
    threaded anyway."""
    step = max(measure._ROW_GROUP_ENTRIES // (rows * width), 2 if rows == 1 else 1)
    edges = [*range(0, blocks, step), blocks]
    if rows == 1 and len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


@settings(max_examples=400, deadline=None)
@given(blocks=st.integers(1, 300), rows=st.integers(1, 64),
       levels=st.integers(1, 3000), m=st.integers(1, 64))
def test_row_groups_keep_each_gemm_on_one_thread(blocks, rows, levels, m):
    groups = list(measure._row_groups(blocks, rows, levels, m))
    assert [b0 for b0, _ in groups] == [0, *(b1 for _, b1 in groups[:-1])]
    assert groups[-1][1] == blocks and all(b0 < b1 for b0, b1 in groups)
    if rows == 1 and blocks > 1:
        assert all(b1 - b0 >= 2 for b0, b1 in groups)  # no lone row
    work, limit = rows * levels * m, measure._GEMM_ONE_THREAD_WORK
    if work >= limit:
        assert groups == _entry_groups(blocks, rows, max(levels, m))
        return
    for b0, b1 in groups:
        # a one-row factor's two-block minimum (three with a lone last
        # block) is the only GEMM that may reach the limit
        assert (b1 - b0) * work < limit or (rows == 1 and b1 - b0 <= 3)
    if rows > 1:  # as few GEMMs as the limit allows
        assert all((b1 - b0 + 1) * work >= limit for b0, b1 in groups[:-1])


def _windows(grid):
    """Each window's times of a sweep, as views."""
    return np.split(grid.times, grid.offsets[1:-1])


def _assert_each_window_is_its_own_call(projectors, state, grid, together):
    """Each window's stretch of a sweep's series is bit for bit the call on
    that window's times alone."""
    assert together.shape[-1] == grid.times.size
    for a, b, times in zip(grid.offsets[:-1], grid.offsets[1:], _windows(grid)):
        alone = expectation_series(projectors, state, times)
        got = together[..., a:b]
        assert got.shape == alone.shape
        assert got.tobytes() == alone.tobytes()


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 12), data=st.data(),
       windows=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=4),
       scale=st.floats(0.0, 200.0))
def test_sweep_is_each_windows_series(d, data, windows, scale):
    # pieces of several windows share a chunk's phases and coefficient rows,
    # and each piece runs its own GEMMs: every window is bit for bit its own call
    state, stack, _, entries = _stack_case(d, data)
    grid = TimeGrid(np.array(windows), scale / max(windows))
    projectors = stack[0] if data.draw(st.booleans(), label="single") else stack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "SERIES_CHUNK_ENTRIES", entries)
        together = expectation_series(projectors, state, grid)
        _assert_each_window_is_its_own_call(projectors, state, grid, together)


@pytest.mark.parametrize("mixed", [False, True])
def test_sweep_packs_pieces_of_several_windows(mixed):
    # 4 levels and a budget of 200 entries: pieces of 144 times, and chunks
    # of at most 100 phases. The 301-time window is cut in three, and its
    # 13-time tail (m = 4) shares a chunk with the next 65-time window
    # (m = 9). A pure state and a rank-1 projector give one coefficient
    # row, the GEMV guard.
    rng = np.random.default_rng(4)
    spec = EnergySpectrum([0.0, 0.7, 1.3, 2.9], [2, 1, 2, 1])
    state = random_mixed(rng, spec) if mixed else random_pure(rng, spec)
    p = Projector.from_factor(_haar_frame(rng, 6, 1))
    empty = Projector.from_factor(np.zeros((6, 0)))
    stack = [p, p.complement(), empty, Projector.from_factor(_haar_frame(rng, 6, 3))]
    grid = TimeGrid(np.array([63.5, 299.5, 63.5]), np.pi / 4)
    assert np.diff(grid.offsets).tolist() == [65, 301, 65]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "SERIES_CHUNK_ENTRIES", 200)
        plan = [[(g, first, t.size, m) for g, first, t, m in chunk]
                for chunk in measure._plan_chunks(_windows(grid), spec.levels.size)]
        together = expectation_series(stack, state, grid)
        _assert_each_window_is_its_own_call(stack, state, grid, together)
    assert plan == [[(0, 0, 65, 9)], [(1, 0, 144, 12)], [(1, 144, 144, 12)],
                    [(1, 288, 13, 4), (2, 0, 65, 9)]]
    assert together.shape == (4, 431) and not together[2].any()


def test_series_stack_edge_cases(spec):
    state = random_pure(np.random.default_rng(8), spec)
    times = np.linspace(0.0, 3.0, 7)
    assert expectation_series([], state, times).shape == (0, 7)
    empty = Projector.from_factor(np.zeros((5, 0)))
    both = expectation_series([empty, empty.complement()], state, times)
    assert np.array_equal(both, [np.zeros(7), np.ones(7)])
    with pytest.raises(ValueError, match="mismatched dimensions"):
        expectation_series([empty, Projector.from_factor(np.eye(4)[:, :1])], state, times)


def test_distinguishability_series_is_one_stacked_call(spec, monkeypatch):
    rng = np.random.default_rng(9)
    state = random_mixed(rng, spec)
    m = Measurement([Projector.from_factor(f) for f in np.split(_haar_frame(rng, 5, 5),
                                                                [2, 3], axis=1)])
    calls = []
    kernel = measure.expectation_series
    monkeypatch.setattr(helpers, "expectation_series",
                        lambda *args: calls.append(args) or kernel(*args))
    times = np.linspace(0.0, 4.0, 9)
    got = distinguishability_series(m, state, dephase(state), times)
    assert len(calls) == 1
    want = 0.5 * sum(np.abs(kernel(p, state, times) - p.expectation(dephase(state)))
                     for p in m.projectors)
    assert np.array_equal(got, want)


def test_pure_series_memory_is_chunked():
    # d = 2048 over 8192 times: the whole d x nt phase matrix alone would
    # take 256 MB.
    scen = random_scenario(20240811, 2048)
    proj = snapshot_subspace(scen, 16, 0.5).projector()
    times = np.linspace(0.0, 50.0, 8192)
    tracemalloc.start()
    try:
        series = expectation_series(proj, scen, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.shape == (8192,)
    assert peak < 256 * 2 ** 20


def _series_peak(monkeypatch, nufft: bool):
    """The series of a rank-16 projector at d = 2048 over 8192 times, on
    the forced path, with its traced peak and the bound both paths meet:
    the block path's (levels, m) offset and (blocks, levels) start phases
    of one chunk of 91 blocks of 91 times (6 MB), plus 8 MB."""
    scen = random_scenario(20240811, 2048)
    proj = snapshot_subspace(scen, 16, 0.5).projector()
    times = np.linspace(0.0, 50.0, 8192)
    if not nufft:
        monkeypatch.setattr(measure, "_NUFFT_MIN_WORK", 2 ** 62)
    assert (measure._nufft_size(scen.spectrum.levels, times) > 0) == nufft
    tracemalloc.start()
    try:
        series = expectation_series(proj, scen, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.shape == (8192,)
    return peak, 2 * scen.spectrum.levels.size * 91 * 16 + 8 * 2 ** 20


def test_blocked_series_memory_stays_within_two_budgets(monkeypatch):
    # A GEMM group of start-scaled rows takes 1 MB (2^16 complex entries);
    # the extra 8 MB covers the coefficient rows and a group's products. A
    # group sized like the phase budget (32 MB) breaks the bound.
    peak, bound = _series_peak(monkeypatch, nufft=False)
    assert peak < bound


def test_nufft_series_memory_stays_within_the_same_bound(monkeypatch):
    # 16 rows of 16,384 oversampled cells take 4 MB, reused for every
    # group of rows, and the spreading weights 2048 x 63 entries at most.
    peak, bound = _series_peak(monkeypatch, nufft=True)
    assert peak < bound


# Each phase of either form is within about 8 eps (1 + max|E| max|t|) of
# exp(-iEt): 4 from the grid's admission check in expectation_series (4 ulp
# of max|t|, never more than 4 eps max|t|), the rest from rounding E t,
# cos/sin and the start-offset product. A coefficient row has l1 norm at
# most 1, so its amplitude moves by no more than a phase does and, as
# |amp| <= 1, its |amp|^2 by twice that; two forms make 32 for one row. The
# rows' |amp|^2 sum to tr(P rho_t) <= 1, so more rows share the error rather
# than add it: over 3,000 random cases with up to 48 rows the largest ratio
# was 3.3.
SERIES_ACCURACY = 32


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_blocked_series_matches_direct_form(d, data):
    rng, spec, p, _ = _series_case(d, data)
    mixed = data.draw(st.booleans(), label="mixed")
    state = random_mixed(rng, spec, components=data.draw(st.integers(1, 4))) if mixed \
        else random_pure(rng, spec)
    n = data.draw(st.integers(0, 90), label="times")
    t0 = data.draw(st.floats(-200.0, 200.0), label="t0")
    span = data.draw(_spans(3000.0), label="span")
    times = np.linspace(t0, t0 + span, n)
    if n >= 3 and data.draw(st.booleans(), label="jittered"):
        jittered = times + rng.uniform(-0.3, 0.3, n) * (span + 1.0) / n
        with pytest.raises(ValueError, match="evenly spaced"):
            expectation_series(p, state, jittered)
    entries = data.draw(st.sampled_from([measure.SERIES_CHUNK_ENTRIES, 1, 7, 64, 500]),
                        label="entries")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "SERIES_CHUNK_ENTRIES", entries)
        series = expectation_series(p, state, times)
    scale = np.finfo(float).eps * (1.0 + np.abs(spec.levels).max()
                                   * np.abs(times).max(initial=0.0))
    assert series.shape == times.shape
    assert np.abs(series - direct_series(p, state, times)).max(initial=0.0) \
        <= SERIES_ACCURACY * scale


# 47 blocks of 47 evenly spaced times from arbitrary increasing starts
BLOCK_PERIODIC = (np.cumsum(np.random.default_rng(5).uniform(1.0, 2.0, 47))[:, None]
                  + np.linspace(0.0, 0.9, 47)).ravel()


@pytest.mark.parametrize("times, m", [
    (np.linspace(0.0, 7.0, 1), 1),
    (np.linspace(0.0, 7.0, 2), 2),
    (np.linspace(0.0, 7.0, 10), 4),
    (np.linspace(-3.0, 5e3, 2179), 47),
    (np.linspace(0.0, 0.0, 12), 4),
    (TimeGrid(123.4, 7.5).times, 35),
    (np.linspace(0.0, 5e-324, 9), 3),
    (np.linspace(0.0, 1e-310, 9), 3),
])
def test_even_grids_take_blocks_of_ceil_sqrt_n(times, m):
    assert measure._evenly_spaced(times)
    [[(_, _, piece, got)]] = measure._plan_chunks([times], 4)
    assert piece.size == times.size and got == m


@settings(max_examples=300, deadline=None)
@given(t0=st.floats(-1e12, 1e12), span=_spans(1e12), n=st.integers(0, 5000))
def test_linspace_grids_are_evenly_spaced(t0, span, n):
    assert measure._evenly_spaced(np.linspace(t0, t0 + span, n))


@pytest.mark.parametrize("times", [
    np.array([0.0, 1.0, 2.5, 3.0, 4.5]),
    BLOCK_PERIODIC,
    # a few ulps off at one time
    np.linspace(0.0, 1.0, 9) + 16 * np.spacing(1.0) * (np.arange(9) == 4),
    TimeGrid(123.4, 7.5).times + 16 * np.spacing(123.4) * (np.arange(1181) == 700),
    # a subnormal step: the last time is off by more than 4 ulp
    np.linspace(0.0, 1e-310, 40),
])
def test_series_rejects_uneven_grids(spec, times):
    assert not measure._evenly_spaced(times)
    p = Projector.from_factor(_haar_frame(np.random.default_rng(6), 5, 2))
    state = random_pure(np.random.default_rng(6), spec)
    with pytest.raises(ValueError, match="evenly spaced"):
        expectation_series(p, state, times)
    with pytest.raises(ValueError, match="evenly spaced"):
        expectation_series([p, p.complement()], state, times)


def test_uneven_grid_is_rejected_before_anything_of_its_size():
    # 80k jittered times at d = 256: one n x levels complex array of start
    # phases would take 312 MiB
    scen = random_scenario(7, 256)
    p = Projector.from_factor(_haar_frame(np.random.default_rng(7), 256, 4))
    times = np.linspace(0.0, 400.0, 80_000)
    times += np.random.default_rng(7).uniform(-1e-3, 1e-3, times.size)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="evenly spaced"):
            expectation_series(p, scen, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _force_path(mp, nufft: bool):
    """Patch the NUFFT crossover so that every grid the NUFFT can take
    takes it, or so that every grid takes the block path."""
    mp.setattr(measure, "_NUFFT_MIN_LEVELS", 0)
    mp.setattr(measure, "_NUFFT_MIN_WORK", 0 if nufft else 2 ** 62)


def _nufft_case(data):
    """256 to 2048 levels, degenerate or not; a pure or mixed state; a
    projector of rank 1 to 4, a complement or not; and a uniform grid of 3
    to 4000 times from a negative, zero or positive start, its step from
    1e-3 to 30 times 2 pi / span (an under-sampled grid wraps round the
    oversampled circle)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    levels = data.draw(st.integers(256, 2048), label="levels")
    degs = np.ones(levels, dtype=int)
    if data.draw(st.booleans(), label="degenerate"):
        np.add.at(degs, rng.integers(levels, size=levels // 2), 1)
    spec = EnergySpectrum(np.cumsum(rng.uniform(0.1, 1.0, levels))
                          - data.draw(st.floats(0.0, 500.0), label="shift"), degs)
    state = random_mixed(rng, spec, components=2) if data.draw(st.booleans(), label="mixed") \
        else random_pure(rng, spec)
    p = Projector.from_factor(_haar_frame(rng, spec.dim, data.draw(st.integers(1, 4))))
    if data.draw(st.booleans(), label="complement"):
        p = p.complement()
    n = data.draw(st.one_of(st.integers(3, 40), st.integers(41, 4000)), label="times")
    t0 = data.draw(st.sampled_from([-1.0, 0.0, 1.0])) * data.draw(st.floats(0.0, 100.0))
    step = 10.0 ** data.draw(st.floats(-3.0, np.log10(30.0)), label="log step")
    times = t0 + np.arange(n) * (step * 2.0 * np.pi / spec.span)
    return rng, spec, state, p, times


# The NUFFT path's bound against the direct form is the block path's,
# SERIES_ACCURACY * eps (1 + max|E| max|t|) for the phase rounding both
# share, plus this floor for its kernel: the Gaussian's truncation at 14
# cells, and the deconvolution, which scales the FFT's rounding at the
# outermost modes up by e^{n^2 tau / 4} (about 40). Over 3,000 random cases
# of _nufft_case the largest error was 0.016 of the bound (5.6e-13 where
# E t is large); without the floor it reached 0.37 of the block bound,
# on grids whose E t is below 1e-2.
NUFFT_FLOOR = 1e-13


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_nufft_series_matches_block_path_and_direct_form(data):
    rng, spec, state, p, times = _nufft_case(data)
    with pytest.MonkeyPatch.context() as mp:
        _force_path(mp, nufft=True)
        size = measure._nufft_size(spec.levels, times)
        fast = expectation_series(p, state, times)
        _force_path(mp, nufft=False)
        block = expectation_series(p, state, times)
    if not size:  # 30 times or fewer: too few cells for one spreading block
        assert times.size <= 30 and fast.tobytes() == block.tobytes()
        return
    scale = np.finfo(float).eps * (1.0 + np.abs(spec.levels).max() * np.abs(times).max())
    assert np.abs(fast - block).max() <= 2 * SERIES_ACCURACY * scale + NUFFT_FLOOR
    some = rng.choice(times.size, size=min(times.size, 48), replace=False)
    assert np.abs(fast[some] - direct_series(p, state, times[some])).max() \
        <= SERIES_ACCURACY * scale + NUFFT_FLOOR


def _slow_grids():
    """The slow experiment's scenario at its defaults and its two grids: the
    window samples and the long-time averaging grid, whose window is its
    minimum at these sizes."""
    cfg = DEFAULTS["slow"]
    scen = random_scenario(cfg["seed"], cfg["dim"])
    sigma = sigma_e_of(scen)
    t_end = (2 * cfg["snapshots"] - 1) * cfg["epsilon"] / sigma
    return scen, [np.linspace(0.0, t_end, cfg["samples"]),
                  TimeGrid(MIN_LONG_WINDOW_SIGMA_T / sigma, scen.spectrum.span).times]


def test_slow_grids_take_the_nufft():
    scen, grids = _slow_grids()
    assert [(scen.spectrum.levels.size, t.size) for t in grids] == [(2048, 256), (2048, 2179)]
    for times in grids:
        assert measure._nufft_size(scen.spectrum.levels, times) > 0
    # jittered, the long grid is no grid at all; decreasing, it takes the
    # block path
    jittered = grids[1] + np.random.default_rng(3).uniform(-1e-9, 1e-9, grids[1].size)
    assert not measure._evenly_spaced(jittered)
    assert measure._nufft_size(scen.spectrum.levels, grids[1][::-1]) == 0


def _spread_levels(count):
    return np.sort(np.random.default_rng(count).uniform(0.0, 40.0, count))


@pytest.mark.parametrize("levels, times, nufft", [
    # bounds' largest grid over the default and panel seeds, and figure3's
    (_spread_levels(60), TimeGrid(40.0, 40.0).times[:525], False),
    (_spread_levels(50), np.linspace(0.0, 100.0, 2049), False),
    # too few levels, or too few levels x times
    (_spread_levels(511), np.linspace(0.0, 100.0, 4097), False),
    (_spread_levels(2048), np.linspace(0.0, 10.0, 63), False),
    (_spread_levels(2048), np.linspace(0.0, 10.0, 64), True),
    (_spread_levels(512), np.linspace(0.0, 10.0, 256), True),
    # decreasing
    (_spread_levels(2048), np.linspace(10.0, 0.0, 1024), False),
    # levels 2^52 cells apart or more: their cells' fractions are lost
    (_spread_levels(2048), np.linspace(0.0, 1e18, 1024), False),
    (_spread_levels(2048), np.linspace(0.0, 1e9, 1024), True),
    # one row's oversampled grid within half the entry budget, 2 * 10^6
    # cells (itself a size the FFT takes), or beyond it
    (_spread_levels(512), np.linspace(0.0, 1.0, 10 ** 6), True),
    (_spread_levels(512), np.linspace(0.0, 1.0, 10 ** 6 + 1), False),
])
def test_nufft_takes_only_large_uniform_grids(levels, times, nufft):
    assert (measure._nufft_size(levels, times) > 0) == nufft


def test_undersampled_grid_wraps_and_meets_the_bound():
    # 1024 levels over 40 units, stepped 5 times past 2 pi / span: the
    # spread levels go five times round the oversampled circle
    rng = np.random.default_rng(11)
    spec = EnergySpectrum(_spread_levels(1024), np.ones(1024, dtype=int))
    state = random_mixed(rng, spec)
    p = Projector.from_factor(_haar_frame(rng, 1024, 3))
    times = np.arange(600) * (5.0 * 2.0 * np.pi / spec.span)
    assert measure._nufft_size(spec.levels, times) > 0
    fast = expectation_series(p, state, times)
    with pytest.MonkeyPatch.context() as mp:
        _force_path(mp, nufft=False)
        block = expectation_series(p, state, times)
    scale = np.finfo(float).eps * (1.0 + np.abs(spec.levels).max() * np.abs(times).max())
    assert np.abs(fast - block).max() <= 2 * SERIES_ACCURACY * scale + NUFFT_FLOOR
    assert np.abs(fast[::25] - direct_series(p, state, times[::25])).max() \
        <= SERIES_ACCURACY * scale + NUFFT_FLOOR


@pytest.mark.parametrize("mixed", [False, True])
def test_sweep_packs_nufft_windows_with_block_windows(mixed):
    # 600 levels: the 301- and 677-time windows take the NUFFT and share
    # its work buffer; the 65- and 77-time windows take the block path,
    # packed in one chunk. Every window is bit for bit its own call.
    rng = np.random.default_rng(12)
    spec = EnergySpectrum(_spread_levels(600), rng.integers(1, 3, 600))
    state = random_mixed(rng, spec) if mixed else random_pure(rng, spec)
    p = Projector.from_factor(_haar_frame(rng, spec.dim, 2))
    stack = [p, p.complement(), Projector.from_factor(_haar_frame(rng, spec.dim, 5))]
    grid = TimeGrid(np.array([3.0, 20.0, 5.0, 45.0, 2.5]), 15.0 * np.pi / 4)
    assert np.diff(grid.offsets).tolist() == [65, 301, 77, 677, 65]
    assert [measure._nufft_size(spec.levels, t) > 0 for t in _windows(grid)] \
        == [False, True, False, True, False]
    for projectors in (stack, p):
        together = expectation_series(projectors, state, grid)
        _assert_each_window_is_its_own_call(projectors, state, grid, together)
    assert expectation_series(stack, state, grid)[0].tobytes() == together.tobytes()


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("mixed", [False, True])
def test_series_edge_cases(spec, complement, mixed):
    rng = np.random.default_rng(5)
    state = random_mixed(rng, spec) if mixed else random_pure(rng, spec)
    empty = Projector.from_factor(np.zeros((5, 0)))
    p = Projector.from_factor(_haar_frame(rng, 5, 2))
    if complement:
        empty, p = empty.complement(), p.complement()
    rank0 = expectation_series(empty, state, np.linspace(0.0, 3.0, 7))
    assert np.array_equal(rank0, np.full(7, 1.0 if complement else 0.0))
    assert expectation_series(p, state, []).shape == (0,)
    one = expectation_series(p, state, [2.5])
    assert one.shape == (1,)
    assert one[0] == pytest.approx(p.expectation(evolve(state, 2.5)), abs=1e-14)
    still = expectation_series(p, state, np.linspace(0.0, 0.0, 9))
    assert np.abs(still - p.expectation(state)).max() <= 1e-14


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.inf], [0.0, -np.inf],
                                   [[0.0, 1.0]]])
def test_series_rejects_non_finite_or_nested_times(spec, times):
    p = Projector.from_factor(_haar_frame(np.random.default_rng(6), 5, 2))
    state = random_pure(np.random.default_rng(6), spec)
    with pytest.raises(ValueError, match="times must be a 1-d array of finite, evenly spaced"):
        expectation_series(p, state, times)


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
    oracle = projector_from_matrix(np.eye(d) - dense(p))
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
                [*explicit, projector_from_matrix(np.eye(d) - dense(p))])

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
