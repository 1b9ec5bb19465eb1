import re
import sys
import tracemalloc

import numpy as np
import pytest

from qequil import averaging, batteries, cli, measure, spectra
from qequil.batteries import (gap_counting_battery, haar_battery,
                              fast_equilibration_battery)
from qequil.constructions import random_scenario, slow_window_check, snapshot_subspace

from helpers import (per_window_fast_equilibration_battery, per_window_gap_counting_battery,
                     rows, scalar_kind)

SEED = 20240811
# Eight trials at each of these seeds draw pure and mixed states on
# nondegenerate, degenerate and random-matrix spectra (every combination).
ORACLE_SEEDS = (2, 24, 33)
ORACLE_TRIALS = 8
BOUNDS = cli.DEFAULTS["bounds"]
SLOW = cli.DEFAULTS["slow"]


def fast_battery(seed, trials, t_points=BOUNDS["t_points"], run=fast_equilibration_battery):
    """The battery, or its per-window oracle, at the CLI's rank."""
    return run(seed, trials, t_points, BOUNDS["max_rank"])


def test_trial_generator_covers_flavors():
    battery = fast_battery(SEED, 24, 2)
    fast = rows(battery["fast_equilibration"])
    labels = {r["label"].split("-")[0] for r in fast}
    assert "random" in labels   # ladder spectra
    assert "trial" in labels    # dense-matrix spectra or rebuilt states
    degenerate = {r["d"] != r["levels"] for r in fast}
    assert True in degenerate   # degenerate levels occur
    assert all(table["holds"].all() for table in battery.values())


def test_purity_chain_rows_share_one_set_of_columns():
    # the sigma-matched cap used to be named after its width, which changes
    # with every window, so the CSV header kept it for the first row only
    chain = fast_battery(SEED, 2, 3)["purity_chain"]
    assert batteries.table_length(chain) == 6
    caps = [k for k in chain if k.startswith("bound_delta_")]
    assert caps == [*(f"bound_delta_{d:g}" for d in batteries.PURITY_CHAIN_DELTAS),
                    "bound_delta_matched"]


def test_fast_equilibration_battery_deterministic():
    a = fast_battery(3, 3, 3)
    b = fast_battery(3, 3, 3)
    assert list(a) == list(b) == ["fast_equilibration", "purity_chain"]
    assert all(rows(a[name]) == rows(b[name]) for name in a)


def test_oracle_seeds_cover_every_trial_kind():
    kinds, labels = set(), set()
    for seed in ORACLE_SEEDS:
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            state, label = batteries._random_trial_scenario(rng)
            spec = state.spectrum
            # ladder spectra start at 0; random-matrix ones do not
            flavor = ("random-matrix" if spec.levels[0] != 0.0
                      else "nondegenerate" if spec.is_nondegenerate() else "degenerate")
            kinds.add((state.is_pure, flavor))
            # random-{seed}-d{d} for a state as random_scenario built it, a
            # pure one on a ladder; trial-{seed} for any other
            assert re.fullmatch(rf"random-\d+-d{state.dim}|trial-\d+", label)
            assert label.startswith("trial") or (state.is_pure and flavor != "random-matrix")
            labels.add(label.partition("-")[0])
    assert kinds == {(pure, flavor) for pure in (True, False)
                     for flavor in ("nondegenerate", "degenerate", "random-matrix")}
    assert labels == {"random", "trial"}


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_battery_matches_per_window_oracle(seed):
    # the battery evaluates a trial's windows together; every value, and the
    # kind of scalar it is written as, must be what the window-by-window
    # scalar calls give, to the byte it is written with. The matrix path of
    # the purity is the one exception: its per-index phases round apart from
    # the entrywise phase average.
    tables = fast_battery(seed, ORACLE_TRIALS)
    oracle = fast_battery(seed, ORACLE_TRIALS, run=per_window_fast_equilibration_battery)
    assert len(oracle) == 2 * 12 * ORACLE_TRIALS
    for name, table in tables.items():
        got_rows = rows(table)
        want_rows = [r for r in oracle if r["battery"] == name]
        assert len(got_rows) == len(want_rows) == 12 * ORACLE_TRIALS
        loose = {"purity_matrix", "agreement"} if name == "purity_chain" else set()
        for got, want in zip(got_rows, want_rows):
            assert list(got) == list(want)
            assert ({k: (scalar_kind(v), cli._fmt(v)) for k, v in got.items()
                     if k not in loose}
                    == {k: (scalar_kind(v), cli._fmt(v)) for k, v in want.items()
                        if k not in loose})
            for k in loose:
                assert abs(got[k] - want[k]) <= 1e-15


@pytest.mark.parametrize("seed", ORACLE_SEEDS[:2])
@pytest.mark.parametrize("dim", [24, 40])
def test_gap_counting_battery_matches_per_window_oracle(seed, dim):
    # the battery takes every window's series from one call and N(eps) and
    # d_eff once per width; each row must be what the window-by-window calls
    # give, to the byte it is written with
    got_rows = rows(gap_counting_battery(seed, dim=dim))
    oracle = per_window_gap_counting_battery(seed, dim=dim)
    assert len(got_rows) == len(oracle) == 36
    for got, want in zip(got_rows, oracle):
        assert list(got) == list(want)
        assert ({k: (scalar_kind(v), cli._fmt(v)) for k, v in got.items()}
                == {k: (scalar_kind(v), cli._fmt(v)) for k, v in want.items()})


def test_empty_battery_is_rejected():
    # no windows, trials, scenarios or samples would leave a battery with no
    # rows, which reads as a pass; a one-level spectrum has no gaps to count
    state = random_scenario(SEED, 16)
    sub = snapshot_subspace(state, 3, 0.5)
    for call, name, least in (
            (lambda: fast_battery(SEED, 2, 0), "t_points", 1),
            (lambda: fast_battery(SEED, 0), "trials", 1),
            (lambda: haar_battery(SEED, scenarios=0, samples=300), "scenarios", 1),
            (lambda: gap_counting_battery(SEED, dim=1), "dim", 2),
            (lambda: slow_window_check(sub, state, 3, num_samples=0), "num_samples", 1)):
        with pytest.raises(ValueError, match=f"{name} must be at least {least}"):
            call()


def test_bounds_run_scans_windows_under_the_traced_names(monkeypatch):
    """perfbench's traced bounds-battery run requires spectra.window_scans > 0,
    and that counter counts only calls of spectra.max_window_probability and
    spectra.max_window_probability_window; a scan under any other name would
    zero it and fail the benchmark gate."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("qequil")]
    for fname in ("max_window_probability", "max_window_probability_window"):
        original = getattr(spectra, fname)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counted)
    config = {**cli.DEFAULTS["bounds"], "trials": 2, "t_points": 3,
              "gap_counting_dim": 24}
    batteries.run_bounds(config)
    assert len(calls) >= 1


def _count_sweep_work(monkeypatch) -> dict:
    """Count TimeGrid builds, expectation_series calls and window scans
    (every max_window_probability call goes through
    spectra.max_window_probability_window)."""
    counts = {"grids": 0, "series": 0, "scans": 0}

    def counted(key, original):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(averaging.TimeGrid, "__init__",
                        counted("grids", averaging.TimeGrid.__init__))
    series = counted("series", measure.expectation_series)
    monkeypatch.setattr(measure, "expectation_series", series)
    monkeypatch.setattr(batteries, "expectation_series", series)
    scan = counted("scans", spectra.max_window_probability_window)
    monkeypatch.setattr(spectra, "max_window_probability_window", scan)
    monkeypatch.setattr(batteries, "max_window_probability_window", scan)
    return counts


@pytest.mark.parametrize("trials", [1, 3])
def test_each_bounds_trial_is_one_sweep(monkeypatch, trials):
    # per-window grids, series calls or scans must not creep back
    counts = _count_sweep_work(monkeypatch)
    tables = fast_battery(SEED, trials)
    assert sum(map(batteries.table_length, tables.values())) == 2 * BOUNDS["t_points"] * trials
    assert counts == {"grids": trials, "series": trials, "scans": trials}


def test_gap_counting_battery_is_one_sweep(monkeypatch):
    counts = _count_sweep_work(monkeypatch)
    assert batteries.table_length(gap_counting_battery(SEED, dim=24)) == 36
    assert counts == {"grids": 1, "series": 1, "scans": 0}


def test_haar_battery_rows_and_determinism():
    a = rows(haar_battery(5, scenarios=4, samples=120))
    b = rows(haar_battery(5, scenarios=4, samples=120))
    assert a == b
    assert len(a) == 4 * 4  # four checks per scenario
    assert all(r["holds"] for r in a)


def test_constrained_n_outcome_rows_measure_every_outcome():
    # a partition of the initial state's complement into N - 1 parts once
    # gave the N = 2 rows a single outcome, the identity: 10 of these 50
    # rows read 0 with a standard error of 0
    constrained = [r for r in rows(haar_battery(SEED, scenarios=50, samples=300))
                   if r["name"] == "constrained_n_outcome"]
    assert len(constrained) == 50
    assert all(r["mc_stderr"] > 0 for r in constrained)


def test_appendix_battery_reports_vacuous_flag():
    table = gap_counting_battery(SEED, dim=24)
    assert "informative" in table
    assert table["holds"].all()


SLOW_BATTERY_SAMPLES = 128


def slow_battery(seed: int, scenarios: int = 20) -> list:
    """Snapshot-subspace floor/ceiling checks plus N-outcome refinement
    dominance across a range of dimensions and snapshot counts."""
    rows = []
    dims = (256, 512, 1024, 2048)
    counts = (4, 8, 16, 32)
    eps_choices = (0.25, 0.5)
    for idx in range(scenarios):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x510, idx]))
        d = int(dims[idx % len(dims)])
        k = int(counts[int(rng.integers(len(counts)))])
        # keep the guaranteed floor strictly positive and meaningful
        while np.sqrt(k / (d / 2.2)) > 0.5:
            k //= 2
        eps = float(eps_choices[int(rng.integers(2))])
        state = random_scenario(int(rng.integers(2 ** 62)), d)
        sub = snapshot_subspace(state, k, eps)
        rep = slow_window_check(sub, state, 3, num_samples=SLOW_BATTERY_SAMPLES)
        rows.append({"scenario": idx, "d": d, "K": k, "eps": eps,
                     "floor": rep.floor, "min_value": rep.worst_value,
                     "ceiling": rep.ceiling,
                     "holds": all(record["holds"] for _, record in rep.checks)})
    return rows


def test_slow_battery_full_sweep():
    # floor and ceiling hold simultaneously across dimensions, snapshot
    # counts, and window parameters
    rows = slow_battery(SEED, scenarios=20)
    assert len(rows) == 20
    dims = {r["d"] for r in rows}
    assert dims == {256, 512, 1024, 2048}
    assert {r["eps"] for r in rows} <= {0.25, 0.5}
    violations = [r for r in rows if not r["holds"]]
    assert not violations, violations[:2]


def test_figure3_checks_fail_on_nan(monkeypatch):
    # a NaN series passes every `x > limit` test; each check must name it
    def nan_series(state, times):
        return np.full(times.size, np.nan)

    monkeypatch.setattr(batteries, "_initial_projector_series", nan_series)
    result = batteries.run_figure3(cli.DEFAULTS["figure3"])
    assert [f["check"] for f in result.failures] == [
        "initial_distinguishability", "revival", "average_at_revival"]
    assert all(f["holds"] is False for f in result.failures)


def test_gaussian_asymptote_check_fails_on_nan(monkeypatch):
    monkeypatch.setattr(batteries.bounds_mod, "gaussian_purity_exact",
                        lambda sigma, window: np.nan)
    config = {**cli.DEFAULTS["gaussian"], "sigma_t_grid": [2.0, 10.0]}
    result = batteries.run_gaussian(config)
    # the asymptote is checked only from sigma_T = 5 up
    assert [name for name, _ in result.checks] == [
        "eta_estimate", "eta_estimate", "purity_asymptote"]
    [failure] = result.failures
    assert set(failure) == {"check", "sigma_T", "exact", "asymptote", "holds"}
    assert (failure["check"], failure["sigma_T"], failure["holds"]) == (
        "purity_asymptote", 10.0, False)
    assert np.isnan(failure["exact"])


def test_bounds_result_holds_columns_not_rows():
    """run_bounds holds at most 200 bytes per row of its result at 20 and 80
    trials (111-135 measured; 747-753 when each row was a dict), and its traced
    peak grows no faster than its rows."""
    batteries.run_bounds({**BOUNDS, "trials": 1})  # lazy set-up, untraced
    held, peaks, sizes = [], [], []
    for trials in (20, 80):
        tracemalloc.start()
        try:
            result = batteries.run_bounds({**BOUNDS, "trials": trials})
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.failures == []
        sizes.append(len(result.checks))
        held.append(current)
        peaks.append(peak)
    assert sizes == [2 * trials * BOUNDS["t_points"] + 36 for trials in (20, 80)]
    assert all(h <= 200 * n for h, n in zip(held, sizes)), held
    assert peaks[1] * sizes[0] <= peaks[0] * sizes[1], peaks


def test_checks_list_records_then_table_rows():
    # a table row's record is its row, with Python scalars; failures come
    # from the holds columns, records first, then each table in turn
    table = {"T": np.array([0.5, 1.5, 2.5]), "K": np.array([1, 2, 3]),
             "label": ["a", "b", "c"], "holds": np.array([True, False, False])}
    checks = batteries.Checks([("single", {"value": 1.0, "holds": False})],
                              [("first", table), ("second", {"holds": np.array([False])})])
    assert len(checks) == 5
    listed = list(checks)
    assert [name for name, _ in listed] == ["single", "first", "first", "first", "second"]
    assert listed[2] == ("first", {"T": 1.5, "K": 2, "label": "b", "holds": False})
    assert [type(v) for v in listed[2][1].values()] == [float, int, str, bool]
    assert checks.failures() == [
        {"check": "single", "value": 1.0, "holds": False},
        {"check": "first", "T": 1.5, "K": 2, "label": "b", "holds": False},
        {"check": "first", "T": 2.5, "K": 3, "label": "c", "holds": False},
        {"check": "second", "holds": False}]
    assert batteries.ExperimentResult({}, {}, checks).failures == checks.failures()
    assert checks.violations() == 4
    assert batteries.Checks([("ok", {"holds": np.True_})]).violations() == 0
