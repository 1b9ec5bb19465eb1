import json
import re
import tracemalloc

import numpy as np
import pytest

from qequil import batteries, cli
from qequil.cli import DEFAULTS, _write_rows_csv, main
from qequil.constructions import random_scenario
from qequil.spectra import EnergySpectrum
from qequil.states import save_state

from helpers import (per_point_gaussian_checks, per_window_fast_equilibration_battery,
                     per_window_gap_counting_battery, write_rows_csv_oracle)


def _run(argv):
    return main(argv)


def test_figure3_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert _run(["figure3", "--out", str(out1)]) == 0
    assert _run(["figure3", "--out", str(out2)]) == 0
    csv1 = (out1 / "figure3.csv").read_bytes()
    csv2 = (out2 / "figure3.csv").read_bytes()
    assert csv1 == csv2
    assert csv1.splitlines()[0].startswith(b"# config=")
    summary = json.loads((out1 / "figure3_summary.json").read_text())
    assert summary["initial_distinguishability"] == pytest.approx(0.98, abs=1e-9)
    assert summary["revival_gap"] <= 1e-9
    assert (out1 / "figure3_random_phase.csv").exists()


def test_bounds_small_battery(tmp_path):
    out = tmp_path / "bounds"
    code = _run(["bounds", "--out", str(out),
                 "--set", "trials=6", "--set", "t_points=5"])
    assert code == 0
    verdict = json.loads((out / "bounds_summary.json").read_text())
    assert verdict["violations"] == 0
    assert (out / "fast_equilibration_trials.csv").exists()
    assert (out / "purity_chain_trials.csv").exists()
    assert (out / "gap_counting_trials.csv").exists()


def test_slow_scaled_down(tmp_path):
    out = tmp_path / "slow"
    code = _run(["slow", "--out", str(out),
                 "--set", "dim=256", "--set", "snapshots=6", "--set", "samples=64"])
    assert code == 0
    summary = json.loads((out / "slow_summary.json").read_text())
    assert summary["min_window_value"] >= summary["floor"]
    assert summary["floor"] > 0 and summary["floor_informative"] is True
    header = (out / "slow.csv").read_text().splitlines()[1]
    assert header == "t,D,running_avg,bound"


def test_slow_summary_says_when_the_floor_is_vacuous(tmp_path):
    # at epsilon = 3 the guaranteed floor 1 - eps^2 - sqrt(K / d_eff) is
    # about -8.3: window_floor holds, but says nothing
    out = tmp_path / "slow"
    assert _run(["slow", "--out", str(out), "--set", "epsilon=3",
                 "--set", "dim=256"]) == 0
    summary = json.loads((out / "slow_summary.json").read_text())
    assert summary["floor"] < 0 and summary["min_window_value"] >= summary["floor"]
    assert summary["floor_informative"] is False


def test_slow_long_window_grows_with_the_dimension(tmp_path):
    # at d=131072 a fixed long window of 500 / sigma_E leaves the average at
    # 0.044, above the ceiling 0.031: the slow stretch alone adds 15.5 / 500
    out = tmp_path / "slow"
    assert _run(["slow", "--out", str(out), "--set", "dim=131072"]) == 0
    summary = json.loads((out / "slow_summary.json").read_text())
    assert summary["dim"] == 131072
    assert summary["long_time_average"] <= summary["ceiling"]


def test_gaussian_run_and_failure_exit(tmp_path, monkeypatch):
    out = tmp_path / "gauss"
    assert _run(["gaussian", "--out", str(out)]) == 0
    rows = (out / "gaussian.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "sigma_T"
    summary = json.loads((out / "gaussian_summary.json").read_text())
    assert summary["max_eta_sigma_T"] <= 0.42

    # force a failure: impossible limit coefficient
    monkeypatch.setattr(batteries, "GAUSSIAN_ETA_LIMIT", 0.01)
    bad = tmp_path / "gauss_bad"
    code = _run(["gaussian", "--out", str(bad), "--set", "levels=400"])
    assert code == 1
    failures = json.loads((bad / "failures.json").read_text())
    assert failures["failures"]
    assert failures["experiment"] == "gaussian"


def test_haar_quick(tmp_path):
    out = tmp_path / "haar"
    code = _run(["haar", "--out", str(out), "--set", "samples=400",
                 "--set", "battery_scenarios=6", "--set", "battery_samples=150",
                 "--set", "twirl_samples=2000"])
    assert code == 0
    reports = json.loads((out / "haar_reports.json").read_text())
    mean_sq = reports["reports"]["mean_sq_d8_k3"]
    assert mean_sq["holds"]
    # a Monte Carlo report: the estimate, its reference and where it came from
    assert set(mean_sq) == {"exact", "mc_mean", "mc_stderr", "samples", "seed", "holds"}
    assert (mean_sq["samples"], mean_sq["seed"]) == (400, DEFAULTS["haar"]["seed"] + 2)
    assert (out / "haar_battery.csv").exists()


@pytest.mark.parametrize("experiment,key,value,name", [
    ("bounds", "trials", -3, "trials"), ("bounds", "t_points", 0, "t_points"),
    ("haar", "battery_scenarios", 0, "battery_scenarios"),
    ("haar", "samples", 1, "samples"), ("haar", "battery_samples", 1, "battery_samples"),
    ("haar", "twirl_samples", 1, "twirl_samples"), ("slow", "samples", 0, "samples"),
    ("figure3", "samples", 0, "samples"), ("bounds", "max_rank", 0, "max_rank"),
    ("bounds", "gap_counting_dim", 1, "gap_counting_dim")])
def test_empty_battery_stops(tmp_path, experiment, key, value, name):
    # a battery without trials, grid points or scenarios checks nothing, a
    # Monte Carlo estimate needs two samples and a gap-counting projector of
    # half the dimension needs two dimensions; the message names the config key,
    # and no output directory is made
    least = 2 if key == "gap_counting_dim" or (experiment == "haar"
                                               and key.endswith("samples")) else 1
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{experiment}: {name} must be at least "
                                         f"{least}, got {value}$"):
        _run([experiment, "--out", str(out), "--set", f"{key}={value}"])
    assert not out.exists()


@pytest.mark.parametrize("grid", ["[]", "[0]", "[2.0,-1.0]", '["a"]'])
def test_sigma_t_grid_needs_positive_entries(tmp_path, grid):
    with pytest.raises(SystemExit, match=r"^gaussian: sigma_t_grid must be a non-empty "
                                         r"list of positive finite numbers, got "):
        _run(["gaussian", "--out", str(tmp_path), "--set", f"sigma_t_grid={grid}"])


def test_seed_flag_changes_trials_not_verdict(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert _run(["bounds", "--out", str(out1), "--seed", "1",
                 "--set", "trials=4", "--set", "t_points=4"]) == 0
    assert _run(["bounds", "--out", str(out2), "--seed", "2",
                 "--set", "trials=4", "--set", "t_points=4"]) == 0
    rows1 = (out1 / "fast_equilibration_trials.csv").read_text()
    rows2 = (out2 / "fast_equilibration_trials.csv").read_text()
    assert rows1 != rows2
    for out in (out1, out2):
        verdict = json.loads((out / "bounds_summary.json").read_text())
        assert verdict["violations"] == 0


def test_eta_and_spectrum_info(tmp_path):
    scen = random_scenario(77, 10)
    spec_path = tmp_path / "spec.json"
    state_path = tmp_path / "state.json"
    scen.spectrum.save(spec_path)
    save_state(scen, state_path, spec_path)

    out = tmp_path / "eta"
    code = _run(["eta", "--out", str(out),
                 "--set", f'spectrum="{spec_path}"',
                 "--set", f'state="{state_path}"',
                 "--set", "epsilon=2.0"])
    assert code == 0
    summary = json.loads((out / "eta_summary.json").read_text())
    assert 0.0 < summary["eta"] <= 1.0
    assert summary["window"][1] - summary["window"][0] == pytest.approx(2.0)

    out2 = tmp_path / "info"
    code = _run(["spectrum-info", "--out", str(out2),
                 "--set", f'spectrum="{spec_path}"', "--set", "epsilon=0.5"])
    assert code == 0
    info = json.loads((out2 / "spectrum-info_summary.json").read_text())
    assert info["dim"] == 10
    assert info["gap_count"] == 90
    assert info["gaps_in_window"] >= 1


def test_spectrum_info_without_epsilon_builds_no_gap_matrix(tmp_path):
    # min_gap, max_gap and gap_count come from neighbouring levels and the
    # span, bit for bit the extremes of the gap array; the L x L gap arrays
    # (a 95 MB peak at 2,000 levels) are built only when epsilon asks for a
    # window count
    levels = np.sort(np.random.default_rng(12).uniform(-5.0, 5.0, 2000))
    spec_path = tmp_path / "spec.json"
    EnergySpectrum(levels, np.ones(levels.size, dtype=int)).save(spec_path)
    config = {**DEFAULTS["spectrum-info"], "spectrum": str(spec_path)}
    tracemalloc.start()
    try:
        summary = batteries.run_spectrum_info(config).summary
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    loaded = EnergySpectrum.load(spec_path).levels
    diff = loaded[:, None] - loaded[None, :]
    gaps = diff[~np.eye(loaded.size, dtype=bool)]
    positive = gaps[gaps > 0]
    assert (summary["min_gap"], summary["max_gap"], summary["gap_count"]) == (
        positive.min(), positive.max(), gaps.size)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": 20, "samples": 257}))
    out = tmp_path / "out"
    code = _run(["figure3", "--config", str(cfg), "--out", str(out),
                 "--set", "samples=129"])
    assert code == 0
    rows = (out / "figure3.csv").read_text().splitlines()
    assert len(rows) == 129 + 2  # comment + header + samples
    summary = json.loads((out / "figure3_summary.json").read_text())
    assert summary["levels"] == 20


@pytest.mark.parametrize("argv, key", [
    (["bounds", "--set", "trails=6"], "trails"),
    (["figure3", "--seed", "3"], "seed"),
    (["bounds", "--set", "samples=10"], "samples"),
    (["haar", "--config", "{cfg}"], "battery_sample"),
    # how a verdict is judged is no config key
    (["bounds", "--set", "slack=10"], "slack"),
    (["slow", "--set", "long_window_sigma=1e5"], "long_window_sigma"),
    (["gaussian", "--set", "eta_limit_coeff=1"], "eta_limit_coeff"),
])
def test_unknown_config_key_is_rejected(tmp_path, argv, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 10, "battery_sample": 5}))
    out = tmp_path / "out"
    argv = [a.replace("{cfg}", str(cfg)) for a in argv] + ["--out", str(out)]
    with pytest.raises(SystemExit, match=f"unknown config key.*{key}"):
        _run(argv)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["slow", "--set", "dim=256.7"], "dim must be an integer, got 256.7"),
    (["slow", "--set", "dim=true"], "dim must be an integer, got True"),
    (["bounds", "--set", "trials=12.0"], "trials must be an integer"),
    (["slow", "--set", "epsilon=NaN"], "epsilon must be a finite number, got nan"),
    (["slow", "--set", "epsilon=Infinity"], "epsilon must be a finite number"),
    (["figure3", "--set", "spacing=one"], "spacing must be a finite number, got 'one'"),
    (["gaussian", "--set", "sigma_t_grid=2.0"], "sigma_t_grid must be a list"),
    (["haar", "--config", "{cfg}"], "must hold a JSON object"),
    (["eta", "--set", "spectrum=7"], "spectrum must be a path string or null, got 7"),
    (["eta", "--set", "spectrum=s.json", "--set", "state=[1]"],
     "state must be a path string or null, got [1]"),
    (["spectrum-info", "--set", "hermitian=true"],
     "hermitian must be a path string or null, got True"),
    (["spectrum-info", "--set", "spectrum=s.json", "--set", 'epsilon="abc"'],
     "epsilon must be a finite positive number or null, got 'abc'"),
    (["spectrum-info", "--set", "spectrum=s.json", "--set", "epsilon=NaN"],
     "epsilon must be a finite positive number or null, got nan"),
    (["spectrum-info", "--set", "spectrum=s.json", "--set", "epsilon=-1"],
     "epsilon must be a finite positive number or null, got -1"),
    # input files that cannot be read end in one line, not a traceback
    (["spectrum-info", "--set", "hermitian={cfg}"], "expected nested [re, im] pairs"),
    (["spectrum-info", "--set", "hermitian={dir}/spec.json"], '{"matrix": [...]}'),
    (["spectrum-info", "--set", "spectrum={dir}/levels_only.json"],
     'spectrum-info: a spectrum must be an object with a "degeneracies" list'),
    (["eta", "--set", "spectrum={cfg}"],
     'eta: a spectrum must be an object with a "levels" list'),
    (["eta", "--set", "spectrum={dir}/missing.json"], "eta: [Errno 2] No such file or directory"),
    (["haar", "--config", "{dir}/missing.json"], "haar: [Errno 2] No such file or directory"),
    (["eta", "--set", "spectrum={dir}/spec.json", "--set", "state={dir}/rho_state.json"],
     'eta: a state file must hold {"spectrum": path, "factor": [column, ...]}'),
])
def test_config_value_of_wrong_type_is_rejected(tmp_path, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"samples": 10}]))
    EnergySpectrum([0.0, 1.0], [1, 1]).save(tmp_path / "spec.json")
    (tmp_path / "levels_only.json").write_text(json.dumps({"levels": [0.0, 1.0]}))
    (tmp_path / "rho_state.json").write_text(json.dumps(
        {"spectrum": "spec.json", "rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}))
    out = tmp_path / "out"
    argv = [a.replace("{cfg}", str(cfg)).replace("{dir}", str(tmp_path))
            for a in argv] + ["--out", str(out)]
    with pytest.raises(SystemExit, match=re.escape(message)):
        _run(argv)
    assert not out.exists()


def test_unwritable_output_stops_with_one_line(tmp_path):
    # an --out that is an existing file used to end in a FileExistsError
    # traceback from the write
    out = tmp_path / "F"
    out.write_text("kept")
    with pytest.raises(SystemExit, match=r"^figure3: \[Errno 17\] File exists: "):
        _run(["figure3", "--set", "levels=10", "--set", "samples=65", "--out", str(out)])
    assert out.read_text() == "kept"


def test_grid_past_the_float_range_stops_with_one_line(tmp_path):
    # at epsilon 1e150 the long window 4 t_end / ceiling needs about 4e152
    # samples, past the 2^53 a grid can hold
    with pytest.raises(SystemExit, match=r"^slow: a window of .* more samples than a grid "
                                         r"can hold$"):
        _run(["slow", "--set", "epsilon=1e150", "--set", "dim=64",
              "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epsilon", ["1e300", "1e308"])
def test_epsilon_past_the_float_range_stops_with_one_line(tmp_path, epsilon):
    # eps ** 2 was an OverflowError traceback at 1e300; at 1e308 the infinite
    # snapshot step made every snapshot NaN and the SVD did not converge
    with pytest.raises(SystemExit, match=r"^slow: epsilon 1e\+30[08] is too large: ") as info:
        _run(["slow", "--set", f"epsilon={epsilon}", "--out", str(tmp_path / "out")])
    assert "\n" not in str(info.value)
    assert not (tmp_path / "out").exists()


def test_out_of_memory_stops_with_one_line(tmp_path, monkeypatch):
    # a grid of 10^13 samples used to end in an _ArrayMemoryError traceback
    def too_large(config):
        """Asks for more memory than there is."""
        raise MemoryError("Unable to allocate 317. TiB for an array")

    monkeypatch.setitem(cli.RUNNERS, "slow", too_large)
    with pytest.raises(SystemExit, match=r"^slow: Unable to allocate 317\. TiB"):
        _run(["slow", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_malformed_table_keeps_its_traceback(tmp_path, monkeypatch):
    # columns of unequal lengths are a fault of the experiment, not of the
    # input; the file is not started
    def mismatched(config):
        """Two columns of different lengths."""
        return batteries.ExperimentResult({"t.csv": {"a": [1, 3], "b": [2]}}, {},
                                          batteries.Checks())

    monkeypatch.setitem(cli.RUNNERS, "figure3", mismatched)
    with pytest.raises(ValueError, match="table columns differ in length"):
        _run(["figure3", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out" / "t.csv").exists()


def test_timeseries_csv_format(tmp_path):
    table = {"t": np.array([0.0, 0.5, 1.0]), "D": np.array([1.0, 1 / 3.0, 0.25]),
             "running_avg": np.full(3, 0.5)}
    path = tmp_path / "series.csv"
    _write_rows_csv(path, table, "config=abc seed=1")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=abc seed=1"
    assert lines[1] == "t,D,running_avg"
    assert lines[2].startswith("0,1,")
    assert "0.33333333333333331" in lines[3]  # 17 significant digits


@pytest.mark.parametrize("table, message", [
    ({"a": [1, 3], "b": [2]}, "table columns differ in length"),
    ({"a": np.array([1.0]), "b": [2, 4], "c": ["x"]}, "table columns differ in length"),
    ([{"a": 1, "b": 2}, {"a": 3}], "a table must be a dict of columns"),
    ({"a": np.zeros((2, 2))}, "a table must be a dict of columns"),
    ({"a": (1, 2)}, "a table must be a dict of columns")],
    ids=["unequal-lists", "unequal-array-and-lists", "row-dicts", "2d-column", "tuple-column"])
def test_rows_csv_rejects_what_is_not_a_table(tmp_path, table, message):
    # a malformed table used to raise only after its header and first rows
    # were on disk; it must raise before the file is opened
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match=message):
        _write_rows_csv(path, table, "config=abc")
    assert not path.exists()


def test_rows_csv_writes_columns_in_table_order(tmp_path):
    path = tmp_path / "rows.csv"
    _write_rows_csv(path, {"b": [2, 4], "a": np.array([1, 3])}, "config=abc")
    assert path.read_text().splitlines()[1:] == ["b,a", "2,1", "4,3"]


# Floats the writer must spell as the per-row writer did: signed zeros,
# subnormals, the ends of the range, non-finite values and 17-digit ones.
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                  1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
                  1 / 3.0, 0.1, 1e16, 123456789.0, 1e-5, 2.5]


def test_rows_csv_matches_the_per_row_writer(tmp_path):
    # 600 rows cross two block boundaries; each column is written from a
    # numpy array and from a list of Python or numpy scalars
    size = 600
    floats = np.resize(np.array(AWKWARD_FLOATS), size)
    ints = np.resize(np.array([0, -1, 7, 2 ** 62, -(2 ** 63)], dtype=np.int64), size)
    flags = np.resize(np.array([True, False, False]), size)
    words = [f"trial-{i}" for i in range(size)]
    table = {"f": floats, "f_py": floats.tolist(), "f_np": list(floats),
             "i": ints, "i_py": ints.tolist(), "i_np": list(ints),
             "holds": flags, "holds_py": flags.tolist(), "holds_np": list(flags),
             "label": words}
    rows = [{name: column[i] for name, column in table.items()} for i in range(size)]
    assert {type(rows[0][name]) for name in ("f", "f_np", "i", "i_np", "holds")} == {
        np.float64, np.int64, np.bool_}
    got, want = tmp_path / "columns.csv", tmp_path / "rows.csv"
    _write_rows_csv(got, table, "config=abc seed=1")
    write_rows_csv_oracle(want, rows, "config=abc seed=1")
    assert got.read_bytes() == want.read_bytes()
    lines = got.read_text().splitlines()
    assert len(lines) == size + 2
    assert lines[3].startswith("-0,-0,-0,-1,-1,-1,false,false,false,")


def test_rows_csv_writes_in_blocks(tmp_path):
    # a 200k-row table: formatting every cell at once peaks at about 20 MB
    # of Python floats and strings; a block of rows at a time at a few kB
    table = {"t": np.linspace(0.0, 1.0, 200_000)}
    tracemalloc.start()
    try:
        _write_rows_csv(tmp_path / "big.csv", table, "config=abc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert len((tmp_path / "big.csv").read_text().splitlines()) == 200_002


def test_battery_violation_exits_with_typed_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(batteries, "FAST_EQUILIBRATION_SLACK", -10.0)
    out = tmp_path / "bounds"
    code = _run(["bounds", "--out", str(out), "--set", "trials=1",
                 "--set", "t_points=2"])
    assert code == 1
    failures = json.loads((out / "failures.json").read_text())
    assert failures["experiment"] == "bounds"
    assert failures["seed"] == 20240811
    bad = [f for f in failures["failures"] if f["check"] == "fast_equilibration"]
    assert bad  # a slack of -10 pulls the bound below the measured value
    assert all(f["holds"] is False and isinstance(f["value"], float)
               and isinstance(f["trial"], int) for f in bad)
    summary = json.loads((out / "bounds_summary.json").read_text())
    assert summary["violations"] == len(failures["failures"])


def test_failing_run_builds_each_failure_record_once(tmp_path, monkeypatch):
    # failures.json, the exit code, the message and the summary's violations
    # count share one list of records; none is built twice
    builds = []

    def counted(table, index):
        builds.append(index)
        return table_row(table, index)

    table_row = batteries._table_row
    monkeypatch.setattr(batteries, "_table_row", counted)
    monkeypatch.setattr(batteries, "FAST_EQUILIBRATION_SLACK", -10.0)
    out = tmp_path / "bounds"
    assert _run(["bounds", "--out", str(out), "--set", "trials=2",
                 "--set", "t_points=3"]) == 1
    failures = json.loads((out / "failures.json").read_text())["failures"]
    assert failures and len(builds) == len(failures)
    summary = json.loads((out / "bounds_summary.json").read_text())
    assert summary["violations"] == len(failures)


def test_experiment_returns_tables_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = {"levels": 20, "spacing": 1.0, "samples": 65, "phase_seed": 0}
    result = batteries.run_figure3(config)
    assert list(tmp_path.iterdir()) == []
    assert set(result.tables) == {"figure3.csv", "figure3_random_phase.csv"}
    table = result.tables["figure3.csv"]
    assert list(table) == ["t", "D", "running_avg"]
    assert batteries.table_length(table) == 65
    assert result.failures == []
    assert result.summary["levels"] == 20


def test_seed_meta_only_for_seeded_experiments(tmp_path):
    fig = tmp_path / "fig"
    assert _run(["figure3", "--out", str(fig), "--set", "levels=20",
                 "--set", "samples=65", "--set", "phase_seed=7"]) == 0
    assert json.loads((fig / "figure3_summary.json").read_text())["_seed"] == 7
    assert (fig / "figure3.csv").read_text().splitlines()[0].endswith(" seed=7")

    gauss = tmp_path / "gauss"
    assert _run(["gaussian", "--out", str(gauss), "--set", "levels=400",
                 "--set", "sigma_t_grid=[2.0]"]) == 0
    summary = json.loads((gauss / "gaussian_summary.json").read_text())
    assert "_seed" not in summary and "_config_hash" in summary
    comment = (gauss / "gaussian.csv").read_text().splitlines()[0]
    assert comment.startswith("# config=") and "seed" not in comment


def test_spectrum_experiment_without_spectrum_stops(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="provide a spectrum file"):
        _run(["eta", "--out", str(out)])
    assert not out.exists()


def _failures_json_oracle(tmp_path, experiment, config, checks):
    """failures.json as the per-row records of ``checks``, ``(name, record)``
    pairs, give it: ``{"check": name, **record}`` for each that does not
    hold."""
    meta = {"config_hash": cli._config_hash(config)}
    if "seed" in config:
        meta["seed"] = config["seed"]
    failures = [{"check": name, **record} for name, record in checks if not record["holds"]]
    path = tmp_path / "oracle.json"
    cli._write_json(path, {"experiment": experiment, **meta, "failures": failures})
    return path.read_bytes()


def test_bounds_failures_match_the_per_row_records(tmp_path, monkeypatch):
    # a slack of -10 pulls the smaller fast-equilibration bounds below the
    # measured values; the records built from the columns must be the
    # per-row oracle's, byte for byte
    monkeypatch.setattr(batteries, "FAST_EQUILIBRATION_SLACK", -10.0)
    out = tmp_path / "bounds"
    assert _run(["bounds", "--out", str(out), "--set", "trials=2",
                 "--set", "t_points=3"]) == 1
    config = {**DEFAULTS["bounds"], "trials": 2, "t_points": 3}
    oracle_rows = per_window_fast_equilibration_battery(
        config["seed"], config["trials"], config["t_points"], config["max_rank"])
    oracle_rows += per_window_gap_counting_battery(config["seed"], config["gap_counting_dim"])
    checks = [(row["battery"], row) for name in ("fast_equilibration", "purity_chain",
                                                 "gap_counting")
              for row in oracle_rows if row["battery"] == name]
    written = (out / "failures.json").read_bytes()
    assert written == _failures_json_oracle(tmp_path, "bounds", config, checks)
    failures = json.loads(written)["failures"]
    assert failures and {f["check"] for f in failures} == {"fast_equilibration"}
    for record in failures:
        assert record["holds"] is False
        assert all(type(record[k]) is int for k in ("K", "trial", "d", "levels"))
        assert all(type(record[k]) is float
                   for k in ("T", "eps", "value", "measured", "eta", "refinement_error"))


def test_gaussian_failures_match_the_per_point_records(tmp_path, monkeypatch):
    monkeypatch.setattr(batteries, "GAUSSIAN_ETA_LIMIT", 0.01)
    out = tmp_path / "gauss"
    assert _run(["gaussian", "--out", str(out), "--set", "levels=400"]) == 1
    config = {**DEFAULTS["gaussian"], "levels": 400}
    written = (out / "failures.json").read_bytes()
    assert written == _failures_json_oracle(tmp_path, "gaussian", config,
                                            per_point_gaussian_checks(config))
    failures = json.loads(written)["failures"]
    assert len(failures) == len(config["sigma_t_grid"])
    assert all(f["check"] == "eta_estimate" and f["holds"] is False
               and type(f["value"]) is float and type(f["sigma_T"]) is float
               for f in failures)
