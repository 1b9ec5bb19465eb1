import json

import pytest

from qequil.cli import main
from qequil.constructions import random_scenario
from qequil.states import save_state


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
                 "--set", "dim=256", "--set", "snapshots=6",
                 "--set", "samples=64", "--set", "long_window_sigma=200.0"])
    assert code == 0
    summary = json.loads((out / "slow_summary.json").read_text())
    assert summary["min_window_value"] >= summary["floor"]
    header = (out / "slow.csv").read_text().splitlines()[1]
    assert header == "t,D,running_avg,bound"


def test_gaussian_run_and_failure_exit(tmp_path):
    out = tmp_path / "gauss"
    assert _run(["gaussian", "--out", str(out)]) == 0
    rows = (out / "gaussian.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "sigma_T"
    summary = json.loads((out / "gaussian_summary.json").read_text())
    assert summary["max_eta_sigma_T"] <= 0.42

    # force a failure: impossible limit coefficient
    bad = tmp_path / "gauss_bad"
    code = _run(["gaussian", "--out", str(bad), "--set", "eta_limit_coeff=0.01",
                 "--set", "levels=400"])
    assert code == 1
    failures = json.loads((bad / "failures.json").read_text())
    assert failures["failures"]
    assert failures["experiment"] == "gaussian"


def test_haar_quick(tmp_path):
    out = tmp_path / "haar"
    code = _run(["haar", "--out", str(out), "--samples", "400",
                 "--set", "battery_scenarios=6", "--set", "battery_samples=150",
                 "--set", "twirl_samples=2000"])
    assert code == 0
    reports = json.loads((out / "haar_reports.json").read_text())
    assert reports["reports"]["mean_sq_d8_k3"]["holds"]
    assert (out / "haar_battery.csv").exists()


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
    save_state(scen.state, state_path, spec_path)

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


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": 20, "samples": 257}))
    out = tmp_path / "out"
    code = _run(["figure3", "--config", str(cfg), "--out", str(out),
                 "--samples", "129"])
    assert code == 0
    rows = (out / "figure3.csv").read_text().splitlines()
    assert len(rows) == 129 + 2  # comment + header + samples
    summary = json.loads((out / "figure3_summary.json").read_text())
    assert summary["levels"] == 20


@pytest.mark.parametrize("argv, key", [
    (["bounds", "--set", "trails=6"], "trails"),
    (["figure3", "--seed", "3"], "seed"),
    (["bounds", "--samples", "10"], "samples"),
    (["haar", "--config", "{cfg}"], "battery_sample"),
])
def test_unknown_config_key_is_rejected(tmp_path, argv, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 10, "battery_sample": 5}))
    out = tmp_path / "out"
    argv = [a.replace("{cfg}", str(cfg)) for a in argv] + ["--out", str(out)]
    with pytest.raises(SystemExit, match=f"unknown config key.*{key}"):
        _run(argv)
    assert not out.exists()
