import json
import os

import numpy as np
import pytest

from mimofusion import np_gains
from mimofusion.cli import main
from mimofusion.config import load_scenario
from mimofusion.energy_detector import ed_threshold_for_pfa, eta_weights
from mimofusion.harness import resolve_gains


SCENARIO_CFG = """\
# three-sensor test network
n_sensors = 3
distances = 2.5, 4.0, 7.5
meas_noise_vars = 0.3, 0.35, 0.45
signal_var = 1.0
fc_noise_var = 0.3
path_loss_exp = 2.0
"""

EXPERIMENT_CFG = """\
experiment = unit_cli
n_sensors = 3
distances = 2.5, 4.0, 7.5
meas_noise_vars = 0.3, 0.35, 0.45
signal_var = 1.0
fc_noise_var = 0.3
path_loss_exp = 2.0
fixed_p = 4.0
fixed_m = 12
trials = 100
scenarios = 2
target_pfa = 0.05
master_seed = 777
detectors = np, ed
policies = waterfill, equal
"""


@pytest.fixture
def scenario_cfg(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(SCENARIO_CFG)
    return str(path)


@pytest.fixture
def experiment_cfg(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(EXPERIMENT_CFG)
    return str(path)


def replay_edited(experiment_cfg, tmp_path, capsys, edit):
    """Run the config, edit its manifest in place and replay it; return the
    replay's exit code and whether it wrote no CSV.  Captured output before
    the replay is discarded."""
    first = str(tmp_path / "first")
    assert main(["run", "--config", experiment_cfg, "--output-dir", first]) == 0
    manifest = os.path.join(first, "unit_cli.manifest.json")
    with open(manifest) as fh:
        data = json.load(fh)
    edit(data)
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    rc = main(["run", "--replay", manifest, "--output-dir", str(tmp_path / "second")])
    return rc, not (tmp_path / "second" / "unit_cli.csv").exists()


class TestCalculators:
    def test_waterfill_matches_library(self, scenario_cfg, capsys):
        rc = main(["waterfill", "--config", scenario_cfg, "--power", "5", "--antennas", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        sc = load_scenario(scenario_cfg)
        sol = np_gains.waterfill(sc, 40, 5.0)
        for i, x in enumerate(sol.magnitudes_sq):
            assert f"x[{i}] = {float(x)!r}" in out
        assert f"achieved_snr = {sol.achieved_snr!r}" in out

    def test_ed_alloc_qclp(self, scenario_cfg, capsys):
        rc = main(["ed-alloc", "--config", scenario_cfg, "--power", "3", "--antennas", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deflection = " in out and "bound_deflection = " in out

    def test_ed_alloc_low_form_one_hot(self, scenario_cfg, capsys):
        rc = main(["ed-alloc", "--config", scenario_cfg, "--power", "3",
                   "--antennas", "40", "--form", "low_snr"])
        assert rc == 0
        out = capsys.readouterr().out
        values = [float(line.split(" = ")[1]) for line in out.splitlines() if line.startswith("x[")]
        assert values[0] == pytest.approx(3.0, rel=1e-12)
        assert values[1] == values[2] == 0.0

    def test_threshold_ed_matches_library(self, scenario_cfg, capsys):
        rc = main(["threshold", "--detector", "ed", "--config", scenario_cfg,
                   "--pfa", "0.05", "--power", "4", "--antennas", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        sc = load_scenario(scenario_cfg)
        gains = resolve_gains("qclp", sc, 64, 4.0)
        expected = ed_threshold_for_pfa(eta_weights(gains, sc), sc, 64, 0.05).gamma_hat
        assert f"threshold = {expected!r}" in out

    def test_threshold_np(self, scenario_cfg, capsys):
        rc = main(["threshold", "--detector", "np", "--config", scenario_cfg,
                   "--pfa", "0.05", "--power", "4", "--antennas", "64"])
        assert rc == 0
        assert "asymptotic_snr = " in capsys.readouterr().out

    def test_bounds(self, scenario_cfg, capsys):
        rc = main(["bounds", "--config", scenario_cfg, "--pfa", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        sc = load_scenario(scenario_cfg)
        assert f"pd_high_power_bound = {np_gains.np_pd_bound(sc, 'high_power', 0.05)!r}" in out
        assert "mse_low_power_bound = " in out


class TestRun:
    def test_custom_config_writes_outputs(self, experiment_cfg, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        rc = main(["run", "--config", experiment_cfg, "--output-dir", out_dir])
        assert rc == 0
        csv_path = os.path.join(out_dir, "unit_cli.csv")
        manifest_path = os.path.join(out_dir, "unit_cli.manifest.json")
        assert os.path.exists(csv_path) and os.path.exists(manifest_path)
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("experiment,policy,detector,M,P")
        assert len(lines) == 1 + 4  # np x2 policies, ed x2 policies

    def test_rerun_is_byte_identical(self, experiment_cfg, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", experiment_cfg, "--output-dir", a]) == 0
        assert main(["run", "--config", experiment_cfg, "--output-dir", b]) == 0
        with open(os.path.join(a, "unit_cli.csv"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(b, "unit_cli.csv"), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b

    def test_replay_reproduces_csv(self, experiment_cfg, tmp_path):
        first = str(tmp_path / "first")
        second = str(tmp_path / "second")
        assert main(["run", "--config", experiment_cfg, "--output-dir", first]) == 0
        manifest = os.path.join(first, "unit_cli.manifest.json")
        assert main(["run", "--replay", manifest, "--output-dir", second]) == 0
        with open(os.path.join(first, "unit_cli.csv"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(second, "unit_cli.csv"), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b

    def test_replay_without_stream_version_is_config_error(self, experiment_cfg, tmp_path,
                                                           capsys):
        first = str(tmp_path / "first")
        assert main(["run", "--config", experiment_cfg, "--output-dir", first]) == 0
        manifest = os.path.join(first, "unit_cli.manifest.json")
        with open(manifest) as fh:
            data = json.load(fh)
        del data["stream_version"]
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        rc = main(["run", "--replay", manifest, "--output-dir", str(tmp_path / "second")])
        assert rc == 2
        assert "stream_version" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "second" / "unit_cli.csv")

    def test_overrides_change_manifest(self, experiment_cfg, tmp_path):
        out_dir = str(tmp_path / "o")
        rc = main(["run", "--config", experiment_cfg, "--output-dir", out_dir,
                   "--trials", "50", "--seed", "123", "--set", "scenarios=3"])
        assert rc == 0
        with open(os.path.join(out_dir, "unit_cli.manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["trials"] == 50
        assert manifest["master_seed"] == 123
        assert manifest["scenarios"] == 3

    def test_packaged_experiment_small(self, tmp_path):
        out_dir = str(tmp_path / "fig")
        rc = main(["run", "--experiment", "fig1", "--output-dir", out_dir,
                   "--trials", "50", "--scenarios", "2", "--set", "sweep_p=1, 10"])
        assert rc == 0
        with open(os.path.join(out_dir, "fig1.csv")) as fh:
            lines = fh.read().splitlines()
        # 2 sweep points x 4 curves (np x waterfill/equal, np_single x optimal/equal)
        assert len(lines) == 1 + 8

    def test_env_var_output_dir(self, experiment_cfg, tmp_path, monkeypatch):
        env_dir = str(tmp_path / "envout")
        monkeypatch.setenv("MIMOFUSION_OUTPUT_DIR", env_dir)
        assert main(["run", "--config", experiment_cfg]) == 0
        assert os.path.exists(os.path.join(env_dir, "unit_cli.csv"))


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(EXPERIMENT_CFG + "mystery_knob = 7\n")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_config_file(self):
        assert main(["run", "--config", "/nonexistent/exp.cfg"]) == 2
        assert main(["waterfill", "--config", "/nonexistent/net.cfg",
                     "--power", "1", "--antennas", "8"]) == 2

    def test_invalid_pfa(self, scenario_cfg):
        assert main(["bounds", "--config", scenario_cfg, "--pfa", "1.5"]) == 2
        assert main(["threshold", "--detector", "ed", "--config", scenario_cfg,
                     "--pfa", "0", "--power", "1", "--antennas", "8"]) == 2

    def test_malformed_config_value(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text(EXPERIMENT_CFG.replace("trials = 100", "trials = lots"))
        assert main(["run", "--config", str(path)]) == 2

    def test_usage_error(self, experiment_cfg, tmp_path, capsys):
        assert main([]) == 2
        assert main(["run"]) == 2
        out_dir = tmp_path / "out"
        assert main(["run", "--config", experiment_cfg, "--output-dir", str(out_dir),
                     "--threads", "2"]) == 2
        assert not (out_dir / "unit_cli.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("sweep_p", ["nan, 1.0", "1.0, inf", "nan, inf, 1.0"])
    def test_nonfinite_sweep_power_is_config_error(self, tmp_path, capsys, sweep_p):
        path = tmp_path / "nonfinite.cfg"
        path.write_text(EXPERIMENT_CFG.replace("fixed_p = 4.0", f"sweep_p = {sweep_p}"))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out_dir)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out_dir / "unit_cli.csv").exists()

    @pytest.mark.parametrize("power", [float("nan"), float("inf")])
    def test_replay_with_nonfinite_power_is_config_error(self, experiment_cfg, tmp_path,
                                                         capsys, power):
        def edit(data):
            data["sweep"][0][0] = power

        assert replay_edited(experiment_cfg, tmp_path, capsys, edit) == (2, True)
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line, bad", [
        ("meas_noise_vars = 0.3, 0.35, 0.45", "meas_noise_vars = 0.3, inf, 0.45"),
        ("distances = 2.5, 4.0, 7.5", "distances = 2.5, nan, 7.5"),
    ])
    def test_nonfinite_scenario_vector_is_config_error(self, tmp_path, capsys, line, bad):
        path = tmp_path / "net.cfg"
        path.write_text(SCENARIO_CFG.replace(line, bad))
        assert main(["ed-alloc", "--config", str(path), "--power", "3", "--antennas", "40"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("signal_var", float("inf")), ("path_loss_exp", float("nan")),
        ("meas_noise_vars", [0.3, float("inf"), 0.45]),
    ])
    def test_replay_with_nonfinite_scenario_is_config_error(self, experiment_cfg, tmp_path,
                                                            capsys, key, value):
        def edit(data):
            data["scenario"][key] = value

        assert replay_edited(experiment_cfg, tmp_path, capsys, edit) == (2, True)
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [float("inf"), 2.5])
    def test_replay_with_nonintegral_m_is_config_error(self, experiment_cfg, tmp_path,
                                                       capsys, m):
        def edit(data):
            data["sweep"][0][1] = m

        assert replay_edited(experiment_cfg, tmp_path, capsys, edit) == (2, True)
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("detector", ["np", "ed"])
    @pytest.mark.parametrize("policy", ["no_such_policy", "single_antenna_optimal"])
    def test_threshold_policy_outside_multi_policies(self, scenario_cfg, capsys, detector,
                                                     policy):
        assert main(["threshold", "--detector", detector, "--config", scenario_cfg,
                     "--pfa", "0.05", "--power", "1", "--antennas", "8",
                     "--policy", policy]) == 2
        capsys.readouterr()

    def test_bad_calculator_arguments(self, scenario_cfg):
        assert main(["waterfill", "--config", scenario_cfg, "--power", "-1",
                     "--antennas", "8"]) == 2
        for command in (["waterfill"], ["ed-alloc"], ["ed-alloc", "--form", "high_snr"],
                        ["threshold", "--detector", "np", "--pfa", "0.05"],
                        ["threshold", "--detector", "ed", "--pfa", "0.05"]):
            for power in ("nan", "inf"):
                assert main([*command, "--config", scenario_cfg, "--power", power,
                             "--antennas", "8"]) == 2, (command, power)
