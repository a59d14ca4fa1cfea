import csv
import json
import os
import warnings

import numpy as np
import pytest

from mimofusion import np_gains
from mimofusion.cli import main
from mimofusion.config import load_scenario, packaged_experiment_text, parse_kv
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

    def test_threshold_np_at_huge_power_is_finite(self, tmp_path, capsys):
        # M |a_i|^2 overflows above about 1e306; the asymptotic SNR must not
        path = tmp_path / "s73.cfg"
        path.write_text("n_sensors = 10\nseed = 73\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["threshold", "--detector", "np", "--config", str(path),
                       "--pfa", "0.05", "--power", "1e308", "--antennas", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert np.isfinite(float(out.split("threshold = ")[1].split()[0])), out


# the cells each detector's rows leave blank by design
UNFILLED = {
    "np": {"deflection"},
    "np_single": {"deflection"},
    "ed": {"pd_theory", "mse_emp", "mse_theory", "bound_lo", "bound_hi"},
    "ed_single": {"mse_emp", "mse_theory", "bound_lo", "bound_hi"},
}


@pytest.mark.parametrize("name", [f"fig{k}" for k in range(1, 7)])
def test_packaged_recipe_runs_warning_free(tmp_path, capsys, name):
    """Each packaged recipe, cut to 20 trials on two channel draws, runs with
    every warning raised as an error and fills every cell its detector fills."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run", "--experiment", name, "--trials", "20", "--scenarios", "2",
                   "--output-dir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    with open(tmp_path / f"{name}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert {col for col, cell in row.items() if cell == ""} == UNFILLED[row["detector"]], row


def test_large_power_deflection_is_finite(tmp_path, capsys):
    """|beta|^4 and the eigenvalues' sum of squares leave the float range near
    P = 1e154; the deflection, read in units of the largest eigenvalue, does
    not, so every energy-detector row fills it without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["run", "--experiment", "fig5", "--trials", "5", "--scenarios", "1",
                   "--set", "sweep_p=1e160", "--set", "policies=equal,closed_form_high",
                   "--output-dir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    with open(tmp_path / "fig5.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # ed on both policies, ed_single on equal only
    for row in rows:
        assert row["deflection"] != "" and np.isfinite(float(row["deflection"])), row


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

    def test_second_run_sees_none_of_the_first_runs_overrides(self, experiment_cfg, tmp_path):
        # the parser is built once per process; its append default must not collect --set
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        assert main(["run", "--config", experiment_cfg, "--output-dir", first,
                     "--set", "trials=50", "--set", "scenarios=3"]) == 0
        assert main(["run", "--config", experiment_cfg, "--output-dir", second,
                     "--set", "master_seed=5"]) == 0
        with open(os.path.join(second, "unit_cli.manifest.json")) as fh:
            manifest = json.load(fh)
        assert (manifest["trials"], manifest["scenarios"], manifest["master_seed"]) == (100, 2, 5)

    def test_huge_qclp_power_fails_its_points_naming_the_power(self, tmp_path, capsys):
        # P = 1e308 / sqrt(M): P**2 leaves the float range in the qclp problem
        rc = main(["run", "--experiment", "fig6", "--trials", "5", "--scenarios", "1",
                   "--set", "schedule_coeff=1e308", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 0
        for point in range(3):
            assert f"sweep point {point} failed: ValueError: sum power P = " in err
        assert "OverflowError" not in err

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

    def test_missing_config_file(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", "/nonexistent/exp.cfg"]) == 2
        assert main(["run", "--replay", "/nonexistent/exp.manifest.json",
                     "--output-dir", str(out_dir)]) == 2
        assert not out_dir.exists()
        net = ["--config", "/nonexistent/net.cfg"]
        for command in (["waterfill", *net, "--power", "1", "--antennas", "8"],
                        ["ed-alloc", *net, "--power", "1", "--antennas", "8"],
                        ["threshold", "--detector", "ed", *net, "--pfa", "0.05",
                         "--power", "1", "--antennas", "8"],
                        ["bounds", *net, "--pfa", "0.05"]):
            assert main(command) == 2, command
        assert capsys.readouterr().err.count("/nonexistent/") == 6

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

    @pytest.mark.parametrize("value", ["1", "0", "-0.5"])
    def test_target_pfa_outside_unit_interval(self, tmp_path, capsys, value):
        assert main(["run", "--experiment", "fig1", "--set", f"target_pfa={value}",
                     "--output-dir", str(tmp_path)]) == 2
        assert "target_pfa must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "fig1.csv").exists()

    @pytest.mark.parametrize("name, key, value", [
        ("fig6", "sweep_m", "-1"), ("fig6", "sweep_m", "64, 0"), ("fig3", "sweep_m", "-4"),
        ("fig1", "fixed_m", "0"),
    ])
    def test_antenna_count_below_one_is_rejected_first(self, tmp_path, capsys, name, key,
                                                       value):
        # rejected before a power schedule such as 15 / sqrt(M) reads the count
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["run", "--experiment", name, "--set", f"{key}={value}",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert f"key {key!r}: antenna counts must be >= 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key, value", [
        ("scenario", None), ("trials", [1]), ("sweep", 5), ("detectors", "np"),
    ])
    def test_replay_with_misshapen_manifest_is_config_error(self, experiment_cfg, tmp_path,
                                                            capsys, key, value):
        """A missing scenario, a list count, a scalar sweep or a string detector
        list is a configuration error that names the key (None deletes it)."""
        def edit(data):
            if value is None:
                del data[key]
            else:
                data[key] = value

        assert replay_edited(experiment_cfg, tmp_path, capsys, edit) == (2, True)
        assert f"'{key}'" in capsys.readouterr().err

    def test_repeated_detectors_and_policies_are_config_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--experiment", "fig1", "--trials", "50", "--scenarios", "1",
                     "--set", "detectors=np,np", "--set", "policies=equal,equal",
                     "--output-dir", str(out_dir)]) == 2
        assert "repeated detector 'np'" in capsys.readouterr().err
        assert not (out_dir / "fig1.csv").exists()

    def test_replay_with_repeated_detector_is_config_error(self, experiment_cfg, tmp_path,
                                                           capsys):
        def edit(data):
            data["detectors"] = ["np", "np"]

        assert replay_edited(experiment_cfg, tmp_path, capsys, edit) == (2, True)
        assert "repeated detector 'np'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["../escaped", "sub/escaped", "", ".", ".."])
    def test_experiment_id_with_a_path_is_config_error(self, tmp_path, capsys, experiment):
        """The id names the output files, so one that is not a plain file name
        would write them outside --output-dir (or nowhere)."""
        out_dir = tmp_path / "out"
        assert main(["run", "--experiment", "fig1", "--trials", "10", "--scenarios", "1",
                     "--set", f"experiment={experiment}", "--output-dir", str(out_dir)]) == 2
        assert "experiment" in capsys.readouterr().err
        assert not (tmp_path / "escaped.csv").exists() and not out_dir.exists()

    def test_replay_with_a_path_experiment_id_is_config_error(self, experiment_cfg, tmp_path,
                                                             capsys):
        def edit(data):
            data["experiment"] = "../escaped"

        assert replay_edited(experiment_cfg, tmp_path, capsys, edit) == (2, True)
        assert "'../escaped'" in capsys.readouterr().err
        assert not (tmp_path / "escaped.csv").exists()

    def test_unreadable_input_path_is_config_error(self, scenario_cfg, tmp_path, capsys):
        """An input path that exists but is not a readable file exits 2 and is
        named, as a missing one is; here a directory and a path through a file."""
        directory = tmp_path / "a_directory"
        directory.mkdir()
        out_dir = tmp_path / "out"
        for path in (str(directory), os.path.join(scenario_cfg, "net.cfg")):
            assert main(["waterfill", "--config", path, "--power", "1", "--antennas", "8"]) == 2
            assert path in capsys.readouterr().err
            assert main(["run", "--replay", path, "--output-dir", str(out_dir)]) == 2
            assert path in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        """A config file that is not UTF-8 text exits 2 and is named."""
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff")
        out_dir = tmp_path / "out"
        assert main(["waterfill", "--config", str(path), "--power", "1", "--antennas", "8"]) == 2
        assert str(path) in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--output-dir", str(out_dir)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        """A negative master seed derives no stream, so it is refused before
        a run rather than fail every sweep point."""
        out_dir = tmp_path / "out"
        assert main(["run", "--experiment", "fig1", "--seed", "-1", "--trials", "10",
                     "--scenarios", "1", "--output-dir", str(out_dir)]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_replay_with_negative_seed_is_config_error(self, experiment_cfg, tmp_path, capsys):
        def edit(data):
            data["master_seed"] = -1

        assert replay_edited(experiment_cfg, tmp_path, capsys, edit) == (2, True)
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("signal_var", "0"), ("fc_noise_var", "-1"), ("path_loss_exp", "-2"), ("seed", "-5"),
        ("path_loss_exp", "1e6"),
    ])
    def test_rejected_scenario_value_is_config_error(self, tmp_path, capsys, key, value):
        """Every value the scenario or its seed's stream rejects exits 2 and is
        named, on the sampled-scenario branch every packaged recipe uses."""
        out_dir = tmp_path / "out"
        assert main(["run", "--experiment", "fig1", "--trials", "5", "--scenarios", "1",
                     "--set", f"{key}={value}", "--output-dir", str(out_dir)]) == 2
        assert key in capsys.readouterr().err
        assert not out_dir.exists()
        path = tmp_path / "net.cfg"
        raw = {"n_sensors": "3", "seed": "1", key: value}
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        assert main(["waterfill", "--config", str(path), "--power", "1", "--antennas", "8"]) == 2
        assert key in capsys.readouterr().err

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


# empty, zero, negative, fractional, non-finite, subnormal and huge values
MUTATIONS = ("", "0", "-1", "0.5", "nan", "inf", "-inf", "1e-320", "1e-200", "1e6", "1e200",
             "1e308")


def packaged_keys(*names):
    return [(name, key) for name in names for key in parse_kv(packaged_experiment_text(name))]


class TestConfigMutations:
    """Each single-key mutation of the fig1, fig5 and fig6 recipes, run at 5
    trials on one channel draw, exits 0 or 2, and a run that exits 0 leaves a
    cell that its row's detector fills blank only at a sweep point that a
    warning names."""

    @pytest.mark.parametrize("name, key", packaged_keys("fig1", "fig5", "fig6"))
    def test_exits_0_or_2(self, tmp_path, capsys, name, key):
        raw = {**parse_kv(packaged_experiment_text(name)), "trials": "5", "scenarios": "1"}
        bad = []
        for i, value in enumerate(MUTATIONS):
            mutated = {**raw, key: value}
            path = tmp_path / f"{i}.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in mutated.items()))
            out_dir = tmp_path / f"out{i}"
            rc = main(["run", "--config", str(path), "--output-dir", str(out_dir)])
            err = capsys.readouterr().err
            if rc not in (0, 2):
                bad.append((value, rc, err))
            if rc != 0:
                continue
            eid = mutated["experiment"]
            with open(out_dir / f"{eid}.manifest.json") as fh:
                points = len(json.load(fh)["sweep"])
            with open(out_dir / f"{eid}.csv") as fh:
                rows = list(csv.DictReader(fh))
            per_point = len(rows) // points
            for j, row in enumerate(rows):
                blank = {col for col, cell in row.items() if cell == ""}
                blank -= UNFILLED[row["detector"]]
                if blank and f"sweep point {j // per_point} failed" not in err:
                    bad.append((value, f"blank {sorted(blank)} without a warning", row))
        assert not bad, bad
