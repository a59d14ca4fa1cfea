import pytest
from numpy.testing import assert_allclose

from mimofusion.config import (
    ConfigError,
    PACKAGED_EXPERIMENTS,
    build_scenario,
    experiment_from_text,
    load_packaged_experiment,
    parse_kv,
)
from mimofusion.np_gains import snr_floor_power
from mimofusion.scenario import derive_rng, sample_scenario

from oracles import dump_scenario


class TestParseKv:
    def test_basic_grammar(self):
        raw = parse_kv("# comment\n\na = 1\n b = 2, 3 \n")
        assert raw == {"a": "1", "b": "2, 3"}

    def test_rejects_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_kv("just words\n")

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ConfigError):
            parse_kv("a = 1\na = 2\n")

    def test_rejects_empty_value(self):
        with pytest.raises(ConfigError):
            parse_kv("a =\n")


class TestScenarioConfig:
    def test_explicit_round_trip(self):
        sc = sample_scenario(6, derive_rng(701))
        loaded = build_scenario(parse_kv(dump_scenario(sc)))
        assert_allclose(loaded.distances, sc.distances, rtol=0)
        assert_allclose(loaded.meas_noise_vars, sc.meas_noise_vars, rtol=0)
        assert loaded.signal_var == sc.signal_var
        assert loaded.fc_noise_var == sc.fc_noise_var
        assert loaded.path_loss_exp == sc.path_loss_exp

    def test_sampled_scenario_deterministic(self):
        raw = {"n_sensors": "4", "seed": "11"}
        a = build_scenario(dict(raw))
        b = build_scenario(dict(raw))
        assert_allclose(a.distances, b.distances, rtol=0)

    def test_partial_vectors_rejected(self):
        with pytest.raises(ConfigError):
            build_scenario({"distances": "1, 2"})

    def test_sampled_needs_seed(self):
        with pytest.raises(ConfigError):
            build_scenario({"n_sensors": "4"})

    def test_n_sensors_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_scenario({
                "n_sensors": "3",
                "distances": "2, 3",
                "meas_noise_vars": "0.3, 0.4",
            })


BASE = """\
experiment = t
n_sensors = 4
seed = 5
master_seed = 6
detectors = np
policies = waterfill
"""


class TestExperimentConfig:
    def test_power_sweep(self):
        cfg = experiment_from_text(BASE + "sweep_p = 1, 2\nfixed_m = 16\n")
        assert cfg.sweep == ((1.0, 16), (2.0, 16))

    def test_antenna_sweep_with_decaying_power(self):
        cfg = experiment_from_text(BASE + "sweep_m = 16, 64\npower_schedule = snr_floor\n")
        assert cfg.sweep[0][1] == 16 and cfg.sweep[1][1] == 64
        assert cfg.sweep[0][0] == pytest.approx(snr_floor_power(cfg.scenario, 16))
        assert cfg.sweep[0][0] == pytest.approx(4 * cfg.sweep[1][0])

    def test_inv_sqrt_schedule(self):
        cfg = experiment_from_text(
            BASE + "sweep_m = 16, 64\npower_schedule = inv_sqrt\nschedule_coeff = 8\n"
        )
        assert cfg.sweep == ((2.0, 16), (1.0, 64))
        assert type(cfg.sweep[0][0]) is float  # numpy scalars must not leak into output
        assert type(cfg.sweep[0][1]) is int

    def test_inv_sqrt_needs_coefficient(self):
        with pytest.raises(ConfigError):
            experiment_from_text(BASE + "sweep_m = 16\npower_schedule = inv_sqrt\n")

    def test_overrides_applied(self):
        cfg = experiment_from_text(
            BASE + "fixed_p = 1\nfixed_m = 8\n", {"trials": "7", "master_seed": "99"}
        )
        assert cfg.trials_per_scenario == 7
        assert cfg.master_seed == 99

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            experiment_from_text(BASE + "fixed_p = 1\nfixed_m = 8\nwhat = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            experiment_from_text("experiment = t\nfixed_p = 1\nfixed_m = 8\n")

    def test_both_sweeps_rejected(self):
        with pytest.raises(ConfigError):
            experiment_from_text(BASE + "sweep_p = 1\nsweep_m = 2\nfixed_m = 4\n")


class TestPackagedExperiments:
    def test_all_packaged_configs_load(self):
        for name in PACKAGED_EXPERIMENTS:
            cfg = load_packaged_experiment(name)
            assert cfg.experiment_id == name
            assert cfg.scenario.n_sensors == 10
            assert cfg.target_pfa == 0.05
            assert cfg.curves()

    def test_all_figures_share_one_network(self):
        scenarios = [load_packaged_experiment(name).scenario for name in PACKAGED_EXPERIMENTS]
        for sc in scenarios[1:]:
            assert_allclose(sc.distances, scenarios[0].distances, rtol=0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            load_packaged_experiment("fig9")
