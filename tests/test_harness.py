from functools import partial

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mimofusion import np_gains
from mimofusion.energy_detector import ed_statistic
from mimofusion.harness import (
    CSV_COLUMNS,
    STREAM_VERSION,
    ExperimentConfig,
    TrialStream,
    config_from_manifest,
    manifest_dict,
    resolve_gains,
    run_experiment,
    simulate_statistics,
)
from mimofusion.lmmse import lmmse_estimate
from mimofusion.np_detector import NpTestContext, np_statistic
from mimofusion.scenario import (
    GainVector,
    ReducedObservation,
    complex_normal,
    derive_rng,
    sample_channel,
    sample_scenario,
)

from channels import explicit_channel


@pytest.fixture(scope="module")
def scenario():
    return sample_scenario(5, derive_rng(601))


def small_config(scenario, **overrides):
    defaults = dict(
        experiment_id="unit",
        scenario=scenario,
        sweep=((4.0, 12),),
        trials_per_scenario=200,
        n_scenarios=4,
        target_pfa=0.05,
        master_seed=602,
        detectors=("np", "ed"),
        gain_policies=("waterfill", "equal"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestEstimatePdPfa:
    def test_threshold_extremes(self, scenario):
        ch = sample_channel(scenario, 8, derive_rng(603))
        gv = GainVector.equal_power(2.0, 5)
        t0, t1 = simulate_statistics("np", gv, ch, scenario, 500, 604)
        for threshold, rate in ((0.0, 1.0), (np.inf, 0.0)):
            assert np.mean(t1 > threshold) == rate and np.mean(t0 > threshold) == rate

    def test_requires_minimum_trials(self, scenario):
        ch = sample_channel(scenario, 8, derive_rng(605))
        with pytest.raises(ValueError):
            simulate_statistics("np", GainVector.equal_power(1.0, 5), ch, scenario, 0, 606)

    def test_statistics_reusable_across_thresholds(self, scenario):
        ch = sample_channel(scenario, 8, derive_rng(607))
        gv = GainVector.equal_power(2.0, 5)
        t0, t1 = simulate_statistics("np", gv, ch, scenario, 1000, 608)
        # one sampled set yields a whole operating curve
        pfas = [np.mean(t0 > thr) for thr in np.quantile(t0, [0.5, 0.9, 0.99])]
        assert pfas[0] > pfas[1] > pfas[2]

    def test_single_antenna_requires_one_antenna_channel(self, scenario):
        ch = sample_channel(scenario, 4, derive_rng(609))
        with pytest.raises(ValueError):
            simulate_statistics("np_single", GainVector.equal_power(1.0, 5), ch, scenario, 10, 610)


class TestTrialStream:
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_chunked_draws_equal_one_draw(self, scenario, m):
        """Three chunks of 7 trials equal one draw of 21, for every quantity.

        Draw equality is what makes the chunk size no part of the output
        contract.  Whole CSVs are not compared: ``mse_emp`` sums squared errors
        per chunk, so its last ulp depends on the chunk boundaries.  With five
        sensors, M = 1 and 4 have k = M and no outside energy; M = 16 draws it.
        """
        chunked = TrialStream(scenario, m, 611, (3, 1))
        pieces = [chunked.draw(7) for _ in range(3)]
        whole = TrialStream(scenario, m, 611, (3, 1)).draw(21)
        for k, name in enumerate(("theta", "v", "noise", "outside")):
            joined = np.concatenate([piece[k] for piece in pieces], axis=-1)
            assert np.array_equal(joined, whole[k]), name
        assert np.all(whole[3] > 0) if m > scenario.n_sensors else np.all(whole[3] == 0)

    def test_draw_shapes_and_distinct_paths(self, scenario):
        # Q^H n has k = min(M, N) rows; N = 5 here
        for m, k in ((1, 1), (4, 4), (6, 5), (16, 5)):
            theta, v, noise, outside = TrialStream(scenario, m, 612, (0,)).draw(4)
            assert theta.shape == (4,) and v.shape == (5, 4)
            assert noise.shape == (k, 4) and outside.shape == (4,)
            other = TrialStream(scenario, m, 612, (1,)).draw(4)
            assert not np.array_equal(theta, other[0])


def full_synthesis(channel, gains, scenario, trials, rng):
    """Independent M-vector trials: theta, y0 = H D v + n and y1 = y0 + H a theta."""
    m, n = channel.h_matrix.shape
    theta = complex_normal(rng, scenario.signal_var, trials)
    v = complex_normal(rng, 1.0, (n, trials)) * np.sqrt(scenario.meas_noise_vars)[:, None]
    noise = complex_normal(rng, scenario.fc_noise_var, (m, trials))
    y0 = channel.h_matrix @ (gains.gains[:, None] * v) + noise
    return theta, y0, y0 + np.outer(channel.h_matrix @ gains.gains, theta)


class TestReducedSampler:
    """The range(H) sampler against full M-vector synthesis on ten sensors,
    at M below and above N."""

    TRIALS = 4000

    @pytest.fixture(scope="class")
    def network(self):
        return sample_scenario(10, derive_rng(620))

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_statistics_match_full_synthesis(self, network, m):
        sc, trials = network, self.TRIALS
        ch = explicit_channel(sc, m, derive_rng(621, m))
        gv = GainVector.equal_power(5.0, sc.n_sensors)
        ctx = NpTestContext.build(gv, ch, sc)
        theta, y0, y1 = full_synthesis(ch, gv, sc, trials, derive_rng(622, m))
        pvalues = {}
        for det, statistic in (("np", partial(np_statistic, ctx)), ("ed", ed_statistic)):
            t0, t1 = simulate_statistics(det, gv, ch, sc, trials, 623, (m,))
            pvalues[f"{det} H0"] = ks_2samp(t0, statistic(y0)).pvalue
            pvalues[f"{det} H1"] = ks_2samp(t1, statistic(y1)).pvalue
        # LMMSE errors on the reduced draws of a trial stream
        theta_r, v, noise, outside = TrialStream(sc, m, 624, (m,)).draw(trials)
        z1 = (ch.r * gv.gains) @ v + noise + np.outer(ch.r @ gv.gains, theta_r)
        est_r = lmmse_estimate(ctx, ReducedObservation(z1, outside, ch.r, m))
        est = lmmse_estimate(ctx, y1)
        pvalues["lmmse"] = ks_2samp(np.abs(theta_r - est_r) ** 2, np.abs(theta - est) ** 2).pvalue
        assert min(pvalues.values()) >= 1e-3, pvalues

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_projected_block_gives_the_same_values(self, network, m):
        """Projecting one synthesized block onto range(H) changes no statistic."""
        sc = network
        ch = explicit_channel(sc, m, derive_rng(625, m))
        gv = GainVector.equal_power(5.0, sc.n_sensors)
        ctx = NpTestContext.build(gv, ch, sc)
        _, y0, y1 = full_synthesis(ch, gv, sc, 16, derive_rng(626, m))
        q, r = np.linalg.qr(ch.h_matrix)
        for y in (y0, y1, y1[:, 0]):
            z = q.conj().T @ y
            outside = np.sum(np.abs(y - q @ z) ** 2, axis=0)
            reduced = ReducedObservation(z, outside, r, m)
            for name, got, want in (
                ("np", np_statistic(ctx, reduced), np_statistic(ctx, y)),
                ("lmmse", lmmse_estimate(ctx, reduced), lmmse_estimate(ctx, y)),
                ("ed", ed_statistic(reduced), ed_statistic(y)),
            ):
                assert np.shape(got) == np.shape(want), name
                np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=name)


class TestConfigValidation:
    def test_rejects_bad_values(self, scenario):
        with pytest.raises(ValueError):
            small_config(scenario, trials_per_scenario=0)
        with pytest.raises(ValueError):
            small_config(scenario, target_pfa=1.0)
        with pytest.raises(ValueError):
            small_config(scenario, sweep=())
        with pytest.raises(ValueError):
            small_config(scenario, detectors=("bogus",))
        with pytest.raises(ValueError):
            small_config(scenario, detectors=("np_single",), gain_policies=("waterfill",))

    def test_curves_filter_compatible_pairs(self, scenario):
        cfg = small_config(
            scenario,
            detectors=("np", "np_single"),
            gain_policies=("waterfill", "single_antenna_optimal"),
        )
        assert cfg.curves() == (("np", "waterfill"), ("np_single", "single_antenna_optimal"))


class TestRunExperiment:
    def test_single_point_row_per_curve(self, scenario):
        cfg = small_config(scenario)
        result = run_experiment(cfg)
        assert len(result.rows) == len(cfg.curves())
        assert not result.errors
        for row in result.rows:
            assert row.trials == cfg.trials_per_scenario * cfg.n_scenarios
            assert 0.0 <= row.pd_emp <= 1.0
            assert 0.0 <= row.pfa_emp <= 1.0

    def test_empirical_agrees_with_theory_within_four_stderr(self, scenario):
        cfg = small_config(
            scenario,
            sweep=((6.0, 24),),
            trials_per_scenario=2000,
            n_scenarios=5,
            detectors=("np",),
            gain_policies=("waterfill",),
        )
        row = run_experiment(cfg).rows[0]
        stderr = max(row.stderr, 1e-4)
        assert abs(row.pd_emp - row.pd_theory) <= 4 * stderr
        assert abs(row.mse_emp - row.mse_theory) <= 0.05 * row.mse_theory

    def test_pd_nondecreasing_in_power(self, scenario):
        sweep = tuple((p, 16) for p in (0.5, 4.0, 32.0))
        cfg = small_config(scenario, sweep=sweep, detectors=("np",), gain_policies=("waterfill",))
        rows = run_experiment(cfg).rows
        pds = [r.pd_emp for r in rows]
        slack = 2 * max(r.stderr for r in rows)
        assert pds[1] >= pds[0] - slack
        assert pds[2] >= pds[1] - slack

    def test_failed_point_recorded_not_fatal(self, scenario, monkeypatch):
        cfg = small_config(
            scenario,
            sweep=((4.0, 12), (5.0, 13)),
            detectors=("np",),
            gain_policies=("waterfill",),
        )
        real_waterfill = np_gains.waterfill

        def exploding(sc, m, p):
            if m == 13:
                raise RuntimeError("forced failure")
            return real_waterfill(sc, m, p)

        monkeypatch.setattr("mimofusion.harness.np_gains.waterfill", exploding)
        result = run_experiment(cfg)
        assert len(result.errors) == 1 and result.errors[0][0] == 1
        assert len(result.rows) == 2
        assert np.isnan(result.rows[1].pd_emp)
        assert result.rows[1].trials == 0

    def test_units_share_decisions(self, scenario):
        """Curves on one (antenna group, policy) unit read one tally.

        ``ed_single`` reads the likelihood-ratio decisions of ``np_single``,
        and at M = 1 the ``np`` and ``np_single`` curves under ``equal`` are
        the same unit, so their rows differ only in the detector name.
        """
        cfg = small_config(
            scenario,
            sweep=((4.0, 12), (4.0, 1)),
            detectors=("np", "ed", "np_single", "ed_single"),
            gain_policies=("waterfill", "qclp", "equal", "single_antenna_optimal"),
        )
        result = run_experiment(cfg)
        assert not result.errors
        lines = result.to_csv().splitlines()[1:]
        rows = {(r.m, r.policy, r.detector): (r, line) for r, line in zip(result.rows, lines)}
        for m in (12, 1):
            for pol in ("equal", "single_antenna_optimal"):
                ed, np_ = rows[m, pol, "ed_single"][0], rows[m, pol, "np_single"][0]
                for field in ("pd_emp", "pfa_emp", "trials", "pd_theory"):
                    assert getattr(ed, field) == getattr(np_, field), (m, pol, field)
        multi = rows[1, "equal", "np"][1].split(",")
        single = rows[1, "equal", "np_single"][1].split(",")
        assert multi[2] == "np" and single[2] == "np_single"
        assert multi[:2] + multi[3:] == single[:2] + single[3:]

    def test_csv_schema(self, scenario):
        result = run_experiment(small_config(scenario))
        lines = result.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(result.rows)
        # NaN cells serialize as empty strings
        first = lines[1].split(",")
        assert len(first) == len(CSV_COLUMNS)
        assert "np.float64" not in result.to_csv()

    def test_numpy_sweep_values_serialize_plainly(self, scenario):
        cfg = small_config(
            scenario,
            sweep=((np.float64(2.0), np.int64(8)),),
            trials_per_scenario=100,
            n_scenarios=2,
            detectors=("np",),
            gain_policies=("equal",),
        )
        csv_text = run_experiment(cfg).to_csv()
        assert "np.float64" not in csv_text and "np.int64" not in csv_text


class TestManifest:
    def test_round_trip_reproduces_csv(self, scenario):
        cfg = small_config(scenario)
        replayed = config_from_manifest(manifest_dict(cfg))
        assert run_experiment(replayed).to_csv() == run_experiment(cfg).to_csv()

    @pytest.mark.parametrize("version", [None, 1, 2, STREAM_VERSION - 1, STREAM_VERSION + 1])
    def test_rejects_other_stream_versions(self, scenario, version):
        data = manifest_dict(small_config(scenario))
        if version is None:
            del data["stream_version"]
        else:
            data["stream_version"] = version
        with pytest.raises(ValueError, match="stream_version"):
            config_from_manifest(data)

    def test_scenario_frozen_explicitly(self, scenario):
        data = manifest_dict(small_config(scenario))
        assert data["scenario"]["distances"] == list(scenario.distances)
        assert data["scenario"]["meas_noise_vars"] == list(scenario.meas_noise_vars)


    @pytest.mark.parametrize("key, value", [
        ("M", float("inf")), ("M", 2.5), ("trials", 100.5),
        ("scenarios", float("nan")), ("master_seed", float("inf")),
    ])
    def test_rejects_nonintegral_counts(self, scenario, key, value):
        data = manifest_dict(small_config(scenario))
        if key == "M":
            data["sweep"][0][1] = value
        else:
            data[key] = value
        with pytest.raises(ValueError, match="integer"):
            config_from_manifest(data)


class TestResolveGains:
    def test_policies_meet_power_budget(self, scenario):
        for policy in ("waterfill", "equal", "qclp", "closed_form_low", "closed_form_high"):
            gv = resolve_gains(policy, scenario, 32, 3.0)
            assert gv.sum_power == pytest.approx(3.0, rel=1e-9)

    def test_unknown_policy_rejected(self, scenario):
        with pytest.raises(ValueError):
            resolve_gains("bogus", scenario, 32, 3.0)
