from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from mimofusion import harness, np_gains
from mimofusion.energy_detector import ed_statistic
from mimofusion.harness import (
    CSV_COLUMNS,
    DETECTORS,
    POLICIES,
    STREAM_VERSION,
    ExperimentConfig,
    ResultRow,
    TrialStream,
    config_from_manifest,
    manifest_dict,
    resolve_gains,
    run_experiment,
)
from mimofusion.lmmse import lmmse_error, lmmse_estimate
from mimofusion.np_detector import NpTestContext, np_statistic, steering_response
from mimofusion.scenario import (
    GainVector,
    complex_normal,
    derive_rng,
    sample_channel,
    sample_scenario,
)

from channels import (
    contracted_response,
    dense_steering,
    embedded_channel,
    explicit_channel,
    formed_blocks,
)
from oracles import score_units_one_by_one, simulate_statistics


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
        t0, t1 = simulate_statistics("np", gv, ch, 8, scenario, 500, 604)
        for threshold, rate in ((0.0, 1.0), (np.inf, 0.0)):
            assert np.mean(t1 > threshold) == rate and np.mean(t0 > threshold) == rate

    def test_requires_minimum_trials(self, scenario):
        ch = sample_channel(scenario, 8, derive_rng(605))
        with pytest.raises(ValueError):
            simulate_statistics("np", GainVector.equal_power(1.0, 5), ch, 8, scenario, 0, 606)

    def test_statistics_reusable_across_thresholds(self, scenario):
        ch = sample_channel(scenario, 8, derive_rng(607))
        gv = GainVector.equal_power(2.0, 5)
        t0, t1 = simulate_statistics("np", gv, ch, 8, scenario, 1000, 608)
        # one sampled set yields a whole operating curve
        pfas = [np.mean(t0 > thr) for thr in np.quantile(t0, [0.5, 0.9, 0.99])]
        assert pfas[0] > pfas[1] > pfas[2]

    def test_single_antenna_requires_one_antenna_channel(self, scenario):
        ch = sample_channel(scenario, 4, derive_rng(609))
        with pytest.raises(ValueError):
            simulate_statistics("np_single", GainVector.equal_power(1.0, 5), ch, 4, scenario, 10,
                                610)


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
        for k, name in enumerate(("theta", "eta", "xi", "outside")):
            joined = np.concatenate([piece[k] for piece in pieces], axis=-1)
            assert np.array_equal(joined, whole[k]), name
        assert np.all(whole[3] > 0) if m > scenario.n_sensors else np.all(whole[3] == 0)

    def test_draw_shapes_and_distinct_paths(self, scenario):
        # eta is one complex normal per trial and xi has k = min(M, N) rows; N = 5 here
        for m, k in ((1, 1), (4, 4), (6, 5), (16, 5)):
            theta, eta, xi, outside = TrialStream(scenario, m, 612, (0,)).draw(4)
            assert theta.shape == eta.shape == outside.shape == (4,) and xi.shape == (k, 4)
            other = TrialStream(scenario, m, 612, (1,)).draw(4)
            assert not np.array_equal(theta, other[0])
            assert not np.array_equal(eta, other[1])

    @pytest.mark.parametrize("m", [4, 16])
    def test_streams_built_only_for_what_is_read(self, scenario, m):
        """A stream builds eta only for ``lr`` and xi and the outside energy
        only for ``ed``, and a draw's values do not depend on which others are
        built: the likelihood-ratio and energy curves read the same values
        whichever curves share the run."""
        full = TrialStream(scenario, m, 613, (2, 5)).draw(9)
        for lr, ed in ((True, False), (False, True), (False, False)):
            part = TrialStream(scenario, m, 613, (2, 5), lr=lr, ed=ed).draw(9)
            for k, built in enumerate((True, lr, ed, ed)):
                assert np.array_equal(part[k], full[k]) if built else part[k] is None

    def test_children_keep_the_spawned_layout(self, scenario):
        """theta, xi and the outside energy are children 0 to 2 of the path's
        stream and eta child 3, so the energy detector's draws are those of
        the three-child layout that had no eta."""
        theta, eta, xi, outside = TrialStream(scenario, 16, 614, (1, 2)).draw(5)
        children = derive_rng(614, 1, 2).spawn(4)
        assert np.array_equal(theta, complex_normal(children[0], scenario.signal_var, 5))
        assert np.array_equal(xi, complex_normal(children[1], 1.0, (5, 5)).T)
        gamma = scenario.fc_noise_var * children[2].standard_gamma(11, 5)
        assert np.array_equal(outside, gamma)
        assert np.array_equal(eta, complex_normal(children[3], 1.0, 5))


def full_synthesis(explicit, gains, scenario, trials, rng):
    """Independent M-vector trials: theta, y0 = H D v + n and y1 = y0 + H a theta."""
    h = explicit.h
    m, n = h.shape
    theta = complex_normal(rng, scenario.signal_var, trials)
    v = complex_normal(rng, 1.0, (n, trials)) * np.sqrt(scenario.meas_noise_vars)[:, None]
    noise = complex_normal(rng, scenario.fc_noise_var, (m, trials))
    y0 = h @ (gains.gains[:, None] * v) + noise
    return theta, y0, y0 + np.outer(h @ gains.gains, theta)


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
        ex = explicit_channel(sc, m, derive_rng(621, m))
        gv = GainVector.equal_power(5.0, sc.n_sensors)
        ctx = NpTestContext.build(gv, ex.r, m, sc)
        theta, y0, y1 = full_synthesis(ex, gv, sc, trials, derive_rng(622, m))

        def lr_statistic(ctx, xi, theta, outside):
            return np_statistic(ctx, contracted_response(ctx, xi, theta))

        pvalues = {}
        for det, statistic in (("np", lr_statistic), ("ed", ed_statistic)):
            t0, t1 = simulate_statistics(det, gv, ex.r, m, sc, trials, 623, (m,))
            pvalues[f"{det} H0"] = ks_2samp(t0, statistic(ctx, *ex.reduce(y0, ctx))).pvalue
            pvalues[f"{det} H1"] = ks_2samp(t1, statistic(ctx, *ex.reduce(y1, ctx))).pvalue
        # LMMSE errors on the scalar-law draws of a trial stream
        theta_r, eta, _, _ = TrialStream(sc, m, 624, (m,)).draw(trials)
        err_r = lmmse_error(ctx, eta, theta_r)
        est = lmmse_estimate(ctx, contracted_response(ctx, *ex.reduce(y1, ctx)[:2]))
        pvalues["lmmse"] = ks_2samp(np.abs(err_r) ** 2, np.abs(theta - est) ** 2).pvalue
        assert min(pvalues.values()) >= 1e-3, pvalues

    @pytest.mark.parametrize("m", [1, 4, 16, 64])
    def test_whitened_forms_match_formed_blocks(self, network, m):
        """The O(k) forms on a stream's draws equal the dense statistics of the
        blocks they stand for, z0 = U Lambda^{1/2} xi and z1 = z0 + (R a) theta^T,
        and so does the steering response's scalar law on the contraction's
        noise; the context's law reproduces C0 = R E R^H + s I_k and R a."""
        sc = network
        ch = sample_channel(sc, m, derive_rng(627, m))
        gv = GainVector(GainVector.equal_power(5.0, sc.n_sensors).gains
                                   * np.exp(1j * np.arange(sc.n_sensors)))
        ctx = NpTestContext.build(gv, ch, m, sc)
        theta, _, xi, outside = TrialStream(sc, m, 628, (m,)).draw(64)
        u, lam = ctx.basis, ctx.eigenvalues
        e = gv.magnitudes_sq * sc.meas_noise_vars
        c0 = (ch * e) @ ch.conj().T + sc.fc_noise_var * np.eye(ch.shape[0])
        np.testing.assert_allclose((u * lam) @ u.conj().T, c0, rtol=0,
                                   atol=1e-12 * np.abs(c0).max())
        b = ch @ gv.gains
        np.testing.assert_allclose(u @ ctx.signal, b, rtol=0, atol=1e-12 * np.abs(b).max())
        z = np.stack(formed_blocks(ctx, theta, xi))  # (H0, H1) x k x T
        # Q^H w for w = C_w^{-1} H a, with Q = the first k columns of I_M
        ex = embedded_channel(ch, m)
        w = ex.q.conj().T @ dense_steering(ex, gv, sc)
        response = np.einsum("k,hkt->ht", w.conj(), z)
        hypotheses = np.stack((np.zeros_like(theta), theta))
        # the scalar law's eta is the contraction's noise in units of its sd sqrt(g)
        eta = contracted_response(ctx, xi, 0.0) / np.sqrt(ctx.snr)
        for name, got, want in (
            ("response", contracted_response(ctx, xi, hypotheses), response),
            ("scalar law", steering_response(ctx, eta, hypotheses), response),
            ("np", np_statistic(ctx, steering_response(ctx, eta, hypotheses)),
             sc.signal_var * np.abs(response) ** 2),
            ("ed", ed_statistic(ctx, xi, hypotheses, outside),
             (np.sum(np.abs(z) ** 2, axis=1) + outside) / m),
        ):
            assert np.shape(got) == (2, theta.size), name
            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_projected_block_gives_the_same_values(self, network, m):
        """Projecting one synthesized block onto range(H) changes no statistic:
        each equals its dense M-vector form, w^H y with w = C_w^{-1} H a
        and |y|^2 / M."""
        sc = network
        ex = explicit_channel(sc, m, derive_rng(625, m))
        gv = GainVector.equal_power(5.0, sc.n_sensors)
        ctx = NpTestContext.build(gv, ex.r, m, sc)
        _, y0, y1 = full_synthesis(ex, gv, sc, 16, derive_rng(626, m))
        w = dense_steering(ex, gv, sc)
        for y in (y0, y1, y1[:, :1]):
            xi, theta, outside = ex.reduce(y, ctx)
            response = w.conj() @ y
            for name, got, want in (
                ("np", np_statistic(ctx, contracted_response(ctx, xi, theta)),
                 sc.signal_var * np.abs(response) ** 2),
                ("lmmse", lmmse_estimate(ctx, contracted_response(ctx, xi, theta)),
                 response / (1.0 / sc.signal_var + ctx.snr)),
                ("ed", ed_statistic(ctx, xi, theta, outside), np.sum(np.abs(y) ** 2, axis=0) / m),
            ):
                assert np.shape(got) == np.shape(want), name
                np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=name)


def _tally_fields(tally, trials: int) -> dict:
    """A unit's tally, its (counts, sums) slots, by the reference's field names."""
    counts, sums = tally
    return {**dict(zip(("lr_fa", "lr_det", "ed_fa", "ed_det"), counts.tolist())),
            **dict(zip(("err_sq", "pd_theory", "mse_theory", "deflection"), sums.tolist())),
            "trials": trials}


def _fields_read(detectors) -> tuple[str, ...]:
    """The tally fields a unit's rows read, given the detectors scored on it."""
    read = ("trials",)
    if set(detectors) - {"ed"}:
        read += ("lr_fa", "lr_det", "pd_theory")
    if "ed" in detectors:
        read += ("ed_fa", "ed_det")
    if {"np", "np_single"} & set(detectors):
        read += ("err_sq", "mse_theory")
    if {"ed", "ed_single"} & set(detectors):
        read += ("deflection",)
    return read


class TestStackedScorer:
    """The stacked scorer against the one-unit-at-a-time reference: every
    count exact, squared errors to 1e-12 and closed forms to 1e-14 relative,
    over scenario counts, antenna counts, chunk and block sizes and mixed
    detectors and policies."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        scenarios=st.sampled_from((1, 2, 5)),
        m_kind=st.sampled_from(("one", "three", "n", "massive")),
        chunk=st.sampled_from((7, 16)),
        chunks=st.integers(0, 3),
        rest=st.integers(1, 6),
        block_trials=st.sampled_from((1, 32, 1 << 20)),
        p=st.sampled_from((0.5, 4.0, 40.0)),
        detectors=st.sets(st.sampled_from(DETECTORS), min_size=1),
        policies=st.sets(st.sampled_from(POLICIES), min_size=1),
        seed=st.integers(0, 2**16),
    )
    def test_matches_one_unit_at_a_time(self, n, scenarios, m_kind, chunk, chunks, rest,
                                        block_trials, p, detectors, policies, seed):
        m = {"one": 1, "three": 3, "n": n, "massive": 4096}[m_kind]
        trials = chunks * chunk + rest  # never a multiple of the chunk size
        curves = [(d, q) for d in DETECTORS for q in POLICIES
                  if d in detectors and q in policies and harness.compatible(d, q)]
        assume(curves)
        config = ExperimentConfig(
            "stacked", sample_scenario(n, derive_rng(seed)), ((p, m),), trials, scenarios,
            0.05, seed, tuple(d for d in DETECTORS if d in detectors),
            tuple(q for q in POLICIES if q in policies),
        )
        with mock.patch.object(harness, "_CHUNK", chunk), \
                mock.patch.object(harness, "_BLOCK_TRIALS", block_trials):
            groups, gains, ed_thresholds = harness._prepare_point(config, p, m)
            for group, units in groups.items():
                got = harness._score_group(config, 0, p, group, units, gains, ed_thresholds)
                want = score_units_one_by_one(config, 0, p, group, units, gains, ed_thresholds)
                for pol, dets in units.items():
                    tally = _tally_fields(got[group, pol], scenarios * trials)
                    ref = want[group, pol]
                    for name in _fields_read(dets):
                        value, expected = tally[name], ref[name]
                        rel = {"err_sq": 1e-12}.get(name, 0 if name in (
                            "lr_fa", "lr_det", "ed_fa", "ed_det", "trials") else 1e-14)
                        assert abs(value - expected) <= rel * abs(expected), (
                            group, pol, name, value, expected)


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
        # a repeated entry would write each of its curves' rows once per repetition
        with pytest.raises(ValueError, match="repeated detector 'np'"):
            small_config(scenario, detectors=("np", "ed", "np"))
        with pytest.raises(ValueError, match="repeated gain policy 'equal'"):
            small_config(scenario, gain_policies=("waterfill", "equal", "equal"))
        # the id names the output files, so it must be a file name without a path
        for experiment_id in ("", ".", "..", "../up", "a/b", "a\\b"):
            with pytest.raises(ValueError, match="experiment id"):
                small_config(scenario, experiment_id=experiment_id)

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

    def test_cells_format_as_before(self):
        # NaN is blank and every other float its repr, for Python and numpy floats alike
        for value, cell in ((float("nan"), ""), (np.float64("nan"), ""), (np.inf, "inf"),
                            (0.1, "0.1"), (np.float64(1) / 3, repr(1 / 3)), (-0.0, "-0.0"),
                            (7, "7"), ("np", "np")):
            assert harness._fmt(value) == cell, value

    def test_csv_columns_are_result_row_fields(self):
        # rows are written field by field, so the header must name the fields in order
        assert [c.lower() for c in CSV_COLUMNS] == [f.name for f in fields(ResultRow)]

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


    @pytest.mark.parametrize("key, value", [
        ("scenario", [1.0]), ("experiment", None), ("target_pfa", "0.05"), ("trials", True),
        ("sweep", [[4.0]]), ("sweep", [4.0, 12]), ("policies", "equal"), ("detectors", [1]),
    ])
    def test_rejects_misshapen_fields(self, scenario, key, value):
        data = manifest_dict(small_config(scenario))
        if value is None:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            config_from_manifest(data)

    @pytest.mark.parametrize("key, value", [
        ("distances", None), ("meas_noise_vars", "0.3"), ("signal_var", [1.0]),
    ])
    def test_rejects_misshapen_scenario(self, scenario, key, value):
        data = manifest_dict(small_config(scenario))
        if value is None:
            del data["scenario"][key]
        else:
            data["scenario"][key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            config_from_manifest(data)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            config_from_manifest([1, 2])


class TestResolveGains:
    def test_policies_meet_power_budget(self, scenario):
        for policy in ("waterfill", "equal", "qclp", "closed_form_low", "closed_form_high"):
            gv = resolve_gains(policy, scenario, 32, 3.0)
            assert gv.magnitudes_sq.sum() == pytest.approx(3.0, rel=1e-9)

    def test_unknown_policy_rejected(self, scenario):
        with pytest.raises(ValueError):
            resolve_gains("bogus", scenario, 32, 3.0)
