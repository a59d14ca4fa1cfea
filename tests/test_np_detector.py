import numpy as np
import pytest

from mimofusion.harness import simulate_statistics
from mimofusion.np_detector import (
    DegenerateDetectorError,
    NpTestContext,
    SingleAntennaContext,
    np_statistic,
    pd_closed_form,
    single_antenna_pd,
    single_antenna_pfa,
    single_antenna_statistic,
    snr_asymptotic,
    snr_exact,
    threshold_for_pfa,
)
from mimofusion.np_gains import snr_floor_gains
from mimofusion.scenario import (
    GainVector,
    ReducedObservation,
    Scenario,
    derive_rng,
    sample_channel,
    sample_observation,
    sample_scenario,
)

from channels import explicit_channel


def small_scenario():
    return Scenario(np.array([2.0, 3.5]), np.array([0.3, 0.45]), 1.0, 0.3, 2.0)


def dense_noise_cov(sc, ch, gv):
    h, a = ch.h_matrix, gv.gains
    cw = h @ np.diag(np.abs(a) ** 2 * sc.meas_noise_vars) @ h.conj().T
    return cw + sc.fc_noise_var * np.eye(ch.m_antennas)


def dense_statistic(sc, ch, gv, y):
    cw = dense_noise_cov(sc, ch, gv)
    return sc.signal_var * abs(gv.gains.conj() @ ch.h_matrix.conj().T @ np.linalg.solve(cw, y)) ** 2


def dense_snr(sc, ch, gv):
    cw = dense_noise_cov(sc, ch, gv)
    ha = ch.h_matrix @ gv.gains
    return float((ha.conj() @ np.linalg.solve(cw, ha)).real)


class TestStatistic:
    def test_matches_dense_inverse_small_instance(self):
        sc = small_scenario()
        ch = explicit_channel(sc, 6, derive_rng(101))
        gv = GainVector.from_gains(np.array([0.4 - 0.1j, 0.2 + 0.7j]))
        ctx = NpTestContext.build(gv, ch, sc)
        for k in range(5):
            y = sample_observation(ch, gv, sc, "H1", derive_rng(102, k))
            ref = dense_statistic(sc, ch, gv, y)
            assert np_statistic(ctx, y) == pytest.approx(ref, rel=1e-10)

    def test_matches_dense_inverse_across_sizes(self):
        rng = derive_rng(103)
        for m in (2, 4, 8, 12, 16):
            n = int(rng.integers(1, 5))
            sc = sample_scenario(n, derive_rng(104, m))
            ch = explicit_channel(sc, m, derive_rng(105, m))
            gv = GainVector.from_gains(
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            ctx = NpTestContext.build(gv, ch, sc)
            y = sample_observation(ch, gv, sc, "H0", derive_rng(106, m))
            assert np_statistic(ctx, y) == pytest.approx(dense_statistic(sc, ch, gv, y), rel=1e-10)
            assert ctx.snr == pytest.approx(dense_snr(sc, ch, gv), rel=1e-10)

    def test_block_matches_per_column_calls(self):
        sc = small_scenario()
        ch = explicit_channel(sc, 6, derive_rng(114))
        gv = GainVector.from_gains(np.array([0.4 - 0.1j, 0.2 + 0.7j]))
        ctx = NpTestContext.build(gv, ch, sc)
        block = np.stack(
            [sample_observation(ch, gv, sc, "H1", derive_rng(115, k)) for k in range(5)], axis=1
        )
        stats = np_statistic(ctx, block)
        assert stats.shape == (5,)
        for k in range(5):
            assert stats[k] == pytest.approx(np_statistic(ctx, block[:, k]), rel=1e-12)

    def test_zero_gains_zero_statistic(self):
        sc = small_scenario()
        ch = explicit_channel(sc, 6, derive_rng(107))
        gv = GainVector.from_gains(np.zeros(2, complex))
        ctx = NpTestContext.build(gv, ch, sc)
        y = sample_observation(ch, GainVector.equal_power(1.0, 2), sc, "H1", derive_rng(108))
        assert np_statistic(ctx, y) == 0.0
        assert ctx.snr == 0.0

    def test_orthogonal_observation_zero_statistic(self):
        sc = small_scenario()
        ch = explicit_channel(sc, 6, derive_rng(109))
        gv = GainVector.from_gains(np.array([0.5, 0.3 + 0.2j]))
        ctx = NpTestContext.build(gv, ch, sc)
        w = ctx.whitened_steering
        z = derive_rng(110).standard_normal(6) + 1j * derive_rng(111).standard_normal(6)
        y = z - (np.vdot(w, z) / np.vdot(w, w)) * w
        assert np_statistic(ctx, y) < 1e-20

    def test_partial_support_matches_dense(self):
        # one sensor silent: the reduced solve must drop it, not fail
        sc = small_scenario()
        ch = explicit_channel(sc, 8, derive_rng(112))
        gv = GainVector.from_gains(np.array([0.0, 0.9 - 0.4j]))
        ctx = NpTestContext.build(gv, ch, sc)
        y = sample_observation(ch, gv, sc, "H1", derive_rng(113))
        assert np_statistic(ctx, y) == pytest.approx(dense_statistic(sc, ch, gv, y), rel=1e-10)

    def test_channel_without_h_has_no_m_vector(self):
        sc = small_scenario()
        ch = sample_channel(sc, 6, derive_rng(116))
        gv = GainVector.from_gains(np.array([0.4 - 0.1j, 0.2 + 0.7j]))
        ctx = NpTestContext.build(gv, ch, sc)
        with pytest.raises(ValueError, match="explicit H"):
            ctx.whitened_steering
        with pytest.raises(ValueError, match="explicit H"):
            np_statistic(ctx, np.ones(6, complex))
        z = np.ones((2, 3), complex)
        expected = sc.signal_var * np.abs((ch.r @ ctx.steering_coeffs).conj() @ z) ** 2
        reduced = ReducedObservation(z, np.zeros(3), ch.r, 6)
        np.testing.assert_allclose(np_statistic(ctx, reduced), expected, rtol=1e-12)


def two_solve_snr(sc, ch, gv):
    """g = (a^H G a - u^H K^{-1} u) / s with u = (G a)_s: the SNR by its own solve."""
    s = sc.fc_noise_var
    a, g = gv.gains, ch.gram
    e = gv.magnitudes_sq * sc.meas_noise_vars
    sup = e > 0
    quad = float(np.real(np.vdot(a, g @ a)))
    u = (g @ a)[sup]
    k = g[np.ix_(sup, sup)] + np.diag(s / e[sup])
    return max((quad - float(np.real(np.vdot(u, np.linalg.solve(k, u))))) / s, 0.0)


class TestSnr:
    def test_matches_separate_solve(self):
        """snr_exact reads the steering coefficients; the value is the one a
        second solve gives, to rounding, on full, partial and empty support."""
        for i, (n, m) in enumerate(((1, 1), (3, 2), (6, 24), (10, 500))):
            sc = sample_scenario(n, derive_rng(125, i))
            ch = sample_channel(sc, m, derive_rng(126, i))
            mags = derive_rng(127, i).uniform(0.0, 3.0, n)
            for keep in (np.ones(n, bool), np.arange(n) % 2 == 1, np.zeros(n, bool)):
                gv = GainVector.from_gains(np.where(keep, mags, 0.0) * np.exp(0.3j * np.arange(n)))
                g = snr_exact(gv, ch, sc)
                assert g == pytest.approx(two_solve_snr(sc, ch, gv), rel=1e-12, abs=1e-300)
                assert NpTestContext.build(gv, ch, sc).snr == g

    def test_single_sensor_matches_dense(self):
        sc = Scenario(np.array([2.5]), np.array([0.4]), 1.0, 0.3, 2.0)
        ch = explicit_channel(sc, 8, derive_rng(120))
        gv = GainVector.from_gains(np.array([1.3 + 0.1j]))
        assert snr_exact(gv, ch, sc) == pytest.approx(dense_snr(sc, ch, gv), rel=1e-10)

    def test_exact_converges_to_asymptotic(self):
        sc = sample_scenario(4, derive_rng(121))
        z = np.array([2.0, 1.0, 3.0, 0.5])  # fixed M*|a_i|^2 products
        errs = []
        for m in (64, 256, 1024, 4096):
            gv = GainVector.from_magnitudes_sq(z / m)
            target = snr_asymptotic(gv, sc, m)
            draws = [
                abs(snr_exact(gv, sample_channel(sc, m, derive_rng(122, m, k)), sc) - target)
                for k in range(10)
            ]
            errs.append(np.median(draws))
        assert errs[0] > errs[-1]
        assert errs[-1] < 0.05 * snr_asymptotic(GainVector.from_magnitudes_sq(z / 4096), sc, 4096)

    def test_asymptotic_zero_gains(self):
        sc = small_scenario()
        assert snr_asymptotic(GainVector.from_gains(np.zeros(2, complex)), sc, 100) == 0.0

    def test_asymptotic_large_power_limit(self):
        sc = sample_scenario(5, derive_rng(123))
        gv = GainVector.from_magnitudes_sq(np.full(5, 1e12))
        limit = np.sum(1.0 / sc.meas_noise_vars)
        assert snr_asymptotic(gv, sc, 1000) == pytest.approx(limit, rel=1e-6)

    def test_floor_gains_hit_one_third_of_limit(self):
        sc = sample_scenario(7, derive_rng(124))
        m = 300
        gv = snr_floor_gains(sc, m)
        assert snr_asymptotic(gv, sc, m) == pytest.approx(
            np.sum(1.0 / sc.meas_noise_vars) / 3.0, rel=1e-12
        )


class TestClosedForms:
    def test_threshold_values(self):
        assert threshold_for_pfa(1.0, 1.0, np.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
        assert threshold_for_pfa(3.0, 2.0, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-10)
        assert threshold_for_pfa(0.0, 1.0, 0.05) == 0.0

    def test_threshold_rejects_bad_pfa(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                threshold_for_pfa(1.0, 1.0, eps)

    def test_pd_values(self):
        assert pd_closed_form(0.0, 1.0, 0.05) == pytest.approx(0.05, rel=1e-12)
        assert pd_closed_form(1.0, 1.0, np.exp(-1.0)) == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert pd_closed_form(1e15, 1.0, 0.05) == pytest.approx(1.0, abs=1e-10)

    def test_pd_monotone_in_snr(self):
        values = [pd_closed_form(g, 1.0, 0.05) for g in (0.0, 0.5, 2.0, 10.0, 100.0)]
        assert np.all(np.diff(values) > 0)
        assert values[0] >= 0.05 and values[-1] < 1.0


class TestEmpiricalCalibration:
    def test_pfa_and_pd_match_closed_forms(self):
        sc = sample_scenario(6, derive_rng(130))
        ch = sample_channel(sc, 24, derive_rng(131))
        gv = GainVector.equal_power(4.0, 6)
        ctx = NpTestContext.build(gv, ch, sc, target_pfa=0.05)
        t0, t1 = simulate_statistics("np", gv, ch, sc, 20_000, 132)
        assert np.mean(t0 > ctx.threshold) == pytest.approx(0.05, abs=0.006)
        assert np.mean(t1 > ctx.threshold) == pytest.approx(
            pd_closed_form(ctx.snr, sc.signal_var, 0.05), abs=0.012
        )

    def test_pd_depends_on_gains_only_through_snr(self):
        # rescaled gains recalibrate to the closed form driven by the new SNR
        sc = sample_scenario(6, derive_rng(133))
        ch = sample_channel(sc, 24, derive_rng(134))
        for scale in (1.0, 3.0):
            gv = GainVector.from_gains(scale * GainVector.equal_power(2.0, 6).gains)
            ctx = NpTestContext.build(gv, ch, sc, target_pfa=0.05)
            _, t1 = simulate_statistics("np", gv, ch, sc, 20_000, 135)
            assert np.mean(t1 > ctx.threshold) == pytest.approx(
                pd_closed_form(ctx.snr, sc.signal_var, 0.05), abs=0.012
            )


class TestSingleAntenna:
    def test_context_quantities(self):
        sc = small_scenario()
        h = np.array([0.5 - 0.2j, -0.3 + 0.8j])
        gv = GainVector.from_gains(np.array([1.0 + 0.5j, 0.7]))
        ctx = SingleAntennaContext.build(gv, h, sc, target_pfa=0.1)
        coherent = np.sum(gv.gains * h)
        assert ctx.sigma_s_sq == pytest.approx(abs(coherent) ** 2, rel=1e-12)
        expected_noise = np.sum(np.abs(gv.gains * h) ** 2 * sc.meas_noise_vars) + 0.3
        assert ctx.sigma_w_sq == pytest.approx(expected_noise, rel=1e-12)
        assert single_antenna_pfa(ctx) == pytest.approx(0.1, rel=1e-12)

    def test_empirical_calibration(self):
        sc = sample_scenario(5, derive_rng(140))
        ch = explicit_channel(sc, 1, derive_rng(141))
        gv = GainVector.equal_power(6.0, 5)
        ctx = SingleAntennaContext.build(gv, ch.h_matrix[0], sc, target_pfa=0.05)
        t0, t1 = simulate_statistics("np_single", gv, ch, sc, 100_000, 142)
        assert np.mean(t0 > ctx.threshold) == pytest.approx(0.05, abs=0.01)
        assert np.mean(t1 > ctx.threshold) == pytest.approx(single_antenna_pd(ctx), abs=0.01)

    def test_decision_uses_threshold(self):
        sc = small_scenario()
        gv = GainVector.from_gains(np.array([1.0, 1.0]))
        ctx = SingleAntennaContext.build(gv, np.array([1.0, 1.0]), sc, target_pfa=0.05)
        assert single_antenna_statistic(ctx, 10.0 + 0.0j)
        assert not single_antenna_statistic(ctx, 0.01 + 0.0j)

    def test_degenerate_detector_rejected(self):
        sc = small_scenario()
        gv = GainVector.from_gains(np.array([1.0, -1.0]))  # gains cancel the channel sum
        ctx = SingleAntennaContext.build(gv, np.array([1.0, 1.0]), sc, target_pfa=0.05)
        assert ctx.sigma_s_sq == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(DegenerateDetectorError):
            single_antenna_statistic(ctx, 1.0 + 0.0j)

    def test_pd_limit_with_dominant_signal(self):
        # vanishing measurement noise sends sigma_s/sigma_w, and hence PD, to 1
        sc = Scenario(np.array([2.0, 3.5]), np.array([1e-12, 1e-12]), 1.0, 0.3, 2.0)
        h = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        gv = GainVector.from_gains(np.array([1e4 + 0.0j, 1e4 + 0.0j]))
        ctx = SingleAntennaContext.build(gv, h, sc, target_pfa=0.05)
        assert ctx.sigma_s_sq / ctx.sigma_w_sq > 1e6
        assert single_antenna_pd(ctx) > 0.999
