import mpmath
import numpy as np
import pytest

from mimofusion.harness import MULTI_POLICIES, resolve_gains
from mimofusion.lmmse import mse_closed_form
from mimofusion.np_detector import (
    NpTestContext,
    SingleAntennaContext,
    np_statistic,
    pd_closed_form,
    single_antenna_pd,
    snr_asymptotic,
    steering_response,
    threshold_for_pfa,
)
from mimofusion.np_gains import snr_floor_gains
from mimofusion.scenario import (
    GainVector,
    Scenario,
    derive_rng,
    sample_channel,
    sample_scenario,
)

from channels import dense_steering, embedded_channel, explicit_channel, gram, sample_observation
from oracles import simulate_statistics


def small_scenario():
    return Scenario(np.array([2.0, 3.5]), np.array([0.3, 0.45]), 1.0, 0.3, 2.0)


def dense_noise_cov(sc, ex, gv):
    h, a = ex.h, gv.gains
    cw = h @ np.diag(np.abs(a) ** 2 * sc.meas_noise_vars) @ h.conj().T
    return cw + sc.fc_noise_var * np.eye(h.shape[0])


def dense_statistic(sc, ex, gv, y):
    cw = dense_noise_cov(sc, ex, gv)
    return sc.signal_var * abs(gv.gains.conj() @ ex.h.conj().T @ np.linalg.solve(cw, y)) ** 2


def dense_snr(sc, ex, gv):
    cw = dense_noise_cov(sc, ex, gv)
    ha = ex.h @ gv.gains
    return float((ha.conj() @ np.linalg.solve(cw, ha)).real)


class TestStatistic:
    def test_matches_dense_inverse_small_instance(self):
        sc = small_scenario()
        ex = explicit_channel(sc, 6, derive_rng(101))
        gv = GainVector.from_gains(np.array([0.4 - 0.1j, 0.2 + 0.7j]))
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        for k in range(5):
            y = sample_observation(ex, gv, sc, "H1", derive_rng(102, k))
            ref = dense_statistic(sc, ex, gv, y)
            stat = np_statistic(ctx, steering_response(ctx, *ex.reduce(y, ctx)[:2]))
            assert stat == pytest.approx(ref, rel=1e-10)

    def test_matches_dense_inverse_across_sizes(self):
        rng = derive_rng(103)
        for m in (2, 4, 8, 12, 16):
            n = int(rng.integers(1, 5))
            sc = sample_scenario(n, derive_rng(104, m))
            ex = explicit_channel(sc, m, derive_rng(105, m))
            gv = GainVector.from_gains(
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
            y = sample_observation(ex, gv, sc, "H0", derive_rng(106, m))
            ref = dense_statistic(sc, ex, gv, y)
            stat = np_statistic(ctx, steering_response(ctx, *ex.reduce(y, ctx)[:2]))
            assert stat == pytest.approx(ref, rel=1e-10)
            assert ctx.snr == pytest.approx(dense_snr(sc, ex, gv), rel=1e-10)

    def test_block_matches_per_column_calls(self):
        sc = small_scenario()
        ex = explicit_channel(sc, 6, derive_rng(114))
        gv = GainVector.from_gains(np.array([0.4 - 0.1j, 0.2 + 0.7j]))
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        block = np.hstack(
            [sample_observation(ex, gv, sc, "H1", derive_rng(115, k)) for k in range(5)]
        )
        stats = np_statistic(ctx, steering_response(ctx, *ex.reduce(block, ctx)[:2]))
        assert stats.shape == (5,)
        for k in range(5):
            one = np_statistic(ctx, steering_response(ctx, *ex.reduce(block[:, k:k + 1], ctx)[:2]))
            assert stats[k] == pytest.approx(one[0], rel=1e-12)

    def test_zero_gains_zero_statistic(self):
        sc = small_scenario()
        ex = explicit_channel(sc, 6, derive_rng(107))
        gv = GainVector.from_gains(np.zeros(2, complex))
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        y = sample_observation(ex, GainVector.equal_power(1.0, 2), sc, "H1", derive_rng(108))
        assert np_statistic(ctx, steering_response(ctx, *ex.reduce(y, ctx)[:2])) == 0.0
        assert ctx.snr == 0.0

    def test_orthogonal_observation_zero_statistic(self):
        sc = small_scenario()
        ex = explicit_channel(sc, 6, derive_rng(109))
        gv = GainVector.from_gains(np.array([0.5, 0.3 + 0.2j]))
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        w = dense_steering(ex, gv, sc)  # w = C_w^{-1} H a
        z = derive_rng(110).standard_normal(6) + 1j * derive_rng(111).standard_normal(6)
        y = (z - (np.vdot(w, z) / np.vdot(w, w)) * w)[:, None]
        assert np_statistic(ctx, steering_response(ctx, *ex.reduce(y, ctx)[:2])) < 1e-20

    def test_partial_support_matches_dense(self):
        # one sensor silent: the reduced solve must drop it, not fail
        sc = small_scenario()
        ex = explicit_channel(sc, 8, derive_rng(112))
        gv = GainVector.from_gains(np.array([0.0, 0.9 - 0.4j]))
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        y = sample_observation(ex, gv, sc, "H1", derive_rng(113))
        ref = dense_statistic(sc, ex, gv, y)
        stat = np_statistic(ctx, steering_response(ctx, *ex.reduce(y, ctx)[:2]))
        assert stat == pytest.approx(ref, rel=1e-10)

    def test_sampled_channel_reads_reduced_block(self):
        sc = small_scenario()
        ch = sample_channel(sc, 6, derive_rng(116))
        gv = GainVector.from_gains(np.array([0.4 - 0.1j, 0.2 + 0.7j]))
        ctx = NpTestContext.build(gv, ch, 6, sc)
        ex = embedded_channel(ch, 6)
        y = ex.q @ np.ones((2, 3), complex)
        expected = sc.signal_var * np.abs(dense_steering(ex, gv, sc).conj() @ y) ** 2
        stat = np_statistic(ctx, steering_response(ctx, *ex.reduce(y, ctx)[:2]))
        np.testing.assert_allclose(stat, expected, rtol=1e-12)


def two_solve_snr(sc, ch, gv):
    """g = (a^H G a - u^H K^{-1} u) / s with u = (G a)_s: the SNR by its own solve."""
    s = sc.fc_noise_var
    a, g = gv.gains, gram(ch)
    e = gv.magnitudes_sq * sc.meas_noise_vars
    sup = e > 0
    quad = float(np.real(np.vdot(a, g @ a)))
    u = (g @ a)[sup]
    k = g[np.ix_(sup, sup)] + np.diag(s / e[sup])
    return max((quad - float(np.real(np.vdot(u, np.linalg.solve(k, u))))) / s, 0.0)


def mpmath_snr(sc, ch, gv) -> float:
    """b^H C0^{-1} b with b = R a and C0 = R E R^H + s I_k, E = diag(|a_i|^2 v_i),
    solved in 50-digit arithmetic from the float R, gains and noise levels."""
    with mpmath.workdps(50):
        r = mpmath.matrix(ch.tolist())
        a = mpmath.matrix(gv.gains.tolist())
        e = [abs(x) ** 2 * mpmath.mpf(float(v)) for x, v in zip(a, sc.meas_noise_vars)]
        k, n = r.rows, r.cols
        c0 = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(k):
                c0[i, j] = mpmath.fsum(r[i, t] * e[t] * mpmath.conj(r[j, t]) for t in range(n))
            c0[i, i] += mpmath.mpf(sc.fc_noise_var)
        b = r * a
        x = mpmath.lu_solve(c0, b)
        return float(mpmath.re(mpmath.fsum(mpmath.conj(b[i]) * x[i] for i in range(k))))


class TestSnr:
    def test_matches_mpmath_oracle(self):
        """On 300 networks (N 1 to 11, M 1 to 1e5, P 1e-4 to 1e4, every
        multi-antenna gain policy, distances 2 to 10 or 1 to 1000) the SNR is
        within 1e-12 relative of a 50-digit solve."""
        rng = derive_rng(129)
        misses = []
        for i in range(300):
            n = int(rng.integers(1, 12))
            m = int(round(10.0 ** rng.uniform(0.0, 5.0)))
            p = 10.0 ** rng.uniform(-4.0, 4.0)
            policy = MULTI_POLICIES[i % len(MULTI_POLICIES)]
            distances = ((2.0, 10.0), (1.0, 1000.0))[i // len(MULTI_POLICIES) % 2]
            sc = sample_scenario(n, derive_rng(129, i, 0), distance_range=distances)
            ch = sample_channel(sc, m, derive_rng(129, i, 1))
            gv = resolve_gains(policy, sc, m, p)
            g = NpTestContext.build(gv, ch, m, sc).snr
            ref = mpmath_snr(sc, ch, gv)
            if not abs(g - ref) <= 1e-12 * ref:
                misses.append((n, m, p, policy, abs(g - ref) / ref))
        assert not misses, misses

    def test_matches_separate_solve(self):
        """The context's SNR, read from its eigendecomposition, is the one a
        separate solve gives, to rounding, on full, partial and empty support."""
        for i, (n, m) in enumerate(((1, 1), (3, 2), (6, 24), (10, 500))):
            sc = sample_scenario(n, derive_rng(125, i))
            ch = sample_channel(sc, m, derive_rng(126, i))
            mags = derive_rng(127, i).uniform(0.0, 3.0, n)
            for keep in (np.ones(n, bool), np.arange(n) % 2 == 1, np.zeros(n, bool)):
                gv = GainVector.from_gains(np.where(keep, mags, 0.0) * np.exp(0.3j * np.arange(n)))
                g = NpTestContext.build(gv, ch, m, sc).snr
                assert g == pytest.approx(two_solve_snr(sc, ch, gv), rel=1e-12, abs=1e-300)

    def test_single_sensor_matches_dense(self):
        sc = Scenario(np.array([2.5]), np.array([0.4]), 1.0, 0.3, 2.0)
        ex = explicit_channel(sc, 8, derive_rng(120))
        gv = GainVector.from_gains(np.array([1.3 + 0.1j]))
        snr = NpTestContext.build(gv, ex.r, ex.m, sc).snr
        assert snr == pytest.approx(dense_snr(sc, ex, gv), rel=1e-10)

    def test_exact_converges_to_asymptotic(self):
        sc = sample_scenario(4, derive_rng(121))
        z = np.array([2.0, 1.0, 3.0, 0.5])  # fixed M*|a_i|^2 products
        errs = []
        for m in (64, 256, 1024, 4096):
            gv = GainVector.from_magnitudes_sq(z / m)
            target = snr_asymptotic(gv, sc, m)
            draws = [
                abs(NpTestContext.build(gv, sample_channel(sc, m, derive_rng(122, m, k)), m, sc).snr
                    - target)
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

    def test_array_closed_forms_match_scalar_calls(self):
        # an (S, U) grid gives each element's own scalar call, bit for bit
        grid = np.exp(derive_rng(58).uniform(-30.0, 30.0, (5, 3)))
        grid[0, 0], grid[4, 2] = 0.0, 1e12
        for fn, args in ((pd_closed_form, (1.3, 0.05)), (mse_closed_form, (1.3,))):
            got = fn(grid, *args)
            want = [[fn(float(g), *args) for g in row] for row in grid]
            assert all(type(v) is float for row in want for v in row)
            assert got.shape == grid.shape
            assert got.tobytes() == np.array(want).tobytes(), fn.__name__
            bad = grid.copy()
            bad[3, 1] = -1e-300
            with pytest.raises(ValueError, match="nonnegative"):
                fn(bad, *args)

    def test_pd_monotone_in_snr(self):
        values = [pd_closed_form(g, 1.0, 0.05) for g in (0.0, 0.5, 2.0, 10.0, 100.0)]
        assert np.all(np.diff(values) > 0)
        assert values[0] >= 0.05 and values[-1] < 1.0


class TestEmpiricalCalibration:
    def test_pfa_and_pd_match_closed_forms(self):
        sc = sample_scenario(6, derive_rng(130))
        ch = sample_channel(sc, 24, derive_rng(131))
        gv = GainVector.equal_power(4.0, 6)
        ctx = NpTestContext.build(gv, ch, 24, sc, target_pfa=0.05)
        t0, t1 = simulate_statistics("np", gv, ch, 24, sc, 20_000, 132)
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
            ctx = NpTestContext.build(gv, ch, 24, sc, target_pfa=0.05)
            _, t1 = simulate_statistics("np", gv, ch, 24, sc, 20_000, 135)
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
        assert np.exp(-ctx.threshold / ctx.sigma_w_sq) == pytest.approx(0.1, rel=1e-12)

    def test_empirical_calibration(self):
        sc = sample_scenario(5, derive_rng(140))
        ex = explicit_channel(sc, 1, derive_rng(141))
        gv = GainVector.equal_power(6.0, 5)
        ctx = SingleAntennaContext.build(gv, ex.h[0], sc, target_pfa=0.05)
        t0, t1 = simulate_statistics("np_single", gv, ex.r, ex.m, sc, 100_000, 142)
        assert np.mean(t0 > ctx.threshold) == pytest.approx(0.05, abs=0.01)
        assert np.mean(t1 > ctx.threshold) == pytest.approx(single_antenna_pd(ctx), abs=0.01)

    def test_pd_limit_with_dominant_signal(self):
        # vanishing measurement noise sends sigma_s/sigma_w, and hence PD, to 1
        sc = Scenario(np.array([2.0, 3.5]), np.array([1e-12, 1e-12]), 1.0, 0.3, 2.0)
        h = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        gv = GainVector.from_gains(np.array([1e4 + 0.0j, 1e4 + 0.0j]))
        ctx = SingleAntennaContext.build(gv, h, sc, target_pfa=0.05)
        assert ctx.sigma_s_sq / ctx.sigma_w_sq > 1e6
        assert single_antenna_pd(ctx) > 0.999
