import warnings

import mpmath
import numpy as np
import pytest

from mimofusion.harness import TrialStream
from mimofusion.lmmse import lmmse_error, lmmse_mse_bound, mse_closed_form
from mimofusion.np_detector import NpTestContext, SingleAntennaContext
from mimofusion.scenario import (
    GainVector,
    Scenario,
    derive_rng,
    sample_channel,
    sample_scenario,
)

from channels import (
    contracted_response,
    dense_steering,
    explicit_channel,
    formed_blocks,
    sample_observation,
)


def estimate(ctx, response):
    """The LMMSE estimate w^H y / (1/signal_var + g) from the steering response
    w^H y."""
    return response / (1.0 / ctx.scenario.signal_var + ctx.snr)


def estimation_errors(sc, ex, gv, trials, seed):
    """Empirical squared errors and estimates of the signal over fresh trials.

    Trials are the harness's reduced draws, formed into z1 = Q^H y1 for a thin
    QR H = QR, and the estimate reads w^H y1 = (Q^H w)^H z1.
    """
    ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
    err_sq = np.empty(trials)
    est_minus_truth = np.empty(trials, dtype=complex)
    chunk = 4096
    w = ex.q.conj().T @ dense_steering(ex, gv, sc)  # Q^H w for w = C_w^{-1} H a
    stream = TrialStream(sc, ex.m, seed, (0,))
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        theta, _, xi, _ = stream.draw(stop - start)
        _, z1 = formed_blocks(ctx, theta, xi)
        est = (w.conj() @ z1) / (1.0 / sc.signal_var + ctx.snr)
        err_sq[start:stop] = np.abs(theta - est) ** 2
        est_minus_truth[start:stop] = est - theta
    return ctx, err_sq, est_minus_truth


class TestClosedForm:
    def test_zero_snr_returns_prior_variance(self):
        assert mse_closed_form(0.0, 2.5) == pytest.approx(2.5, rel=1e-12)

    def test_mse_vanishes_at_large_snr(self):
        assert mse_closed_form(1e15, 1.0) < 1e-14

    @pytest.mark.parametrize("signal_var", [1e-320, 1e308])
    def test_extreme_signal_variance_matches_mpmath(self, signal_var):
        """1/signal_var overflows at a subnormal variance and 1 + signal_var g
        at a huge one; the closed form does neither, and is within rounding
        of a 40-digit evaluation (one subnormal step where the result is
        subnormal)."""
        snrs = (0.0, 1e-3, 0.7, 30.0, 1e10)
        for g, got in zip(snrs, mse_closed_form(np.array(snrs), signal_var)):
            with mpmath.workdps(40):
                exact = float(1 / (1 / mpmath.mpf(signal_var) + mpmath.mpf(g)))
            assert abs(got - exact) <= max(4e-16 * exact, 5e-324), (g, got, exact)

    def test_monotone_in_snr(self):
        values = [mse_closed_form(g, 1.0) for g in (0.0, 0.1, 1.0, 10.0, 1000.0)]
        assert np.all(np.diff(values) < 0)

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            mse_closed_form(-0.1, 1.0)


class TestEstimator:
    def test_zero_gains_give_prior(self):
        sc = sample_scenario(4, derive_rng(301))
        ex = explicit_channel(sc, 8, derive_rng(302))
        gv = GainVector(np.zeros(4, complex))
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        y = sample_observation(ex, GainVector.equal_power(1.0, 4), sc, "H1", derive_rng(303))
        assert estimate(ctx, contracted_response(ctx, *ex.reduce(y, ctx)[:2])) == 0.0
        assert mse_closed_form(ctx.snr, sc.signal_var) == pytest.approx(sc.signal_var, rel=1e-12)

    def test_empirical_mse_matches_theory(self):
        sc = sample_scenario(6, derive_rng(304))
        ex = explicit_channel(sc, 32, derive_rng(305))
        gv = GainVector.equal_power(5.0, 6)
        ctx, err_sq, _ = estimation_errors(sc, ex, gv, 100_000, 306)
        theory = mse_closed_form(ctx.snr, sc.signal_var)
        assert np.mean(err_sq) == pytest.approx(theory, rel=0.03)

    def test_estimator_unbiased(self):
        sc = sample_scenario(5, derive_rng(307))
        ex = explicit_channel(sc, 16, derive_rng(308))
        gv = GainVector.equal_power(3.0, 5)
        ctx, err_sq, diff = estimation_errors(sc, ex, gv, 50_000, 309)
        stderr = np.std(diff.real) / np.sqrt(diff.size)
        assert abs(np.mean(diff.real)) <= 4 * stderr
        assert abs(np.mean(diff.imag)) <= 4 * np.std(diff.imag) / np.sqrt(diff.size)

    def test_bigger_snr_means_smaller_mse(self):
        sc = sample_scenario(6, derive_rng(310))
        ch = sample_channel(sc, 32, derive_rng(311))
        weak = NpTestContext.build(GainVector.equal_power(0.5, 6), ch, 32, sc)
        strong = NpTestContext.build(GainVector.equal_power(50.0, 6), ch, 32, sc)
        assert strong.snr > weak.snr
        assert mse_closed_form(strong.snr, 1.0) < mse_closed_form(weak.snr, 1.0)

    def test_matches_per_observation_call(self):
        sc = sample_scenario(4, derive_rng(312))
        ex = explicit_channel(sc, 8, derive_rng(313))
        gv = GainVector.equal_power(2.0, 4)
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        y = sample_observation(ex, gv, sc, "H1", derive_rng(314))
        result = estimate(ctx, contracted_response(ctx, *ex.reduce(y, ctx)[:2]))
        w = dense_steering(ex, gv, sc)  # w = C_w^{-1} H a
        manual = np.vdot(w, y) / (1.0 / sc.signal_var + ctx.snr)
        assert result[0] == pytest.approx(complex(manual), rel=1e-12)
        # an (M, T) block gives the per-column estimates
        block = np.hstack(
            [sample_observation(ex, gv, sc, "H1", derive_rng(314, k)) for k in range(6)]
        )
        batched = estimate(ctx, contracted_response(ctx, *ex.reduce(block, ctx)[:2]))
        assert batched.shape == (6,)
        for k in range(6):
            xi, theta, _ = ex.reduce(block[:, k:k + 1], ctx)
            one = estimate(ctx, contracted_response(ctx, xi, theta))[0]
            assert batched[k] == pytest.approx(one, rel=1e-12)

    @pytest.mark.parametrize("signal_var", [1.0, 1e200])
    def test_error_form_matches_theory_at_any_signal_variance(self, signal_var):
        """The error of the scalar-law estimate, in the form that does not
        cancel, keeps the closed-form variance when theta, about
        sqrt(signal_var), dwarfs it; theta minus the estimate would not."""
        sc = sample_scenario(6, derive_rng(315), signal_var=signal_var)
        ch = sample_channel(sc, 32, derive_rng(316))
        ctx = NpTestContext.build(GainVector.equal_power(5.0, 6), ch, 32, sc)
        theta, eta, _, _ = TrialStream(sc, 32, 317, (0,), ed=False).draw(50_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err_sq = np.abs(lmmse_error(ctx, eta, theta)) ** 2
        assert np.mean(err_sq) == pytest.approx(mse_closed_form(ctx.snr, signal_var), rel=0.05)


class TestSingleAntennaEstimator:
    def test_empirical_mse_matches_theory(self):
        """The estimator on a one-antenna channel is the scalar receiver's."""
        sc = sample_scenario(5, derive_rng(320))
        ex = explicit_channel(sc, 1, derive_rng(321))
        h = ex.h[0]
        gv = GainVector.equal_power(4.0, 5)
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        theta, _, xi, _ = TrialStream(sc, 1, 322, (0,)).draw(50_000)
        # the harness's whitened draws; formed, z1 = q^H y1 with q the
        # 1 x 1 factor of a QR of H
        result = estimate(ctx, contracted_response(ctx, xi, theta))
        _, z1 = formed_blocks(ctx, theta, xi)
        y1 = ex.q[0, 0] * z1[0]
        ref = SingleAntennaContext.build(gv, h, sc)
        g_s = ref.sigma_s_sq / (sc.signal_var * ref.sigma_w_sq)
        theory = mse_closed_form(g_s, sc.signal_var)
        assert mse_closed_form(ctx.snr, sc.signal_var) == pytest.approx(theory, rel=1e-12)
        coherent = np.sum(gv.gains * h)
        est = (np.conj(coherent) / ref.sigma_w_sq) * y1 / (1.0 / sc.signal_var + g_s)
        assert np.mean(np.abs(theta - result) ** 2) == pytest.approx(theory, rel=0.03)
        # the general estimator matches the scalar formula sample by sample
        assert result[3] == pytest.approx(complex(est[3]), rel=1e-12)


class TestBounds:
    def test_noisy_sensors_bound_at_prior(self):
        sc = Scenario(np.array([2.0, 5.0]), np.array([1e12, 1e12]), 1.3, 0.3, 2.0)
        assert lmmse_mse_bound(sc, "low_power") == pytest.approx(1.3, rel=1e-6)
        assert lmmse_mse_bound(sc, "high_power") == pytest.approx(1.3, rel=1e-6)

    def test_floor_below_low_power_bound(self):
        sc = sample_scenario(10, derive_rng(330))
        assert lmmse_mse_bound(sc, "high_power") <= lmmse_mse_bound(sc, "low_power")

    def test_bad_regime_rejected(self):
        sc = sample_scenario(3, derive_rng(331))
        with pytest.raises(ValueError):
            lmmse_mse_bound(sc, "mid")
