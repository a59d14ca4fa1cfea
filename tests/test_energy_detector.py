import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimofusion.config import load_packaged_experiment
from mimofusion.energy_detector import (
    deflection_asymptotic,
    deflection_exact,
    ed_statistic,
    ed_threshold_for_pfa,
    eta_weights,
    single_antenna_deflection,
    weighted_chi2_tail,
)
from mimofusion.harness import resolve_gains
from mimofusion.np_detector import NpTestContext, SingleAntennaContext
from mimofusion.scenario import (
    GainVector,
    Scenario,
    complex_normal,
    derive_rng,
    sample_channel,
    sample_scenario,
)

from channels import explicit_channel, sample_observation
from oracles import quadratic_form_variance, simulate_statistics


def oracle_tail(weights, excess) -> float:
    """P(sum_i w_i E_i > excess) for distinct weights, from the partial-fraction
    form in mpmath; the working precision doubles until the cancellation among
    the terms leaves at least 20 significant digits."""
    dps = 30
    while True:
        with mpmath.workdps(dps):
            w = [mpmath.mpf(float(v)) for v in weights]
            x = mpmath.mpf(float(excess))
            terms = []
            for i, wi in enumerate(w):
                coeff = wi ** (len(w) - 1)
                for j, wj in enumerate(w):
                    if j != i:
                        coeff /= wi - wj
                terms.append(coeff * mpmath.exp(-x / wi))
            total = mpmath.fsum(terms)
            if total > 0 and max(abs(t) for t in terms) < total * mpmath.mpf(10) ** (dps - 20):
                return float(total)
        dps *= 2


def erlang_tail(k: int, rate: float) -> float:
    """P(Poisson(rate) < k): the tail of k equal-weight exponentials."""
    return math.fsum(math.exp(j * math.log(rate) - rate - math.lgamma(j + 1)) for j in range(k))


def oracle_pfa(thr, sc, m) -> tuple[float, float]:
    """Bulk level and the oracle's false-alarm rate at a returned threshold."""
    eta_pos = thr.eta[thr.eta > 0]
    offset = (m - eta_pos.size) / m * sc.fc_noise_var
    return offset, oracle_tail(eta_pos + sc.fc_noise_var / m, thr.gamma_hat - offset)


class TestStatistic:
    def test_zero_vector(self):
        sc = sample_scenario(3, derive_rng(400))
        ex = explicit_channel(sc, 8, derive_rng(400, 1))
        ctx = NpTestContext.build(GainVector.equal_power(1.0, 3), ex.r, ex.m, sc)
        assert ed_statistic(ctx, *ex.reduce(np.zeros((8, 1), complex), ctx)) == 0.0

    def test_block_matches_per_column_calls(self):
        sc = sample_scenario(3, derive_rng(407))
        ex = explicit_channel(sc, 16, derive_rng(408))
        gv = GainVector.equal_power(2.0, 3)
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        block = np.hstack(
            [sample_observation(ex, gv, sc, "H1", derive_rng(409, k)) for k in range(5)]
        )
        stats = ed_statistic(ctx, *ex.reduce(block, ctx))
        assert stats.shape == (5,)
        for k in range(5):
            one = ed_statistic(ctx, *ex.reduce(block[:, k:k + 1], ctx))[0]
            assert stats[k] == pytest.approx(one, rel=1e-12)
            assert one == pytest.approx(np.vdot(block[:, k], block[:, k]).real / 16, rel=1e-12)

    def test_pure_noise_mean(self):
        sc = sample_scenario(3, derive_rng(401))
        ex = explicit_channel(sc, 16, derive_rng(402))
        gv = GainVector(np.zeros(3, complex))
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        rng = derive_rng(403)
        stats = [
            ed_statistic(ctx, *ex.reduce(sample_observation(ex, gv, sc, "H0", rng), ctx))
            for _ in range(4000)
        ]
        assert np.mean(stats) == pytest.approx(sc.fc_noise_var, rel=0.02)

    def test_signal_mean_matches_large_m_form(self):
        sc = sample_scenario(3, derive_rng(404))
        m = 512
        ch = sample_channel(sc, m, derive_rng(405))
        gv = GainVector.equal_power(4.0, 3)
        d_alpha = sc.distances**sc.path_loss_exp
        x = gv.magnitudes_sq
        mean_large_m = float(
            np.sum((sc.signal_var + sc.meas_noise_vars) * x / d_alpha) + sc.fc_noise_var
        )
        _, t1 = simulate_statistics("ed", gv, ch, m, sc, 4000, 406)
        assert np.mean(t1) == pytest.approx(mean_large_m, rel=0.1)


def mpmath_deflection(sc, ch, m, gv) -> float:
    """(signal_var a^H G a)^2 / (tr((E G)^2) + 2 s tr(E G) + M s^2) with
    G = R^H R and E = diag(|a_i|^2 v_i), in 40-digit arithmetic from the float
    R, gains and noise levels."""
    with mpmath.workdps(40):
        r = mpmath.matrix(ch.tolist())
        k, n = r.rows, r.cols
        g = [[mpmath.fsum(mpmath.conj(r[t, i]) * r[t, j] for t in range(k)) for j in range(n)]
             for i in range(n)]
        a = [mpmath.mpc(x) for x in gv.gains]
        e = [abs(x) ** 2 * mpmath.mpf(float(v)) for x, v in zip(a, sc.meas_noise_vars)]
        s = mpmath.mpf(sc.fc_noise_var)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        quad = mpmath.re(mpmath.fsum(mpmath.conj(a[i]) * g[i][j] * a[j] for i, j in pairs))
        tr_eg2 = mpmath.re(mpmath.fsum(e[i] * g[i][j] * e[j] * g[j][i] for i, j in pairs))
        tr_eg = mpmath.re(mpmath.fsum(e[i] * g[i][i] for i in range(n)))
        den = tr_eg2 + 2 * s * tr_eg + m * s**2
        return float((mpmath.mpf(sc.signal_var) * quad) ** 2 / den)


class TestDeflectionExact:
    def test_matches_mpmath_oracle(self):
        """On 300 networks (N 1 to 12, M 1 to 1e5, P 1e-4 to 1e4, four gain
        policies, distances 2 to 10 or 1 to 1000), and 16 more at P = 1e160,
        1e200, 1e300 and 1e-300, where |beta|^4 and sum Lambda^2 leave the
        float range, the deflection read from the context is within 1e-13
        relative of the Gram traces in 40 digits."""
        policies = ("waterfill", "equal", "qclp", "closed_form_low")
        # qclp raises above P ~ 1e154, so the extreme powers take the closed forms
        extreme = (1e160, 1e200, 1e300, 1e-300)
        extreme_policies = ("waterfill", "equal", "closed_form_low", "closed_form_high")
        rng = derive_rng(415)
        misses = []
        for i in range(300 + 4 * len(extreme)):
            n = int(rng.integers(1, 13))
            m = int(round(10.0 ** rng.uniform(0.0, 5.0)))
            p = 10.0 ** rng.uniform(-4.0, 4.0) if i < 300 else extreme[(i - 300) // 4]
            policy = (policies if i < 300 else extreme_policies)[i % 4]
            distances = ((2.0, 10.0), (1.0, 1000.0))[i // len(policies) % 2]
            sc = sample_scenario(n, derive_rng(415, i, 0), distance_range=distances)
            ch = sample_channel(sc, m, derive_rng(415, i, 1))
            gv = resolve_gains(policy, sc, m, p)
            got = deflection_exact(NpTestContext.build(gv, ch, m, sc))
            ref = mpmath_deflection(sc, ch, m, gv)
            if not abs(got - ref) <= 1e-13 * ref:
                misses.append((n, m, p, policy, abs(got - ref) / ref))
        assert not misses, misses

    def test_zero_gains(self):
        sc = sample_scenario(2, derive_rng(410))
        ch = sample_channel(sc, 8, derive_rng(411))
        zero = GainVector(np.zeros(2, complex))
        assert deflection_exact(NpTestContext.build(zero, ch, 8, sc)) == 0.0

    def test_matches_dense_traces(self):
        sc = Scenario(np.array([2.0, 3.5]), np.array([0.3, 0.45]), 1.2, 0.3, 2.0)
        ex = explicit_channel(sc, 8, derive_rng(412))
        gv = GainVector(np.array([0.7 - 0.3j, 0.4 + 0.9j]))
        h, a = ex.h, gv.gains
        cw = h @ np.diag(np.abs(a) ** 2 * sc.meas_noise_vars) @ h.conj().T
        cw += sc.fc_noise_var * np.eye(8)
        cs = sc.signal_var * np.outer(h @ a, (h @ a).conj())
        dense = np.trace(cs).real ** 2 / np.trace(cw @ cw).real
        ctx = NpTestContext.build(gv, ex.r, ex.m, sc)
        assert deflection_exact(ctx) == pytest.approx(dense, rel=1e-10)

    def test_converges_to_asymptotic_on_sqrt_m_schedule(self):
        sc = sample_scenario(3, derive_rng(413))
        p_vec = np.array([2.0, 1.0, 3.0])
        gaps = []
        for m in (100, 1000, 10000):
            x = p_vec / np.sqrt(m)
            target = deflection_asymptotic(x, sc, m)
            draws = [
                abs(
                    deflection_exact(NpTestContext.build(
                        GainVector.from_magnitudes_sq(x),
                        sample_channel(sc, m, derive_rng(414, m, k)),
                        m,
                        sc,
                    ))
                    - target
                )
                / target
                for k in range(8)
            ]
            gaps.append(np.median(draws))
        assert gaps[0] > gaps[-1]
        assert gaps[-1] < 0.05


class TestDeflectionAsymptotic:
    def test_zero_allocation(self):
        sc = sample_scenario(4, derive_rng(420))
        assert deflection_asymptotic(np.zeros(4), sc, 100) == 0.0

    def test_single_sensor_hand_expansion(self):
        # N=1, x=2, d=3, alpha=1, v=0.5, s=0.3, signal_var=1.5, M=10:
        # num = 1.5^2 (2/3)^2 = 1, den = (0.5^2/9)*4 + (2*0.3/10)(0.5/3)*2 + 0.09/10
        sc = Scenario(np.array([3.0]), np.array([0.5]), 1.5, 0.3, 1.0)
        expected = 1.0 / (1.0 / 9.0 + 0.02 + 0.009)
        assert deflection_asymptotic(np.array([2.0]), sc, 10) == pytest.approx(expected, rel=1e-12)

    def test_sqrt_m_schedule_approaches_m_free_form(self):
        sc = sample_scenario(5, derive_rng(421))
        p_vec = derive_rng(422).uniform(0.5, 3.0, 5)
        d_alpha = sc.distances**sc.path_loss_exp
        d_vec = 1.0 / d_alpha
        b_diag = sc.meas_noise_vars**2 / d_alpha**2
        m_free = (
            sc.signal_var**2 * float(p_vec @ d_vec) ** 2
            / (float(p_vec @ (b_diag * p_vec)) + sc.fc_noise_var**2)
        )
        value_big_m = deflection_asymptotic(p_vec / np.sqrt(1e8), sc, int(1e8))
        assert value_big_m == pytest.approx(m_free, rel=1e-3)

    def test_upper_bound_without_cross_term(self):
        sc = sample_scenario(4, derive_rng(423))
        x = derive_rng(424).uniform(0.1, 2.0, 4)
        gaps = []
        for m in (10, 100, 10_000):
            full = deflection_asymptotic(x, sc, m)
            bound = deflection_asymptotic(x, sc, m, include_cross_term=False)
            assert bound >= full
            gaps.append(bound / full - 1.0)
        assert gaps[0] > gaps[-1]
        assert gaps[-1] < 1e-2

    def test_modified_variant_uses_inflated_noise(self):
        sc = sample_scenario(4, derive_rng(425))
        x = np.full(4, 0.5)
        plain = deflection_asymptotic(x, sc, 50, variant="deflection")
        modified = deflection_asymptotic(x, sc, 50, variant="modified_deflection")
        assert modified < plain  # variance under the signal hypothesis is larger
        with pytest.raises(ValueError):
            deflection_asymptotic(x, sc, 50, variant="other")

    def test_rejects_negative_power(self):
        sc = sample_scenario(2, derive_rng(426))
        with pytest.raises(ValueError):
            deflection_asymptotic(np.array([-0.1, 0.2]), sc, 10)


class TestSingleAntennaDeflection:
    def test_zero_gains(self):
        sc = sample_scenario(3, derive_rng(430))
        h = explicit_channel(sc, 1, derive_rng(431)).h[0]
        assert single_antenna_deflection(GainVector(np.zeros(3, complex)), h, sc) == 0.0

    def test_equals_squared_snr_ratio(self):
        sc = sample_scenario(4, derive_rng(432))
        h = explicit_channel(sc, 1, derive_rng(433)).h[0]
        gv = GainVector.equal_power(3.0, 4)
        ctx = SingleAntennaContext.build(gv, h, sc)
        assert single_antenna_deflection(gv, h, sc) == pytest.approx(
            (ctx.sigma_s_sq / ctx.sigma_w_sq) ** 2, rel=1e-12
        )

    def test_reads_the_scalar_context_bit_for_bit(self):
        # the squared ratio of SingleAntennaContext's two powers, each written out
        rng = derive_rng(436)
        for i in range(200):
            sc = sample_scenario(1 + i % 10, derive_rng(437, i))
            h = explicit_channel(sc, 1, derive_rng(438, i)).h[0]
            raw = rng.standard_normal(sc.n_sensors) + 1j * rng.standard_normal(sc.n_sensors)
            gv = GainVector(raw * 10.0 ** rng.uniform(-3.0, 3.0))
            sig = sc.signal_var * abs(np.sum(gv.gains * h)) ** 2
            noise = float(
                np.sum(gv.magnitudes_sq * np.abs(h) ** 2 * sc.meas_noise_vars) + sc.fc_noise_var
            )
            assert single_antenna_deflection(gv, h, sc) == (sig / noise) ** 2, i

    def test_strictly_decreases_when_shrunk(self):
        sc = sample_scenario(4, derive_rng(434))
        h = explicit_channel(sc, 1, derive_rng(435)).h[0]
        gv = GainVector.equal_power(3.0, 4)
        base = single_antenna_deflection(gv, h, sc)
        for c in (0.9, 0.5, 0.1):
            shrunk = GainVector(c * gv.gains)
            assert single_antenna_deflection(shrunk, h, sc) < base


class TestWeightedChi2Tail:
    def scenario(self):
        return Scenario(np.array([2.0, 4.0, 7.0]), np.array([0.3, 0.4, 0.45]), 1.0, 0.3, 2.0)

    def test_single_weight_closed_form(self):
        sc = self.scenario()
        m = 200
        eta = np.array([0.08, 0.0, 0.0])  # zero entries fold into the bulk
        offset = (m - 1) / m * sc.fc_noise_var
        w = 0.08 + sc.fc_noise_var / m
        for gamma in (offset + 0.01, offset + 0.1, offset + 0.5):
            expected = np.exp(-(gamma - offset) / w)
            assert weighted_chi2_tail(eta, sc, m, gamma) == pytest.approx(expected, rel=1e-12)

    def test_tail_is_one_at_the_bulk_level(self):
        sc = self.scenario()
        m = 150
        for eta in (np.array([0.05, 0.11]), np.array([0.04, 0.09, 0.21])):
            k = eta.size
            offset = (m - k) / m * sc.fc_noise_var
            tail = weighted_chi2_tail(eta, sc, m, offset)
            # the bulk level is the least value of the limiting statistic
            assert tail == pytest.approx(1.0, abs=1e-9)

    def test_matches_monte_carlo_oracle(self):
        sc = self.scenario()
        m = 100
        eta = np.array([0.03, 0.095, 0.17])
        offset = (m - 3) / m * sc.fc_noise_var
        weights = eta + sc.fc_noise_var / m
        rng = derive_rng(440)
        samples = weights @ rng.standard_exponential((3, 1_000_000))
        for gamma in (offset + 0.05, offset + 0.2, offset + 0.6):
            emp = float(np.mean(samples > gamma - offset))
            tail = weighted_chi2_tail(eta, sc, m, gamma)
            assert abs(tail - emp) < 0.005

    def test_monotone_and_bounded(self):
        sc = self.scenario()
        m = 100
        eta = np.array([0.02, 0.06, 0.13])
        gammas = np.linspace(0.0, 3.0, 80)
        values = [weighted_chi2_tail(eta, sc, m, g) for g in gammas]
        assert np.all(np.diff(values) <= 1e-12)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_clustered_weights_match_high_precision_oracle(self):
        sc = self.scenario()
        m = 100
        eta = np.array([0.1, 0.1 * (1 + 1e-9), 0.25])
        offset = (m - 3) / m * sc.fc_noise_var
        weights = eta + sc.fc_noise_var / m
        for gamma in (0.5, offset + 0.1, offset + 0.6, offset + 2.0):
            expected = oracle_tail(weights, gamma - offset)
            assert weighted_chi2_tail(eta, sc, m, gamma) == pytest.approx(expected, rel=1e-12)

    def test_equal_weights_match_erlang_tail(self):
        sc = self.scenario()
        m = 100
        for k in (1, 2, 3, 40):
            eta = np.full(k, 0.1)
            offset = (m - k) / m * sc.fc_noise_var
            w = 0.1 + sc.fc_noise_var / m
            for excess in (0.01, 0.3, 1.0, 5.0):
                tail = weighted_chi2_tail(eta, sc, m, offset + excess)
                assert tail == pytest.approx(erlang_tail(k, excess / w), rel=1e-12)

    def test_all_zero_weights_rejected(self):
        sc = self.scenario()
        with pytest.raises(ValueError):
            weighted_chi2_tail(np.zeros(3), sc, 100, 0.5)

    def test_weight_spread_beyond_the_table_raises(self):
        # a spread of 1e4 over 100 weights needs more jumps than the table holds
        sc = self.scenario()
        eta = np.geomspace(1e-3, 10.0, 100)
        with pytest.raises(ValueError, match="spread too far"):
            ed_threshold_for_pfa(eta, sc, 10**5, 0.05)


class TestEdThreshold:
    def scenario(self):
        return Scenario(np.array([2.0, 4.0, 7.0]), np.array([0.3, 0.4, 0.45]), 1.0, 0.3, 2.0)

    def test_loose_target_approaches_bulk_level(self):
        sc = self.scenario()
        m = 100
        eta = np.array([0.03, 0.08, 0.15])
        offset = (m - 3) / m * sc.fc_noise_var
        gammas = [
            ed_threshold_for_pfa(eta, sc, m, eps).gamma_hat
            for eps in (0.9, 0.99, 0.9999, 0.999999)
        ]
        assert np.all(np.diff(gammas) < 0)
        assert gammas[-1] == pytest.approx(offset, abs=5e-3)
        assert gammas[-1] > offset

    def test_monotone_in_target(self):
        sc = self.scenario()
        eta = np.array([0.03, 0.08, 0.15])
        gammas = [ed_threshold_for_pfa(eta, sc, 100, eps).gamma_hat for eps in (0.2, 0.1, 0.05, 0.01)]
        assert np.all(np.diff(gammas) > 0)

    def test_inversion_consistency(self):
        sc = self.scenario()
        eta = np.array([0.03, 0.08, 0.15])
        thr = ed_threshold_for_pfa(eta, sc, 100, 0.05)
        assert not thr.mc_fallback
        back = weighted_chi2_tail(eta, sc, 100, thr.gamma_hat)
        assert back == pytest.approx(0.05, abs=2e-6)

    def test_small_targets_met_relative_to_target(self):
        # an absolute 1e-6 stop returned a tail of 3.1e-7 for a 1e-8 target
        sc = self.scenario()
        eta = np.array([0.03, 0.08, 0.15])
        for target in (1e-8, 1e-6):
            _, exact = oracle_pfa(ed_threshold_for_pfa(eta, sc, 100, target), sc, 100)
            assert exact == pytest.approx(target, rel=2e-5)

    def test_equal_weights_calibrated_against_erlang_tail(self):
        sc = self.scenario()
        m = 100
        for k in (1, 3, 10):
            eta = np.full(k, 0.1)
            thr = ed_threshold_for_pfa(eta, sc, m, 0.05)
            offset = (m - k) / m * sc.fc_noise_var
            rate = (thr.gamma_hat - offset) / (0.1 + sc.fc_noise_var / m)
            assert abs(erlang_tail(k, rate) - 0.05) <= 1e-6

    def test_empirical_false_alarm_rate(self):
        # channel-averaged false-alarm rate at a finite antenna count
        sc = self.scenario()
        m = 512
        gv = GainVector.equal_power(6.0, 3)
        thr = ed_threshold_for_pfa(eta_weights(gv, sc), sc, m, 0.05)
        fa = 0
        n_ch, per = 10, 2000
        for c in range(n_ch):
            ch = sample_channel(sc, m, derive_rng(444, c))
            t0, _ = simulate_statistics("ed", gv, ch, m, sc, per, 445, (c,))
            fa += int(np.count_nonzero(t0 > thr.gamma_hat))
        assert fa / (n_ch * per) == pytest.approx(0.05, abs=0.02)

    def test_rejects_bad_target(self):
        sc = self.scenario()
        with pytest.raises(ValueError):
            ed_threshold_for_pfa(np.array([0.1, 0.2, 0.3]), sc, 100, 1.0)


class TestThresholdAgainstOracle:
    def test_pinned_collapse_case(self):
        # the partial-fraction tail returned the bulk level here (realized rate 1)
        sc = sample_scenario(30, derive_rng(73))
        m = 1024
        thr = ed_threshold_for_pfa(
            eta_weights(resolve_gains("waterfill", sc, m, 10.0), sc), sc, m, 0.05
        )
        offset, pfa = oracle_pfa(thr, sc, m)
        assert thr.gamma_hat > offset
        assert abs(pfa - 0.05) <= 1e-6

    def test_fig5_left_edge_closed_form_high(self):
        cfg = load_packaged_experiment("fig5")
        p, m = cfg.sweep[0]
        assert p == 0.1
        sc = cfg.scenario
        gains = resolve_gains("closed_form_high", sc, m, p)
        thr = ed_threshold_for_pfa(eta_weights(gains, sc), sc, m, cfg.target_pfa)
        offset, pfa = oracle_pfa(thr, sc, m)
        assert thr.gamma_hat > offset
        assert abs(pfa - cfg.target_pfa) <= 1e-6


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 100),
    log_m=st.floats(0.0, 5.0),
    log_p=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**31 - 1),
    policy=st.sampled_from(("waterfill", "qclp", "equal")),
)
def test_threshold_hits_target_against_oracle(n, log_m, log_p, seed, policy):
    m = round(10.0**log_m)
    sc = sample_scenario(n, derive_rng(seed))
    gains = resolve_gains(policy, sc, m, 10.0**log_p)
    thr = ed_threshold_for_pfa(eta_weights(gains, sc), sc, m, 0.05)
    offset, pfa = oracle_pfa(thr, sc, m)
    assert thr.gamma_hat > offset
    assert abs(pfa - 0.05) <= 1e-6


class TestQuadraticFormVariance:
    def test_identity(self):
        assert quadratic_form_variance(np.eye(7)) == pytest.approx(7.0)

    def test_diagonal(self):
        assert quadratic_form_variance(np.diag([1.0, 2.0, 3.0])) == pytest.approx(14.0)

    def test_monte_carlo_variance(self):
        rng = derive_rng(450)
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = (raw + raw.conj().T) / 2
        z = complex_normal(rng, 2.0, (200_000, 8)) / np.sqrt(2.0)  # unit-variance entries
        forms = np.einsum("ti,ij,tj->t", z.conj(), a, z).real
        assert np.var(forms) == pytest.approx(quadratic_form_variance(a), rel=0.02)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            quadratic_form_variance(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            quadratic_form_variance(np.ones((2, 3)))


def test_empirical_deflection_matches_exact():
    sc = sample_scenario(4, derive_rng(460))
    ch = sample_channel(sc, 48, derive_rng(461))
    gv = GainVector.equal_power(30.0, 4)
    t0, t1 = simulate_statistics("ed", gv, ch, 48, sc, 100_000, 462)
    empirical = (np.mean(t1) - np.mean(t0)) ** 2 / np.var(t0)
    ctx = NpTestContext.build(gv, ch, 48, sc)
    assert empirical == pytest.approx(deflection_exact(ctx), rel=0.05)
