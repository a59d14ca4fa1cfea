import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mimofusion.np_detector import (
    DegenerateDetectorError,
    asymptotic_snr_from_power,
    snr_asymptotic,
)
from mimofusion.np_gains import (
    np_pd_bound,
    single_antenna_optimal_gains,
    snr_floor_power,
    waterfill,
)
from mimofusion.np_detector import SingleAntennaContext
from mimofusion.scenario import (
    GainVector,
    Scenario,
    derive_rng,
    sample_scenario,
)

from channels import explicit_channel
from oracles import single_antenna_best_ratio, single_antenna_zeta, waterfill_kkt_residual


def grid_search_best(scenario, m, p, resolution=1e-3):
    """Exhaustive simplex search of the large-M SNR at the given resolution."""
    n = scenario.n_sensors
    assert n == 3
    step = resolution * p
    axis = np.arange(0.0, p + step / 2, step)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    keep = x1 + x2 <= p + 1e-12
    x1, x2 = x1[keep], x2[keep]
    grid = np.stack([x1, x2, p - x1 - x2], axis=1)
    d_alpha = scenario.distances**scenario.path_loss_exp
    num = m * grid
    den = scenario.fc_noise_var * d_alpha + scenario.meas_noise_vars * num
    return float(np.max((num / den).sum(axis=1)))


def achieved_snr(sol, scenario, m) -> float:
    """The large-M SNR a water-filling solution reaches."""
    return asymptotic_snr_from_power(sol.magnitudes_sq, scenario, m)


class TestWaterfill:
    def test_extreme_power_is_finite_and_warning_free(self):
        # M x_i and (r + level)^2 overflow near 1e308, and s d^alpha / (M x_i)
        # at subnormal powers; neither extreme may warn
        sc = sample_scenario(10, derive_rng(73))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge, tiny = (achieved_snr(waterfill(sc, 50, p), sc, 50) for p in (1e308, 1e-320))
        assert np.isfinite(huge)
        assert huge == pytest.approx(np.sum(1.0 / sc.meas_noise_vars), rel=1e-12)
        assert 0.0 <= tiny < 1e-300

    def test_single_sensor_takes_all_power(self):
        sc = Scenario(np.array([3.0]), np.array([0.4]), 1.0, 0.3, 2.0)
        sol = waterfill(sc, 64, 7.5)
        assert sol.magnitudes_sq[0] == pytest.approx(7.5, rel=1e-9)

    def test_identical_sensors_split_evenly(self):
        sc = Scenario(np.full(4, 5.0), np.full(4, 0.3), 1.0, 0.3, 2.0)
        sol = waterfill(sc, 64, 8.0)
        assert_allclose(sol.magnitudes_sq, np.full(4, 2.0), rtol=1e-8)

    def test_power_budget_met(self):
        sc = sample_scenario(9, derive_rng(201))
        sol = waterfill(sc, 128, 3.7)
        assert sol.magnitudes_sq.sum() == pytest.approx(3.7, rel=1e-9)

    def test_matches_simplex_grid_search(self):
        for k in range(6):
            sc = sample_scenario(3, derive_rng(202, k))
            p = float(derive_rng(203, k).uniform(0.5, 20.0))
            m = 50
            assert achieved_snr(waterfill(sc, m, p), sc, m) >= grid_search_best(sc, m, p) - 1e-6

    def test_kkt_residuals_tiny(self):
        for k in range(10):
            sc = sample_scenario(6, derive_rng(204, k))
            sol = waterfill(sc, 100, float(derive_rng(205, k).uniform(0.1, 50.0)))
            assert waterfill_kkt_residual(sol, sc, 100) <= 1e-8

    def test_beats_equal_allocation(self):
        for k in range(10):
            sc = sample_scenario(5, derive_rng(206, k))
            p = float(derive_rng(207, k).uniform(0.1, 30.0))
            equal = asymptotic_snr_from_power(np.full(5, p / 5), sc, 80)
            assert achieved_snr(waterfill(sc, 80, p), sc, 80) >= equal - 1e-12

    def test_permutation_invariance(self):
        sc = sample_scenario(6, derive_rng(208))
        perm = derive_rng(209).permutation(6)
        sc_perm = Scenario(
            sc.distances[perm], sc.meas_noise_vars[perm],
            sc.signal_var, sc.fc_noise_var, sc.path_loss_exp,
        )
        x = waterfill(sc, 70, 5.0).magnitudes_sq
        x_perm = waterfill(sc_perm, 70, 5.0).magnitudes_sq
        assert_allclose(x_perm, x[perm], rtol=1e-7, atol=1e-12)

    def test_snr_approaches_information_limit_from_below(self):
        sc = sample_scenario(5, derive_rng(210))
        limit = float(np.sum(1.0 / sc.meas_noise_vars))
        snrs = [achieved_snr(waterfill(sc, 60, p), sc, 60) for p in (1.0, 10.0, 100.0, 1e4, 1e6)]
        assert np.all(np.diff(snrs) > 0)
        assert np.all(np.asarray(snrs) < limit)
        assert snrs[-1] == pytest.approx(limit, rel=1e-3)

    def test_rejects_bad_arguments(self):
        sc = sample_scenario(3, derive_rng(211))
        with pytest.raises(ValueError):
            waterfill(sc, 10, 0.0)
        with pytest.raises(ValueError):
            waterfill(sc, 0, 1.0)
        for p in (np.nan, np.inf):
            with pytest.raises(ValueError):
                waterfill(sc, 10, p)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 100),
    log_m=st.floats(0.0, 5.0),
    log_p=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**31 - 1),
    network=st.sampled_from(("sampled", "far", "identical")),
)
def test_budget_and_kkt_met_to_rounding(n, log_m, log_p, seed, network):
    m = round(10.0**log_m)
    p = 10.0**log_p
    rng = derive_rng(seed)
    if network == "identical":
        d, v = rng.uniform(2.0, 1000.0), rng.uniform(0.25, 0.5)
        sc = Scenario(np.full(n, d), np.full(n, v), 1.0, 0.3, 2.0)
    else:
        distance_range = (2.0, 1000.0) if network == "far" else (2.0, 10.0)
        sc = sample_scenario(n, rng, distance_range=distance_range)
    sol = waterfill(sc, m, p)
    assert np.all(sol.magnitudes_sq >= 0)
    assert abs(sol.magnitudes_sq.sum() - p) <= 1e-12 * p
    assert waterfill_kkt_residual(sol, sc, m) <= 1e-12


def floor_powers(sc, m):
    """|a_i|^2 = s d_i**alpha / (2 v_i M): each forwarded-noise term pinned to
    half its distance-scaled receiver-noise term."""
    return sc.fc_noise_var * sc.distances**sc.path_loss_exp / (2.0 * sc.meas_noise_vars * m)


class TestSnrFloorGains:
    def test_power_identity_two_ways(self):
        sc = sample_scenario(8, derive_rng(220))
        m = 40
        d_alpha = sc.distances**sc.path_loss_exp
        closed = np.sum(sc.fc_noise_var * d_alpha / sc.meas_noise_vars) / (2 * m)
        assert floor_powers(sc, m).sum() == pytest.approx(closed, rel=1e-12)
        assert snr_floor_power(sc, m) == pytest.approx(closed, rel=1e-12)

    def test_doubling_antennas_halves_the_power(self):
        sc = sample_scenario(5, derive_rng(221))
        assert snr_floor_power(sc, 64) == pytest.approx(snr_floor_power(sc, 32) / 2, rel=1e-12)

    def test_achieves_one_third_snr(self):
        sc = sample_scenario(5, derive_rng(222))
        gv = GainVector.from_magnitudes_sq(floor_powers(sc, 128))
        assert gv.magnitudes_sq.sum() == pytest.approx(snr_floor_power(sc, 128), rel=1e-12)
        assert snr_asymptotic(gv, sc, 128) == pytest.approx(
            np.sum(1.0 / sc.meas_noise_vars) / 3.0, rel=1e-12
        )


class TestSingleAntennaOptimalGains:
    def test_single_sensor_full_power_aligned(self):
        sc = Scenario(np.array([4.0]), np.array([0.3]), 1.0, 0.3, 2.0)
        h = np.array([0.3 - 0.4j])
        gv = single_antenna_optimal_gains(sc, h, 9.0)
        assert abs(gv.gains[0]) == pytest.approx(3.0, rel=1e-12)
        product = gv.gains[0] * h[0]
        assert product.imag == pytest.approx(0.0, abs=1e-12)
        assert product.real > 0

    def test_power_constraint_exact(self):
        sc = sample_scenario(7, derive_rng(230))
        h = explicit_channel(sc, 1, derive_rng(231)).h[0]
        gv = single_antenna_optimal_gains(sc, h, 5.0)
        assert gv.magnitudes_sq.sum() == pytest.approx(5.0, rel=1e-9)

    def test_achieves_closed_form_ratio(self):
        sc = sample_scenario(6, derive_rng(232))
        h = explicit_channel(sc, 1, derive_rng(233)).h[0]
        gv = single_antenna_optimal_gains(sc, h, 4.0)
        ctx = SingleAntennaContext.build(gv, h, sc)
        assert ctx.sigma_s_sq / ctx.sigma_w_sq == pytest.approx(
            single_antenna_best_ratio(sc, h, 4.0), rel=1e-10
        )

    def test_beats_random_feasible_gains(self):
        sc = sample_scenario(8, derive_rng(234))
        h = explicit_channel(sc, 1, derive_rng(235)).h[0]
        p = 6.0
        best = single_antenna_best_ratio(sc, h, p)
        rng = derive_rng(236)
        for _ in range(200):
            raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            raw *= np.sqrt(p / np.sum(np.abs(raw) ** 2))
            ctx = SingleAntennaContext.build(GainVector(raw), h, sc)
            assert ctx.sigma_s_sq / ctx.sigma_w_sq <= best * (1 + 1e-12)

    def test_zero_channel_rejected(self):
        sc = sample_scenario(3, derive_rng(237))
        with pytest.raises(DegenerateDetectorError):
            single_antenna_optimal_gains(sc, np.zeros(3, complex), 1.0)

    def test_extreme_power_is_finite_and_warning_free(self):
        # the plain r = |h|^2 v + s / p squares to 0 below p ~ 1e-154, and
        # p / sum |h|^2 / r^2 overflows at p = 1e308 on a strong channel
        sc = sample_scenario(10, derive_rng(73))
        h = explicit_channel(sc, 1, derive_rng(238)).h[0]
        strong = Scenario(np.array([0.5, 0.6]), np.array([0.3, 0.3]), 1.0, 0.3, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in (1e-160, 1e-4, 1.0, 1e4, 1e300, 1e308):
                assert single_antenna_optimal_gains(sc, h, p).magnitudes_sq.sum() == pytest.approx(
                    p, rel=1e-12
                ), p
            for p in (1e-300, 1e-320):
                assert np.all(single_antenna_optimal_gains(sc, h, p).gains != 0), p
            gv = single_antenna_optimal_gains(strong, np.array([10.0, 8.0j]), 1e308)
        assert gv.magnitudes_sq.sum() == pytest.approx(1e308, rel=1e-12)


class TestPdBounds:
    def test_noisy_sensors_give_no_information(self):
        sc = Scenario(np.array([2.0, 3.0]), np.array([1e12, 1e12]), 1.0, 0.3, 2.0)
        assert np_pd_bound(sc, "low_power", 0.05) == pytest.approx(0.05, rel=1e-6)
        assert np_pd_bound(sc, "high_power", 0.05) == pytest.approx(0.05, rel=1e-6)

    def test_high_power_bound_dominates(self):
        sc = sample_scenario(10, derive_rng(240))
        assert np_pd_bound(sc, "high_power", 0.05) >= np_pd_bound(sc, "low_power", 0.05)

    def test_bad_regime_rejected(self):
        sc = sample_scenario(3, derive_rng(241))
        with pytest.raises(ValueError):
            np_pd_bound(sc, "medium", 0.05)
        with pytest.raises(ValueError):
            np_pd_bound(sc, "low_power", 1.5)


def test_single_antenna_zeta_shrinks_with_antenna_budget():
    sc = sample_scenario(6, derive_rng(250))
    medians = []
    for m in (10, 100, 1000):
        vals = [
            single_antenna_zeta(sc, explicit_channel(sc, 1, derive_rng(251, m, k)).h[0], m)
            for k in range(30)
        ]
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]
