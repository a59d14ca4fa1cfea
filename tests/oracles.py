"""Independent references the tests hold the package to.

None of these runs in the package: a direct sampler of the detector
statistics under both hypotheses on one channel draw (its factor R and
antenna count M, as the package holds it), a one-unit-at-a-time scorer of
the harness's tallies, the optimality residuals of the two gain solvers, the
scalar receiver's best ratio and SNR cap, the variance of a complex Gaussian
quadratic form, and a scenario serializer for config round trips.  The dense
explicit-H receiver lives in ``channels.py``.
"""

import numpy as np

from mimofusion import energy_detector, lmmse, np_detector, np_gains
from mimofusion.ed_gains import EdAllocationProblem
from mimofusion.harness import (
    _TAG_CHANNEL,
    _TAG_TRIALS,
    DETECTORS,
    SINGLE_DETECTORS,
    TrialStream,
)
from mimofusion.np_gains import WaterfillSolution
from mimofusion.scenario import GainVector, Scenario, derive_rng, sample_channel


def simulate_statistics(
    detector: str,
    gains: GainVector,
    r: np.ndarray,
    m: int,
    scenario: Scenario,
    trials: int,
    master_seed: int,
    path: tuple[int, ...] = (0,),
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the detector statistic under both hypotheses from one trial
    stream, on the channel draw r with M = m antennas.

    Returns (noise-only statistics, signal-present statistics); thresholding is
    left to the caller, so one sampled set serves a whole ROC sweep or any
    number of empirical rates.  The two hypotheses share each trial's signal
    and noise draws, read through :meth:`TrialStream.chunks`, as the harness
    reads them: ``np`` reads the steering response's scalar law, the others
    the whitened draws and outside energy of the range-of-H sampler.  The
    ``*_single`` detectors need a one-antenna channel and return |y|^2, the
    energy there.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    if detector in SINGLE_DETECTORS and m != 1:
        raise ValueError("single-antenna detectors need a one-antenna channel")
    ctx = np_detector.NpTestContext.build(gains, r, m, scenario)

    def statistic(eta, xi, theta, outside):
        if detector == "np":
            return np_detector.np_statistic(ctx, np_detector.steering_response(ctx, eta, theta))
        return energy_detector.ed_statistic(ctx, xi, theta, outside)

    stream = TrialStream(scenario, m, master_seed, path)
    t0, t1 = [], []
    for theta, eta, xi, outside in stream.chunks(trials):
        h0, h1 = statistic(eta, xi, np.stack((np.zeros_like(theta), theta)), outside)
        t0.append(h0)
        t1.append(h1)
    return np.concatenate(t0), np.concatenate(t1)


def score_units_one_by_one(config, point_idx, p, m, units, gains, ed_thresholds) -> dict:
    """The tallies of one antenna group's units, {policy: detectors}, scored
    one scenario and one unit at a time on single-unit contexts.

    This is the scorer the harness ran before it stacked scenarios and units:
    the same channel and trial-stream paths, every draw of a stream built
    whichever detectors read it, per unit and scenario the decisions and
    closed forms of its detectors, and the squared error as theta minus the
    estimate, merged over scenarios in index order.  Returns
    {(m, policy): {field: total}}: the four decision counts (lr_fa, lr_det,
    ed_fa, ed_det) and four sums (err_sq, pd_theory, mse_theory, deflection)
    of the harness's two per-unit arrays, and trials.
    """
    scenario = config.scenario
    sv, pfa = scenario.signal_var, config.target_pfa
    names = ("lr_fa", "lr_det", "ed_fa", "ed_det", "err_sq", "pd_theory", "mse_theory",
             "deflection", "trials")
    merged = {(m, pol): dict.fromkeys(names, 0) for pol in units}
    for s_idx in range(config.n_scenarios):
        r = sample_channel(
            scenario, m, derive_rng(config.master_seed, point_idx, s_idx, m, _TAG_CHANNEL)
        )
        tallies = {key: dict.fromkeys(names, 0) for key in merged}
        scored = []
        for pol, dets in units.items():
            tally = tallies[m, pol]
            a = gains[pol]
            if a is None:
                a = np_gains.single_antenna_optimal_gains(scenario, r[0], p)
            ctx = np_detector.NpTestContext.build(a, r, m, scenario)
            lr = any(det != "ed" for det in dets)
            estimates = "np" in dets or "np_single" in dets
            if lr:
                tally["pd_theory"] = np_detector.pd_closed_form(ctx.snr, sv, pfa)
            if estimates:
                tally["mse_theory"] = lmmse.mse_closed_form(ctx.snr, sv)
            if "ed" in dets or "ed_single" in dets:
                tally["deflection"] = energy_detector.deflection_exact(ctx)
            lr_thr = np_detector.threshold_for_pfa(ctx.snr, sv, pfa)
            ed_thr = ed_thresholds[pol] if "ed" in dets else None
            scored.append((tally, ctx, lr, lr_thr, ed_thr, estimates))
        stream = TrialStream(scenario, m, config.master_seed, (point_idx, s_idx, m, _TAG_TRIALS))
        for theta, eta, xi, outside in stream.chunks(config.trials_per_scenario):
            hypotheses = np.stack((np.zeros_like(theta), theta))
            for tally, ctx, lr, lr_thr, ed_thr, estimates in scored:
                tally["trials"] += theta.size
                if lr:
                    w = np_detector.steering_response(ctx, eta, hypotheses)
                    lr0, lr1 = np_detector.np_statistic(ctx, w)
                    tally["lr_fa"] += int(np.count_nonzero(lr0 > lr_thr))
                    tally["lr_det"] += int(np.count_nonzero(lr1 > lr_thr))
                if ed_thr is not None:
                    ed0, ed1 = energy_detector.ed_statistic(ctx, xi, hypotheses, outside)
                    tally["ed_fa"] += int(np.count_nonzero(ed0 > ed_thr))
                    tally["ed_det"] += int(np.count_nonzero(ed1 > ed_thr))
                if estimates:
                    est = lmmse.lmmse_estimate(ctx, w[1])
                    tally["err_sq"] += float(np.sum(np.abs(theta - est) ** 2))
        for key, tally in tallies.items():
            for name in names:
                merged[key][name] += tally[name]
    return merged


def waterfill_kkt_residual(sol: WaterfillSolution, scenario: Scenario, m: int) -> float:
    """Worst-case stationarity violation of a water-filling solution.

    Active sensors must have marginal SNR equal to the multiplier; inactive
    sensors must have marginal at zero power not exceeding it.
    """
    d_alpha = scenario.distances**scenario.path_loss_exp
    noise_dist = scenario.fc_noise_var * d_alpha
    marginal = m * noise_dist / (noise_dist + scenario.meas_noise_vars * m * sol.magnitudes_sq) ** 2
    active = sol.magnitudes_sq > 0
    resid = 0.0
    if active.any():
        resid = float(np.max(np.abs(marginal[active] - sol.multiplier)) / sol.multiplier)
    if (~active).any():
        slack = float(np.max(marginal[~active] - sol.multiplier) / sol.multiplier)
        resid = max(resid, slack)
    return resid


def b_tilde(problem: EdAllocationProblem) -> np.ndarray:
    """The regularized matrix Bt = diag(b) + c 11^T of the deflection problem, dense."""
    n = problem.n_sensors
    return np.diag(problem.b_diag) + problem.rank1_coeff * np.ones((n, n))


def certificate_residual(problem: EdAllocationProblem, x_unit: np.ndarray) -> float:
    """Worst violation (relative to max d_i) of the optimality conditions at x_unit.

    Maximizing x.d subject to x^T Bt x <= 1 and x >= 0 needs d - 2 nu Bt x + mu = 0
    with mu >= 0, mu_i x_i = 0 and x^T Bt x = 1; the product with x then gives
    nu = x.d / 2.  Everything is evaluated on the dense Bt of :func:`b_tilde`.
    """
    d = problem.d_vec
    bt_x = b_tilde(problem) @ x_unit
    nu = 0.5 * float(d @ x_unit)
    mu = 2.0 * nu * bt_x - d
    scale = float(np.max(d))
    support = x_unit > 1e-12 * float(np.max(x_unit))
    stationarity = float(np.max(np.abs(mu[support]))) if support.any() else np.inf
    dual_feas = float(max(0.0, -np.min(mu[~support]))) if (~support).any() else 0.0
    quad = float(x_unit @ bt_x)
    complementarity = float(np.max(np.abs(mu * x_unit))) if (~support).any() else 0.0
    return max(stationarity, dual_feas, complementarity, abs(quad - 1.0) * scale) / scale


def single_antenna_best_ratio(scenario: Scenario, h: np.ndarray, p: float) -> float:
    """SNR achieved by ``np_gains.single_antenna_optimal_gains``: signal_var * h^H R^{-1} h."""
    h = np.asarray(h, dtype=complex)
    r = np.abs(h) ** 2 * scenario.meas_noise_vars + scenario.fc_noise_var / p
    return float(scenario.signal_var * np.sum(np.abs(h) ** 2 / r))


def single_antenna_zeta(scenario: Scenario, h: np.ndarray, m: int) -> float:
    """Per-realization SNR cap for the scalar receiver on the 1/M power schedule.

    Equals (signal_var / 2M) * sum_i d_i**alpha / v_i * ||h||^2; shrinks to zero
    in probability as the antenna budget grows, so the scalar receiver's
    detection probability collapses to the false-alarm rate in that regime.
    """
    h = np.asarray(h, dtype=complex)
    d_alpha = scenario.distances**scenario.path_loss_exp
    coeff = scenario.signal_var * np.sum(d_alpha / scenario.meas_noise_vars) / (2.0 * m)
    return float(coeff * np.sum(np.abs(h) ** 2))


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario with explicit vectors (round-trips exactly)."""
    return "\n".join([
        f"n_sensors = {scenario.n_sensors}",
        "distances = " + ", ".join(repr(float(x)) for x in scenario.distances),
        "meas_noise_vars = " + ", ".join(repr(float(x)) for x in scenario.meas_noise_vars),
        f"signal_var = {scenario.signal_var!r}",
        f"fc_noise_var = {scenario.fc_noise_var!r}",
        f"path_loss_exp = {scenario.path_loss_exp!r}",
    ]) + "\n"


def quadratic_form_variance(a_matrix: np.ndarray) -> float:
    """Variance of z^H A z for standard complex Gaussian z and Hermitian A: tr(A^2).

    An independent oracle for the noise-only variance of the energy statistic.
    """
    a = np.asarray(a_matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    scale = max(float(np.max(np.abs(a))), 1.0)
    if not np.allclose(a, a.conj().T, rtol=1e-10, atol=1e-12 * scale):
        raise ValueError("input matrix must be Hermitian")
    # for Hermitian A, tr(A^2) equals the squared Frobenius norm
    return float(np.sum(np.abs(a) ** 2))
