"""Likelihood-ratio detector for the coherent amplify-and-forward network.

The optimal test statistic is sigma_theta^2 |a^H H^H C_w^{-1} y|^2, where
C_w = H D V D^H H^H + sigma_n^2 I is the noise covariance at the receiver.
C_w^{-1} is always applied through the matrix inversion lemma with an N x N
solve on the Gram matrix (O(N^3)); the M x M covariance is never formed.  The
steering vector w = C_w^{-1} H a lies in range(H), so the statistic reads a
received vector only through its coordinates in range(H)
(:class:`ReducedObservation`), which is what the Monte Carlo harness samples.
Closed-form detection and false-alarm probabilities follow from the statistic
being a scaled chi-square variable with two degrees of freedom under both
hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ChannelRealization, GainVector, ReducedObservation, Scenario


class NumericalDegeneracyError(RuntimeError):
    """The reduced N x N system is singular (only possible without receiver noise)."""


class DegenerateDetectorError(ValueError):
    """The detector carries no signal information (zero effective signal power)."""


def _support(gains: GainVector, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Indices with nonzero forwarded-noise power, and those powers e_i = |a_i|^2 v_i."""
    e = gains.magnitudes_sq * scenario.meas_noise_vars
    return e > 0, e


def _steering_coefficients(
    gains: GainVector, channel: ChannelRealization, scenario: Scenario
) -> np.ndarray:
    """The N-vector c with C_w^{-1} H a = H c, from the Gram matrix alone.

    By the low-rank update identity C_w^{-1} = (1/s) (I - H_s K^{-1} H_s^H)
    with K = G_ss + s E_s^{-1}, where s is the receiver noise variance,
    E = diag(|a_i|^2 v_i) and the subscript keeps only sensors with nonzero
    forwarded noise, c = (a - K^{-1} (G a)_s) / s, the solve entering on the
    support only.
    """
    s = scenario.fc_noise_var
    sup, e = _support(gains, scenario)
    a = gains.gains
    c = a.copy()
    if sup.any():
        k = channel.gram[np.ix_(sup, sup)] + np.diag(s / e[sup])
        try:
            c[sup] -= np.linalg.solve(k, (channel.gram @ a)[sup])
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError("reduced noise-covariance system is singular") from exc
    return c / s


def snr_asymptotic(gains: GainVector, scenario: Scenario, m: int) -> float:
    """Large-M limit of the detection SNR; depends on gains only through |a_i|^2."""
    return asymptotic_snr_from_power(gains.magnitudes_sq, scenario, m)


def asymptotic_snr_from_power(x: np.ndarray, scenario: Scenario, m: int) -> float:
    """Large-M SNR sum_i M x_i / (s d_i^alpha + v_i M x_i) for powers x_i = |a_i|^2."""
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    x = np.asarray(x, dtype=float)
    d_alpha = scenario.distances**scenario.path_loss_exp
    num = m * x
    den = scenario.fc_noise_var * d_alpha + scenario.meas_noise_vars * num
    return float(np.sum(np.divide(num, den, out=np.zeros_like(num), where=den > 0)))


def _power_limit_snr(scenario: Scenario, regime: str) -> float:
    """Large-M SNR at a power limit, from info = sum_i 1/v_i: info / 3 on the
    1/M power schedule ('low_power'), info as the budget grows ('high_power')."""
    info = float(np.sum(1.0 / scenario.meas_noise_vars))
    if regime == "low_power":
        return info / 3.0
    if regime == "high_power":
        return info
    raise ValueError("regime must be 'low_power' or 'high_power'")


def threshold_for_pfa(snr: float, signal_var: float, target_pfa: float) -> float:
    """Threshold achieving the requested false-alarm probability.

    Under H0 the statistic is exponential with mean signal_var * snr, so the
    threshold is -signal_var * snr * ln(target_pfa).
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return float(-signal_var * snr * np.log(target_pfa))


def pd_closed_form(snr: float, signal_var: float, target_pfa: float) -> float:
    """Detection probability at the false-alarm-calibrated threshold.

    Equal to target_pfa ** (1 / (1 + signal_var * snr)), evaluated in log space
    so extreme targets or SNRs do not underflow.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return float(np.exp(np.log(target_pfa) / (1.0 + signal_var * snr)))


@dataclass(frozen=True, eq=False)
class NpTestContext:
    """Cached quantities for repeated evaluation of the likelihood-ratio statistic.

    steering_coeffs is the N-vector c with w = C_w^{-1} H a = H c, so each
    statistic costs one inner product.  threshold is None until a false-alarm
    target is supplied.
    """

    scenario: Scenario
    steering_coeffs: np.ndarray
    snr: float
    threshold: float | None = None

    @classmethod
    def build(
        cls,
        gains: GainVector,
        channel: ChannelRealization,
        scenario: Scenario,
        target_pfa: float | None = None,
    ) -> "NpTestContext":
        c = _steering_coefficients(gains, channel, scenario)
        # exact detection SNR g = a^H H^H C_w^{-1} H a = a^H H^H H c = a^H G c
        g = max(float(np.real(np.vdot(gains.gains, channel.gram @ c))), 0.0)
        thr = None
        if target_pfa is not None:
            thr = threshold_for_pfa(g, scenario.signal_var, target_pfa)
        return cls(scenario, c, g, thr)


def steering_response(ctx: NpTestContext, y: ReducedObservation) -> complex | np.ndarray:
    """w^H y, the one inner product the statistic and the LMMSE estimate read.

    With w = H c it is u^H z for u = R c and z = Q^H y.  For the whitened
    z = U Lambda^{1/2} xi + (R a) theta that is (Lambda^{1/2} U^H u)^H xi plus
    (u^H R a) theta, one k-vector contraction of the draws shared by every row
    of theta: a complex number for xi of shape (k,), one per column for a
    (k, T) block, one row per hypothesis for a (H, T) theta.
    """
    u = y.r @ ctx.steering_coeffs
    out = ((u.conj() @ y.basis) * np.sqrt(y.eigenvalues)) @ y.xi + np.vdot(u, y.signal) * y.theta
    return complex(out) if np.ndim(out) == 0 else out


def np_statistic(ctx: NpTestContext, response: complex | np.ndarray) -> float | np.ndarray:
    """Evaluate sigma_theta^2 |a^H H^H C_w^{-1} y|^2 from the steering response
    w^H y of :func:`steering_response`.

    One received vector gives a float; a block gives one value per column.
    """
    stat = ctx.scenario.signal_var * np.abs(response) ** 2
    return float(stat) if np.ndim(stat) == 0 else stat


@dataclass(frozen=True, eq=False)
class SingleAntennaContext:
    """Scalar-receiver closed forms: signal power, noise power, and threshold.

    The general path on a one-antenna channel is the same receiver; these
    scalar forms are the reference it is tested against.

    sigma_s_sq = signal_var * |sum_i a_i h_i|^2 and
    sigma_w_sq = sum_i |a_i h_i|^2 v_i + fc_noise_var.
    """

    gains: GainVector
    h: np.ndarray
    sigma_s_sq: float
    sigma_w_sq: float
    threshold: float | None = None

    @classmethod
    def build(
        cls,
        gains: GainVector,
        h: np.ndarray,
        scenario: Scenario,
        target_pfa: float | None = None,
    ) -> "SingleAntennaContext":
        h = np.asarray(h, dtype=complex)
        coherent = complex(np.sum(gains.gains * h))
        sig = float(scenario.signal_var * abs(coherent) ** 2)
        noise = float(
            np.sum(gains.magnitudes_sq * np.abs(h) ** 2 * scenario.meas_noise_vars)
            + scenario.fc_noise_var
        )
        thr = None
        if target_pfa is not None:
            thr = single_antenna_threshold_for_pfa(noise, target_pfa)
        return cls(gains, h, sig, noise, thr)


def single_antenna_threshold_for_pfa(sigma_w_sq: float, target_pfa: float) -> float:
    """|y|^2 is exponential with mean sigma_w_sq under H0; invert its tail."""
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    return float(-sigma_w_sq * np.log(target_pfa))


def single_antenna_statistic(ctx: SingleAntennaContext, y: complex) -> bool:
    """Decide the signal-present hypothesis from a scalar received sample."""
    if ctx.sigma_s_sq <= 0:
        raise DegenerateDetectorError("zero coherent signal power: decisions are uninformative")
    if ctx.threshold is None:
        raise ValueError("context has no threshold; build it with a target_pfa")
    return bool(abs(y) ** 2 > ctx.threshold)


def single_antenna_pd(ctx: SingleAntennaContext) -> float:
    """Closed-form detection probability exp(-thr / (sigma_s_sq + sigma_w_sq))."""
    if ctx.threshold is None:
        raise ValueError("context has no threshold; build it with a target_pfa")
    return float(np.exp(-ctx.threshold / (ctx.sigma_s_sq + ctx.sigma_w_sq)))


def single_antenna_pfa(ctx: SingleAntennaContext) -> float:
    """Closed-form false-alarm probability exp(-thr / sigma_w_sq)."""
    if ctx.threshold is None:
        raise ValueError("context has no threshold; build it with a target_pfa")
    return float(np.exp(-ctx.threshold / ctx.sigma_w_sq))
