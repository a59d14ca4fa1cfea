"""Likelihood-ratio detector for the coherent amplify-and-forward network.

The optimal test statistic is sigma_theta^2 |a^H H^H C_w^{-1} y|^2, where
C_w = H D V D^H H^H + sigma_n^2 I is the noise covariance at the receiver.
The steering vector w = C_w^{-1} H a lies in range(H), so for a thin QR
H = QR the statistic reads y only through z = Q^H y, whose noise covariance
is C0 = R E R^H + s I_k (k = min(M, N)).  :class:`NpTestContext` factors C0
once from a channel draw's factor R and antenna count M, C0 = U Lambda U^H,
and every statistic of the package reads that context plus the whitened
draws xi = Lambda^{-1/2} U^H (z - R a theta) of a block of trials, one per
column; the M x M covariance is never formed.  Closed-form detection and
false-alarm probabilities follow from the statistic being a scaled
chi-square variable with two degrees of freedom under both hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import GainVector, Scenario


class DegenerateDetectorError(ValueError):
    """The detector carries no signal information (zero effective signal power)."""


def snr_asymptotic(gains: GainVector, scenario: Scenario, m: int) -> float:
    """Large-M limit of the detection SNR; depends on gains only through |a_i|^2."""
    return asymptotic_snr_from_power(gains.magnitudes_sq, scenario, m)


def asymptotic_snr_from_power(x: np.ndarray, scenario: Scenario, m: int) -> float:
    """Large-M SNR sum_i M x_i / (s d_i^alpha + v_i M x_i) for powers x_i = |a_i|^2,
    each term taken as 1 / (s d_i^alpha / (M x_i) + v_i) so no power overflows it."""
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    x = np.asarray(x, dtype=float)
    noise_per_antenna = scenario.fc_noise_var * scenario.distances**scenario.path_loss_exp / m
    # a term is 0 where x_i = 0 or so small that its ratio would pass the float range
    ratio = np.divide(noise_per_antenna, x, out=np.full_like(x, np.inf),
                      where=x > noise_per_antenna / np.finfo(float).max)
    return float(np.sum(1.0 / (ratio + scenario.meas_noise_vars)))


def _power_limit_snr(scenario: Scenario, regime: str) -> float:
    """Large-M SNR at a power limit, from info = sum_i 1/v_i: info / 3 on the
    1/M power schedule ('low_power'), info as the budget grows ('high_power')."""
    info = float(np.sum(1.0 / scenario.meas_noise_vars))
    if regime == "low_power":
        return info / 3.0
    if regime == "high_power":
        return info
    raise ValueError("regime must be 'low_power' or 'high_power'")


def threshold_for_pfa(snr, signal_var: float, target_pfa: float):
    """Threshold achieving the requested false-alarm probability.

    Under H0 the statistic is exponential with mean signal_var * snr, so the
    threshold is -signal_var * snr * ln(target_pfa).  An array of SNRs gives
    one threshold each.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    if (np.asarray(snr) < 0).any():
        raise ValueError("snr must be nonnegative")
    return _float_if_scalar(-signal_var * snr * np.log(target_pfa))


def pd_closed_form(snr, signal_var: float, target_pfa: float):
    """Detection probability at the false-alarm-calibrated threshold.

    Equal to target_pfa ** (1 / (1 + signal_var * snr)), evaluated in log space
    so extreme targets or SNRs do not underflow: a float for a number, for an
    array one each, bit for bit the elements' own calls.  A negative SNR
    anywhere raises ValueError.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    if (np.asarray(snr) < 0).any():
        raise ValueError("snr must be nonnegative")
    return _float_if_scalar(np.exp(np.log(target_pfa) / (1.0 + signal_var * snr)))


def _float_if_scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def _dotc(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^H v over the last axis, for leading axes that broadcast."""
    return (u.conj()[..., None, :] @ v[..., None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class NpTestContext:
    """The H0 law of the reduced observation, read by every statistic.

    z = Q^H y (H = QR, thin) has the H0 covariance C0 = R E R^H + s I_k,
    E = diag(|a_i|^2 v_i), factored once as C0 = U Lambda U^H: ``basis`` U,
    ``eigenvalues`` Lambda (all >= s) and ``signal`` beta = U^H R a.  The SNR
    g = a^H H^H C_w^{-1} H a = b^H C0^{-1} b (b = R a) is taken in the
    stationary form 2 Re(b^H x) - x^H C0 x at x = U Lambda^{-1} beta, C0 x
    applied through F = R E^{1/2}: U is off by about eps |F|^2 / gap, which
    the plain sum beta^H Lambda^{-1} beta passes on to g (2e-12 relative at
    P = 3500, M = 173), the stationary form only squared.  threshold is None
    until a false-alarm target is supplied.

    One context may hold a stack of units, for instance (scenario, policy):
    the channel factor R and the gains carry leading axes that broadcast to
    the stack's shape B, every field gains B as leading axes (``snr`` and
    ``threshold`` become B-shaped arrays) and one ``eigh`` factors every
    C0 of the stack.  The statistics contract the draws with ``@``, so the
    units along B's last axis read the same draws.  A single unit is the case
    B = (): ``snr`` is a float.  The statistics read trials as columns, draws
    xi shaped (*A, k, T); one received vector is the case T = 1.
    """

    scenario: Scenario
    m_antennas: int
    basis: np.ndarray
    eigenvalues: np.ndarray
    signal: np.ndarray
    snr: float | np.ndarray
    threshold: float | np.ndarray | None = None

    @classmethod
    def build(
        cls,
        gains: GainVector | np.ndarray,
        r: np.ndarray,
        m: int,
        scenario: Scenario,
        target_pfa: float | None = None,
    ) -> "NpTestContext":
        """The law of one unit, or of a stack of units, on M = m antennas:
        ``gains`` is a :class:`GainVector` or complex gains (..., N), and the
        channel factor r (:func:`scenario.sample_channel`) is (..., k, N),
        k = min(M, N); their leading axes broadcast to the stack's shape."""
        a = gains.gains if isinstance(gains, GainVector) else np.asarray(gains, complex)
        r = np.asarray(r, complex)
        if m < 1 or r.ndim < 2 or r.shape[-2] != min(m, r.shape[-1]):
            raise ValueError("r must be a min(M, N) x N factor with M >= 1")
        s = scenario.fc_noise_var
        # C0's eigenvalues are those of F F^H, F = R E^{1/2}, on the s-level bulk
        f = r * np.sqrt(np.abs(a) ** 2 * scenario.meas_noise_vars)[..., None, :]
        f_h = np.swapaxes(f.conj(), -1, -2)
        lam, u = np.linalg.eigh(f @ f_h)
        lam = np.maximum(lam, 0.0) + s
        # b = R a, beta = U^H b, x and F^H x, formed as (..., k, 1) columns
        b = r @ a[..., None]
        beta = np.swapaxes(u.conj(), -1, -2) @ b
        x = u @ (beta / lam[..., None])
        fx = f_h @ x
        b, beta, x, fx = b[..., 0], beta[..., 0], x[..., 0], fx[..., 0]
        g = _float_if_scalar(2.0 * _dotc(b, x).real - _dotc(fx, fx).real - s * _dotc(x, x).real)
        thr = None
        if target_pfa is not None:
            thr = threshold_for_pfa(g, scenario.signal_var, target_pfa)
        return cls(scenario, m, u, lam, beta, g, thr)


def steering_response(
    ctx: NpTestContext, xi: np.ndarray, theta: complex | np.ndarray
) -> np.ndarray:
    """w^H y, the one inner product the statistic and the LMMSE estimate read.

    For z = U Lambda^{1/2} xi + (R a) theta it is beta^H Lambda^{-1} U^H z =
    (Lambda^{-1/2} beta)^H xi + g theta: one k-vector contraction of the draws
    shared by every row of theta.  For a single unit xi is (k, T), one trial
    per column, and theta a number, (T,) or (H, T) for H hypotheses sharing
    the draws; the result has one value per column, or one row per
    hypothesis.  For a stack of units of shape (*A, U), the U units of each
    index of A share the draws: xi is (*A, k, T), theta broadcasts against
    (*A, U, T), such as (H, *A, 1, T), and so does the result.
    """
    coef = (ctx.signal / np.sqrt(ctx.eigenvalues)).conj()
    return coef @ xi + np.asarray(ctx.snr)[..., None] * theta


def np_statistic(ctx: NpTestContext, response: np.ndarray) -> np.ndarray:
    """Evaluate sigma_theta^2 |a^H H^H C_w^{-1} y|^2 from the steering response
    w^H y of :func:`steering_response`, one value per entry."""
    return ctx.scenario.signal_var * np.abs(response) ** 2


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
            # |y|^2 is exponential with mean sigma_w_sq under H0; invert its tail
            if not 0.0 < target_pfa < 1.0:
                raise ValueError("target_pfa must lie in (0, 1)")
            thr = float(-noise * np.log(target_pfa))
        return cls(gains, h, sig, noise, thr)


def single_antenna_pd(ctx: SingleAntennaContext) -> float:
    """Closed-form detection probability exp(-thr / (sigma_s_sq + sigma_w_sq))."""
    if ctx.threshold is None:
        raise ValueError("context has no threshold; build it with a target_pfa")
    return float(np.exp(-ctx.threshold / (ctx.sigma_s_sq + ctx.sigma_w_sq)))
