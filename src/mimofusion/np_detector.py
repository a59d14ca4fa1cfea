"""Likelihood-ratio detector for the coherent amplify-and-forward network.

The optimal test statistic is sigma_theta^2 |a^H H^H C_w^{-1} y|^2, where
C_w = H D V D^H H^H + sigma_n^2 I is the noise covariance at the receiver.
The steering vector w = C_w^{-1} H a lies in range(H), so for a thin QR
H = QR the statistic reads y only through z = Q^H y, whose noise covariance
is C0 = R E R^H + s I_k (k = min(M, N)).  :class:`NpTestContext` factors C0
once from a channel draw's factor R and antenna count M, C0 = U Lambda U^H;
the M x M covariance is never formed.  The detector and the LMMSE estimate
read a trial only through the steering response w^H y, drawn from its law
sqrt(g) eta + g theta, g the SNR and eta ~ CN(0, 1) (:func:`steering_response`).
The statistic is never formed: the decision |w^H y| > sqrt(g ln(1/pfa))
cancels the signal variance.  Closed-form detection and false-alarm
probabilities follow from the statistic being a scaled chi-square variable
with two degrees of freedom under both hypotheses.
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
    so extreme targets or SNRs do not underflow, and with sigma^2 = signal_var
    as exp((ln(target_pfa) / sigma) / (1/sigma + sigma snr)), so a huge
    signal variance does not overflow it: a float for a number, for an
    array one each, bit for bit the elements' own calls.  A negative SNR
    anywhere raises ValueError.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    if (np.asarray(snr) < 0).any():
        raise ValueError("snr must be nonnegative")
    sd = np.sqrt(signal_var)
    return _float_if_scalar(np.exp(np.log(target_pfa) / sd / (1.0 / sd + sd * snr)))


def _float_if_scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def _dotc(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^H v over the last axis, for leading axes that broadcast."""
    return (u.conj()[..., None, :] @ v[..., None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class NpTestContext:
    """The H0 law of the reduced observation, read by every statistic.

    z = Q^H y (H = QR, thin) has the H0 covariance C0 = R E R^H + s I_k,
    E = diag(|a_i|^2 v_i), factored once by the SVD F = R E^{1/2} = U Sigma V^H
    as C0 = U Lambda U^H: ``basis`` U, ``eigenvalues`` Lambda = Sigma^2 + s
    (descending) and ``signal`` beta = U^H R a = Sigma V^H c, with R a = F c for
    c_i = sign(a_i) / sqrt(v_i), exactly 0 off F's nonzero columns: F's null
    singular values come out near eps |F|, not 0, and weight on them would
    carry an O(1) error into the SNR at large power.  The SNR
    g = a^H H^H C_w^{-1} H a = sum |V^H c|^2 Sigma^2 / Lambda is a sum of
    nonnegative terms, accurate at any power; F F^H is never formed.

    One context may hold a stack of units, for instance (scenario, policy):
    the channel factor R and the gains carry leading axes that broadcast to
    the stack's shape B, every field gains B as leading axes (``snr``
    becomes a B-shaped array) and one ``svd`` factors every
    F of the stack.  The statistics broadcast a scenario's draws over the
    units along B's last axis, so those units read the same draws.  A single
    unit is the case B = (): ``snr`` is a float.  The statistics read trials
    along a trailing axis T; one received vector is the case T = 1.
    """

    scenario: Scenario
    m_antennas: int
    basis: np.ndarray
    eigenvalues: np.ndarray
    signal: np.ndarray
    snr: float | np.ndarray

    @classmethod
    def build(
        cls, gains: GainVector | np.ndarray, r: np.ndarray, m: int, scenario: Scenario
    ) -> "NpTestContext":
        """The law of one unit, or of a stack of units, on M = m antennas:
        ``gains`` is a :class:`GainVector` or complex gains (..., N), and the
        channel factor r (:func:`scenario.sample_channel`) is (..., k, N),
        k = min(M, N); their leading axes broadcast to the stack's shape."""
        a = gains.gains if isinstance(gains, GainVector) else np.asarray(gains, complex)
        r = np.asarray(r, complex)
        if m < 1 or r.ndim < 2 or r.shape[-2] != min(m, r.shape[-1]):
            raise ValueError("r must be a min(M, N) x N factor with M >= 1")
        # R a = F c with c = a / |E^{1/2}| on F's nonzero columns, 0 off them
        w = np.abs(a) * np.sqrt(scenario.meas_noise_vars)
        c = np.divide(a, w, out=np.zeros_like(a), where=w > 0)
        u, sigma, vh = np.linalg.svd(r * w[..., None, :], full_matrices=False)
        lam = sigma**2 + scenario.fc_noise_var
        t = (vh @ c[..., None])[..., 0]
        beta = sigma * t
        g = _float_if_scalar(np.sum((t.real**2 + t.imag**2) * (sigma**2 / lam), axis=-1))
        return cls(scenario, m, u, lam, beta, g)


def steering_response(
    ctx: NpTestContext, eta: np.ndarray, theta: complex | np.ndarray
) -> np.ndarray:
    """w^H y, the one number of a trial the statistic and the LMMSE estimate read.

    For z = U Lambda^{1/2} xi + (R a) theta it is (Lambda^{-1/2} beta)^H xi +
    g theta, and the contraction of xi ~ CN(0, I_k) is CN(0, g), as
    |Lambda^{-1/2} beta|^2 = g.  So the response is drawn from its scalar law
    sqrt(g) eta + g theta, eta ~ CN(0, 1) independent of theta: exact in
    distribution, one complex normal per trial whatever k.  eta and theta
    carry a trailing trial axis and broadcast against the units' shape B
    plus that axis, (*B, T): for a stack (*A, U) whose U units share a
    scenario's draws, eta is (*A, 1, T) and theta (H, *A, 1, T) for H
    hypotheses, giving (H, *A, U, T).
    """
    g = np.asarray(ctx.snr)[..., None]
    return np.sqrt(g) * eta + g * theta


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
