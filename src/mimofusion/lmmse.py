"""Linear minimum-MSE estimation of the common signal.

The estimate w^H y / (1/signal_var + g), w = C_w^{-1} H a, reads the same
noise law (:class:`NpTestContext`) and steering response w^H y as the
likelihood-ratio detector, so the noise covariance is factored once per
(channel draw R, gains) pair.  Its error variance is 1 / (1/signal_var + g),
with g the same detection SNR the detector maximizes: the two optimization
problems coincide.  On the response's scalar law the error itself has a
closed form in the draws (:func:`lmmse_error`), which the harness tallies;
the estimate is never formed.
"""

from __future__ import annotations

import numpy as np

from .np_detector import NpTestContext, _float_if_scalar, _power_limit_snr
from .scenario import Scenario


def mse_closed_form(snr, signal_var: float):
    """Error variance 1 / (1/signal_var + snr), the prior variance at snr 0,
    written as sigma / (1/sigma + sigma snr), sigma^2 = signal_var, as
    :func:`lmmse_error` is, so 1/signal_var does not overflow at a subnormal
    variance: a float for a number, for an array one each, bit for bit the
    elements' own calls.  A negative SNR anywhere raises ValueError."""
    if (np.asarray(snr) < 0).any():
        raise ValueError("snr must be nonnegative")
    sd = np.sqrt(signal_var)
    return _float_if_scalar(sd / (1.0 / sd + sd * snr))


def lmmse_error(ctx: NpTestContext, eta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """theta minus its estimate from the response sqrt(g) eta + g theta of
    :func:`np_detector.steering_response`, written as
    (theta / sigma - sigma sqrt(g) eta) / (1/sigma + sigma g), sigma^2 the
    signal variance.

    theta minus the estimate loses every digit once theta outgrows the
    error, as it does at a large signal variance, and 1/sigma^2 overflows
    at a subnormal one; this form does neither.  eta and theta are shaped
    as for the steering response."""
    sd = np.sqrt(ctx.scenario.signal_var)
    g = np.asarray(ctx.snr)[..., None]
    return (theta / sd - (sd * np.sqrt(g)) * eta) / (1.0 / sd + sd * g)


def lmmse_mse_bound(scenario: Scenario, regime: str) -> float:
    """MSE bounds for the power-limit regimes.

    'low_power': upper bound on the achievable MSE under a 1/M power schedule.
    'high_power': the floor both scalar and multi-antenna receivers approach
    from above as the power budget grows.
    """
    return mse_closed_form(_power_limit_snr(scenario, regime), scenario.signal_var)
