"""Linear minimum-MSE estimation of the common signal.

The estimator reads the same noise law (:class:`NpTestContext`) and steering
response w^H y, w = C_w^{-1} H a, as the likelihood-ratio detector, so the
noise covariance is factored once per (channel draw R, gains) pair, and
estimates a block of trials, one per column, at once.
Its error variance is 1 / (1/signal_var + g), with g the same detection SNR
the detector maximizes: the two optimization problems coincide.
"""

from __future__ import annotations

import numpy as np

from .np_detector import NpTestContext, _float_if_scalar, _power_limit_snr
from .scenario import Scenario


def mse_closed_form(snr, signal_var: float):
    """Error variance 1 / (1/signal_var + snr), the prior variance at snr 0: a
    float for a number, for an array one each, bit for bit the elements' own
    calls.  A negative SNR anywhere raises ValueError."""
    if (np.asarray(snr) < 0).any():
        raise ValueError("snr must be nonnegative")
    return _float_if_scalar(1.0 / (1.0 / signal_var + snr))


def lmmse_estimate(ctx: NpTestContext, response: np.ndarray) -> np.ndarray:
    """Estimate the signal from the steering response w^H y of
    :func:`np_detector.steering_response`: w^H y / (1/signal_var + g).

    The response has one trial per entry of its last axis, after the units'
    axes of a stacked context, (..., *B, T); the result has one estimate per
    unit and trial.  At M = 1 this is the scalar receiver's estimator.  Its
    error variance is ``mse_closed_form(ctx.snr, signal_var)``, the same for
    every y.
    """
    return response / np.asarray(1.0 / ctx.scenario.signal_var + ctx.snr)[..., None]


def lmmse_mse_bound(scenario: Scenario, regime: str) -> float:
    """MSE bounds for the power-limit regimes.

    'low_power': upper bound on the achievable MSE under a 1/M power schedule.
    'high_power': the floor both scalar and multi-antenna receivers approach
    from above as the power budget grows.
    """
    return mse_closed_form(_power_limit_snr(scenario, regime), scenario.signal_var)
