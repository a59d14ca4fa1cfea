"""Linear minimum-MSE estimation of the common signal.

The estimator shares the whitened steering vector with the likelihood-ratio
detector, so the heavy N x N solve is done once per (channel, gains) pair.
Its error variance is 1 / (1/signal_var + g), with g the same detection SNR
the detector maximizes: the two optimization problems coincide.
"""

from __future__ import annotations

import numpy as np

from .np_detector import NpTestContext, _power_limit_snr, steering_response
from .scenario import ReducedObservation, Scenario


def mse_closed_form(snr: float, signal_var: float) -> float:
    """Error variance 1 / (1/signal_var + snr); equals the prior variance at snr 0."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return 1.0 / (1.0 / signal_var + snr)


def lmmse_estimate(ctx: NpTestContext, y: ReducedObservation | np.ndarray) -> complex | np.ndarray:
    """Estimate the signal using the cached context: w^H y / (1/signal_var + g).

    A received vector (M,) or its reduced form gives a complex estimate; a
    block gives one estimate per column.  At M = 1 this is the scalar
    receiver's estimator.  Its error variance is
    ``mse_closed_form(ctx.snr, signal_var)``, the same for every y.
    """
    return steering_response(ctx, y) / (1.0 / ctx.scenario.signal_var + ctx.snr)


def lmmse_mse_bound(scenario: Scenario, regime: str) -> float:
    """MSE bounds for the power-limit regimes.

    'low_power': upper bound on the achievable MSE under a 1/M power schedule.
    'high_power': the floor both scalar and multi-antenna receivers approach
    from above as the power budget grows.
    """
    return mse_closed_form(_power_limit_snr(scenario, regime), scenario.signal_var)
