"""Transmit-gain optimization for the likelihood-ratio detector.

The large-M detection SNR is separable and concave in the per-sensor powers
x_i = |a_i|^2, so the optimal allocation under a sum-power budget is a
water-filling law in a single multiplier, solved in closed form with the
budget met to rounding.  Phase never enters the large-M objective; optimal
gains are returned real and nonnegative.
The scalar-receiver case keeps phase, where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .np_detector import (
    DegenerateDetectorError,
    _power_limit_snr,
    asymptotic_snr_from_power,
    pd_closed_form,
)
from .scenario import GainVector, Scenario


@dataclass(frozen=True, eq=False)
class WaterfillSolution:
    """Optimal per-sensor powers, the water-level multiplier, and the SNR achieved."""

    magnitudes_sq: np.ndarray
    multiplier: float
    achieved_snr: float
    iterations: int

    @property
    def gains(self) -> GainVector:
        return GainVector.from_magnitudes_sq(self.magnitudes_sq)


def waterfill(scenario: Scenario, m: int, p: float) -> WaterfillSolution:
    """Maximize the large-M detection SNR under sum power p, in closed form.

    With nd_i = s d_i**alpha, stationarity reads M nd_i / (nd_i + v_i M x_i)**2
    = lam, so with t = lam**-1/2, r_i = sqrt(nd_i / M) and w_i = r_i / v_i the
    powers are x_i = w_i max(t - r_i, 0).  On the K sensors with the lowest r_i
    the total power is linear in t, so one sorted prefix test gives K and the
    level follows exactly.  The prefix powers, the level and x are formed from
    the nonnegative differences r_K - r_j only, never from sqrt(nd_i M) t - nd_i,
    which cancels; the budget is met to rounding.
    """
    if not (np.isfinite(p) and p > 0):
        raise ValueError("sum power must be finite and positive")
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    noise_dist = scenario.fc_noise_var * scenario.distances**scenario.path_loss_exp
    r = np.sqrt(noise_dist / m)
    w = r / scenario.meas_noise_vars
    order = np.argsort(r, kind="stable")
    r_sorted, w_sorted = r[order], w[order]
    w_prefix = np.cumsum(w_sorted)
    # power at t = r_k on the k lowest sensors, accumulated over the gaps of r
    power_at_r = np.concatenate(([0.0], np.cumsum(w_prefix[:-1] * np.diff(r_sorted))))
    k = int(np.count_nonzero(power_at_r < p))
    level = (p - power_at_r[k - 1]) / w_prefix[k - 1]
    r_top = r_sorted[k - 1]
    x = np.zeros_like(r)
    active = order[:k]
    x[active] = w[active] * (level + (r_top - r[active]))
    lam = (1.0 / (r_top + level)) ** 2  # squared after the division, so it cannot overflow
    return WaterfillSolution(x, float(lam), asymptotic_snr_from_power(x, scenario, m), 1)


def snr_floor_gains(scenario: Scenario, m: int) -> GainVector:
    """Closed-form gains whose power shrinks as 1/M while the large-M SNR stays
    at exactly one third of its infinite-power limit.

    Each sensor's forwarded-noise term is pinned to half its distance-scaled
    receiver-noise term: |a_i|^2 = s d_i**alpha / (2 v_i M).
    """
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    d_alpha = scenario.distances**scenario.path_loss_exp
    x = scenario.fc_noise_var * d_alpha / (2.0 * scenario.meas_noise_vars * m)
    return GainVector.from_magnitudes_sq(x)


def snr_floor_power(scenario: Scenario, m: int) -> float:
    """Sum power of :func:`snr_floor_gains`: sum_i s d_i**alpha / (2 v_i M)."""
    return snr_floor_gains(scenario, m).sum_power


def single_antenna_optimal_gains(scenario: Scenario, h: np.ndarray, p: float) -> GainVector:
    """Gains maximizing the scalar receiver's signal-to-noise ratio at sum power p.

    Matched-filter solution a_i = c * conj(h_i) / r_i with
    r_i = |h_i|^2 v_i + s / p, normalized so the powers sum to p.  r is taken
    times q = min(p, 1), which keeps the direction and keeps r and the
    normalizing sum in range from subnormal powers to 1e308.
    """
    if p <= 0:
        raise ValueError("sum power must be positive")
    h = np.asarray(h, dtype=complex)
    if not np.any(h):
        raise DegenerateDetectorError("all-zero channel: no gain choice carries signal")
    q = min(p, 1.0)
    r = np.abs(h) ** 2 * scenario.meas_noise_vars * q + scenario.fc_noise_var * (q / p)
    direction = np.conj(h) / r
    scale = np.sqrt(p) / np.sqrt(np.sum(np.abs(h) ** 2 / r**2))
    return GainVector.from_gains(scale * direction)


def np_pd_bound(scenario: Scenario, regime: str, target_pfa: float) -> float:
    """Detection-probability bounds for the power-limit regimes.

    'low_power': lower bound reached on a 1/M power schedule, from the
    one-third SNR floor.  'high_power': upper bound shared by scalar and
    multi-antenna receivers as the power budget grows without limit.
    """
    return pd_closed_form(_power_limit_snr(scenario, regime), scenario.signal_var, target_pfa)
