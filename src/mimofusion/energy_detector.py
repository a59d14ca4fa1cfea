"""Energy detection without channel knowledge.

The statistic is the per-antenna received energy T = y^H y / M.  Its operating
point is characterized through the deflection (squared mean separation of T
under the two hypotheses over its noise-only variance), and its false-alarm
threshold comes from the large-M eigenvalue structure of the noise covariance:
N boosted eigenvalues M eta_i + s on top of an s-level bulk.  Above the bulk
level, T is a weighted sum of exponentials, whose tail is evaluated by
uniformizing the chain of exponential phases (Jensen 1953): a Poisson mixture
of survival probabilities, a sum of nonnegative terms that is exact for
clustered and equal weights alike.  One survival table per weight set serves
every evaluation of a threshold search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .np_detector import NpTestContext, SingleAntennaContext, _dotc, _float_if_scalar
from .scenario import GainVector, Scenario

# survival table cap, 32 MiB: at N = 100 it serves a weight spread max w / min w
# up to about 700, at N = 20 up to 1e4.  The gain policies can exceed it (spreads
# reach 1e6 when distances span 1 to 1000), and the tail then raises ValueError.
_MAX_TABLE_ENTRIES = 1 << 22


def ed_statistic(
    ctx: NpTestContext, xi: np.ndarray, theta: complex | np.ndarray, outside
) -> np.ndarray:
    """Average received energy per antenna, y^H y / M = (|z|^2 + outside) / M.

    The decision uses no channel state: its threshold depends only on the eta
    weights, and ``ctx`` only supplies the coordinates the draws live in.  For
    z = U Lambda^{1/2} xi + (R a) theta, |z|^2 = lambda . |xi|^2 +
    2 Re(conj(theta) (Lambda^{1/2} beta)^H xi) + |beta|^2 |theta|^2: two
    k-vector contractions shared by every row of theta.  xi and theta are
    shaped as for :func:`np_detector.steering_response`, stacked contexts
    included; outside, the energy outside range(H), is a float or shaped as
    theta without its hypothesis rows, and the result is shaped as the
    steering response.
    """
    beta, lam = ctx.signal, ctx.eigenvalues
    return (
        lam @ (xi.real**2 + xi.imag**2)
        + 2.0 * (np.conj(theta) * ((beta * np.sqrt(lam)).conj() @ xi)).real
        + _dotc(beta, beta).real[..., None] * np.abs(theta) ** 2
        + outside
    ) / ctx.m_antennas


def deflection_exact(ctx: NpTestContext) -> float | np.ndarray:
    """Finite-M deflection (tr C_s)^2 / tr(C_w^2) for one unit's channel draw,
    or one per unit of a stacked context.

    Both traces are read from the unit's H0 law C0 = U Lambda U^H:
    tr C_s = signal_var |R a|^2 = signal_var |beta|^2, and C_w has C0's k
    eigenvalues plus M - k more at the noise level s, so
    tr(C_w^2) = sum Lambda^2 + (M - k) s^2, a sum of positive terms.  Both
    are taken in units of the largest eigenvalue, so neither |beta|^4 nor
    sum Lambda^2 overflows at large power.
    """
    sc = ctx.scenario
    top = ctx.eigenvalues[..., -1:]  # eigh sorts ascending
    beta = ctx.signal / np.sqrt(top)
    lam = ctx.eigenvalues / top
    tr_cs = sc.signal_var * _dotc(beta, beta).real
    bulk = (ctx.m_antennas - lam.shape[-1]) * (sc.fc_noise_var / top[..., 0]) ** 2
    return _float_if_scalar(tr_cs**2 / (_dotc(lam, lam) + bulk))


def _deflection_vectors(scenario: Scenario, variant: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d_alpha = scenario.distances**scenario.path_loss_exp
    d_vec = 1.0 / d_alpha
    v = scenario.meas_noise_vars
    if variant == "deflection":
        b_diag = v**2 / d_alpha**2
        b_vec = v / d_alpha
    elif variant == "modified_deflection":
        # noise-plus-signal variance normalization
        b_diag = (v**2 + v * scenario.signal_var) / d_alpha**2
        b_vec = (v + scenario.signal_var) / d_alpha
    else:
        raise ValueError("variant must be 'deflection' or 'modified_deflection'")
    return d_vec, b_diag, b_vec


def _deflection_ratio(
    x: np.ndarray,
    d_vec: np.ndarray,
    b_diag: np.ndarray,
    b_vec: np.ndarray,
    signal_var: float,
    s: float,
    m: int,
    include_cross_term: bool,
) -> float:
    """signal_var^2 (x.d)^2 / (x^T B x + (2s/M) b.x + s^2/M), B = diag(b_diag)."""
    num = signal_var**2 * float(x @ d_vec) ** 2
    den = float(x @ (b_diag * x)) + s**2 / m
    if include_cross_term:
        den += (2.0 * s / m) * float(b_vec @ x)
    return num / den


def deflection_asymptotic(
    x: np.ndarray,
    scenario: Scenario,
    m: int,
    variant: str = "deflection",
    include_cross_term: bool = True,
) -> float:
    """Large-M deflection as a ratio of quadratics in the powers x_i = |a_i|^2.

    signal_var^2 (x.d)^2 / (x^T B x + (2s/M) b.x + s^2/M).  Dropping the b.x
    cross term (include_cross_term=False) gives the upper bound the gain
    optimizer maximizes; the gap vanishes as M grows.
    """
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("per-sensor powers must be nonnegative")
    return _deflection_ratio(
        x, *_deflection_vectors(scenario, variant), scenario.signal_var,
        scenario.fc_noise_var, m, include_cross_term,
    )


def single_antenna_deflection(gains: GainVector, h: np.ndarray, scenario: Scenario) -> float:
    """Deflection of |y|^2 at a scalar receiver: the squared signal-to-noise ratio."""
    ctx = SingleAntennaContext.build(gains, h, scenario)
    return (ctx.sigma_s_sq / ctx.sigma_w_sq) ** 2


def eta_weights(gains: GainVector, scenario: Scenario) -> np.ndarray:
    """Per-sensor eigenvalue growth rates eta_i = |a_i|^2 v_i / d_i**alpha."""
    d_alpha = scenario.distances**scenario.path_loss_exp
    return gains.magnitudes_sq * scenario.meas_noise_vars / d_alpha


def _bulk_and_weights(eta: np.ndarray, scenario: Scenario, m: int) -> tuple[float, np.ndarray]:
    """Bulk level (M - K) s / M and the K weights eta_i + s / M of the positive eta_i."""
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        raise ValueError("eta weights must be nonnegative")
    pos = eta[eta > 0]
    if pos.size == 0:
        raise ValueError("all eta weights are zero: the energy statistic is pure noise")
    s = scenario.fc_noise_var
    return (m - pos.size) / m * s, pos + s / m


class _SumOfExponentialsTail:
    """P(sum_i w_i E_i > x) for independent standard exponential E_i.

    The sum is the absorption time of a chain of phases with rates 1 / w_i.
    Uniformized at the fastest rate L = 1 / min w, P(S > x) is the sum over j
    of Poisson(j; L x) times F_j, the probability that the chain survives j
    jumps of its stay/advance matrix P.  F_j does not depend on x, so the rows
    e_1 P^j are tabulated once, by doubling: rows for j < 2^t times P^(2^t)
    give the rows for j < 2^(t+1).  Every term is nonnegative, so nothing
    cancels, and equal weights give the Erlang tail exactly.
    """

    def __init__(self, weights: np.ndarray):
        w = np.sort(weights)
        advance = w[0] / w
        self._rate = 1.0 / w[0]
        self._step = np.diag(1.0 - advance) + np.diag(advance[:-1], 1)
        self._rows = np.eye(1, w.size)
        self._survival = np.ones(1)

    def _grow(self, count: int) -> None:
        while self._rows.shape[0] < count:
            if 2 * self._rows.size > _MAX_TABLE_ENTRIES:
                raise ValueError(
                    f"eigenvalue weights spread too far: the tail needs {count} jumps of "
                    f"{self._rows.shape[1]} phases"
                )
            self._rows = np.vstack((self._rows, self._rows @ self._step))
            self._step = self._step @ self._step
        self._survival = self._rows.sum(axis=1)

    def __call__(self, excess: float) -> float:
        mu = self._rate * excess
        if not mu > 0:
            return 1.0
        # the Poisson mass outside mu +- (10 sqrt(mu) + 30) is below 1e-20
        half = 10.0 * np.sqrt(mu) + 30.0
        lo, hi = int(max(mu - half, 0.0)), int(mu + half) + 1
        if hi > self._survival.size:
            self._grow(hi)
        # Poisson weights relative to j = lo, log(mu^j / j!) differences summed
        # over small terms, then normalized over the window
        log_pois = np.concatenate(([0.0], -np.cumsum(np.log(np.arange(lo + 1, hi) / mu))))
        pois = np.exp(log_pois - log_pois.max())
        return min(float(pois @ self._survival[lo:hi]) / float(pois.sum()), 1.0)


def weighted_chi2_tail(eta: np.ndarray, scenario: Scenario, m: int, gamma_hat: float) -> float:
    """False-alarm probability of the energy statistic at threshold gamma_hat.

    Zero eta entries contribute ordinary noise-level eigenvalues and are folded
    into the bulk exactly; the rest add w_i E_i with w_i = eta_i + s / M.
    """
    offset, weights = _bulk_and_weights(eta, scenario, m)
    return _SumOfExponentialsTail(weights)(gamma_hat - offset)


@dataclass(frozen=True, eq=False)
class EdThreshold:
    """A false-alarm-calibrated energy threshold and the eta weights it was set for."""

    gamma_hat: float
    eta: np.ndarray
    # always False; kept only for perfbench's Monte Carlo fallback counter
    mc_fallback: ClassVar[bool] = False


def ed_threshold_for_pfa(
    eta: np.ndarray, scenario: Scenario, m: int, target_pfa: float
) -> EdThreshold:
    """Invert the weighted-chi-square tail to hit the requested false-alarm rate.

    The tail is continuous and strictly decreasing in the threshold, so a
    bisection over [bulk level, geometrically grown upper bracket] converges;
    iteration stops once the tail is within min(1e-6, 2e-5 * target_pfa) of the
    target, so a small target is met to 2e-5 relative, not only to 1e-6
    absolute.  Every step evaluates one survival table, built for this
    weight set.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    eta = np.asarray(eta, dtype=float)
    offset, weights = _bulk_and_weights(eta, scenario, m)
    survival = _SumOfExponentialsTail(weights)

    def tail(gamma: float) -> float:
        return survival(gamma - offset)

    width = float(weights.max())
    hi = offset + width
    for _ in range(200):
        if tail(hi) < target_pfa:
            break
        width *= 2.0
        hi = offset + width
    lo = offset
    gamma = hi
    tol = min(1e-6, 2e-5 * target_pfa)
    for _ in range(200):
        gamma = 0.5 * (lo + hi)
        t = tail(gamma)
        if abs(t - target_pfa) <= tol:
            break
        if t > target_pfa:
            lo = gamma
        else:
            hi = gamma
    return EdThreshold(gamma, eta)
