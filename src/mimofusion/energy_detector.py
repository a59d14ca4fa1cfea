"""Energy detection without channel knowledge.

The statistic is the per-antenna received energy T = y^H y / M.  Its operating
point is characterized through the deflection (squared mean separation of T
under the two hypotheses over its noise-only variance), and its false-alarm
threshold comes from the large-M eigenvalue structure of the noise covariance:
N boosted eigenvalues M eta_i + s on top of an s-level bulk, giving a
weighted-chi-square tail with a closed partial-fraction form when the weights
are distinct.  Clustered weights make the partial-fraction coefficients
numerically explosive, so that case falls back to Monte Carlo tail estimation
and is flagged in the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scenario import ChannelRealization, GainVector, Observation, Scenario, derive_rng

ETA_SEPARATION_RTOL = 1e-6
MC_FALLBACK_SAMPLES = 10**6
_FALLBACK_SEED = 0x5EED


def ed_statistic(y: Observation | np.ndarray) -> float | np.ndarray:
    """Average received energy per antenna, y^H y / M.

    A received vector (M,) gives a float; an (M, T) block gives one value per
    column.
    """
    vec = y.y if isinstance(y, Observation) else np.asarray(y)
    block = vec.reshape(vec.shape[0], -1)
    energy = (
        np.einsum("ij,ij->j", block.real, block.real)
        + np.einsum("ij,ij->j", block.imag, block.imag)
    ) / vec.shape[0]
    return float(energy[0]) if vec.ndim == 1 else energy


def deflection_exact(gains: GainVector, channel: ChannelRealization, scenario: Scenario) -> float:
    """Finite-M deflection (tr C_s)^2 / tr(C_w^2) for one channel draw.

    Both traces reduce to N x N Gram products:
    tr C_s = signal_var * a^H G a and
    tr(C_w^2) = tr((E G)^2) + 2 s tr(E G) + M s^2 with E = diag(|a_i|^2 v_i).
    """
    a = gains.gains
    g = channel.gram
    s = scenario.fc_noise_var
    e = gains.magnitudes_sq * scenario.meas_noise_vars
    tr_cs = scenario.signal_var * float(np.real(np.vdot(a, g @ a)))
    eg = e[:, None] * g
    tr_cw2 = float(np.real(np.sum(eg * eg.T))) + 2.0 * s * float(
        np.real(np.sum(e * np.diag(g)))
    ) + channel.m_antennas * s**2
    return tr_cs**2 / tr_cw2


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
    d_vec, b_diag, b_vec = _deflection_vectors(scenario, variant)
    s = scenario.fc_noise_var
    num = scenario.signal_var**2 * float(x @ d_vec) ** 2
    den = float(x @ (b_diag * x)) + s**2 / m
    if include_cross_term:
        den += (2.0 * s / m) * float(b_vec @ x)
    return num / den


def single_antenna_deflection(gains: GainVector, h: np.ndarray, scenario: Scenario) -> float:
    """Deflection of |y|^2 at a scalar receiver: the squared signal-to-noise ratio."""
    h = np.asarray(h, dtype=complex)
    sig = scenario.signal_var * abs(np.sum(gains.gains * h)) ** 2
    noise = float(
        np.sum(gains.magnitudes_sq * np.abs(h) ** 2 * scenario.meas_noise_vars)
        + scenario.fc_noise_var
    )
    return (sig / noise) ** 2


@dataclass(frozen=True, eq=False)
class DeflectionReport:
    """Finite-M deflection of one channel draw next to its large-M limit."""

    exact_deflection: float
    asymptotic_deflection: float


def deflection_report(
    gains: GainVector, channel: ChannelRealization, scenario: Scenario
) -> DeflectionReport:
    return DeflectionReport(
        deflection_exact(gains, channel, scenario),
        deflection_asymptotic(gains.magnitudes_sq, scenario, channel.m_antennas),
    )


def eta_weights(gains: GainVector, scenario: Scenario) -> np.ndarray:
    """Per-sensor eigenvalue growth rates eta_i = |a_i|^2 v_i / d_i**alpha."""
    d_alpha = scenario.distances**scenario.path_loss_exp
    return gains.magnitudes_sq * scenario.meas_noise_vars / d_alpha


class ChiSquareTail(NamedTuple):
    probability: float
    mc_fallback: bool


def _positive_weights(eta: np.ndarray) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        raise ValueError("eta weights must be nonnegative")
    pos = eta[eta > 0]
    if pos.size == 0:
        raise ValueError("all eta weights are zero: the energy statistic is pure noise")
    return pos


def _is_clustered(eta_pos: np.ndarray) -> bool:
    if eta_pos.size < 2:
        return False
    sorted_eta = np.sort(eta_pos)
    return bool(np.min(np.diff(sorted_eta)) < ETA_SEPARATION_RTOL * sorted_eta[-1])


def _partial_fraction_coeffs(weights: np.ndarray, eta_pos: np.ndarray) -> np.ndarray:
    # coeff_i = w_i^(k-1) / prod_{l != i} (eta_i - eta_l); the shift common to
    # all weights cancels in the denominator differences
    k = eta_pos.size
    diffs = eta_pos[:, None] - eta_pos[None, :]
    np.fill_diagonal(diffs, 1.0)
    return weights ** (k - 1) / np.prod(diffs, axis=1)


def _sample_weighted_sum(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty(n)
    chunk = 1 << 17
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        out[start:stop] = weights @ rng.standard_exponential((weights.size, stop - start))
    return out


def weighted_chi2_tail(
    eta: np.ndarray,
    scenario: Scenario,
    m: int,
    gamma_hat: float,
    rng: np.random.Generator | None = None,
) -> ChiSquareTail:
    """False-alarm probability of the energy statistic at threshold gamma_hat.

    Zero eta entries contribute ordinary noise-level eigenvalues and are folded
    into the bulk exactly.  The remaining weights must be pairwise distinct
    beyond a relative separation of ETA_SEPARATION_RTOL; otherwise the tail is
    estimated from MC_FALLBACK_SAMPLES Monte Carlo draws and flagged.
    """
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    s = scenario.fc_noise_var
    eta_pos = _positive_weights(eta)
    k = eta_pos.size
    offset = (m - k) / m * s
    weights = eta_pos + s / m
    excess = gamma_hat - offset
    if excess <= 0:
        return ChiSquareTail(1.0, False)
    if _is_clustered(eta_pos):
        if rng is None:
            rng = derive_rng(_FALLBACK_SEED)
        samples = _sample_weighted_sum(weights, MC_FALLBACK_SAMPLES, rng)
        return ChiSquareTail(float(np.mean(samples > excess)), True)
    coeffs = _partial_fraction_coeffs(weights, eta_pos)
    tail = float(np.sum(coeffs * np.exp(-excess / weights)))
    return ChiSquareTail(min(max(tail, 0.0), 1.0), False)


@dataclass(frozen=True, eq=False)
class EdThreshold:
    """A false-alarm-calibrated energy threshold and how it was obtained."""

    gamma_hat: float
    target_pfa: float
    eta: np.ndarray
    mc_fallback: bool = False


def ed_threshold_for_pfa(
    eta: np.ndarray,
    scenario: Scenario,
    m: int,
    target_pfa: float,
    rng: np.random.Generator | None = None,
) -> EdThreshold:
    """Invert the weighted-chi-square tail to hit the requested false-alarm rate.

    The tail is continuous and strictly decreasing in the threshold, so a
    bisection over [bulk level, geometrically grown upper bracket] converges;
    iteration stops once the tail matches to 1e-6.  With clustered weights the
    threshold is read off the empirical quantile of Monte Carlo draws instead,
    and the result is flagged.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    eta = np.asarray(eta, dtype=float)
    s = scenario.fc_noise_var
    eta_pos = _positive_weights(eta)
    k = eta_pos.size
    offset = (m - k) / m * s
    weights = eta_pos + s / m

    if _is_clustered(eta_pos):
        if rng is None:
            rng = derive_rng(_FALLBACK_SEED)
        samples = _sample_weighted_sum(weights, MC_FALLBACK_SAMPLES, rng)
        gamma = offset + float(np.quantile(samples, 1.0 - target_pfa))
        return EdThreshold(gamma, target_pfa, eta, mc_fallback=True)

    def tail(gamma: float) -> float:
        return weighted_chi2_tail(eta_pos, scenario, m, gamma).probability

    width = float(weights.max())
    hi = offset + width
    for _ in range(200):
        if tail(hi) < target_pfa:
            break
        width *= 2.0
        hi = offset + width
    lo = offset
    gamma = hi
    for _ in range(200):
        gamma = 0.5 * (lo + hi)
        t = tail(gamma)
        if abs(t - target_pfa) <= 1e-6:
            break
        if t > target_pfa:
            lo = gamma
        else:
            hi = gamma
    return EdThreshold(gamma, target_pfa, eta, mc_fallback=False)


def quadratic_form_variance(a_matrix: np.ndarray) -> float:
    """Variance of z^H A z for standard complex Gaussian z and Hermitian A: tr(A^2).

    Provided as an independent oracle for the noise-only variance of the energy
    statistic.
    """
    a = np.asarray(a_matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    scale = max(float(np.max(np.abs(a))), 1.0)
    if not np.allclose(a, a.conj().T, rtol=1e-10, atol=1e-12 * scale):
        raise ValueError("input matrix must be Hermitian")
    # for Hermitian A, tr(A^2) equals the squared Frobenius norm
    return float(np.sum(np.abs(a) ** 2))
