"""Transmit-power allocation maximizing the energy detector's deflection.

The large-M deflection is a ratio of quadratics in the per-sensor powers.
Maximizing its tight upper bound reduces to a linear objective under one
convex quadratic constraint plus nonnegativity: minimize -x.d subject to
x^T Bt x <= 1, x >= 0, with Bt = B + (s^2 / (M P^2)) 11^T, followed by a
rescale onto the power budget.  Bt is diagonal plus rank one, so every solve
in the active-set loop is O(N) through the rank-one update identity.  An
allocation that fails the optimality certificate raises SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy_detector import _deflection_vectors
from .scenario import GainVector, Scenario


class SolverError(RuntimeError):
    """The allocation solver failed to reach its optimality certificate."""


@dataclass(frozen=True, eq=False)
class EdAllocationProblem:
    """Data of the deflection allocation problem for one (scenario, M, P).

    b_diag holds the diagonal of B and rank1_coeff the coefficient of the
    all-ones outer product, so the regularized matrix is never materialized.
    variant 'modified_deflection' swaps in the signal-inflated B.  The
    deflection an allocation reaches is
    :func:`energy_detector.deflection_asymptotic` of it.
    """

    d_vec: np.ndarray
    b_diag: np.ndarray
    rank1_coeff: float
    p: float

    @classmethod
    def from_scenario(
        cls, scenario: Scenario, m: int, p: float, variant: str = "deflection"
    ) -> "EdAllocationProblem":
        if p <= 0:
            raise ValueError("sum power must be positive")
        if m < 1:
            raise ValueError("antenna count must be >= 1")
        d_vec, b_diag, _ = _deflection_vectors(scenario, variant)
        try:
            p_sq = p**2
        except OverflowError:  # a Python float's power raises past the float range
            p_sq = math.inf
        if not math.isfinite(p_sq):
            raise ValueError(f"sum power P = {p!r} is too large: P**2 overflows")
        coeff = scenario.fc_noise_var**2 / (m * p_sq)
        return cls(d_vec, b_diag, coeff, float(p))


@dataclass(frozen=True, eq=False)
class QclpSolution:
    """Allocation on the power budget, and the active-set iterations it took."""

    x: np.ndarray
    iterations: int

    @property
    def gains(self) -> GainVector:
        return GainVector.from_magnitudes_sq(self.x)


def _solve_diag_rank1(b_diag: np.ndarray, coeff: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(b) + coeff * 11^T) y = rhs in O(N).

    The rank-one update is written as a shift of rhs by its 1/b-weighted mean r,
    y_i = ((rhs_i - r) + r / (1 + coeff S)) / b_i with S = sum 1/b_j, so a huge
    coeff * S does not cancel y to zero or below.  r is taken as rhs_0 plus the
    mean of rhs - rhs_0, so rhs_i - r carries rounding of the spread of rhs
    only, and is exactly zero for constant rhs (one free sensor).
    """
    inv_diag_sum = np.sum(1.0 / b_diag)
    spread = rhs - rhs[0]
    spread_mean = np.sum(spread / b_diag) / inv_diag_sum
    mean = rhs[0] + spread_mean
    return ((spread - spread_mean) + mean / (1.0 + coeff * inv_diag_sum)) / b_diag


def solve_qclp(problem: EdAllocationProblem) -> QclpSolution:
    """Maximize the large-M deflection bound, then rescale onto the power budget.

    Active-set scheme: solve the unconstrained direction through the rank-one
    update, clamp any negative components to zero, and re-solve on the shrunken
    free set.  The weighted mean of the objective coefficients over the free
    set always leaves the largest coefficient positive, so the loop terminates
    in at most N-1 clamps.
    """
    n = problem.d_vec.size
    free = np.ones(n, dtype=bool)
    y = np.zeros(n)
    iterations = 0
    for iterations in range(1, n + 1):
        y_free = _solve_diag_rank1(problem.b_diag[free], problem.rank1_coeff, problem.d_vec[free])
        y = np.zeros(n)
        y[free] = y_free
        if np.all(y_free >= 0):
            break
        clamped = np.zeros(n, dtype=bool)
        clamped[free] = y_free < 0
        free &= ~clamped

    x_unit = y / np.sqrt(float(y @ problem.d_vec))
    nu = 0.5 * float(problem.d_vec @ x_unit)
    bt_x = problem.b_diag * x_unit + problem.rank1_coeff * x_unit.sum()
    mu = np.where(free, 0.0, 2.0 * nu * bt_x - problem.d_vec)
    tol = 1e-9 * float(np.max(problem.d_vec))
    if np.any(x_unit < 0) or float(np.min(mu)) < -tol:
        raise SolverError("active-set allocation fails its optimality certificate")

    x = x_unit * (problem.p / float(x_unit.sum()))
    if not np.all(np.isfinite(x)):
        raise SolverError("allocation is not finite")
    return QclpSolution(x=x, iterations=iterations)


def closed_form_high_snr(scenario: Scenario, p: float) -> GainVector:
    """Large-budget allocation: power proportional to d_i**alpha / v_i^2.

    After normalizing for distance, sensors with the lowest measurement noise
    carry the most power.
    """
    if p <= 0:
        raise ValueError("sum power must be positive")
    d_alpha = scenario.distances**scenario.path_loss_exp
    weights = d_alpha / scenario.meas_noise_vars**2
    return GainVector.from_magnitudes_sq(p * weights / weights.sum())


def closed_form_low_snr(scenario: Scenario, p: float) -> GainVector:
    """Small-budget allocation: all power on the closest sensor.

    Ties break to the lowest sensor index.
    """
    if p <= 0:
        raise ValueError("sum power must be positive")
    x = np.zeros(scenario.n_sensors)
    x[int(np.argmin(scenario.distances))] = p
    return GainVector.from_magnitudes_sq(x)
