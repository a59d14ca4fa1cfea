"""Static network description, fading channel draws and the random streams.

The sensor network is described by a :class:`Scenario` (geometry and noise
levels), from which random channels are drawn.  A channel draw is the
read-only k x N triangular factor R of a thin QR H = QR, k = min(M, N)
(:func:`sample_channel`), drawn directly by the Bartlett decomposition, so it
costs the same at M = 16 and at M = 1e6; the antenna count M travels beside
it.  A received vector is never formed: the statistics read a trial through
its whitened draws and the noise law of :class:`np_detector.NpTestContext`.
All sampling takes an explicit :class:`numpy.random.Generator`, and
:func:`derive_rng` maps a master seed plus an index path to an independent
stream, so results are reproducible regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# largest ln x of a finite double, about 709.78
_MAX_LOG = math.log(np.finfo(float).max)


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed and index path.

    The same (seed, path) pair always yields the same stream, and distinct
    paths yield statistically independent streams.  Each unit of work (the
    harness uses one per channel draw and one per point, scenario and antenna
    group for all of its trials) gets its own path, so results do not depend
    on the order the units run in.
    """
    if master_seed < 0:
        raise ValueError(f"seed must be nonnegative, got {master_seed}")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.default_rng(ss)


def complex_normal(rng: np.random.Generator, var: float, shape=()) -> np.ndarray:
    """Draw circular complex Gaussians: real/imag parts each with variance var/2.

    One draw of interleaved real and imaginary parts, scaled in place.  The
    fill reads the stream entry by entry in C order, so drawing a block in
    consecutive pieces gives the same values as drawing it at once.
    """
    out = np.empty(shape, complex)
    rng.standard_normal(out=out.reshape(-1).view(np.float64))
    out *= np.sqrt(var / 2.0)
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fixed network description: sensor placement and noise levels, all finite.

    Attributes:
        distances: sensor-to-receiver distances d_i (unitless length), all > 0.
        meas_noise_vars: per-sensor measurement noise variances, all > 0.
        signal_var: variance of the (zero-mean complex Gaussian) signal.
        fc_noise_var: receiver noise variance per antenna.
        path_loss_exp: path loss exponent; average channel power 1/d_i**alpha, finite, > 0.
    """

    distances: np.ndarray
    meas_noise_vars: np.ndarray
    signal_var: float
    fc_noise_var: float
    path_loss_exp: float

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        v = np.asarray(self.meas_noise_vars, dtype=float)
        if d.ndim != 1 or v.ndim != 1 or d.size != v.size or d.size == 0:
            raise ValueError("distances and meas_noise_vars must be 1-D vectors of equal length")
        d_lo, d_hi = d.min(), d.max()
        named = (("distances", d_lo, d_hi), ("meas_noise_vars", v.min(), v.max()),
                 ("signal_var", self.signal_var, self.signal_var),
                 ("fc_noise_var", self.fc_noise_var, self.fc_noise_var))
        for name, lo, hi in named:
            if not 0.0 < lo <= hi < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be finite and strictly positive")
        alpha = self.path_loss_exp
        if not 0.0 <= alpha < math.inf:
            raise ValueError("path_loss_exp must be finite and nonnegative")
        # 1/d**alpha leaves the float range, to 0 or inf, once alpha |ln d| reaches _MAX_LOG
        if alpha * max(-math.log(d_lo), math.log(d_hi)) >= _MAX_LOG:
            raise ValueError("path gains 1/distances**path_loss_exp must be finite and positive")
        object.__setattr__(self, "distances", _readonly(d))
        object.__setattr__(self, "meas_noise_vars", _readonly(v))

    @property
    def n_sensors(self) -> int:
        return self.distances.size

    @property
    def path_gains(self) -> np.ndarray:
        """Average channel power per sensor, 1/d_i**alpha."""
        return 1.0 / self.distances**self.path_loss_exp


def sample_scenario(
    n_sensors: int,
    rng: np.random.Generator,
    *,
    distance_range: tuple[float, float] = (2.0, 10.0),
    signal_var: float = 1.0,
    fc_noise_var: float = 0.3,
    path_loss_exp: float = 2.0,
) -> Scenario:
    """Sample a random network: uniform distances, and measurement noise powers
    uniform on [0.25, 0.5].

    The defaults match the simulation setup used throughout the experiment
    harness.  The sampled vectors are stored explicitly so the scenario can be
    frozen and replayed.
    """
    d = rng.uniform(*distance_range, size=n_sensors)
    v = rng.uniform(0.25, 0.5, size=n_sensors)
    return Scenario(d, v, signal_var, fc_noise_var, path_loss_exp)


def sample_channel(scenario: Scenario, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an M x N Rayleigh-fading channel with distance-based path loss, held
    as the read-only k x N triangular factor R of a thin QR H = QR, k = min(M, N).

    H has independent columns CN(0, I_M / d_i**alpha).  Only its triangular
    factor R is drawn, by the complex Bartlett decomposition: for H = H0 B
    with H0 iid CN(0, 1) and B = diag(d_i**(-alpha/2)), R = R0 B where R0 has
    |R0_ii|^2 ~ Gamma(M - i, 1) for i = 0, ..., k - 1 on a real positive
    diagonal, iid CN(0, 1) entries above it and zeros below, all independent.
    The draw costs O(N^2) whatever M is.
    """
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    n = scenario.n_sensors
    k = min(m, n)
    r = np.triu(complex_normal(rng, 1.0, (k, n)), 1)
    np.fill_diagonal(r, np.sqrt(rng.standard_gamma(np.arange(m, m - k, -1.0))))
    r *= np.sqrt(scenario.path_gains)
    r.setflags(write=False)
    return r


@dataclass(frozen=True, eq=False)
class GainVector:
    """Per-sensor complex transmit gains; their total power is the sum of
    :attr:`magnitudes_sq`."""

    gains: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.gains, dtype=complex)
        if a.ndim != 1:
            raise ValueError("gains must be a 1-D vector")
        if not np.all(np.isfinite(a)):
            raise ValueError("gains must be finite")
        object.__setattr__(self, "gains", _readonly(a))

    @classmethod
    def from_magnitudes_sq(cls, x: np.ndarray) -> "GainVector":
        """Build zero-phase gains from per-sensor powers x_i = |a_i|**2."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("per-sensor powers must be nonnegative")
        return cls(np.sqrt(x).astype(complex))

    @classmethod
    def equal_power(cls, p: float, n: int) -> "GainVector":
        if p < 0:
            raise ValueError("sum power must be nonnegative")
        return cls(np.full(n, np.sqrt(p / n), dtype=complex))

    @property
    def magnitudes_sq(self) -> np.ndarray:
        return np.abs(self.gains) ** 2
