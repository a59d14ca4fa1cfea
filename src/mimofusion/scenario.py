"""Static network description, fading channel draws, and observation sampling.

The sensor network is described by a :class:`Scenario` (geometry and noise
levels), from which random channel matrices and received-signal samples are
drawn.  All sampling takes an explicit :class:`numpy.random.Generator`, and
:func:`derive_rng` maps a master seed plus an index path to an independent
stream, so results are reproducible regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

Hypothesis = Literal["H0", "H1"]


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed and index path.

    The same (seed, path) pair always yields the same stream, and distinct
    paths yield statistically independent streams.  Each unit of work (the
    harness uses one per channel draw and one per point, scenario and antenna
    group for all of its trials) gets its own path, so results do not depend
    on the order or the thread the units run in.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.default_rng(ss)


def complex_normal(
    rng: np.random.Generator, var: float, size=None, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw circular complex Gaussians: real/imag parts each with variance var/2.

    With ``out`` (a C-contiguous complex128 array, ``size`` left unset) the
    block is filled in place and returned: one draw of interleaved real and
    imaginary parts, scaled without temporaries.  The fill reads the stream
    entry by entry in C order, so filling a block in consecutive pieces gives
    the same values as filling it at once; they differ from a ``size=`` draw.
    """
    scale = np.sqrt(var / 2.0)
    if out is None:
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    if size is not None or out.dtype != np.complex128:
        raise ValueError("out must be a complex128 array and excludes size")
    rng.standard_normal(out=out.view(np.float64))
    out *= scale
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fixed network description: sensor placement and noise levels.

    Attributes:
        distances: sensor-to-receiver distances d_i (unitless length), all > 0.
        meas_noise_vars: per-sensor measurement noise variances, all > 0.
        signal_var: variance of the (zero-mean complex Gaussian) signal.
        fc_noise_var: receiver noise variance per antenna.
        path_loss_exp: path loss exponent; average channel power is 1/d_i**alpha.
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
        if not (np.all(d > 0) and np.all(v > 0)):
            raise ValueError("distances and meas_noise_vars must be strictly positive")
        if not (self.signal_var > 0 and self.fc_noise_var > 0):
            raise ValueError("signal_var and fc_noise_var must be strictly positive")
        if self.path_loss_exp < 0:
            raise ValueError("path_loss_exp must be nonnegative")
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
    meas_noise_range: tuple[float, float] = (0.25, 0.5),
    signal_var: float = 1.0,
    fc_noise_var: float = 0.3,
    path_loss_exp: float = 2.0,
) -> Scenario:
    """Sample a random network: uniform distances and measurement noise powers.

    The defaults match the simulation setup used throughout the experiment
    harness.  The sampled vectors are stored explicitly so the scenario can be
    frozen and replayed.
    """
    d = rng.uniform(*distance_range, size=n_sensors)
    v = rng.uniform(*meas_noise_range, size=n_sensors)
    return Scenario(d, v, signal_var, fc_noise_var, path_loss_exp)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the M x N complex channel matrix, with its cached Gram matrix.

    Column i is a standard complex Gaussian vector scaled by 1/sqrt(d_i**alpha).
    The N x N Gram matrix H^H H is precomputed: every statistic in the package
    is evaluated from it and from matrix-vector products, never from dense
    M x M intermediates.
    """

    h_matrix: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h_matrix, dtype=complex)
        if h.ndim != 2 or h.shape[0] < 1:
            raise ValueError("h_matrix must be an M x N matrix with M >= 1")
        object.__setattr__(self, "h_matrix", _readonly(h))
        object.__setattr__(self, "gram", _readonly(np.asarray(self.gram, dtype=complex)))

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "ChannelRealization":
        h = np.asarray(h, dtype=complex)
        return cls(h, h.conj().T @ h)

    @property
    def m_antennas(self) -> int:
        return self.h_matrix.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.h_matrix.shape[1]


def sample_channel(scenario: Scenario, m: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw an M x N Rayleigh-fading channel with distance-based path loss."""
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    h = complex_normal(rng, 1.0, (m, scenario.n_sensors))
    h *= np.sqrt(scenario.path_gains)
    return ChannelRealization.from_matrix(h)


def asymptotic_gram(scenario: Scenario) -> np.ndarray:
    """Large-M limit of H^H H / M: diag{1/d_1**alpha, ..., 1/d_N**alpha}."""
    return np.diag(scenario.path_gains)


@dataclass(frozen=True, eq=False)
class GainVector:
    """Per-sensor complex transmit gains together with their total power."""

    gains: np.ndarray
    sum_power: float

    def __post_init__(self):
        a = np.asarray(self.gains, dtype=complex)
        if a.ndim != 1:
            raise ValueError("gains must be a 1-D vector")
        if not np.all(np.isfinite(a)):
            raise ValueError("gains must be finite")
        if self.sum_power < 0:
            raise ValueError("sum_power must be nonnegative")
        object.__setattr__(self, "gains", _readonly(a))

    @classmethod
    def from_gains(cls, gains: np.ndarray) -> "GainVector":
        gains = np.asarray(gains, dtype=complex)
        return cls(gains, float(np.sum(np.abs(gains) ** 2)))

    @classmethod
    def from_magnitudes_sq(cls, x: np.ndarray) -> "GainVector":
        """Build zero-phase gains from per-sensor powers x_i = |a_i|**2."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("per-sensor powers must be nonnegative")
        return cls(np.sqrt(x).astype(complex), float(x.sum()))

    @classmethod
    def equal_power(cls, p: float, n: int) -> "GainVector":
        if p < 0:
            raise ValueError("sum power must be nonnegative")
        return cls(np.full(n, np.sqrt(p / n), dtype=complex), float(p))

    @property
    def magnitudes_sq(self) -> np.ndarray:
        return np.abs(self.gains) ** 2

    @property
    def n_sensors(self) -> int:
        return self.gains.size


@dataclass(frozen=True, eq=False)
class Observation:
    """A received M-vector plus the ground-truth hypothesis that generated it."""

    y: np.ndarray
    hypothesis_label: Hypothesis

    def __post_init__(self):
        object.__setattr__(self, "y", _readonly(np.asarray(self.y, dtype=complex)))
        if self.hypothesis_label not in ("H0", "H1"):
            raise ValueError("hypothesis_label must be 'H0' or 'H1'")


def sample_observation(
    channel: ChannelRealization,
    gains: GainVector,
    scenario: Scenario,
    hypothesis: Hypothesis,
    rng: np.random.Generator,
) -> Observation:
    """Draw one received vector under the requested hypothesis.

    Under H0 the received signal is H D v + n (forwarded measurement noise plus
    receiver noise); under H1 the signal term H a theta is added.  Draw order is
    theta (H1 only), v, n.
    """
    if gains.n_sensors != channel.n_sensors or channel.n_sensors != scenario.n_sensors:
        raise ValueError("channel, gains, and scenario dimensions are inconsistent")
    a = gains.gains
    y = np.zeros(channel.m_antennas, dtype=complex)
    if hypothesis == "H1":
        theta = complex_normal(rng, scenario.signal_var)
        y += (channel.h_matrix @ a) * theta
    v = complex_normal(rng, 1.0, scenario.n_sensors) * np.sqrt(scenario.meas_noise_vars)
    y += channel.h_matrix @ (a * v)
    y += complex_normal(rng, scenario.fc_noise_var, channel.m_antennas)
    return Observation(y, hypothesis)
