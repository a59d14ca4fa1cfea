"""Static network description, fading channel draws, and observation sampling.

The sensor network is described by a :class:`Scenario` (geometry and noise
levels), from which random channels and received-signal samples are drawn.
A channel draw is held as the triangular factor R of H = QR and its Gram
matrix (:class:`ChannelRealization`), drawn directly by the Bartlett
decomposition, so it costs the same at M = 16 and at M = 1e6; an explicit H
is kept only when a caller supplies one.  All sampling takes an explicit
:class:`numpy.random.Generator`, and :func:`derive_rng` maps a master seed
plus an index path to an independent stream, so results are reproducible
regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed and index path.

    The same (seed, path) pair always yields the same stream, and distinct
    paths yield statistically independent streams.  Each unit of work (the
    harness uses one per channel draw and one per point, scenario and antenna
    group for all of its trials) gets its own path, so results do not depend
    on the order the units run in.
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
    """Fixed network description: sensor placement and noise levels, all finite.

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
        scalars = [self.signal_var, self.fc_noise_var, self.path_loss_exp]
        if not np.all(np.isfinite(np.concatenate((d, v, scalars)))):
            raise ValueError("scenario values must be finite")
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
    """One draw of the M x N complex channel H, held as its triangular factor.

    r is the k x N factor of a thin QR H = QR (k = min(M, N)), gram the N x N
    Gram matrix H^H H = R^H R.  Every statistic in the package is evaluated
    from these two and the antenna count, never from M x M or M x N
    intermediates.  h_matrix is the explicit H, present only on a channel
    built by :meth:`from_matrix`; a sampled channel has none.
    """

    r: np.ndarray
    gram: np.ndarray
    m_antennas: int
    h_matrix: np.ndarray | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=complex)
        m = int(self.m_antennas)
        if m < 1 or r.ndim != 2 or r.shape[0] != min(m, r.shape[1]):
            raise ValueError("r must be a min(M, N) x N factor with M >= 1")
        object.__setattr__(self, "r", _readonly(r))
        object.__setattr__(self, "gram", _readonly(np.asarray(self.gram, dtype=complex)))
        object.__setattr__(self, "m_antennas", m)
        if self.h_matrix is not None:
            h = np.asarray(self.h_matrix, dtype=complex)
            if h.shape != (m, r.shape[1]):
                raise ValueError("h_matrix must be M x N")
            object.__setattr__(self, "h_matrix", _readonly(h))

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "ChannelRealization":
        """Wrap an explicit M x N channel: one QR gives R, and G = R^H R."""
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] < 1:
            raise ValueError("h_matrix must be an M x N matrix with M >= 1")
        r = np.linalg.qr(h, mode="r")
        return cls(r, r.conj().T @ r, h.shape[0], h)

    @property
    def n_sensors(self) -> int:
        return self.r.shape[1]


def sample_channel(scenario: Scenario, m: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw an M x N Rayleigh-fading channel with distance-based path loss.

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
    r = np.triu(complex_normal(rng, 1.0, out=np.empty((k, n), complex)), 1)
    np.fill_diagonal(r, np.sqrt(rng.standard_gamma(np.arange(m, m - k, -1.0))))
    r *= np.sqrt(scenario.path_gains)
    return ChannelRealization(r, r.conj().T @ r, m)


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
class ReducedObservation:
    """Received vectors reduced to the part every statistic reads.

    For a thin QR H = QR of the channel (k = min(M, N) columns in Q), z = Q^H y
    are the coordinates of y in range(H) and outside_energy = |y - Q z|^2 is
    the energy of the rest, so |y|^2 = |z|^2 + outside_energy.  A vector
    w = H c in range(H) gives w^H y = (R c)^H z exactly, which is why R is kept.
    z is (k,) or (k, T), outside_energy a float or (T,).
    """

    z: np.ndarray
    outside_energy: float | np.ndarray
    r: np.ndarray
    m_antennas: int


def sample_observation(
    channel: ChannelRealization,
    gains: GainVector,
    scenario: Scenario,
    hypothesis: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one received M-vector under hypothesis ``"H0"`` or ``"H1"``.

    Under H0 the received signal is H D v + n (forwarded measurement noise plus
    receiver noise); under H1 the signal term H a theta is added.  Draw order is
    theta (H1 only), v, n.
    """
    if hypothesis not in ("H0", "H1"):
        raise ValueError("hypothesis must be 'H0' or 'H1'")
    if gains.n_sensors != channel.n_sensors or channel.n_sensors != scenario.n_sensors:
        raise ValueError("channel, gains, and scenario dimensions are inconsistent")
    if channel.h_matrix is None:
        raise ValueError("sampling a received vector needs an explicit H (from_matrix)")
    a = gains.gains
    y = np.zeros(channel.m_antennas, dtype=complex)
    if hypothesis == "H1":
        theta = complex_normal(rng, scenario.signal_var)
        y += (channel.h_matrix @ a) * theta
    v = complex_normal(rng, 1.0, scenario.n_sensors) * np.sqrt(scenario.meas_noise_vars)
    y += channel.h_matrix @ (a * v)
    y += complex_normal(rng, scenario.fc_noise_var, channel.m_antennas)
    return y
