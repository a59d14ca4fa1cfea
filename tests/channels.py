"""The dense reference receiver: channels with an explicit H and full
received M-vectors, for tests that check the reduced receiver against them.

The package holds a channel only as its triangular factor R and never forms a
received vector: its statistics read a trial's whitened draws in the noise
law of an :class:`NpTestContext`, one trial per column.  Here H, its thin-QR
Q and the full y, one received vector per column, are kept: :meth:`ExplicitChannel.reduce` maps y to the draws the package reads,
:func:`formed_blocks` forms the reduced blocks a trial stream's draws stand
for, and :func:`dense_steering` solves the M x M noise covariance for the
steering vector.
"""

from dataclasses import dataclass

import numpy as np

from mimofusion.np_detector import NpTestContext
from mimofusion.scenario import GainVector, Scenario, complex_normal


@dataclass(frozen=True, eq=False)
class ExplicitChannel:
    """An M x N channel H = QR (thin QR): the package's draw is r, on M = m
    antennas."""

    h: np.ndarray
    q: np.ndarray
    r: np.ndarray

    @property
    def m(self) -> int:
        return self.h.shape[0]

    def reduce(self, y: np.ndarray, ctx: NpTestContext):
        """y of shape (M, T) as the receiver reads it in the noise law
        of ``ctx``: (xi, theta, outside) with z = Q^H y whitened as
        xi = Lambda^{-1/2} U^H z, no separate signal (theta = 0), and the
        energy |y - Q z|^2 outside range(H)."""
        z = self.q.conj().T @ y
        outside = np.sum(np.abs(y - self.q @ z) ** 2, axis=0)
        xi = (ctx.basis / np.sqrt(ctx.eigenvalues)).conj().T @ z
        return xi, 0.0, outside


def explicit_channel(scenario: Scenario, m: int, rng: np.random.Generator) -> ExplicitChannel:
    """An M x N channel drawn entry by entry, H_ji ~ CN(0, 1/d_i**alpha), the
    law ``sample_channel`` draws the triangular factor of."""
    h = complex_normal(rng, 1.0, (m, scenario.n_sensors)) * np.sqrt(scenario.path_gains)
    q, r = np.linalg.qr(h)
    return ExplicitChannel(h, q, r)


def gram(r: np.ndarray) -> np.ndarray:
    """The N x N Gram matrix H^H H = R^H R of a channel draw R."""
    return r.conj().T @ r


def embedded_channel(r: np.ndarray, m: int) -> ExplicitChannel:
    """A sampled channel R on M = m antennas as an explicit H = QR, with Q the
    first k columns of I_M."""
    q = np.eye(m, r.shape[0])
    return ExplicitChannel(q @ r, q, r)


def dense_steering(explicit: ExplicitChannel, gains: GainVector, scenario: Scenario) -> np.ndarray:
    """w = C_w^{-1} H a from the M x M noise covariance C_w = H E H^H + s I_M,
    E = diag(|a_i|^2 v_i)."""
    h = explicit.h
    e = gains.magnitudes_sq * scenario.meas_noise_vars
    cw = (h * e) @ h.conj().T + scenario.fc_noise_var * np.eye(h.shape[0])
    return np.linalg.solve(cw, h @ gains.gains)


def formed_blocks(ctx: NpTestContext, theta, xi) -> tuple[np.ndarray, np.ndarray]:
    """The reduced blocks the harness never forms, from a trial stream's draws:
    z0 = U Lambda^{1/2} xi for C0 = U Lambda U^H, and z1 = z0 + (U beta) theta^T,
    U beta = R a."""
    z0 = (ctx.basis * np.sqrt(ctx.eigenvalues)) @ xi
    return z0, z0 + np.outer(ctx.basis @ ctx.signal, theta)


def sample_observation(
    explicit: ExplicitChannel,
    gains: GainVector,
    scenario: Scenario,
    hypothesis: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one received M-vector, as an (M, 1) column, under hypothesis
    ``"H0"`` or ``"H1"``.

    Under H0 the received signal is H D v + n (forwarded measurement noise plus
    receiver noise); under H1 the signal term H a theta is added.  Draw order is
    theta (H1 only), v, n.
    """
    assert hypothesis in ("H0", "H1")
    h, a = explicit.h, gains.gains
    y = np.zeros((h.shape[0], 1), dtype=complex)
    if hypothesis == "H1":
        theta = complex_normal(rng, scenario.signal_var)
        y += (h @ a)[:, None] * theta
    v = complex_normal(rng, 1.0, scenario.n_sensors) * np.sqrt(scenario.meas_noise_vars)
    y += (h @ (a * v))[:, None]
    y += complex_normal(rng, scenario.fc_noise_var, (h.shape[0], 1))
    return y
