"""Channels with an explicit H, for tests that read the M x N matrix itself."""

import numpy as np

from mimofusion.scenario import ChannelRealization, Scenario, complex_normal


def explicit_channel(scenario: Scenario, m: int, rng: np.random.Generator) -> ChannelRealization:
    """An M x N channel drawn entry by entry, H_ji ~ CN(0, 1/d_i**alpha), and
    kept with its H: the same values, stream for stream, as the draw before
    ``sample_channel`` sampled the triangular factor directly."""
    h = complex_normal(rng, 1.0, (m, scenario.n_sensors)) * np.sqrt(scenario.path_gains)
    return ChannelRealization.from_matrix(h)
