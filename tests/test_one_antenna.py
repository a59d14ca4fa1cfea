"""The one-antenna receiver is the M = 1 case of the general receiver.

The scalar closed forms (``SingleAntennaContext``, ``single_antenna_pd``,
``single_antenna_deflection`` and the scalar estimator written out below) are
the reference; the general path, which the harness runs for the ``*_single``
curves, must match them on any network.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimofusion.energy_detector import deflection_exact, single_antenna_deflection
from mimofusion.lmmse import lmmse_estimate
from mimofusion.np_detector import (
    NpTestContext,
    SingleAntennaContext,
    pd_closed_form,
    single_antenna_pd,
    steering_response,
)
from mimofusion.np_gains import single_antenna_optimal_gains
from mimofusion.scenario import GainVector, derive_rng, sample_scenario

from channels import explicit_channel

REL = 1e-10
PFA = 0.05


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 100),
    log_p=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**31 - 1),
    policy=st.sampled_from(("equal", "single_antenna_optimal")),
)
def test_general_path_matches_scalar_forms(n, log_p, seed, policy):
    p = 10.0**log_p
    sc = sample_scenario(n, derive_rng(seed, 0))
    ex = explicit_channel(sc, 1, derive_rng(seed, 1))
    h = ex.h[0]
    if policy == "equal":
        gv = GainVector.equal_power(p, n)
    else:
        gv = single_antenna_optimal_gains(sc, h, p)
    ctx = NpTestContext.build(gv, ex.r, 1, sc)
    ref = SingleAntennaContext.build(gv, h, sc, target_pfa=PFA)
    sv = sc.signal_var

    snr = ref.sigma_s_sq / (sv * ref.sigma_w_sq)
    assert ctx.snr == pytest.approx(snr, rel=REL)
    assert pd_closed_form(ctx.snr, sv, PFA) == pytest.approx(single_antenna_pd(ref), rel=REL)
    assert deflection_exact(ctx) == pytest.approx(
        single_antenna_deflection(gv, h, sc), rel=REL
    )

    y = derive_rng(seed, 2).standard_normal(2) @ np.array([1.0, 1.0j])
    coherent = np.sum(gv.gains * h)
    scalar = (np.conj(coherent) / ref.sigma_w_sq) * y / (1.0 / sv + snr)
    estimate = lmmse_estimate(ctx, steering_response(ctx, *ex.reduce(np.array([[y]]), ctx)[:2]))
    assert estimate[0] == pytest.approx(scalar, rel=REL)
