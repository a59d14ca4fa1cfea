"""The traced benchmark run (``perfbench/tracing.py``) wraps package names and
reads fields of their results, and its workloads (``perfbench/workloads.py``)
read more; renaming or deleting one must fail here, not only in the
benchmark."""

import importlib.util
import os
from collections import defaultdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mimofusion.ed_gains import (
    EdAllocationProblem,
    closed_form_high_snr,
    closed_form_low_snr,
    solve_qclp,
)
from mimofusion.energy_detector import ed_threshold_for_pfa, eta_weights
from mimofusion.np_gains import waterfill
from mimofusion.scenario import GainVector, derive_rng, sample_scenario

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_is_defined_on_its_owner(tracing):
    # install() reads owner.__dict__[attr]: an inherited or missing name breaks it
    for target, attr, *_ in tracing.PATCHES:
        assert attr in vars(tracing._owner(target)), f"{target} has no {attr}"


def test_result_hooks_read_live_results(tracing):
    sc = sample_scenario(4, derive_rng(701))
    eta = eta_weights(GainVector.equal_power(2.0, 4), sc)
    results = {
        "ed_threshold_for_pfa": ed_threshold_for_pfa(eta, sc, 16, 0.05),  # .mc_fallback
        "solve_qclp": solve_qclp(EdAllocationProblem.from_scenario(sc, 16, 2.0)),  # .iterations
        "waterfill": waterfill(sc, 16, 2.0),  # .iterations
    }
    hooks = {attr: hook for _, attr, _, _, hook in tracing.PATCHES if hook is not None}
    for attr, result in results.items():
        counts = defaultdict(float)
        hooks[attr](counts, result)
        assert counts, attr


def test_workload_fields_read_live_results():
    # the design-grid point reads the solvers' allocations, as gains and as
    # powers, their iteration counts and each energy threshold's fields
    sc = sample_scenario(4, derive_rng(702))
    wf = waterfill(sc, 16, 2.0)
    qclp = solve_qclp(EdAllocationProblem.from_scenario(sc, 16, 2.0))
    assert wf.iterations >= 1 and qclp.iterations >= 1
    for gains, x in ((wf.gains, wf.magnitudes_sq), (qclp.gains, qclp.x)):
        assert isinstance(gains, GainVector)
        assert_allclose(gains.magnitudes_sq, x, rtol=1e-14)
    others = (GainVector.equal_power(2.0, 4), closed_form_high_snr(sc, 2.0),
              closed_form_low_snr(sc, 2.0))
    for gains in (wf.gains, qclp.gains, *others):
        assert gains.magnitudes_sq.sum() == pytest.approx(2.0, rel=1e-12)
        eta = eta_weights(gains, sc)
        thr = ed_threshold_for_pfa(eta, sc, 16, 0.05)
        assert np.isfinite(thr.gamma_hat) and thr.mc_fallback is False
        assert np.array_equal(thr.eta, eta)
