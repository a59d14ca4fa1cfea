"""The traced benchmark run (``perfbench/tracing.py``) wraps package names and
reads fields of their results; renaming or deleting one must fail here, not
only in the benchmark."""

import importlib.util
import os
from collections import defaultdict

import pytest

from mimofusion.ed_gains import EdAllocationProblem, solve_qclp
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
