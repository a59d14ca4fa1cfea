"""Detection and estimation for amplify-and-forward sensor networks read by a
large-antenna fusion center: likelihood-ratio and energy detectors, the linear
MMSE estimator, their optimal transmit-gain allocations, and a reproducible
Monte Carlo harness for the power-scaling experiments."""

from .scenario import (
    GainVector,
    Scenario,
    complex_normal,
    derive_rng,
    sample_channel,
    sample_scenario,
)
from .np_detector import (
    DegenerateDetectorError,
    NpTestContext,
    SingleAntennaContext,
    np_statistic,
    pd_closed_form,
    single_antenna_pd,
    snr_asymptotic,
    steering_response,
    threshold_for_pfa,
)
from .np_gains import (
    WaterfillSolution,
    np_pd_bound,
    single_antenna_optimal_gains,
    snr_floor_gains,
    snr_floor_power,
    waterfill,
)
from .lmmse import lmmse_error, lmmse_estimate, lmmse_mse_bound, mse_closed_form
from .energy_detector import (
    EdThreshold,
    deflection_asymptotic,
    deflection_exact,
    ed_statistic,
    ed_threshold_for_pfa,
    eta_weights,
    single_antenna_deflection,
    weighted_chi2_tail,
)
from .ed_gains import (
    EdAllocationProblem,
    QclpSolution,
    SolverError,
    closed_form_high_snr,
    closed_form_low_snr,
    solve_qclp,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    resolve_gains,
    run_experiment,
)
from .config import ConfigError, load_experiment, load_packaged_experiment, load_scenario

__version__ = "0.1.0"
