"""Monte Carlo orchestration: trial streams, empirical rates, and experiments.

A "scenario" here is one channel draw of the fixed network; trials redraw the
signal and both noises.  A scenario runs in antenna groups: the sweep's M for
the multi-antenna detectors and M = 1 for the ``*_single`` ones, which are the
same receiver's one-antenna case (one group when the sweep's M is 1).  Each
work unit, one (point, scenario, antenna group) of a run, owns one random
stream derived from that path, read in order in chunks (:class:`TrialStream`).
The draws, and so every count and closed-form cell, are therefore the same
for any chunk size and whichever curves share a run; ``mse_emp`` is a float
sum taken one :data:`_CHUNK`-trial chunk at a time, so only its last digit
could move with another chunk size.  Manifests record :data:`STREAM_VERSION`,
and one written under another sampler version is refused, as its bytes would
differ.

Trials are sampled in the range of the channel.  Every statistic reads a
received vector only through z = Q^H y, for a thin QR H = QR, and through the
energy of y outside range(H) (:class:`ReducedObservation`); those are drawn
directly, and a channel draw is its factor R itself (:func:`sample_channel`),
so neither a trial nor a channel draw grows with M.

What the harness tallies is a unit: one antenna group with one gain policy.
Each unit's reduced blocks are built once per chunk and scored once per
decision rule (likelihood ratio, energy, LMMSE estimate) by the detector and
estimator modules; every curve's row is read from its unit's tally, so
curves on one unit, such as ``np_single`` and ``ed_single``, share their
decisions rather than repeat them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import ed_gains, energy_detector, lmmse, np_detector, np_gains
from .scenario import (
    ChannelRealization,
    GainVector,
    ReducedObservation,
    Scenario,
    complex_normal,
    derive_rng,
    sample_channel,
)

MULTI_DETECTORS = ("np", "ed")
SINGLE_DETECTORS = ("np_single", "ed_single")
DETECTORS = MULTI_DETECTORS + SINGLE_DETECTORS
MULTI_POLICIES = ("waterfill", "equal", "qclp", "closed_form_low", "closed_form_high")
SINGLE_POLICIES = ("single_antenna_optimal", "equal")
POLICIES = MULTI_POLICIES + ("single_antenna_optimal",)

CSV_COLUMNS = (
    "experiment", "policy", "detector", "M", "P",
    "pd_emp", "pd_theory", "pfa_emp", "mse_emp", "mse_theory",
    "deflection", "bound_lo", "bound_hi", "stderr", "trials",
)

_TAG_CHANNEL = 0
_TAG_TRIALS = 1
_CHUNK = 2048
STREAM_VERSION = 4


def compatible(detector: str, policy: str) -> bool:
    if detector in MULTI_DETECTORS:
        return policy in MULTI_POLICIES
    return policy in SINGLE_POLICIES


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything needed to reproduce one experiment, sweep and seed included."""

    experiment_id: str
    scenario: Scenario
    sweep: tuple[tuple[float, int], ...]
    trials_per_scenario: int
    n_scenarios: int
    target_pfa: float
    master_seed: int
    detectors: tuple[str, ...]
    gain_policies: tuple[str, ...]

    def __post_init__(self):
        if self.trials_per_scenario < 1 or self.n_scenarios < 1:
            raise ValueError("trials and scenario count must be >= 1")
        if not 0.0 < self.target_pfa < 1.0:
            raise ValueError("target_pfa must lie in (0, 1)")
        if not self.sweep:
            raise ValueError("sweep must contain at least one (P, M) point")
        # plain Python numbers keep CSV/JSON formatting independent of the caller
        object.__setattr__(self, "sweep", tuple((float(p), int(m)) for p, m in self.sweep))
        for p, m in self.sweep:
            if not (np.isfinite(p) and p > 0) or m < 1:
                raise ValueError("sweep points need finite positive power and M >= 1")
        for det in self.detectors:
            if det not in DETECTORS:
                raise ValueError(f"unknown detector {det!r}")
        for pol in self.gain_policies:
            if pol not in POLICIES:
                raise ValueError(f"unknown gain policy {pol!r}")
        if not self.curves():
            raise ValueError("no compatible (detector, policy) pairs in config")

    def curves(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (det, pol)
            for det in self.detectors
            for pol in self.gain_policies
            if compatible(det, pol)
        )


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    policy: str
    detector: str
    m: int
    p: float
    pd_emp: float
    pd_theory: float
    pfa_emp: float
    mse_emp: float
    mse_theory: float
    deflection: float
    bound_lo: float
    bound_hi: float
    stderr: float
    trials: int


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if np.isnan(value) else repr(float(value))
    return str(value)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Tabulated empirical and theoretical figures for one experiment run."""

    config: ExperimentConfig
    rows: tuple[ResultRow, ...]
    errors: tuple[tuple[int, str], ...] = ()

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join((
                r.experiment, r.policy, r.detector, str(r.m), _fmt(r.p),
                _fmt(r.pd_emp), _fmt(r.pd_theory), _fmt(r.pfa_emp),
                _fmt(r.mse_emp), _fmt(r.mse_theory), _fmt(r.deflection),
                _fmt(r.bound_lo), _fmt(r.bound_hi), _fmt(r.stderr), str(r.trials),
            )))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def resolve_gains(policy: str, scenario: Scenario, m: int, p: float) -> GainVector:
    """Materialize a gain policy at one operating point.

    ``single_antenna_optimal`` needs the channel draw, so it is not resolved
    here but per draw, by :func:`np_gains.single_antenna_optimal_gains`.
    """
    if policy == "waterfill":
        return np_gains.waterfill(scenario, m, p).gains
    if policy == "equal":
        return GainVector.equal_power(p, scenario.n_sensors)
    if policy == "qclp":
        problem = ed_gains.EdAllocationProblem.from_scenario(scenario, m, p)
        return ed_gains.solve_qclp(problem).gains
    if policy == "closed_form_low":
        return ed_gains.closed_form_low_snr(scenario, p)
    if policy == "closed_form_high":
        return ed_gains.closed_form_high_snr(scenario, p)
    raise ValueError(f"unknown multi-antenna policy {policy!r}")


class TrialStream:
    """The random draws of one work unit's trials, read in order in chunks.

    A trial receives y = H a theta + H D v + n with n ~ CN(0, s I_M).  With
    H = QR a thin QR (k = min(M, N) columns in Q), the statistics read y only
    through z = Q^H y = R a theta + R D v + Q^H n and the energy of n outside
    range(H).  For white n these two are independent, Q^H n ~ CN(0, s I_k)
    and the outside energy ~ s Gamma(M - k, 1), whichever Q the factorization
    gives, so both are drawn directly and the reduced trial is exact in
    distribution.

    The path seeds one stream, which spawns four children: one each for the
    signal theta, the measurement noise v, Q^H n and the outside energy.  Each
    child is drawn trial-major, so reading the trials in chunks of any size
    gives the same values as reading them all at once.
    """

    def __init__(self, scenario: Scenario, m: int, master_seed: int, path: tuple[int, ...]):
        self._scenario = scenario
        self._m = m
        self._k = min(m, scenario.n_sensors)
        self._v_scale = np.sqrt(scenario.meas_noise_vars)
        self._theta, self._v, self._noise, self._outside = derive_rng(master_seed, *path).spawn(4)

    def draw(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` trials: theta (count,), v (N, count), Q^H n
        (k, count) and the receiver-noise energy outside range(H) (count,),
        zero when k = M."""
        sc = self._scenario
        s = sc.fc_noise_var
        theta = complex_normal(self._theta, sc.signal_var, out=np.empty(count, complex))
        v = complex_normal(self._v, 1.0, out=np.empty((count, sc.n_sensors), complex))
        v *= self._v_scale
        noise = complex_normal(self._noise, s, out=np.empty((count, self._k), complex))
        outside = np.zeros(count)
        if self._m > self._k:
            outside = s * self._outside.standard_gamma(self._m - self._k, count)
        return theta, v.T, noise.T, outside

    def chunks(self, trials: int):
        """The draws of the next ``trials`` trials, :data:`_CHUNK` at a time."""
        for start in range(0, trials, _CHUNK):
            yield self.draw(min(_CHUNK, trials - start))


def _received(r: np.ndarray, m: int, gains: GainVector, theta, v, noise, outside):
    """Reduced received blocks without and with the signal, z = R D v + Q^H n
    and z + R a theta; the two hypotheses share each trial's draws."""
    z0 = (r * gains.gains) @ v
    z0 += noise
    z1 = np.outer(r @ gains.gains, theta)
    z1 += z0
    return ReducedObservation(z0, outside, r, m), ReducedObservation(z1, outside, r, m)


def simulate_statistics(
    detector: str,
    gains: GainVector,
    channel: ChannelRealization,
    scenario: Scenario,
    trials: int,
    master_seed: int,
    path: tuple[int, ...] = (0,),
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the detector statistic under both hypotheses from one trial stream.

    Returns (noise-only statistics, signal-present statistics); thresholding is
    left to the caller, so one sampled set serves a whole ROC sweep or any
    number of empirical rates.  The two hypotheses share each trial's signal
    and noise draws, sampled in the range of the channel and read through
    :meth:`TrialStream.chunks`, as the harness reads them.  The ``*_single``
    detectors need a one-antenna channel and return |y|^2, the energy there.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    if detector in SINGLE_DETECTORS and channel.m_antennas != 1:
        raise ValueError("single-antenna detectors need a one-antenna channel")
    statistic = energy_detector.ed_statistic
    if detector == "np":
        ctx = np_detector.NpTestContext.build(gains, channel, scenario)
        statistic = partial(np_detector.np_statistic, ctx)
    m = channel.m_antennas
    t0, t1 = [], []
    for draws in TrialStream(scenario, m, master_seed, path).chunks(trials):
        y0, y1 = _received(channel.r, m, gains, *draws)
        t0.append(statistic(y0))
        t1.append(statistic(y1))
    return np.concatenate(t0), np.concatenate(t1)


@dataclass
class _Tally:
    """One unit's counts and closed-form sums: likelihood-ratio (lr) and
    energy (ed) decisions, squared LMMSE errors, and per-scenario closed
    forms summed over scenarios."""

    lr_fa: int = 0
    lr_det: int = 0
    ed_fa: int = 0
    ed_det: int = 0
    err_sq: float = 0.0
    trials: int = 0
    pd_theory: float = 0.0
    mse_theory: float = 0.0
    deflection: float = 0.0

    def merge(self, other: "_Tally") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _count_above(statistics: np.ndarray, threshold: float) -> int:
    return int(np.count_nonzero(statistics > threshold))


def _unit(detector: str, policy: str, m: int) -> tuple[int, str]:
    """The (antenna group, gain policy) unit whose tally a curve reads."""
    return (1 if detector in SINGLE_DETECTORS else m, policy)


def _prepare_point(config: ExperimentConfig, p: float, m: int):
    """Units, gains per policy and ED thresholds per policy at one point.

    Units map (antenna group, policy) to the detectors scored on it.  Gains
    are None for ``single_antenna_optimal``, which is resolved per channel
    draw; an ED threshold exists for each policy with an ``ed`` curve.
    """
    units: dict[tuple[int, str], list[str]] = {}
    gains: dict[str, GainVector | None] = {}
    ed_thresholds: dict[str, float] = {}
    for det, pol in config.curves():
        units.setdefault(_unit(det, pol, m), []).append(det)
        if pol not in gains:
            needs_csi = pol == "single_antenna_optimal"
            gains[pol] = None if needs_csi else resolve_gains(pol, config.scenario, m, p)
        if det == "ed":
            eta = energy_detector.eta_weights(gains[pol], config.scenario)
            ed_thresholds[pol] = energy_detector.ed_threshold_for_pfa(
                eta, config.scenario, m, config.target_pfa
            ).gamma_hat
    return units, gains, ed_thresholds


def _run_scenario(config, point_idx, p, s_idx, units, gains, ed_thresholds):
    """Tally every unit on one scenario, one antenna group at a time.

    Each group draws one channel and one trial stream, and each unit scores
    its reduced blocks once per decision rule: the likelihood-ratio (LR)
    decision if any of its detectors is not ``ed``, the energy decision if
    ``ed`` is among them, and the LMMSE estimate for ``np``/``np_single``.
    ``ed_single`` reads the LR decision: at M = 1 that decision is
    |y|^2 > sigma_w^2 ln(1/target_pfa), the one-antenna receiver's test.

    The one-antenna gains read R's one row, e^{-i phi} h for h = H's row: a
    common phase that moves no statistic's distribution.
    """
    scenario = config.scenario
    sv = scenario.signal_var
    pfa = config.target_pfa
    tallies = {key: _Tally() for key in units}
    for m in dict.fromkeys(group for group, _ in units):
        channel = sample_channel(
            scenario, m, derive_rng(config.master_seed, point_idx, s_idx, m, _TAG_CHANNEL)
        )
        r = channel.r
        scored = []
        for (group, pol), dets in units.items():
            if group != m:
                continue
            tally = tallies[group, pol]
            a = gains[pol]
            if a is None:
                a = np_gains.single_antenna_optimal_gains(scenario, r[0], p)
            ctx = None
            if any(det != "ed" for det in dets):
                ctx = np_detector.NpTestContext.build(a, channel, scenario, target_pfa=pfa)
                tally.pd_theory = np_detector.pd_closed_form(ctx.snr, sv, pfa)
                tally.mse_theory = lmmse.mse_closed_form(ctx.snr, sv)
            if "ed" in dets or "ed_single" in dets:
                tally.deflection = energy_detector.deflection_exact(a, channel, scenario)
            ed_thr = ed_thresholds[pol] if "ed" in dets else None
            estimates = "np" in dets or "np_single" in dets
            scored.append((tally, a, ctx, ed_thr, estimates))
        stream = TrialStream(scenario, m, config.master_seed, (point_idx, s_idx, m, _TAG_TRIALS))
        for theta, v, noise, outside in stream.chunks(config.trials_per_scenario):
            for tally, a, ctx, ed_thr, estimates in scored:
                y0, y1 = _received(r, m, a, theta, v, noise, outside)
                tally.trials += theta.size
                if ctx is not None:
                    tally.lr_fa += _count_above(np_detector.np_statistic(ctx, y0), ctx.threshold)
                    tally.lr_det += _count_above(np_detector.np_statistic(ctx, y1), ctx.threshold)
                if ed_thr is not None:
                    tally.ed_fa += _count_above(energy_detector.ed_statistic(y0), ed_thr)
                    tally.ed_det += _count_above(energy_detector.ed_statistic(y1), ed_thr)
                if estimates:
                    est = lmmse.lmmse_estimate(ctx, y1)
                    tally.err_sq += float(np.sum(np.abs(theta - est) ** 2))
    return tallies


def _point_rows(config, p, m, merged) -> list[ResultRow]:
    """One row per curve, read from its unit's tally: ``ed`` reads the energy
    decisions, every other detector the likelihood-ratio ones."""
    scenario = config.scenario
    bound_lo = np_gains.np_pd_bound(scenario, "low_power", config.target_pfa)
    bound_hi = np_gains.np_pd_bound(scenario, "high_power", config.target_pfa)
    rows = []
    nan = float("nan")
    n = config.n_scenarios
    for det, pol in config.curves():
        tally = merged[_unit(det, pol, m)]
        total = tally.trials
        is_ed = det == "ed"
        pd_emp = (tally.ed_det if is_ed else tally.lr_det) / total
        pfa_emp = (tally.ed_fa if is_ed else tally.lr_fa) / total
        is_np = det in ("np", "np_single")
        rows.append(ResultRow(
            experiment=config.experiment_id,
            policy=pol,
            detector=det,
            m=m,
            p=p,
            pd_emp=pd_emp,
            pd_theory=nan if is_ed else tally.pd_theory / n,
            pfa_emp=pfa_emp,
            mse_emp=tally.err_sq / total if is_np else nan,
            mse_theory=tally.mse_theory / n if is_np else nan,
            deflection=tally.deflection / n if det in ("ed", "ed_single") else nan,
            bound_lo=bound_lo if is_np else nan,
            bound_hi=bound_hi if is_np else nan,
            stderr=float(np.sqrt(pd_emp * (1.0 - pd_emp) / total)),
            trials=total,
        ))
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured sweep and tabulate one row per curve and point.

    Scenarios run one after another and their tallies are merged in index
    order.  A failing operating point is recorded and its rows emitted as NaN
    instead of aborting the sweep.
    """
    rows: list[ResultRow] = []
    errors: list[tuple[int, str]] = []
    for point_idx, (p, m) in enumerate(config.sweep):
        try:
            units, gains, ed_thresholds = _prepare_point(config, p, m)
            merged = {key: _Tally() for key in units}
            for s_idx in range(config.n_scenarios):
                tallies = _run_scenario(config, point_idx, p, s_idx, units, gains, ed_thresholds)
                for key, tally in tallies.items():
                    merged[key].merge(tally)
            rows.extend(_point_rows(config, p, m, merged))
        except Exception as exc:  # record, continue sweep
            errors.append((point_idx, f"{type(exc).__name__}: {exc}"))
            nan = float("nan")
            for det, pol in config.curves():
                rows.append(ResultRow(
                    config.experiment_id, pol, det, m, p,
                    nan, nan, nan, nan, nan, nan, nan, nan, nan, 0,
                ))
    return ExperimentResult(config, tuple(rows), tuple(errors))


def manifest_dict(config: ExperimentConfig) -> dict:
    """Frozen, replayable description of a run: config echo plus explicit scenario."""
    sc = config.scenario
    return {
        "stream_version": STREAM_VERSION,
        "experiment": config.experiment_id,
        "sweep": [[p, m] for p, m in config.sweep],
        "trials": config.trials_per_scenario,
        "scenarios": config.n_scenarios,
        "target_pfa": config.target_pfa,
        "master_seed": config.master_seed,
        "detectors": list(config.detectors),
        "policies": list(config.gain_policies),
        "scenario": {
            "distances": list(sc.distances),
            "meas_noise_vars": list(sc.meas_noise_vars),
            "signal_var": sc.signal_var,
            "fc_noise_var": sc.fc_noise_var,
            "path_loss_exp": sc.path_loss_exp,
        },
    }


def _manifest_int(value, name: str) -> int:
    """An integral manifest number as an int; 2.5, Infinity and NaN raise
    ValueError rather than be truncated or overflow."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_from_manifest(data: dict) -> ExperimentConfig:
    """Rebuild a config from :func:`manifest_dict` output.

    Raises ValueError for a manifest written under another random-stream
    version, as replaying it would not reproduce its CSV bytes, and for a
    non-integral M, trial or scenario count or seed.
    """
    version = data.get("stream_version")
    if version != STREAM_VERSION:
        found = "no stream_version" if version is None else f"stream_version {version!r}"
        raise ValueError(
            f"manifest has {found}, but this version replays only stream_version "
            f"{STREAM_VERSION}; rerun the experiment from its config instead"
        )
    sc = data["scenario"]
    scenario = Scenario(
        np.asarray(sc["distances"], dtype=float),
        np.asarray(sc["meas_noise_vars"], dtype=float),
        float(sc["signal_var"]),
        float(sc["fc_noise_var"]),
        float(sc["path_loss_exp"]),
    )
    return ExperimentConfig(
        experiment_id=str(data["experiment"]),
        scenario=scenario,
        sweep=tuple((float(p), _manifest_int(m, "sweep M")) for p, m in data["sweep"]),
        trials_per_scenario=_manifest_int(data["trials"], "trials"),
        n_scenarios=_manifest_int(data["scenarios"], "scenarios"),
        target_pfa=float(data["target_pfa"]),
        master_seed=_manifest_int(data["master_seed"], "master_seed"),
        detectors=tuple(data["detectors"]),
        gain_policies=tuple(data["policies"]),
    )


def write_manifest(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_manifest(json.load(fh))
