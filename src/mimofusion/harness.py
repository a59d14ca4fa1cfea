"""Monte Carlo orchestration: trial streams, empirical rates, and experiments.

A "scenario" here is one channel draw of the fixed network; trials redraw the
signal and both noises.  A scenario runs in antenna groups: the sweep's M for
the multi-antenna detectors and M = 1 for the ``*_single`` ones, which are the
same receiver's one-antenna case (one group when the sweep's M is 1).  Each
work unit, one (point, scenario, antenna group) of a run, owns one random
stream derived from that path, read in order in chunks (:class:`TrialStream`).
Results are therefore bit-identical for any chunk size, any worker-thread
count and whichever curves share a run.  Manifests record :data:`STREAM_VERSION`,
and one written under another sampler version is refused, as its bytes would
differ.  Curves with the same gain policy share received vectors, built for one
gain vector at a time; the detector and estimator modules score them, and every
detector consumes raw statistic arrays so a threshold sweep never resamples.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import ed_gains, energy_detector, lmmse, np_detector, np_gains
from .scenario import (
    ChannelRealization,
    GainVector,
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
_TAG_ED_THRESHOLD = 2
_CHUNK = 2048
STREAM_VERSION = 2


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
            if p <= 0 or m < 1:
                raise ValueError("sweep points need positive power and M >= 1")
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

    The path seeds one stream, which spawns three children: one each for the
    signal theta, the measurement noise v and the receiver noise.  Each child
    is drawn trial-major, so reading the trials in chunks of any size gives the
    same values as reading them all at once.
    """

    def __init__(self, scenario: Scenario, m: int, master_seed: int, path: tuple[int, ...]):
        self._scenario = scenario
        self._m = m
        self._v_scale = np.sqrt(scenario.meas_noise_vars)
        self._theta, self._v, self._noise = derive_rng(master_seed, *path).spawn(3)

    def draw(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` trials: theta (count,), v (N, count), noise (M, count)."""
        sc = self._scenario
        theta = complex_normal(self._theta, sc.signal_var, out=np.empty(count, complex))
        v = complex_normal(self._v, 1.0, out=np.empty((count, sc.n_sensors), complex))
        v *= self._v_scale
        noise = complex_normal(
            self._noise, sc.fc_noise_var, out=np.empty((count, self._m), complex)
        )
        # one transposing copy: the synthesis adds noise to C-ordered (M, count)
        # blocks once per gain policy, and a strided operand there costs more
        return theta, v.T, np.ascontiguousarray(noise.T)


def _received(channel: ChannelRealization, gains: GainVector, theta, v, noise):
    """Received (M, count) blocks without and with the signal; the two
    hypotheses share each trial's draws."""
    y0 = (channel.h_matrix * gains.gains) @ v
    y0 += noise
    y1 = np.outer(channel.h_matrix @ gains.gains, theta)
    y1 += y0
    return y0, y1


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
    left to the caller so one sampled set serves a whole ROC sweep.  The two
    hypotheses share each trial's signal and noise draws.  The ``*_single``
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
    t0 = np.empty(trials)
    t1 = np.empty(trials)
    stream = TrialStream(scenario, channel.m_antennas, master_seed, path)
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        theta, v, noise = stream.draw(stop - start)
        y0, y1 = _received(channel, gains, theta, v, noise)
        t0[start:stop] = statistic(y0)
        t1[start:stop] = statistic(y1)
    return t0, t1


def estimate_pd_pfa(
    detector: str,
    threshold: float,
    gains: GainVector,
    channel: ChannelRealization,
    scenario: Scenario,
    trials: int,
    master_seed: int,
    path: tuple[int, ...] = (0,),
) -> tuple[float, float, float]:
    """Empirical detection and false-alarm rates at a threshold, with the
    binomial standard error of the detection estimate."""
    if trials < 100:
        raise ValueError("need at least 100 trials for a rate estimate")
    t0, t1 = simulate_statistics(detector, gains, channel, scenario, trials, master_seed, path)
    pd_emp = float(np.mean(t1 > threshold))
    pfa_emp = float(np.mean(t0 > threshold))
    stderr = float(np.sqrt(pd_emp * (1.0 - pd_emp) / trials))
    return pd_emp, pfa_emp, stderr


@dataclass(frozen=True, eq=False)
class _CurveSpec:
    detector: str
    policy: str
    gains: GainVector | None  # None: resolved per channel draw (needs CSI)
    ed_threshold: float | None


@dataclass
class _Tally:
    det: int = 0
    fa: int = 0
    err_sq: float = 0.0
    trials: int = 0
    pd_theory: float = 0.0
    mse_theory: float = 0.0
    deflection: float = 0.0
    theory_count: int = 0

    def merge(self, other: "_Tally") -> None:
        self.det += other.det
        self.fa += other.fa
        self.err_sq += other.err_sq
        self.trials += other.trials
        self.pd_theory += other.pd_theory
        self.mse_theory += other.mse_theory
        self.deflection += other.deflection
        self.theory_count += other.theory_count


def _prepare_point(config: ExperimentConfig, point_idx: int, p: float, m: int):
    specs = []
    gains: dict[str, GainVector | None] = {}
    for curve_idx, (det, pol) in enumerate(config.curves()):
        if pol not in gains:
            needs_csi = pol == "single_antenna_optimal"
            gains[pol] = None if needs_csi else resolve_gains(pol, config.scenario, m, p)
        ed_thr = None
        if det == "ed":
            eta = energy_detector.eta_weights(gains[pol], config.scenario)
            rng = derive_rng(config.master_seed, point_idx, curve_idx, _TAG_ED_THRESHOLD)
            ed_thr = energy_detector.ed_threshold_for_pfa(
                eta, config.scenario, m, config.target_pfa, rng=rng
            ).gamma_hat
        specs.append(_CurveSpec(det, pol, gains[pol], ed_thr))
    return specs


def _run_scenario(config, point_idx, p, m, s_idx, specs):
    """Tally every curve on one scenario, one antenna group at a time."""
    tallies = [_Tally() for _ in specs]
    groups: dict[int, dict[str, list[int]]] = {}
    for i, spec in enumerate(specs):
        m_group = 1 if spec.detector in SINGLE_DETECTORS else m
        groups.setdefault(m_group, {}).setdefault(spec.policy, []).append(i)
    for m_group, policies in groups.items():
        _run_group(config, point_idx, p, m_group, s_idx, specs, policies, tallies)
    return tallies


def _run_group(config, point_idx, p, m, s_idx, specs, policies, tallies):
    """One antenna group's channel draw and trials; ``policies`` maps each gain
    policy to the indices of the curves that use it.

    Every curve but ``ed``'s makes the likelihood-ratio decision, ``ed_single``
    included: at M = 1 that decision is |y|^2 > sigma_w^2 ln(1/target_pfa),
    the one-antenna receiver's test.
    """
    scenario = config.scenario
    sv = scenario.signal_var
    pfa = config.target_pfa
    channel = sample_channel(
        scenario, m, derive_rng(config.master_seed, point_idx, s_idx, m, _TAG_CHANNEL)
    )
    prepared = []
    for curves in policies.values():
        gains = specs[curves[0]].gains
        if gains is None:
            gains = np_gains.single_antenna_optimal_gains(scenario, channel.h_matrix[0], p)
        ctx = None
        if any(specs[i].detector != "ed" for i in curves):
            ctx = np_detector.NpTestContext.build(gains, channel, scenario, target_pfa=pfa)
        for i in curves:
            tally = tallies[i]
            if specs[i].detector != "ed":
                tally.pd_theory += np_detector.pd_closed_form(ctx.snr, sv, pfa)
                tally.mse_theory += lmmse.mse_closed_form(ctx.snr, sv)
            if specs[i].detector in ("ed", "ed_single"):
                tally.deflection += energy_detector.deflection_exact(gains, channel, scenario)
            tally.theory_count += 1
        prepared.append((gains, ctx, curves))
    stream = TrialStream(scenario, m, config.master_seed, (point_idx, s_idx, m, _TAG_TRIALS))
    trials = config.trials_per_scenario
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        theta, v, noise = stream.draw(stop - start)
        for gains, ctx, curves in prepared:
            y0, y1 = _received(channel, gains, theta, v, noise)
            for i in curves:
                spec, tally = specs[i], tallies[i]
                if spec.detector == "ed":
                    thr, statistic = spec.ed_threshold, energy_detector.ed_statistic
                else:
                    thr, statistic = ctx.threshold, partial(np_detector.np_statistic, ctx)
                tally.fa += int(np.count_nonzero(statistic(y0) > thr))
                tally.det += int(np.count_nonzero(statistic(y1) > thr))
                tally.trials += stop - start
                if spec.detector in ("np", "np_single"):
                    est = lmmse.lmmse_estimate(ctx, y1).estimate
                    tally.err_sq += float(np.sum(np.abs(theta - est) ** 2))
            del y0, y1  # hold one gain vector's blocks at a time


def _point_rows(config, point_idx, p, m, specs, merged) -> list[ResultRow]:
    scenario = config.scenario
    bound_lo = np_gains.np_pd_bound(scenario, "low_power", config.target_pfa)
    bound_hi = np_gains.np_pd_bound(scenario, "high_power", config.target_pfa)
    rows = []
    nan = float("nan")
    for spec, tally in zip(specs, merged):
        total = tally.trials
        pd_emp = tally.det / total if total else nan
        pfa_emp = tally.fa / total if total else nan
        stderr = float(np.sqrt(pd_emp * (1.0 - pd_emp) / total)) if total else nan
        is_np = spec.detector in ("np", "np_single")
        count = tally.theory_count or 1
        rows.append(ResultRow(
            experiment=config.experiment_id,
            policy=spec.policy,
            detector=spec.detector,
            m=m,
            p=p,
            pd_emp=pd_emp,
            pd_theory=tally.pd_theory / count if spec.detector != "ed" else nan,
            pfa_emp=pfa_emp,
            mse_emp=tally.err_sq / total if (is_np and total) else nan,
            mse_theory=tally.mse_theory / count if is_np else nan,
            deflection=tally.deflection / count if spec.detector in ("ed", "ed_single") else nan,
            bound_lo=bound_lo if is_np else nan,
            bound_hi=bound_hi if is_np else nan,
            stderr=stderr,
            trials=total,
        ))
    return rows


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute the configured sweep and tabulate one row per curve and point.

    Scenarios run independently (optionally on one thread pool for the whole
    run) and are merged in index order, so the result is identical for any
    thread count.  A failing operating point is recorded and its rows emitted
    as NaN instead of aborting the sweep.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1:
        return _run_sweep(config, map)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _run_sweep(config, pool.map)


def _run_sweep(config: ExperimentConfig, map_scenarios) -> ExperimentResult:
    rows: list[ResultRow] = []
    errors: list[tuple[int, str]] = []
    for point_idx, (p, m) in enumerate(config.sweep):
        try:
            specs = _prepare_point(config, point_idx, p, m)
            per_scenario = list(map_scenarios(
                lambda s: _run_scenario(config, point_idx, p, m, s, specs),
                range(config.n_scenarios),
            ))
            merged = [_Tally() for _ in specs]
            for tallies in per_scenario:
                for agg, one in zip(merged, tallies):
                    agg.merge(one)
            rows.extend(_point_rows(config, point_idx, p, m, specs, merged))
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


def config_from_manifest(data: dict) -> ExperimentConfig:
    """Rebuild a config from :func:`manifest_dict` output.

    Raises ValueError for a manifest written under another random-stream
    version: replaying it would not reproduce its CSV bytes.
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
        sweep=tuple((float(p), int(m)) for p, m in data["sweep"]),
        trials_per_scenario=int(data["trials"]),
        n_scenarios=int(data["scenarios"]),
        target_pfa=float(data["target_pfa"]),
        master_seed=int(data["master_seed"]),
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
