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
energy of y outside range(H); those are drawn directly, and a channel draw is
its factor R itself (:func:`sample_channel`), so neither a trial nor a
channel draw grows with M.  A trial draws k + 1 complex normals,
k = min(M, N): the signal and a whitened k-vector (:class:`TrialStream`).

What the harness tallies is a unit: one antenna group with one gain policy.
A point scores each antenna group over its scenarios in stacked blocks: the
block's channel factors, gains and draws are stacked along a scenario axis,
one :class:`np_detector.NpTestContext` holds every (scenario, unit) pair of
the block, factored by one stacked ``eigh``, and every decision rule
(likelihood ratio, energy, LMMSE estimate) scores a chunk of the whole block
in one call, O(k) contractions per trial and unit; the likelihood-ratio
decision and the estimate share one steering response.  The closed forms
take the block's SNR array, one call each.  A unit's tally is a slot of two
arrays: decision counts, summed over the block, and squared errors and
closed forms, added one scenario at a time in index order, so neither the
block size nor the chunk size moves a count or closed-form cell.  Every
curve's row is read from its unit's slots, so curves on one unit, such as
``np_single`` and ``ed_single``, share their decisions rather than repeat
them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import ed_gains, energy_detector, lmmse, np_detector, np_gains
from .scenario import GainVector, Scenario, complex_normal, derive_rng, sample_channel

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
# trial columns scored at once: scenarios are stacked in blocks of
# max(1, _BLOCK_TRIALS // chunk), so memory does not grow with the scenario
# count (full-scale fig3 peaks about 1 MiB above a one-scenario loop; 4096
# columns cost 5 MiB)
_BLOCK_TRIALS = 2048
STREAM_VERSION = 5


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
        # the id names the output files, so it must stay one name in the output directory
        eid = self.experiment_id
        if eid in ("", ".", "..") or "/" in eid or "\\" in eid:
            raise ValueError(f"experiment id {eid!r} must be a file name without a path")
        if self.trials_per_scenario < 1 or self.n_scenarios < 1:
            raise ValueError("trials and scenario count must be >= 1")
        if not 0.0 < self.target_pfa < 1.0:
            raise ValueError("target_pfa must lie in (0, 1)")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if not self.sweep:
            raise ValueError("sweep must contain at least one (P, M) point")
        # plain Python numbers keep CSV/JSON formatting independent of the caller
        object.__setattr__(self, "sweep", tuple((float(p), int(m)) for p, m in self.sweep))
        for p, m in self.sweep:
            if not (np.isfinite(p) and p > 0) or m < 1:
                raise ValueError("sweep points need finite positive power and M >= 1")
        for kind, names, known in (("detector", self.detectors, DETECTORS),
                                   ("gain policy", self.gain_policies, POLICIES)):
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}")
                if name in names[:i]:
                    raise ValueError(f"repeated {kind} {name!r}")
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
    """One CSV row: its fields, in order, are the columns of :data:`CSV_COLUMNS`."""

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


# a row's cells in column order, read by name: dataclasses.astuple deep-copies every field
_row_cells = attrgetter(*(f.name for f in fields(ResultRow)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Tabulated empirical and theoretical figures for one experiment run."""

    config: ExperimentConfig
    rows: tuple[ResultRow, ...]
    errors: tuple[tuple[int, str], ...] = ()

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(map(_fmt, _row_cells(r))) for r in self.rows)
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
    range(H).  For white n these are independent of each other and of theta,
    and the outside energy is s Gamma(M - k, 1) whichever Q the factorization
    gives.  Under H0, z = R D v + Q^H n ~ CN(0, C0) with C0 = R E R^H + s I_k
    and E = diag(|a_i|^2 v_i); for C0 = U Lambda U^H, z has the law of
    U Lambda^{1/2} xi with xi ~ CN(0, I_k).  So a trial draws theta, xi and
    the outside energy, k + 1 complex normals, and every antenna group's
    units read the same xi in the eigenbasis of their own C0
    (:class:`np_detector.NpTestContext`): the reduced trial is exact in
    distribution.

    The path seeds one stream, which spawns three children: one each for the
    signal theta, the whitened draws xi and the outside energy.  Each child is
    drawn trial-major, so reading the trials in chunks of any size gives the
    same values as reading them all at once.
    """

    def __init__(self, scenario: Scenario, m: int, master_seed: int, path: tuple[int, ...]):
        self._scenario = scenario
        self._m = m
        self._k = min(m, scenario.n_sensors)
        self._theta, self._xi, self._outside = derive_rng(master_seed, *path).spawn(3)

    def draw(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` trials: theta (count,), xi ~ CN(0, I_k) (k, count)
        and the receiver-noise energy outside range(H) (count,), zero when
        k = M."""
        sc = self._scenario
        theta = complex_normal(self._theta, sc.signal_var, count)
        xi = complex_normal(self._xi, 1.0, (count, self._k))
        outside = np.zeros(count)
        if self._m > self._k:
            outside = sc.fc_noise_var * self._outside.standard_gamma(self._m - self._k, count)
        return theta, xi.T, outside

    def chunks(self, trials: int):
        """The draws of the next ``trials`` trials, :data:`_CHUNK` at a time."""
        for start in range(0, trials, _CHUNK):
            yield self.draw(min(_CHUNK, trials - start))


def _stacked(arrays) -> np.ndarray:
    """The block's per-scenario arrays stacked on a new first axis; a block of
    one scenario is a view of its array, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _unit(detector: str, policy: str, m: int) -> tuple[int, str]:
    """The (antenna group, gain policy) unit whose tally a curve reads."""
    return (1 if detector in SINGLE_DETECTORS else m, policy)


def _prepare_point(config: ExperimentConfig, p: float, m: int):
    """Units by antenna group, gains per policy and ED thresholds per policy.

    Groups map each antenna group to its units, {policy: detectors scored on
    the unit}.  Gains are None for ``single_antenna_optimal``, which is
    resolved per channel draw; an ED threshold exists for each policy with an
    ``ed`` curve.
    """
    groups: dict[int, dict[str, list[str]]] = {}
    gains: dict[str, GainVector | None] = {}
    ed_thresholds: dict[str, float] = {}
    for det, pol in config.curves():
        group, _ = _unit(det, pol, m)
        groups.setdefault(group, {}).setdefault(pol, []).append(det)
        if pol not in gains:
            needs_csi = pol == "single_antenna_optimal"
            gains[pol] = None if needs_csi else resolve_gains(pol, config.scenario, m, p)
        if det == "ed":
            eta = energy_detector.eta_weights(gains[pol], config.scenario)
            ed_thresholds[pol] = energy_detector.ed_threshold_for_pfa(
                eta, config.scenario, m, config.target_pfa
            ).gamma_hat
    return groups, gains, ed_thresholds


def _score_group(config, point_idx, p, m, units, gains, ed_thresholds):
    """Tally one antenna group's units, {policy: detectors}, over every
    scenario of a point: {(m, policy): (counts, sums)}, the unit's slot of
    counts (lr_fa, lr_det, ed_fa, ed_det) and sums (err_sq, pd, mse, deflection).

    Each scenario draws its channel and its trial stream on its own path, as
    it would alone.  A block of scenarios stacks them: the channel factors as
    (S, 1, k, N) and the gains as (S, U, N), ``single_antenna_optimal`` solved
    on each draw, so one context holds the block's S x U units, and each
    chunk's draws as (S, k, T).  Every decision rule then scores the whole
    block in one call: the likelihood-ratio (LR) decision and the LMMSE
    estimate on its response if a detector other than ``ed`` is on the group,
    the energy decision if ``ed`` is.  A unit's row reads only the slots of
    its own detectors.  ``ed_single`` reads the LR decision: at M = 1 that
    decision is |y|^2 > sigma_w^2 ln(1/target_pfa), the one-antenna
    receiver's test.

    The one-antenna gains read R's one row, e^{-i phi} h for h = H's row: a
    common phase that moves no statistic's distribution.
    """
    scenario = config.scenario
    seed, trials = config.master_seed, config.trials_per_scenario
    sv, pfa = scenario.signal_var, config.target_pfa
    policies = list(units)
    detectors = {det for dets in units.values() for det in dets}
    lr = bool(detectors - {"ed"})
    ed = "ed" in detectors
    ed_thr = np.array([[ed_thresholds.get(pol, np.inf)] for pol in policies]) if ed else None
    counts = np.zeros((4, len(policies)), np.int64)
    sums = np.zeros((4, len(policies)))
    block = max(1, _BLOCK_TRIALS // min(trials, _CHUNK))
    for first in range(0, config.n_scenarios, block):
        scenarios = range(first, min(first + block, config.n_scenarios))
        r = _stacked([
            sample_channel(scenario, m, derive_rng(seed, point_idx, s, m, _TAG_CHANNEL))
            for s in scenarios
        ])
        a = np.array([[
            np_gains.single_antenna_optimal_gains(scenario, r_s[0], p).gains
            if gains[pol] is None else gains[pol].gains
            for pol in policies
        ] for r_s in r])
        ctx = np_detector.NpTestContext.build(a, r[:, None], m, scenario, target_pfa=pfa)
        err_sq = np.zeros(ctx.snr.shape)
        streams = [TrialStream(scenario, m, seed, (point_idx, s, m, _TAG_TRIALS))
                   for s in scenarios]
        for draws in zip(*(stream.chunks(trials) for stream in streams)):
            theta, xi, outside = map(_stacked, zip(*draws))
            theta, outside = theta[:, None], outside[:, None]  # shared by a scenario's units
            # the two hypotheses share each trial's draws: signal rows 0 and theta;
            # decisions (hypothesis, scenario, unit, trial) are counted per (hypothesis, unit)
            hypotheses = np.array((np.zeros_like(theta), theta))
            if lr:
                w = np_detector.steering_response(ctx, xi, hypotheses)
                stat = np_detector.np_statistic(ctx, w)
                counts[:2] += (stat > ctx.threshold[..., None]).sum(axis=(1, 3))
                err_sq += np.sum(np.abs(theta - lmmse.lmmse_estimate(ctx, w[1])) ** 2, axis=-1)
            if ed:
                stat = energy_detector.ed_statistic(ctx, xi, hypotheses, outside)
                counts[2:] += (stat > ed_thr).sum(axis=(1, 3))
        block_sums = np.array((
            err_sq, np_detector.pd_closed_form(ctx.snr, sv, pfa),
            lmmse.mse_closed_form(ctx.snr, sv), energy_detector.deflection_exact(ctx),
        ))
        for s in range(len(scenarios)):  # in index order, so no block size moves a sum's bits
            sums += block_sums[:, s]
    return {(m, pol): (counts[:, u], sums[:, u]) for u, pol in enumerate(policies)}


def _point_rows(config, p, m, tallies) -> list[ResultRow]:
    """One row per curve, read from its unit's slots: ``ed`` reads the energy
    decisions, every other detector the likelihood-ratio ones."""
    scenario = config.scenario
    bound_lo = np_gains.np_pd_bound(scenario, "low_power", config.target_pfa)
    bound_hi = np_gains.np_pd_bound(scenario, "high_power", config.target_pfa)
    rows = []
    nan = float("nan")
    n = config.n_scenarios
    total = n * config.trials_per_scenario
    for det, pol in config.curves():
        counts, sums = tallies[_unit(det, pol, m)]
        false_alarms, detections = (counts[2:] if det == "ed" else counts[:2]).tolist()
        err_sq, pd_theory, mse_theory, deflection = sums.tolist()
        pd_emp = detections / total
        is_np = det in ("np", "np_single")
        rows.append(ResultRow(
            experiment=config.experiment_id,
            policy=pol,
            detector=det,
            m=m,
            p=p,
            pd_emp=pd_emp,
            pd_theory=nan if det == "ed" else pd_theory / n,
            pfa_emp=false_alarms / total,
            mse_emp=err_sq / total if is_np else nan,
            mse_theory=mse_theory / n if is_np else nan,
            deflection=deflection / n if det in ("ed", "ed_single") else nan,
            bound_lo=bound_lo if is_np else nan,
            bound_hi=bound_hi if is_np else nan,
            stderr=float(np.sqrt(pd_emp * (1.0 - pd_emp) / total)),
            trials=total,
        ))
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured sweep and tabulate one row per curve and point.

    Each antenna group of a point is scored over all scenarios in stacked
    blocks, and sums over scenarios are taken in scenario index order.  A
    failing operating point is recorded and its rows emitted as NaN instead
    of aborting the sweep.
    """
    rows: list[ResultRow] = []
    errors: list[tuple[int, str]] = []
    for point_idx, (p, m) in enumerate(config.sweep):
        try:
            groups, gains, ed_thresholds = _prepare_point(config, p, m)
            tallies = {}
            for group, units in groups.items():
                tallies.update(
                    _score_group(config, point_idx, p, group, units, gains, ed_thresholds)
                )
            rows.extend(_point_rows(config, p, m, tallies))
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _manifest_int(value, name: str) -> int:
    """An integral manifest number as an int; anything else, 2.5, Infinity
    and NaN included, raises ValueError rather than be truncated or overflow."""
    if not (_is_number(value) and float(value).is_integer()):
        raise ValueError(f"manifest {name!r} must be an integer, got {value!r}")
    return int(value)


def _list_of(ok):
    return lambda value: isinstance(value, list) and all(map(ok, value))


def _field(data: dict, key: str, what: str, ok=_is_number):
    """data[key] if present and ok(value), else a ValueError naming the key."""
    if key not in data or not ok(data[key]):
        raise ValueError(f"manifest {key!r} must be {what}")
    return data[key]


def config_from_manifest(data: dict) -> ExperimentConfig:
    """Rebuild a config from :func:`manifest_dict` output.

    Raises ValueError for a manifest written under another random-stream
    version (replaying it would not reproduce its CSV bytes) and for a
    missing, misshapen or non-integral field.
    """
    if not isinstance(data, dict):
        raise ValueError("manifest must be a JSON object")
    version = data.get("stream_version")
    if version != STREAM_VERSION:
        found = "no stream_version" if version is None else f"stream_version {version!r}"
        raise ValueError(
            f"manifest has {found}, but this version replays only stream_version "
            f"{STREAM_VERSION}; rerun the experiment from its config instead"
        )
    sc = _field(data, "scenario", "a mapping", lambda v: isinstance(v, dict))
    numbers, strings = _list_of(_is_number), _list_of(lambda v: isinstance(v, str))
    pairs = _list_of(lambda pm: numbers(pm) and len(pm) == 2)
    vectors = ("distances", "meas_noise_vars")
    scalars = ("signal_var", "fc_noise_var", "path_loss_exp")
    return ExperimentConfig(
        experiment_id=_field(data, "experiment", "a string", lambda v: isinstance(v, str)),
        scenario=Scenario(
            *(np.asarray(_field(sc, k, "a list of numbers", numbers), float) for k in vectors),
            *(float(_field(sc, k, "a number")) for k in scalars),
        ),
        sweep=tuple((float(p), _manifest_int(m, "sweep M"))
                    for p, m in _field(data, "sweep", "a list of [P, M] pairs", pairs)),
        trials_per_scenario=_manifest_int(data.get("trials"), "trials"),
        n_scenarios=_manifest_int(data.get("scenarios"), "scenarios"),
        target_pfa=float(_field(data, "target_pfa", "a number")),
        master_seed=_manifest_int(data.get("master_seed"), "master_seed"),
        detectors=tuple(_field(data, "detectors", "a list of strings", strings)),
        gain_policies=tuple(_field(data, "policies", "a list of strings", strings)),
    )


def write_manifest(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_manifest(json.load(fh))
