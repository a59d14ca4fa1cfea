"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, then runs whole
passes with ``run_pass(k)``; pass k works on input set ``k % pool``, so
``pool`` passes cover every input once.  ``check`` verifies every pass's
outputs outside the timed region.  It counts each distinct operation once,
so the counts depend on the seed alone, not on how many passes the time
allowed; a repeated operation must give the same output as its first run.

* ``desk_recipes``: the six packaged recipes through the CLI entry point, one
  operation per CSV row.
* ``large_array``: one generated massive-array config through the CLI, one
  operation per CSV row.
* ``design_grid``: direct calculator calls over an (N, M, P) grid, one
  operation per design point.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from mimofusion import cli, ed_gains, energy_detector, lmmse, np_detector, np_gains
from mimofusion.config import experiment_from_text, load_packaged_experiment
from mimofusion.config import PACKAGED_EXPERIMENTS
from mimofusion.scenario import derive_rng, sample_scenario

TARGET_PFA = 0.05
# Fixed binomial z bound of every calibration check.  A correct row or point
# exceeds it with probability below 1e-6.
Z_BOUND = 5.0
# Direct-simulation draws per energy threshold in the design-grid oracle.
ORACLE_DRAWS = 20_000


@dataclass
class PassResult:
    """One pass of a workload: its wall time, work done and request latencies."""

    index: int  # pass number k; the pass worked on input set k % pool
    seconds: float
    work: int  # row-trials on the harness workloads, design points on design_grid
    latencies: list[float]  # one per CLI run or per design point, in seconds
    bytes_written: int = 0


def summarize(passes: list[PassResult]) -> tuple[float, list[float]]:
    """Operations per second and one typical latency per operation of a pass.

    An operation's typical latency is the median of its times over the passes.
    On the design grid the passes cycle through the network sets, so a rare
    costly input (a Monte Carlo tail on one network) does not decide a run,
    while a change that makes an operation slower on most inputs moves it.
    The rate is one pass's work over the sum of the typical latencies.
    """
    typical = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    return statistics.median(p.work for p in passes) / sum(typical), typical


@dataclass
class CheckReport:
    """Verdicts over every pass: operations attempted and failed, per check."""

    attempted: int = 0
    failed: int = 0
    # check name -> [operations examined, operations failing it]
    checks: dict[str, list[int]] = field(default_factory=dict)
    # whole-run invariant: passes over identical inputs gave identical outputs
    reproducible: bool = True

    def tally(self, name: str, failed: bool) -> None:
        counts = self.checks.setdefault(name, [0, 0])
        counts[0] += 1
        counts[1] += int(failed)


def binomial_z(rate: float, p: float, n: int) -> float:
    """Deviation of an observed rate from p in binomial standard errors.

    The variance is floored at one count, so a single miss against a
    probability of almost one is not an outlier.
    """
    k = rate * n
    return abs(k - n * p) / math.sqrt(max(n * p * (1.0 - p), 1.0))


# --- harness workloads --------------------------------------------------------

# cells each detector's CSV rows must fill, beyond the ones every row fills
_COMMON_CELLS = ("M", "P", "pd_emp", "pfa_emp", "stderr", "trials")
_DETECTOR_CELLS = {
    "np": ("pd_theory", "mse_emp", "mse_theory", "bound_lo", "bound_hi"),
    "np_single": ("pd_theory", "mse_emp", "mse_theory", "bound_lo", "bound_hi"),
    "ed": ("deflection",),
    "ed_single": ("pd_theory", "deflection"),
}


def _finite_cell(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


class _HarnessWorkload:
    """Experiment runs through ``mimofusion.cli.main``; one operation per CSV row.

    Every pass repeats the same runs, so the pool holds one input set."""

    pool = 1

    def __init__(self, seed: int, out_dir: str, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.data_dir = os.path.join(out_dir, "data")
        self.runs: list[tuple[str, list[str], int]] = []  # (experiment id, argv, rows expected)
        # per pass, per run: (exit code, CSV text or None)
        self.outputs: list[list[tuple[int, str | None]]] = []

    def run_pass(self, index: int) -> PassResult:
        # the CLI prints output paths and warnings; a failed sweep point also
        # shows in its CSV rows, which check() reads
        codes = []
        latencies = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for _, argv, _ in self.runs:
                t0 = time.perf_counter()
                codes.append(cli.main(argv))
                latencies.append(time.perf_counter() - t0)
        work = 0
        written = 0
        texts = []
        for (exp_id, _, _), code in zip(self.runs, codes):
            csv_path = os.path.join(self.data_dir, f"{exp_id}.csv")
            manifest_path = os.path.join(self.data_dir, f"{exp_id}.manifest.json")
            text = None
            if code == 0 and os.path.exists(csv_path):
                with open(csv_path) as fh:
                    text = fh.read()
                written += len(text.encode()) + os.path.getsize(manifest_path)
                work += sum(int(row["trials"] or 0) for row in csv.DictReader(io.StringIO(text)))
                os.remove(csv_path)  # a later run that fails must not leave it behind
            texts.append((code, text))
        self.outputs.append(texts)
        return PassResult(index, sum(latencies), work, latencies, written)

    def check(self) -> CheckReport:
        """One operation per expected row of one pass; a row fails if it
        fails in any pass."""
        report = CheckReport()
        first = [text for _, text in self.outputs[0]]
        failed_rows: set[tuple[int, int]] = set()
        for outcomes in self.outputs:
            report.reproducible &= [text for _, text in outcomes] == first
            for run, ((_, _, expected), (code, text)) in enumerate(zip(self.runs, outcomes)):
                ok_run = code == 0 and text is not None
                report.tally("exit_code", not ok_run)
                rows = list(csv.DictReader(io.StringIO(text))) if ok_run else []
                complete = ok_run and len(rows) == expected
                report.tally("row_count", ok_run and not complete)
                if not complete:
                    failed_rows.update((run, i) for i in range(expected))
                    continue
                failed_rows.update(
                    (run, i) for i, row in enumerate(rows) if not self._row_ok(row, report)
                )
        report.attempted = sum(expected for _, _, expected in self.runs)
        report.failed = len(failed_rows)
        return report

    @staticmethod
    def _row_ok(row: dict[str, str], report: CheckReport) -> bool:
        detector = row["detector"]
        cells = _COMMON_CELLS + _DETECTOR_CELLS.get(detector, ())
        point_ok = row["trials"] not in ("", "0")
        report.tally("point_errored", not point_ok)
        cells_ok = detector in _DETECTOR_CELLS and all(_finite_cell(row[c]) for c in cells)
        report.tally("required_cells", not cells_ok)
        ok = point_ok and cells_ok
        # energy-detector rows are not calibration-checked: their finite-M
        # false-alarm excess is a documented property of the limiting formula
        if ok and detector in ("np", "np_single"):
            n = int(row["trials"])
            pfa_ok = binomial_z(float(row["pfa_emp"]), TARGET_PFA, n) <= Z_BOUND
            pd_ok = binomial_z(float(row["pd_emp"]), float(row["pd_theory"]), n) <= Z_BOUND
            report.tally("pfa_calibration", not pfa_ok)
            report.tally("pd_calibration", not pd_ok)
            ok = pfa_ok and pd_ok
        return ok


class DeskRecipes(_HarnessWorkload):
    """All six packaged recipes at the packaged 1000 trials, fewer scenarios."""

    name = "desk_recipes"
    _FLAGS = {"master_seed": "--seed", "scenarios": "--scenarios", "trials": "--trials"}

    def setup(self) -> None:
        os.makedirs(self.data_dir, exist_ok=True)
        for i, exp_id in enumerate(PACKAGED_EXPERIMENTS):
            overrides = {"master_seed": str(self.seed + i), "scenarios": "1"}
            if self.smoke:
                overrides["trials"] = "100"
            argv = ["run", "--experiment", exp_id, "--output-dir", self.data_dir]
            for key, value in overrides.items():
                argv += [self._FLAGS[key], value]
            config = load_packaged_experiment(exp_id, overrides)
            self.runs.append((exp_id, argv, len(config.sweep) * len(config.curves())))


LARGE_ARRAY_CONFIG = """\
# Massive-array regime: power on the 1/M schedule, M in the thousands.
experiment = large_array
n_sensors = 10
seed = 73
sweep_m = {sweep_m}
power_schedule = snr_floor
trials = {trials}
scenarios = 4
target_pfa = 0.05
master_seed = {seed}
detectors = np, ed
policies = waterfill, qclp, equal
"""


class LargeArray(_HarnessWorkload):
    """One generated config with M up to 16384, written by the benchmark."""

    name = "large_array"

    def setup(self) -> None:
        os.makedirs(self.data_dir, exist_ok=True)
        sweep_m, trials = ("16, 64", 64) if self.smoke else ("1024, 4096, 16384", 256)
        text = LARGE_ARRAY_CONFIG.format(sweep_m=sweep_m, trials=trials, seed=self.seed)
        path = os.path.join(self.data_dir, "large_array.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        config = experiment_from_text(text)
        argv = ["run", "--config", path, "--output-dir", self.data_dir]
        self.runs.append(("large_array", argv, len(config.sweep) * len(config.curves())))


# --- design grid --------------------------------------------------------------

GRID_N = (1, 5, 10, 20, 30, 40)
GRID_M = (1, 16, 64, 256, 1024, 4096, 100_000)
GRID_P = tuple(float(p) for p in np.logspace(-4.0, 4.0, 9))
SMOKE_GRID = ((1, 20), (16, 1024), (1e-2, 1.0, 1e2))
# network sets in the pool: about one set in three holds a network costly
# enough for the Monte Carlo tail, with its time and memory, so ten sets give
# nearly every seed one; a pass over a set takes about 2 s on 2 cores of a
# shared VM
POOL_SETS = 10
SMOKE_POOL_SETS = 2


def _design_point(scenario, m: int, p: float) -> tuple:
    """The calculator traffic at one design point; every public call goes
    through its module so a traced run sees it."""
    wf = np_gains.waterfill(scenario, m, p)
    qclp = ed_gains.solve_qclp(ed_gains.EdAllocationProblem.from_scenario(scenario, m, p))
    high = ed_gains.closed_form_high_snr(scenario, p)
    low = ed_gains.closed_form_low_snr(scenario, p)
    snr = np_detector.snr_asymptotic(wf.gains, scenario, m)
    pd = np_detector.pd_closed_form(snr, scenario.signal_var, TARGET_PFA)
    mse = lmmse.mse_closed_form(snr, scenario.signal_var)
    thresholds = tuple(
        energy_detector.ed_threshold_for_pfa(
            energy_detector.eta_weights(gains, scenario), scenario, m, TARGET_PFA
        )
        for gains in (wf.gains, qclp.gains)
    )
    values = np.concatenate([
        wf.magnitudes_sq, qclp.x, high.magnitudes_sq, low.magnitudes_sq,
        [snr, pd, mse], [thr.gamma_hat for thr in thresholds],
    ])
    return values, thresholds


def _digest(outcome) -> bytes:
    return outcome.encode() if isinstance(outcome, str) else outcome[0].tobytes()


def oracle_pfa(seed: int, items: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """False-alarm rates by direct simulation of the noise-only statistic's
    limit: the bulk level plus sum_i w_i E_i, with E_i standard exponential.

    items holds (weights w_i = eta_i + s/M, threshold minus bulk level).  One
    bank of draws from the seed serves every threshold, so thresholds with the
    same number of weights are evaluated together as one matrix product.
    """
    rates = np.empty(len(items))
    by_size: dict[int, list[int]] = {}
    for i, (weights, _) in enumerate(items):
        by_size.setdefault(weights.size, []).append(i)
    if not items:
        return rates
    bank = np.random.default_rng([seed, 0x0AC1E]).standard_exponential(
        (ORACLE_DRAWS, max(by_size))
    )
    for size, indices in by_size.items():
        for start in range(0, len(indices), 256):
            chunk = indices[start:start + 256]
            weights = np.stack([items[i][0] for i in chunk], axis=1)
            excess = np.array([items[i][1] for i in chunk])
            rates[chunk] = np.mean(bank[:, :size] @ weights > excess, axis=0)
    return rates


class DesignGrid:
    """Gain optimizers, closed forms and ED thresholds over N x M x P.

    The inputs are a pool of POOL_SETS network sets, one network per grid
    point, sampled from (seed, set, point); pass k evaluates set k % pool.
    A rare input is costly (weights clustered enough for the Monte Carlo
    tail), so one set alone would make some seeds much slower than others;
    ``summarize`` takes each point's median over the passes.
    """

    name = "design_grid"

    def __init__(self, seed: int, out_dir: str, smoke: bool):
        self.seed = seed
        self.pool = SMOKE_POOL_SETS if smoke else POOL_SETS
        self.smoke = smoke
        self.grid: list[tuple[int, int, float]] = []
        self.network_sets: list[list] = []
        # per pass: (set index, per point (values, thresholds) or error message)
        self.passes: list[tuple[int, list[tuple | str]]] = []

    def setup(self) -> None:
        ns, ms, ps = SMOKE_GRID if self.smoke else (GRID_N, GRID_M, GRID_P)
        self.grid = [(n, m, p) for n in ns for m in ms for p in ps]
        self.network_sets = [
            [sample_scenario(n, derive_rng(self.seed, k, idx))
             for idx, (n, _, _) in enumerate(self.grid)]
            for k in range(self.pool)
        ]

    def run_pass(self, index: int) -> PassResult:
        latencies = []
        outcomes: list[tuple | str] = []
        for (_, m, p), scenario in zip(self.grid, self.network_sets[index % self.pool]):
            t0 = time.perf_counter()
            try:
                outcome = _design_point(scenario, m, p)
            except Exception as exc:  # a failed operation; the pass goes on
                outcome = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        self.passes.append((index % self.pool, outcomes))
        return PassResult(index, sum(latencies), len(self.grid), latencies)

    def check(self) -> CheckReport:
        """One operation per point of every set; the first evaluation of a
        set is checked, every later one must reproduce it."""
        report = CheckReport()
        first: dict[int, list[tuple | str]] = {}
        for k, outcomes in self.passes:
            if k in first:
                report.reproducible &= (
                    [_digest(o) for o in outcomes] == [_digest(o) for o in first[k]]
                )
            else:
                first[k] = outcomes
        if len(first) < self.pool:
            raise RuntimeError(f"only {len(first)} of {self.pool} network sets were run")
        verdicts: list[bool] = []
        oracle_items: list[tuple[np.ndarray, float]] = []
        oracle_points: list[int] = []
        for k in range(self.pool):
            for (_, m, _), scenario, outcome in zip(self.grid, self.network_sets[k], first[k]):
                raised = isinstance(outcome, str)
                report.tally("raised", raised)
                verdicts.append(not raised)
                if raised:
                    continue
                values, thresholds = outcome
                finite = bool(np.all(np.isfinite(values)))
                report.tally("non_finite", not finite)
                verdicts[-1] = finite
                s = scenario.fc_noise_var
                for thr in thresholds:
                    eta_pos = thr.eta[thr.eta > 0]
                    offset = (m - eta_pos.size) / m * s
                    above_bulk = thr.gamma_hat > offset
                    report.tally("threshold_above_bulk", not above_bulk)
                    verdicts[-1] &= above_bulk
                    oracle_items.append((eta_pos + s / m, thr.gamma_hat - offset))
                    oracle_points.append(len(verdicts) - 1)
        for point, rate in zip(oracle_points, oracle_pfa(self.seed, oracle_items)):
            calibrated = binomial_z(rate, TARGET_PFA, ORACLE_DRAWS) <= Z_BOUND
            report.tally("pfa_oracle", not calibrated)
            verdicts[point] &= calibrated
        report.attempted = len(verdicts)
        report.failed = verdicts.count(False)
        return report


WORKLOADS = {cls.name: cls for cls in (DeskRecipes, LargeArray, DesignGrid)}
