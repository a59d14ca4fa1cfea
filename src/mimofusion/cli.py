"""Command-line entry point.

Subcommands: `run` executes an experiment (packaged figure recipe, custom
config file, or manifest replay) and writes a CSV table plus a JSON manifest;
`waterfill`, `ed-alloc`, `threshold`, and `bounds` are one-shot calculators.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import ed_gains, energy_detector, lmmse, np_detector, np_gains
from .config import (
    ConfigError,
    load_experiment,
    load_packaged_experiment,
    load_scenario,
    PACKAGED_EXPERIMENTS,
)
from .harness import (
    MULTI_POLICIES,
    load_manifest,
    resolve_gains,
    run_experiment,
    write_manifest,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimofusion",
        description="Detection and estimation experiments for amplify-and-forward "
        "sensor networks with a large-array fusion center.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write CSV + manifest")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--experiment", choices=PACKAGED_EXPERIMENTS,
                     help="packaged figure recipe")
    src.add_argument("--config", help="custom experiment config file")
    src.add_argument("--replay", help="manifest from a previous run to reproduce")
    run.add_argument("--trials", type=int, help="override trials per scenario")
    run.add_argument("--scenarios", type=int, help="override scenario count")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override any config key (repeatable)")
    run.add_argument("--output-dir", default=None,
                     help="output directory (default: $MIMOFUSION_OUTPUT_DIR or .)")
    run.set_defaults(func=_cmd_run)

    wf = sub.add_parser("waterfill", help="optimal likelihood-ratio power allocation")
    wf.add_argument("--config", required=True, help="scenario config file")
    wf.add_argument("--power", type=float, required=True)
    wf.add_argument("--antennas", type=int, required=True)
    wf.set_defaults(func=_cmd_waterfill)

    ea = sub.add_parser("ed-alloc", help="deflection-maximizing power allocation")
    ea.add_argument("--config", required=True, help="scenario config file")
    ea.add_argument("--power", type=float, required=True)
    ea.add_argument("--antennas", type=int, required=True)
    ea.add_argument("--variant", choices=("deflection", "modified_deflection"),
                    default="deflection")
    ea.add_argument("--form", choices=("qclp", "high_snr", "low_snr"), default="qclp")
    ea.set_defaults(func=_cmd_ed_alloc)

    th = sub.add_parser("threshold", help="false-alarm-calibrated detector threshold")
    th.add_argument("--detector", choices=("np", "ed"), required=True)
    th.add_argument("--config", required=True, help="scenario config file")
    th.add_argument("--pfa", type=float, required=True)
    th.add_argument("--power", type=float, required=True)
    th.add_argument("--antennas", type=int, required=True)
    th.add_argument("--policy", choices=MULTI_POLICIES, default=None,
                    help="gain policy (default: waterfill for np, qclp for ed)")
    th.set_defaults(func=_cmd_threshold)

    bd = sub.add_parser("bounds", help="power-limit bounds on detection and MSE")
    bd.add_argument("--config", required=True, help="scenario config file")
    bd.add_argument("--pfa", type=float, required=True)
    bd.set_defaults(func=_cmd_bounds)
    return parser


def _overrides(args) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    if args.trials is not None:
        out["trials"] = str(args.trials)
    if args.scenarios is not None:
        out["scenarios"] = str(args.scenarios)
    if args.seed is not None:
        out["master_seed"] = str(args.seed)
    return out


def _load_input(load, path, *args):
    """load(path, *args), with an input path that exists but cannot be read as
    a text file reported like a missing one: as a configuration error naming it."""
    try:
        return load(path, *args)
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def _check_pfa(pfa: float) -> float:
    if not 0.0 < pfa < 1.0:
        raise ConfigError("--pfa must lie strictly between 0 and 1")
    return pfa


def _check_power_antennas(args) -> None:
    if not (np.isfinite(args.power) and args.power > 0) or args.antennas < 1:
        raise ConfigError("need a finite --power > 0 and --antennas >= 1")


def _cmd_run(args) -> int:
    if args.replay:
        try:
            config = _load_input(load_manifest, args.replay)
        except ValueError as exc:  # bad JSON, values or stream version
            raise ConfigError(f"cannot replay {args.replay}: {exc}") from exc
    elif args.config:
        config = _load_input(load_experiment, args.config, _overrides(args))
    else:
        config = load_packaged_experiment(args.experiment, _overrides(args))

    out_dir = args.output_dir or os.environ.get("MIMOFUSION_OUTPUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    result = run_experiment(config)
    csv_path = os.path.join(out_dir, f"{config.experiment_id}.csv")
    manifest_path = os.path.join(out_dir, f"{config.experiment_id}.manifest.json")
    result.write_csv(csv_path)
    write_manifest(config, manifest_path)
    for point_idx, message in result.errors:
        print(f"warning: sweep point {point_idx} failed: {message}", file=sys.stderr)
    print(csv_path)
    print(manifest_path)
    return 0


def _cmd_waterfill(args) -> int:
    scenario = _load_input(load_scenario, args.config)
    _check_power_antennas(args)
    sol = np_gains.waterfill(scenario, args.antennas, args.power)
    snr = np_detector.asymptotic_snr_from_power(sol.magnitudes_sq, scenario, args.antennas)
    for i, x in enumerate(sol.magnitudes_sq):
        print(f"x[{i}] = {float(x)!r}")
    print(f"multiplier = {sol.multiplier!r}")
    print(f"achieved_snr = {snr!r}")
    return 0


def _cmd_ed_alloc(args) -> int:
    scenario = _load_input(load_scenario, args.config)
    _check_power_antennas(args)
    if args.form == "qclp":
        problem = ed_gains.EdAllocationProblem.from_scenario(
            scenario, args.antennas, args.power, args.variant
        )
        x = ed_gains.solve_qclp(problem).x
    elif args.form == "high_snr":
        x = ed_gains.closed_form_high_snr(scenario, args.power).magnitudes_sq
    else:
        x = ed_gains.closed_form_low_snr(scenario, args.power).magnitudes_sq
    deflection = functools.partial(
        energy_detector.deflection_asymptotic, x, scenario, args.antennas, args.variant
    )
    lines = [f"x[{i}] = {float(xi)!r}" for i, xi in enumerate(x)]
    lines.append(f"deflection = {deflection()!r}")
    if args.form == "qclp":
        lines.append(f"bound_deflection = {deflection(include_cross_term=False)!r}")
    print("\n".join(lines))
    return 0


def _cmd_threshold(args) -> int:
    scenario = _load_input(load_scenario, args.config)
    pfa = _check_pfa(args.pfa)
    _check_power_antennas(args)
    if args.detector == "np":
        gains = resolve_gains(args.policy or "waterfill", scenario, args.antennas, args.power)
        snr = np_detector.snr_asymptotic(gains, scenario, args.antennas)
        print(f"threshold = {np_detector.threshold_for_pfa(snr, scenario.signal_var, pfa)!r}")
        print(f"asymptotic_snr = {snr!r}")
    else:
        gains = resolve_gains(args.policy or "qclp", scenario, args.antennas, args.power)
        eta = energy_detector.eta_weights(gains, scenario)
        thr = energy_detector.ed_threshold_for_pfa(eta, scenario, args.antennas, pfa)
        print(f"threshold = {thr.gamma_hat!r}")
    return 0


def _cmd_bounds(args) -> int:
    scenario = _load_input(load_scenario, args.config)
    pfa = _check_pfa(args.pfa)
    print(f"pd_low_power_bound = {np_gains.np_pd_bound(scenario, 'low_power', pfa)!r}")
    print(f"pd_high_power_bound = {np_gains.np_pd_bound(scenario, 'high_power', pfa)!r}")
    print(f"mse_low_power_bound = {lmmse.lmmse_mse_bound(scenario, 'low_power')!r}")
    print(f"mse_high_power_bound = {lmmse.lmmse_mse_bound(scenario, 'high_power')!r}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
