"""Flat key=value configuration files for scenarios and experiments.

Grammar: one `key = value` pair per line; blank lines and lines starting with
`#` are ignored; arrays are comma-separated decimals.  Unknown or duplicate
keys are rejected.  A scenario is either given explicitly (distances and
meas_noise_vars vectors) or sampled deterministically from its `seed` key,
in which case the sampled vectors are what gets frozen into run manifests.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from . import np_gains
from .harness import ExperimentConfig
from .scenario import Scenario, derive_rng, sample_scenario


class ConfigError(ValueError):
    """A configuration file or override is malformed."""


SCENARIO_KEYS = frozenset({
    "n_sensors", "distances", "meas_noise_vars",
    "signal_var", "fc_noise_var", "path_loss_exp", "seed",
})
EXPERIMENT_KEYS = SCENARIO_KEYS | frozenset({
    "experiment", "sweep_p", "sweep_m", "fixed_m", "fixed_p",
    "power_schedule", "schedule_coeff",
    "trials", "scenarios", "target_pfa", "master_seed",
    "detectors", "policies",
})

PACKAGED_EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def parse_kv(text: str) -> dict[str, str]:
    """Parse the flat key=value grammar into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _check_keys(raw: dict[str, str], allowed: frozenset[str]) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _as_int(raw: dict, key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw[key]!r}") from exc


def _as_float(raw: dict, key: str) -> float:
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {raw[key]!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r}: value must be finite")
    return value


def _as_float_list(raw: dict, key: str) -> list[float]:
    try:
        return [float(tok) for tok in raw[key].split(",")]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers") from exc


def _as_int_list(raw: dict, key: str) -> list[int]:
    try:
        return [int(tok) for tok in raw[key].split(",")]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected comma-separated integers") from exc


def _as_str_list(raw: dict, key: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw[key].split(","))


def build_scenario(raw: dict[str, str]) -> Scenario:
    """Construct the network description from raw config keys.

    Explicit vectors win; otherwise distances and measurement noise powers are
    sampled from `seed` using the standard uniform ranges.  A value the
    scenario or the seed's stream rejects is a configuration error naming it.
    """
    signal_var = _as_float(raw, "signal_var") if "signal_var" in raw else 1.0
    fc_noise_var = _as_float(raw, "fc_noise_var") if "fc_noise_var" in raw else 0.3
    path_loss_exp = _as_float(raw, "path_loss_exp") if "path_loss_exp" in raw else 2.0
    try:
        if "distances" in raw or "meas_noise_vars" in raw:
            if "distances" not in raw or "meas_noise_vars" not in raw:
                raise ConfigError("explicit scenarios need both distances and meas_noise_vars")
            d = np.asarray(_as_float_list(raw, "distances"))
            v = np.asarray(_as_float_list(raw, "meas_noise_vars"))
            scenario = Scenario(d, v, signal_var, fc_noise_var, path_loss_exp)
            if "n_sensors" in raw and _as_int(raw, "n_sensors") != scenario.n_sensors:
                raise ConfigError("n_sensors does not match the length of distances")
            return scenario
        if "n_sensors" not in raw or "seed" not in raw:
            raise ConfigError("sampled scenarios need n_sensors and seed")
        n = _as_int(raw, "n_sensors")
        if n < 1:
            raise ConfigError("n_sensors must be >= 1")
        return sample_scenario(
            n,
            derive_rng(_as_int(raw, "seed")),
            signal_var=signal_var,
            fc_noise_var=fc_noise_var,
            path_loss_exp=path_loss_exp,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        raw = parse_kv(fh.read())
    _check_keys(raw, SCENARIO_KEYS)
    return build_scenario(raw)


def _check_antennas(key: str, ms: list[int]) -> list[int]:
    """Antenna counts under key, rejected below 1 before a power schedule reads them."""
    if min(ms) < 1:
        raise ConfigError(f"key {key!r}: antenna counts must be >= 1, got {min(ms)}")
    return ms


def _build_sweep(raw: dict[str, str], scenario: Scenario) -> tuple[tuple[float, int], ...]:
    if "sweep_p" in raw:
        if "sweep_m" in raw:
            raise ConfigError("give either sweep_p or sweep_m, not both")
        if "fixed_m" not in raw:
            raise ConfigError("sweep_p needs fixed_m")
        (m,) = _check_antennas("fixed_m", [_as_int(raw, "fixed_m")])
        return tuple((p, m) for p in _as_float_list(raw, "sweep_p"))
    if "sweep_m" in raw:
        ms = _check_antennas("sweep_m", _as_int_list(raw, "sweep_m"))
        schedule = raw.get("power_schedule", "fixed")
        if schedule == "snr_floor":
            return tuple((np_gains.snr_floor_power(scenario, m), m) for m in ms)
        if schedule == "inv_sqrt":
            if "schedule_coeff" not in raw:
                raise ConfigError("inv_sqrt power schedule needs schedule_coeff")
            coeff = _as_float(raw, "schedule_coeff")
            return tuple((coeff / np.sqrt(m), m) for m in ms)
        if schedule == "fixed":
            if "fixed_p" not in raw:
                raise ConfigError("fixed power schedule needs fixed_p")
            p = _as_float(raw, "fixed_p")
            return tuple((p, m) for m in ms)
        raise ConfigError(f"unknown power_schedule {schedule!r}")
    if "fixed_p" in raw and "fixed_m" in raw:
        (m,) = _check_antennas("fixed_m", [_as_int(raw, "fixed_m")])
        return ((_as_float(raw, "fixed_p"), m),)
    raise ConfigError("config needs sweep_p+fixed_m, sweep_m+schedule, or fixed_p+fixed_m")


def build_experiment(raw: dict[str, str]) -> ExperimentConfig:
    _check_keys(raw, EXPERIMENT_KEYS)
    for key in ("experiment", "master_seed", "detectors", "policies"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    scenario = build_scenario(raw)
    try:
        return ExperimentConfig(
            experiment_id=raw["experiment"],
            scenario=scenario,
            sweep=_build_sweep(raw, scenario),
            trials_per_scenario=_as_int(raw, "trials") if "trials" in raw else 1000,
            n_scenarios=_as_int(raw, "scenarios") if "scenarios" in raw else 30,
            target_pfa=_as_float(raw, "target_pfa") if "target_pfa" in raw else 0.05,
            master_seed=_as_int(raw, "master_seed"),
            detectors=_as_str_list(raw, "detectors"),
            gain_policies=_as_str_list(raw, "policies"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return experiment_from_text(fh.read(), overrides)


def experiment_from_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    raw = parse_kv(text)
    if overrides:
        raw.update(overrides)
    return build_experiment(raw)


def packaged_experiment_text(name: str) -> str:
    if name not in PACKAGED_EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; packaged: {', '.join(PACKAGED_EXPERIMENTS)}"
        )
    return resources.files("mimofusion").joinpath(f"configs/{name}.cfg").read_text()


def load_packaged_experiment(name: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    return experiment_from_text(packaged_experiment_text(name), overrides)
