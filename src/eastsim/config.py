"""Experiment configuration: defaults, key=value parsing, validation, fingerprint.

The on-disk format is flat UTF-8 text, one ``key = value`` per line, ``#``
comments, dotted key paths (e.g. ``link_budget.rnf_db``). Every omitted key
takes its default, so an empty file is the default experiment: 100 nodes in
a 100 m square, 1200 rounds, temperatures in [-10, 53] C.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .errors import ConfigError
from .protocol import REGIONS, CadenceParams, Region, RegionConfig, classical_assign
from .radio import (
    EnergyModelParams,
    LinkBudgetParams,
    PrrParams,
    dbm_to_watts,
    free_space_base_requirement,
    rssi_loss_from_temperature,
)
from .topology import TemperatureProcess, load_temperature_trace

CONTROLLERS = ("east", "classical")


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    node_count: int = 100
    area_side_m: float = 100.0
    rounds: int = 1200
    seed: int = 42
    controller: str = "east"
    level_cap_dbm: float = 48.7
    prr_sampled: bool = False
    trace_path: Optional[str] = None
    temperature: TemperatureProcess = field(default_factory=TemperatureProcess)
    link_budget: LinkBudgetParams = field(default_factory=LinkBudgetParams)
    regions: RegionConfig = field(default_factory=RegionConfig)
    cadence: CadenceParams = field(default_factory=CadenceParams)
    prr: PrrParams = field(default_factory=PrrParams)
    energy: EnergyModelParams = field(default_factory=EnergyModelParams)


# key path -> (type tag, getter, setter). Types: int | float | bool | str.
def _schema():
    def temp_set(cfg, name, value):
        cfg.temperature = replace(cfg.temperature, **{name: value})

    def lb_set(cfg, name, value):
        cfg.link_budget = replace(cfg.link_budget, **{name: value})

    def region_threshold_set(cfg, region, value):
        thresholds = dict(cfg.regions.threshold_loss_dbm)
        thresholds[region] = value
        cfg.regions = replace(cfg.regions, threshold_loss_dbm=thresholds)

    def regions_set(cfg, name, value):
        cfg.regions = replace(cfg.regions, **{name: value})

    def cadence_set(cfg, name, value):
        cfg.cadence = replace(cfg.cadence, **{name: value})

    def prr_set(cfg, name, value):
        cfg.prr = replace(cfg.prr, **{name: value})

    def energy_set(cfg, name, value):
        cfg.energy = replace(cfg.energy, **{name: value})

    schema = {
        "nodes": ("int", lambda c: c.node_count, lambda c, v: setattr(c, "node_count", v)),
        "rounds": ("int", lambda c: c.rounds, lambda c, v: setattr(c, "rounds", v)),
        "area_side_m": ("float", lambda c: c.area_side_m, lambda c, v: setattr(c, "area_side_m", v)),
        "seed": ("int", lambda c: c.seed, lambda c, v: setattr(c, "seed", v)),
        "controller": ("str", lambda c: c.controller, lambda c, v: setattr(c, "controller", v)),
        "level_cap_dbm": ("float", lambda c: c.level_cap_dbm, lambda c, v: setattr(c, "level_cap_dbm", v)),
        "temperature.t_min_c": ("float", lambda c: c.temperature.t_min_c, lambda c, v: temp_set(c, "t_min_c", v)),
        "temperature.t_max_c": ("float", lambda c: c.temperature.t_max_c, lambda c, v: temp_set(c, "t_max_c", v)),
        "temperature.walk_sigma_c": ("float", lambda c: c.temperature.walk_sigma_c, lambda c, v: temp_set(c, "walk_sigma_c", v)),
        "temperature.trace_path": ("str", lambda c: c.trace_path or "", lambda c, v: setattr(c, "trace_path", v or None)),
        "link_budget.eta": ("float", lambda c: c.link_budget.eta, lambda c, v: lb_set(c, "eta", v)),
        "link_budget.eb_n0_db": ("float", lambda c: c.link_budget.eb_n0_db, lambda c, v: lb_set(c, "eb_n0_db", v)),
        "link_budget.snr_db": ("float", lambda c: c.link_budget.snr_db, lambda c, v: lb_set(c, "snr_db", v)),
        "link_budget.bandwidth_hz": ("float", lambda c: c.link_budget.bandwidth_hz, lambda c, v: lb_set(c, "bandwidth_hz", v)),
        "link_budget.frequency_hz": ("float", lambda c: c.link_budget.frequency_hz, lambda c, v: lb_set(c, "frequency_hz", v)),
        "link_budget.rnf_db": ("float", lambda c: c.link_budget.rnf_db, lambda c, v: lb_set(c, "rnf_db", v)),
        "link_budget.temperature_kelvin": ("float", lambda c: c.link_budget.temperature_kelvin, lambda c, v: lb_set(c, "temperature_kelvin", v)),
        "link_budget.margin_m": ("float", lambda c: c.link_budget.margin_m, lambda c, v: lb_set(c, "margin_m", v)),
        "regions.boundary_high_dbm": ("float", lambda c: c.regions.boundary_high_dbm, lambda c, v: regions_set(c, "boundary_high_dbm", v)),
        "regions.boundary_low_dbm": ("float", lambda c: c.regions.boundary_low_dbm, lambda c, v: regions_set(c, "boundary_low_dbm", v)),
        "regions.threshold_loss_a_dbm": ("float", lambda c: c.regions.threshold_loss_dbm[Region.A], lambda c, v: region_threshold_set(c, Region.A, v)),
        "regions.threshold_loss_b_dbm": ("float", lambda c: c.regions.threshold_loss_dbm[Region.B], lambda c, v: region_threshold_set(c, Region.B, v)),
        "regions.threshold_loss_c_dbm": ("float", lambda c: c.regions.threshold_loss_dbm[Region.C], lambda c, v: region_threshold_set(c, Region.C, v)),
        "cadence.period_rounds": ("int", lambda c: c.cadence.period_rounds, lambda c, v: cadence_set(c, "period_rounds", v)),
        "cadence.drift_dbm": ("float", lambda c: c.cadence.drift_dbm, lambda c, v: cadence_set(c, "drift_dbm", v)),
        "prr.alpha_per_db": ("float", lambda c: c.prr.alpha_per_db, lambda c, v: prr_set(c, "alpha_per_db", v)),
        "prr.beta_db": ("float", lambda c: c.prr.beta_db, lambda c, v: prr_set(c, "beta_db", v)),
        "prr.sampled": ("bool", lambda c: c.prr_sampled, lambda c, v: setattr(c, "prr_sampled", v)),
        "energy.e_elec_j_per_bit": ("float", lambda c: c.energy.e_elec_j_per_bit, lambda c, v: energy_set(c, "e_elec_j_per_bit", v)),
        "energy.bitrate_bps": ("float", lambda c: c.energy.bitrate_bps, lambda c, v: energy_set(c, "bitrate_bps", v)),
        "energy.beacon_bits": ("int", lambda c: c.energy.beacon_bits, lambda c, v: energy_set(c, "beacon_bits", v)),
        "energy.ack_bits": ("int", lambda c: c.energy.ack_bits, lambda c, v: energy_set(c, "ack_bits", v)),
        "energy.data_bits": ("int", lambda c: c.energy.data_bits, lambda c, v: energy_set(c, "data_bits", v)),
        "energy.initial_battery_j": ("float", lambda c: c.energy.initial_battery_j, lambda c, v: energy_set(c, "initial_battery_j", v)),
    }
    return schema


# Keys whose value must be strictly positive.
POSITIVE_KEYS = (
    "area_side_m", "link_budget.eta", "link_budget.bandwidth_hz", "link_budget.frequency_hz",
    "link_budget.temperature_kelvin", "prr.alpha_per_db", "energy.e_elec_j_per_bit",
    "energy.bitrate_bps", "energy.beacon_bits", "energy.ack_bits", "energy.data_bits",
    "energy.initial_battery_j",
)

# Keys a sweep may vary: numeric ones only.
SWEEPABLE_KEYS = tuple(
    key for key, (kind, _, _) in _schema().items() if kind in ("int", "float")
)


def _convert(key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None


def apply_overrides(config: SimConfig, overrides: Iterable[str]) -> SimConfig:
    """Apply ``key=value`` strings on top of an existing config."""
    schema = _schema()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"unknown config key: {key}")
        kind, _, setter = schema[key]
        setter(config, _convert(key, kind, raw))
    return config


def parse_config(path: Optional[str], overrides: Iterable[str] = ()) -> SimConfig:
    """Build a validated SimConfig from a config file plus overrides.

    ``path`` may be None for pure defaults. Unknown keys, type mismatches
    and invariant violations raise ConfigError naming the key.
    """
    config = SimConfig()
    entries: list[str] = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            entries.append(stripped)
    apply_overrides(config, entries)
    apply_overrides(config, overrides)
    validate(config)
    if config.trace_path:
        config.temperature = load_temperature_trace(
            config.trace_path,
            t_min_c=config.temperature.t_min_c,
            t_max_c=config.temperature.t_max_c,
        )
        validate(config)  # the trace must also cover the run
    return config


def validate(config: SimConfig) -> None:
    """Check every configuration invariant; raise ConfigError naming the key."""
    schema = _schema()
    for key, (kind, getter, _) in schema.items():
        if kind == "float" and not math.isfinite(getter(config)):
            raise ConfigError(f"{key}: must be finite, got {getter(config)}")
    for key in POSITIVE_KEYS:
        value = schema[key][1](config)
        if not (value > 0):
            raise ConfigError(f"{key}: must be positive, got {value}")
    if config.node_count < 1:
        raise ConfigError(f"nodes: must be >= 1, got {config.node_count}")
    if config.rounds < 1:
        raise ConfigError(f"rounds: must be >= 1, got {config.rounds}")
    if config.controller not in CONTROLLERS:
        raise ConfigError(
            f"controller: must be one of {', '.join(CONTROLLERS)}, got {config.controller!r}"
        )
    temp = config.temperature
    if not (temp.t_min_c < temp.t_max_c):
        raise ConfigError(
            "temperature.t_min_c/temperature.t_max_c: require t_min_c < t_max_c, "
            f"got {temp.t_min_c} >= {temp.t_max_c}"
        )
    # Every loss the run can see is at least the loss at t_min_c, and the
    # compensation curve is defined only above -40 dB.
    min_loss = rssi_loss_from_temperature(temp.t_min_c)
    if min_loss <= -40.0:
        raise ConfigError(
            f"temperature.t_min_c: its loss {min_loss} dB must exceed -40 dB, got {temp.t_min_c}"
        )
    # The hottest loss sets the largest compensation level a run computes.
    try:
        top_level = classical_assign(temp.t_max_c)
    except OverflowError:
        raise ConfigError(
            f"temperature.t_max_c: the compensation level for its loss overflows, got {temp.t_max_c}"
        ) from None
    if temp.walk_sigma_c < 0.0:
        raise ConfigError(f"temperature.walk_sigma_c: must be >= 0, got {temp.walk_sigma_c}")
    if temp.mode == "trace" and (
        temp.trace_nodes < config.node_count or temp.trace_rounds < config.rounds
    ):
        raise ConfigError(
            f"temperature.trace_path: trace covers {temp.trace_nodes} nodes x "
            f"{temp.trace_rounds} rounds, run needs {config.node_count} x {config.rounds}"
        )
    if config.link_budget.margin_m < 1.0:
        raise ConfigError(f"link_budget.margin_m: must be >= 1, got {config.link_budget.margin_m}")
    regions = config.regions
    if not (regions.boundary_low_dbm < regions.boundary_high_dbm):
        raise ConfigError(
            "regions.boundary_low_dbm/regions.boundary_high_dbm: require "
            f"boundary_low < boundary_high, got {regions.boundary_low_dbm} >= "
            f"{regions.boundary_high_dbm}"
        )
    for region in REGIONS:
        loss = regions.threshold_loss_dbm[region]
        if loss <= -40.0:
            raise ConfigError(
                f"regions.threshold_loss_{region.value.lower()}_dbm: must exceed -40 dB, got {loss}"
            )
    cap = config.level_cap_dbm
    for region in REGIONS:
        try:
            level = regions.threshold_level_dbm(region)
        except OverflowError:
            raise ConfigError(
                f"regions.threshold_loss_{region.value.lower()}_dbm: the compensation level "
                f"for it overflows, got {regions.threshold_loss_dbm[region]}"
            ) from None
        if cap < level:
            raise ConfigError(
                f"level_cap_dbm: cap {cap} is below region {region.value} "
                f"threshold level {level:.4f}"
            )
        top_level = max(top_level, level)
    if config.cadence.period_rounds < 1:
        raise ConfigError(
            f"cadence.period_rounds: must be >= 1, got {config.cadence.period_rounds}"
        )
    if config.cadence.drift_dbm < 0.0:
        raise ConfigError(f"cadence.drift_dbm: must be >= 0, got {config.cadence.drift_dbm}")
    # A transmit power is a node's base requirement plus its level, and no
    # level exceeds the top level or the cap. The largest power, at the
    # square's farthest point, must convert to watts.
    farthest_m = math.hypot(config.area_side_m, config.area_side_m / 2.0)
    try:
        power = free_space_base_requirement(farthest_m, config.link_budget) + min(top_level, cap)
        dbm_to_watts(power)
    except (OverflowError, ValueError):
        raise ConfigError(
            "area_side_m/link_budget/level_cap_dbm: the transmit power at the farthest point "
            f"of the square, {farthest_m:g} m from the reference, is out of range"
        ) from None


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


def serialize_config(config: SimConfig) -> str:
    """Canonical text form: every key, sorted, one per line. Parses back
    to an equal config."""
    schema = _schema()
    lines = []
    for key in sorted(schema):
        kind, getter, _ = schema[key]
        lines.append(f"{key} = {_format_value(kind, getter(config))}")
    return "\n".join(lines) + "\n"


def fingerprint(config: SimConfig, exclude: tuple[str, ...] = ()) -> str:
    """Content hash of the resolved config, stable under key reordering.
    A loaded temperature trace counts by the hash of its bytes."""
    schema = _schema()
    parts = []
    for key in sorted(schema):
        if key in exclude:
            continue
        kind, getter, _ = schema[key]
        value = _format_value(kind, getter(config))
        if key == "temperature.trace_path" and config.temperature.trace_sha256:
            # A run depends on the trace's contents, not on where they were read.
            value = f"sha256:{config.temperature.trace_sha256}"
        parts.append(f"{key}={value}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
