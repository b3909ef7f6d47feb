"""Experiment configuration: defaults, key=value parsing, validation, fingerprint.

The on-disk format is flat UTF-8 text, one ``key = value`` per line, ``#``
comments, dotted key paths (e.g. ``link_budget.rnf_db``). Every omitted key
takes its default, so an empty file is the default experiment: 100 nodes in
a 100 m square, 1200 rounds, temperatures in [-10, 53] C.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from types import SimpleNamespace
from typing import Iterable, Optional

from .errors import ConfigError
from .protocol import REGIONS, CadenceParams, Region, RegionConfig, classical_assign
from .radio import (
    EnergyModelParams,
    LinkBudgetParams,
    PrrParams,
    dbm_to_watts,
    free_space_base_requirement,
    power_level_for_rssi_loss,
    rssi_loss_from_temperature,
)
from .topology import TemperatureProcess, lean_sha256, load_temperature_trace

CONTROLLERS = ("east", "classical")


class SimConfig(SimpleNamespace):
    """Full description of one simulation run.

    ``SimConfig(**fields)`` takes the defaults below for the fields it is
    not given. Unlike its sections, which are immutable named tuples, a
    config is mutable: parsing and the seed override set its fields.
    Equality and repr are SimpleNamespace's, over the fields, and
    ``_replace`` returns a changed copy, as a section's does.
    """

    node_count: int = 100
    area_side_m: float = 100.0
    rounds: int = 1200
    seed: int = 42
    controller: str = "east"
    level_cap_dbm: float = 48.7
    prr_sampled: bool = False
    trace_path: str = ""
    temperature: TemperatureProcess = TemperatureProcess()
    link_budget: LinkBudgetParams = LinkBudgetParams()
    regions: RegionConfig = RegionConfig()
    cadence: CadenceParams = CadenceParams()
    prr: PrrParams = PrrParams()
    energy: EnergyModelParams = EnergyModelParams()

    def __init__(self, **fields) -> None:
        names = SimConfig.__annotations__
        unknown = fields.keys() - names.keys()
        if unknown:
            raise TypeError(f"SimConfig has no field {', '.join(sorted(unknown))}")
        super().__init__(**{name: fields.get(name, getattr(SimConfig, name)) for name in names})

    def _replace(self, **changes) -> SimConfig:
        return SimConfig(**{**vars(self), **changes})


# Every config key, in README order: its kind (int, float, bool or str), its
# attribute path on SimConfig and its lower bound, if any. Parsing,
# validation, sweeps and the fingerprint all read this table. The region
# thresholds' paths end in the Region that keys the threshold_loss_dbm dict.
CONFIG_KEYS = {
    "nodes": ("int", "node_count", ">= 1"),
    "rounds": ("int", "rounds", ">= 1"),
    "area_side_m": ("float", "area_side_m", "> 0"),
    "seed": ("int", "seed", None),
    "controller": ("str", "controller", None),
    "level_cap_dbm": ("float", "level_cap_dbm", None),
    "temperature.t_min_c": ("float", "temperature.t_min_c", None),
    "temperature.t_max_c": ("float", "temperature.t_max_c", None),
    "temperature.walk_sigma_c": ("float", "temperature.walk_sigma_c", ">= 0"),
    "temperature.trace_path": ("str", "trace_path", None),
    "link_budget.eta": ("float", "link_budget.eta", "> 0"),
    "link_budget.eb_n0_db": ("float", "link_budget.eb_n0_db", None),
    "link_budget.bandwidth_hz": ("float", "link_budget.bandwidth_hz", "> 0"),
    "link_budget.frequency_hz": ("float", "link_budget.frequency_hz", "> 0"),
    "link_budget.rnf_db": ("float", "link_budget.rnf_db", None),
    "link_budget.temperature_kelvin": ("float", "link_budget.temperature_kelvin", "> 0"),
    "link_budget.margin_m": ("float", "link_budget.margin_m", ">= 1"),
    "regions.boundary_high_dbm": ("float", "regions.boundary_high_dbm", None),
    "regions.boundary_low_dbm": ("float", "regions.boundary_low_dbm", None),
    "regions.threshold_loss_a_dbm": ("float", "regions.threshold_loss_dbm.A", None),
    "regions.threshold_loss_b_dbm": ("float", "regions.threshold_loss_dbm.B", None),
    "regions.threshold_loss_c_dbm": ("float", "regions.threshold_loss_dbm.C", None),
    "cadence.period_rounds": ("int", "cadence.period_rounds", ">= 1"),
    "cadence.drift_dbm": ("float", "cadence.drift_dbm", ">= 0"),
    "prr.alpha_per_db": ("float", "prr.alpha_per_db", "> 0"),
    "prr.beta_db": ("float", "prr.beta_db", None),
    "prr.sampled": ("bool", "prr_sampled", None),
    "energy.e_elec_j_per_bit": ("float", "energy.e_elec_j_per_bit", "> 0"),
    "energy.bitrate_bps": ("float", "energy.bitrate_bps", "> 0"),
    "energy.beacon_bits": ("int", "energy.beacon_bits", "> 0"),
    "energy.ack_bits": ("int", "energy.ack_bits", "> 0"),
    "energy.data_bits": ("int", "energy.data_bits", "> 0"),
    "energy.initial_battery_j": ("float", "energy.initial_battery_j", "> 0"),
}

# Keys a sweep may vary: numeric ones only.
SWEEPABLE_KEYS = tuple(key for key, (kind, _, _) in CONFIG_KEYS.items() if kind in ("int", "float"))


def _get(config: SimConfig, path: str):
    value = config
    for name in path.split("."):
        value = value[Region(name)] if isinstance(value, Mapping) else getattr(value, name)
    return value


def _set(config: SimConfig, path: str, value) -> None:
    """Set the value at ``path``, rebuilding the immutable section it lies in."""
    section, _, name = path.rpartition(".")
    if section == "regions.threshold_loss_dbm":
        thresholds = {**config.regions.threshold_loss_dbm, Region(name): value}
        config.regions = config.regions._replace(threshold_loss_dbm=thresholds)
    elif section:
        setattr(config, section, getattr(config, section)._replace(**{name: value}))
    else:
        setattr(config, name, value)


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
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        kind, path, _ = CONFIG_KEYS[key]
        _set(config, path, _convert(key, kind, raw))
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
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
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
    for key, (kind, path, bound) in CONFIG_KEYS.items():
        value = _get(config, path)
        if kind == "float" and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
        # Bit counts enter float arithmetic, and no node, round or period
        # count that large means anything; the seed only feeds a hash.
        if kind == "int" and key != "seed" and abs(value) > sys.float_info.max:
            raise ConfigError(f"{key}: must fit a float, got {value}")
        if bound is not None:
            op, limit = bound.split()
            if not (value > int(limit) if op == ">" else value >= int(limit)):
                raise ConfigError(f"{key}: must be {'positive' if op == '>' else bound}, got {value}")
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
    # Every loss the run can see is at least the loss at t_min_c, which must
    # lie in the compensation curve's domain (radio raises ValueError outside
    # it). The hottest loss sets the largest compensation level a run
    # computes, which must be finite; the level at t_min_c is below it, so an
    # overflow there is the overflow at t_max_c.
    min_loss = rssi_loss_from_temperature(temp.t_min_c)
    try:
        power_level_for_rssi_loss(min_loss)
        top_level = classical_assign(temp.t_max_c)
    except ValueError:
        raise ConfigError(
            f"temperature.t_min_c: its loss {min_loss} dB must exceed -40 dB, got {temp.t_min_c}"
        ) from None
    except OverflowError:
        raise ConfigError(
            f"temperature.t_max_c: the compensation level for its loss overflows, got {temp.t_max_c}"
        ) from None
    if temp.trace is not None:
        trace_rounds, trace_nodes = len(temp.trace.rows), len(temp.trace.rows[0])
        if trace_nodes < config.node_count or trace_rounds < config.rounds:
            raise ConfigError(
                f"temperature.trace_path: trace covers {trace_nodes} nodes x "
                f"{trace_rounds} rounds, run needs {config.node_count} x {config.rounds}"
            )
    regions = config.regions
    if not (regions.boundary_low_dbm < regions.boundary_high_dbm):
        raise ConfigError(
            "regions.boundary_low_dbm/regions.boundary_high_dbm: require "
            f"boundary_low < boundary_high, got {regions.boundary_low_dbm} >= "
            f"{regions.boundary_high_dbm}"
        )
    cap = config.level_cap_dbm
    for region in REGIONS:
        key = f"regions.threshold_loss_{region.value.lower()}_dbm"
        loss = regions.threshold_loss_dbm[region]
        try:
            level = regions.threshold_level_dbm(region)
        except ValueError:  # outside the compensation curve's domain
            raise ConfigError(f"{key}: must exceed -40 dB, got {loss}") from None
        except OverflowError:
            raise ConfigError(
                f"{key}: the compensation level for it overflows, got {loss}"
            ) from None
        if cap < level:
            raise ConfigError(
                f"level_cap_dbm: cap {cap} is below region {region.value} "
                f"threshold level {level:.4f}"
            )
        top_level = max(top_level, level)
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


def fingerprint(config: SimConfig) -> str:
    """Content hash of the resolved config, stable under key reordering.
    A loaded temperature trace counts by the hash of its bytes."""
    parts = []
    for key, (kind, path, _) in sorted(CONFIG_KEYS.items()):
        value = _format_value(kind, _get(config, path))
        if key == "temperature.trace_path" and config.temperature.trace_sha256:
            # A run depends on the trace's contents, not on where they were read.
            value = f"sha256:{config.temperature.trace_sha256}"
        parts.append(f"{key}={value}")
    return lean_sha256("\n".join(parts).encode("utf-8")).hexdigest()
