"""Command-line entry point: run, compare, sweep and report subcommands.

All numeric CSV output uses fixed 6-decimal formatting so that identical
(config, seed) pairs produce byte-identical files. Exit codes: 0 success,
2 configuration or usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

from . import __version__
from .config import SWEEPABLE_KEYS, SimConfig, fingerprint, parse_config
from .engine import Lockstep, SimResult, lockstep_groups, run_simulation
from .errors import ConfigError, DataError, EastSimError, UsageError
from .protocol import REGIONS
from .report import compare_runs, emit_figure_data, render_summary_table, summarize

SEED_ENV_VAR = "EAST_SEED"

ROUNDS_HEADER = (
    "round,controller,beacons,acks,tx_energy_j,rx_energy_j,"
    "alive,alive_A,alive_B,alive_C,prr_A,prr_B,prr_C"
)
NODES_HEADER = (
    "node,x_m,y_m,region,final_temp_c,final_loss_dbm,"
    "final_level_dbm,final_pt_dbm,battery_j,alive"
)
SUMMARY_HEADER = (
    "region,initial_count,desired,survivors,threshold_level_dbm,"
    "nodes_above_threshold,nodes_below_threshold,prr_min_pct,prr_max_pct,"
    "threshold_loss_dbm"
)


def _f6(value: float) -> str:
    return f"{value:.6f}"


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve_seed(config: SimConfig, cli_seed: Optional[int]) -> None:
    """Seed priority: --seed flag, then the environment, then the config."""
    if cli_seed is not None:
        config.seed = cli_seed
        return
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            config.seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {env!r}") from None


def _check_figure_round(figure_round: int, config: SimConfig) -> None:
    if not 0 <= figure_round < config.rounds:
        raise UsageError(
            f"--figure-round {figure_round} out of range; the run has {config.rounds} rounds"
        )


def write_run_outputs(result: SimResult, out_dir: str, figure_round: int = 0) -> list[str]:
    """Write the full artifact set for one run; returns relative paths.

    The figure snapshot is taken first, so a round the run did not reach
    fails before any file is written.
    """
    series = emit_figure_data(result, figure_round)
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "figures"), exist_ok=True)
    outputs: list[str] = []
    controller = result.config.controller

    lines = [ROUNDS_HEADER]
    for rec in result.records:
        lines.append(
            ",".join(
                [
                    str(rec.round_index),
                    controller,
                    str(rec.beacons),
                    str(rec.acks),
                    _f6(rec.tx_energy_j),
                    _f6(rec.rx_energy_j),
                    str(sum(rec.alive)),
                    *(str(rec.region_alive[r]) for r in REGIONS),
                    *(_f6(rec.region_prr[r]) for r in REGIONS),
                ]
            )
        )
    _write_text(os.path.join(out_dir, "rounds.csv"), lines)
    outputs.append("rounds.csv")

    final = result.records[-1]
    lines = [NODES_HEADER]
    for node in result.deployment.nodes:
        i = node.node_id
        lines.append(
            ",".join(
                [
                    str(i),
                    _f6(node.pos.x_m),
                    _f6(node.pos.y_m),
                    node.region.value,
                    _f6(final.temps_c[i]),
                    _f6(final.losses_dbm[i]),
                    _f6(final.levels_dbm[i]),
                    _f6(final.pt_dbm[i]),
                    _f6(node.battery_j),
                    "1" if node.alive else "0",
                ]
            )
        )
    _write_text(os.path.join(out_dir, "nodes.csv"), lines)
    outputs.append("nodes.csv")

    lines = [SUMMARY_HEADER]
    for row in summarize(result):
        lines.append(
            ",".join(
                [
                    row.region.value,
                    str(row.initial_count),
                    str(row.desired),
                    str(row.survivors),
                    _f6(row.threshold_level_dbm),
                    str(row.nodes_above_threshold),
                    str(row.nodes_below_threshold),
                    _f6(row.prr_min_pct),
                    _f6(row.prr_max_pct),
                    _f6(row.threshold_loss_dbm),
                ]
            )
        )
    _write_text(os.path.join(out_dir, "summary.csv"), lines)
    outputs.append("summary.csv")

    per_node = [
        ("temp_per_node.csv", "temp_c", series.temp_per_node),
        ("loss_per_node.csv", "loss_dbm", series.loss_per_node),
        ("level_per_node.csv", "level_dbm", series.level_per_node),
        ("pt_per_node.csv", "pt_dbm", series.pt_per_node),
    ]
    for name, column, values in per_node:
        lines = [f"node,{column}"]
        lines.extend(f"{i},{_f6(v)}" for i, v in enumerate(values))
        _write_text(os.path.join(out_dir, "figures", name), lines)
        outputs.append(f"figures/{name}")
    per_region = [
        ("level_per_region_baseline.csv", series.region_level_baseline),
        ("level_per_region_assigned.csv", series.region_level_assigned),
    ]
    for name, mapping in per_region:
        lines = ["region,level_dbm"]
        lines.extend(f"{r.value},{_f6(mapping[r])}" for r in REGIONS)
        _write_text(os.path.join(out_dir, "figures", name), lines)
        outputs.append(f"figures/{name}")

    manifest = {
        "fingerprint": fingerprint(result.config),
        "seed": result.config.seed,
        "version": __version__,
        "outputs": sorted(outputs + ["manifest.json"]),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("manifest.json")
    return outputs


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config, args.set)
    _resolve_seed(config, args.seed)
    _check_figure_round(args.figure_round, config)
    result = run_simulation(config, keep_rounds={args.figure_round})
    outputs = write_run_outputs(result, args.out, args.figure_round)
    if result.extinction_round is not None:
        print(f"extinct_at_round={result.extinction_round}")
    print(f"wrote {len(outputs)} files to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    for item in args.set:
        if item.split("=", 1)[0].strip() == "controller":
            raise UsageError("compare sets the controller itself; do not override it")
    config = parse_config(args.config, args.set)
    _resolve_seed(config, args.seed)
    configs = [dataclasses.replace(config, controller=c) for c in ("east", "classical")]
    group = Lockstep(configs, keep_rounds=())
    east, classical = (run_simulation(c, keep_rounds=(), lockstep=group) for c in configs)
    report = compare_runs(east, classical)
    os.makedirs(args.out, exist_ok=True)
    rows = [
        ("control_packets", str, report.east_control_packets,
         report.classical_control_packets, report.control_packets_delta),
        ("energy_j", _f6, report.east_energy_j, report.classical_energy_j, report.energy_delta_j),
        ("survivors", str, report.east_survivors, report.classical_survivors,
         report.survivors_delta),
        ("mean_prr", _f6, report.east_mean_prr, report.classical_mean_prr,
         report.mean_prr_delta),
    ]
    lines = ["metric,east,classical,delta"]
    lines.extend(",".join([name, *map(fmt, values)]) for name, fmt, *values in rows)
    _write_text(os.path.join(args.out, "compare.csv"), lines)
    print(f"east_dominates={'1' if report.east_dominates else '0'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    key = args.key
    if key not in SWEEPABLE_KEYS:
        raise UsageError(
            f"key {key!r} is not sweepable; choose a numeric config key"
        )
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError("sweep needs at least one value")
    # Every value is checked before the first run writes anything. Values
    # that leave the temperature source alone share one loaded trace.
    configs: list[SimConfig] = []
    for raw in values:
        config = parse_config(args.config, [*args.set, f"{key}={raw}"])
        _resolve_seed(config, args.seed)
        _check_figure_round(args.figure_round, config)
        if configs and config.temperature == configs[0].temperature:
            config.temperature = configs[0].temperature
        configs.append(config)
    # Values that share the deployment and temperatures run in lockstep.
    # Every result is in hand, and every figure round checked, before the
    # first directory is made.
    keep = {args.figure_round}
    groups = lockstep_groups(configs, keep)
    results = [
        run_simulation(config, keep_rounds=keep, lockstep=group)
        for config, group in zip(configs, groups)
    ]
    for result in results:
        emit_figure_data(result, args.figure_round)
    os.makedirs(args.out, exist_ok=True)
    summary_lines = ["key,value,beacons,acks,control_packets,energy_j,survivors,mean_prr"]
    for raw, result in zip(values, results):
        run_dir = os.path.join(args.out, f"{key}={raw}")
        write_run_outputs(result, run_dir, args.figure_round)
        summary_lines.append(
            ",".join(
                [
                    key,
                    raw,
                    str(result.traffic.beacons_sent),
                    str(result.traffic.acks_sent),
                    str(result.control_packets),
                    _f6(result.total_energy_j),
                    str(result.survivors),
                    _f6(result.mean_prr),
                ]
            )
        )
    _write_text(os.path.join(args.out, "sweep_summary.csv"), summary_lines)
    print(f"swept {key} over {len(values)} values into {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = os.path.join(args.dir, "summary.csv")
    rounds_path = os.path.join(args.dir, "rounds.csv")
    with open(summary_path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if lines[:1] != [SUMMARY_HEADER]:
        raise DataError(f"{summary_path}: expected header {SUMMARY_HEADER!r}")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    with open(rounds_path, "r", encoding="utf-8") as fh:
        round_lines = [line for line in fh.read().splitlines() if line.strip()]
    if round_lines[:1] != [ROUNDS_HEADER] or len(round_lines) < 2:
        raise DataError(f"{rounds_path}: expected header {ROUNDS_HEADER!r} and a row per round")
    rounds_executed = len(round_lines) - 1
    try:
        table = render_summary_table(rows, rounds_executed)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{summary_path}: malformed summary row: {exc!r}") from None
    sys.stdout.write(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eastsim",
        description=(
            "Deterministic simulator of temperature-aware transmission power "
            "control in wireless sensor networks"
        ),
    )
    parser.add_argument("--version", action="version", version=f"eastsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_figure_round: bool = True) -> None:
        p.add_argument("--config", default=None, help="config file (key = value lines)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed override (beats the {SEED_ENV_VAR} env var)")
        if with_figure_round:
            p.add_argument("--figure-round", type=int, default=0,
                           help="round used for per-node figure snapshots")

    p_run = sub.add_parser("run", help="run one simulation and write its artifacts")
    common(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both controllers on one deployment")
    common(p_cmp, with_figure_round=False)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run once per value of one config key")
    common(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--key", required=True, help="config key to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="render a run directory's summary as text")
    p_rep.add_argument("--dir", required=True, help="directory written by a prior run")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EastSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
