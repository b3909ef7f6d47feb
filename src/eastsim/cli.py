"""Command-line entry point: run, compare, sweep and report subcommands.

Every real-valued CSV cell uses fixed 6-decimal formatting so that
identical (config, seed) pairs produce byte-identical files. Exit codes: 0 success,
2 configuration or usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Iterable, Optional

from . import __version__
from .config import SWEEPABLE_KEYS, SimConfig, apply_overrides, fingerprint, parse_config, validate
from .engine import Lockstep, SimResult, run_simulation
from .errors import ConfigError, DataError, EastSimError, UsageError
from .protocol import REGIONS
from .report import FigureSeries, compare_runs, emit_figure_data, render_summary_table, summarize

SEED_ENV_VAR = "EAST_SEED"

# Each CSV's header and the %-format of its data rows: %d for counts and
# flags, %.6f for every real number, %s for names.
ROUNDS_HEADER = (
    "round,controller,beacons,acks,tx_energy_j,rx_energy_j,"
    "alive,alive_A,alive_B,alive_C,prr_A,prr_B,prr_C"
)
ROUNDS_ROW = "%d,%s,%d,%d,%.6f,%.6f,%d,%d,%d,%d,%.6f,%.6f,%.6f"
NODES_HEADER = (
    "node,x_m,y_m,region,final_temp_c,final_loss_dbm,"
    "final_level_dbm,final_pt_dbm,battery_j,alive"
)
NODES_ROW = "%d,%.6f,%.6f,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d"
SUMMARY_HEADER = (
    "region,initial_count,desired,survivors,threshold_level_dbm,"
    "nodes_above_threshold,nodes_below_threshold,prr_min_pct,prr_max_pct,"
    "threshold_loss_dbm"
)
SUMMARY_ROW = "%s,%d,%d,%d,%.6f,%d,%d,%.6f,%.6f,%.6f"
PER_NODE_ROW = "%d,%.6f"
PER_REGION_ROW = "%s,%.6f"
COMPARE_HEADER = "metric,east,classical,delta"
SWEEP_HEADER = "key,value,beacons,acks,control_packets,energy_j,survivors,mean_prr"
SWEEP_ROW = "%s,%s,%d,%d,%d,%.6f,%d,%.6f"


def _write_csv(out_dir: str, name: str, header: str, row: str, rows: Iterable[tuple]) -> str:
    """Write ``out_dir/name``: the header, then ``row % values`` for each
    tuple of ``rows``. Returns ``name``, the file's path relative to
    ``out_dir``."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *[row % values for values in rows]]) + "\n")
    return name


def _read_lines(path: str) -> list[str]:
    """The non-blank lines of a CSV this program wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return [line for line in text.splitlines() if line.strip()]


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


def write_run_outputs(result: SimResult, out_dir: str, series: FigureSeries) -> list[str]:
    """Write the full artifact set for one run; returns relative paths.

    ``series`` is the run's ``emit_figure_data``, which callers take before
    any write, so a figure round the run did not reach fails before any file
    is written. An earlier run's manifest is deleted before the first write
    and the new one is written last, so a directory holds a manifest only
    when every file beside it is from the same run.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.lexists(manifest_path):
        os.remove(manifest_path)
    os.makedirs(os.path.join(out_dir, "figures"), exist_ok=True)
    controller = result.config.controller
    final = result.records[-1]
    outputs = [
        _write_csv(out_dir, "rounds.csv", ROUNDS_HEADER, ROUNDS_ROW, (
            (rec.round_index, controller, rec.beacons, rec.acks, rec.tx_energy_j,
             rec.rx_energy_j, sum(rec.alive), *[rec.region_alive[r] for r in REGIONS],
             *[rec.region_prr[r] for r in REGIONS])
            for rec in result.records
        )),
        _write_csv(out_dir, "nodes.csv", NODES_HEADER, NODES_ROW, (
            (i, x, y, result.partition[i].value, final.temps_c[i], final.losses_dbm[i],
             final.levels_dbm[i], final.pt_dbm[i], result.batteries_j[i], final.alive[i])
            for i, (x, y) in enumerate(zip(result.deployment.x_m, result.deployment.y_m))
        )),
        _write_csv(out_dir, "summary.csv", SUMMARY_HEADER, SUMMARY_ROW, (
            (row.region.value, row.initial_count, row.desired, row.survivors,
             row.threshold_level_dbm, row.nodes_above_threshold, row.nodes_below_threshold,
             row.prr_min_pct, row.prr_max_pct, row.threshold_loss_dbm)
            for row in summarize(result)
        )),
    ]
    per_node = [
        ("temp_per_node.csv", "temp_c", series.temp_per_node),
        ("loss_per_node.csv", "loss_dbm", series.loss_per_node),
        ("level_per_node.csv", "level_dbm", series.level_per_node),
        ("pt_per_node.csv", "pt_dbm", series.pt_per_node),
    ]
    for name, column, values in per_node:
        outputs.append(_write_csv(out_dir, f"figures/{name}", f"node,{column}", PER_NODE_ROW,
                                  enumerate(values)))
    per_region = [
        ("level_per_region_baseline.csv", series.region_level_baseline),
        ("level_per_region_assigned.csv", series.region_level_assigned),
    ]
    for name, mapping in per_region:
        outputs.append(_write_csv(out_dir, f"figures/{name}", "region,level_dbm", PER_REGION_ROW,
                                  ((r.value, mapping[r]) for r in REGIONS)))

    manifest = {
        "fingerprint": fingerprint(result.config),
        "seed": result.config.seed,
        "version": __version__,
        "outputs": sorted(outputs + ["manifest.json"]),
    }
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("manifest.json")
    return outputs


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config, args.set)
    _resolve_seed(config, args.seed)
    _check_figure_round(args.figure_round, config)
    result = run_simulation(config, keep_rounds={args.figure_round})
    outputs = write_run_outputs(result, args.out, emit_figure_data(result, args.figure_round))
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
    # Each metric's row has its own cell formats.
    rows = [
        ("control_packets,%d,%d,%d", report.east_control_packets,
         report.classical_control_packets, report.control_packets_delta),
        ("energy_j,%.6f,%.6f,%.6f", report.east_energy_j, report.classical_energy_j,
         report.energy_delta_j),
        ("survivors,%d,%d,%d", report.east_survivors, report.classical_survivors,
         report.survivors_delta),
        ("mean_prr,%.6f,%.6f,%.6f", report.east_mean_prr, report.classical_mean_prr,
         report.mean_prr_delta),
    ]
    _write_csv(args.out, "compare.csv", COMPARE_HEADER, "%s",
               [(fmt % tuple(values),) for fmt, *values in rows])
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
    # Every value is checked before the first run writes anything, and two
    # values that make the same config (a repeat, a key the seed override or
    # a trace discards) are refused. Only the first value, and each value of
    # a temperature key (whose bounds the trace load checks), parses the
    # config; every other value is applied to a copy of the first, so the
    # trace is loaded once and shared.
    configs: list[SimConfig] = []
    seen: dict[str, str] = {}
    for raw in values:
        override = f"{key}={raw}"
        if not configs or key.startswith("temperature."):
            config = parse_config(args.config, [*args.set, override])
        else:
            config = apply_overrides(dataclasses.replace(configs[0]), [override])
            validate(config)
        _resolve_seed(config, args.seed)
        _check_figure_round(args.figure_round, config)
        digest = fingerprint(config)
        if digest in seen:
            raise UsageError(f"{key} values {seen[digest]!r} and {raw!r} make the same config")
        seen[digest] = raw
        configs.append(config)
    # Values that share the deployment and temperatures run in lockstep.
    # Every result is in hand, and every figure round checked, before the
    # first directory is made.
    keep = {args.figure_round}
    batch = Lockstep(configs, keep)
    results = [run_simulation(config, keep_rounds=keep, lockstep=batch) for config in configs]
    series = [emit_figure_data(result, args.figure_round) for result in results]
    os.makedirs(args.out, exist_ok=True)
    # An earlier sweep's summary goes before the first run directory is
    # written, and the new one is written last, so a sweep that fails
    # part-way leaves no summary beside run directories it does not describe.
    summary_path = os.path.join(args.out, "sweep_summary.csv")
    if os.path.lexists(summary_path):
        os.remove(summary_path)
    summary_rows = []
    for raw, result, figures in zip(values, results, series):
        write_run_outputs(result, os.path.join(args.out, f"{key}={raw}"), figures)
        summary_rows.append((key, raw, result.traffic.beacons_sent, result.traffic.acks_sent,
                             result.control_packets, result.total_energy_j, result.survivors,
                             result.mean_prr))
    _write_csv(args.out, "sweep_summary.csv", SWEEP_HEADER, SWEEP_ROW, summary_rows)
    print(f"swept {key} over {len(values)} values into {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = os.path.join(args.dir, "summary.csv")
    rounds_path = os.path.join(args.dir, "rounds.csv")
    lines = _read_lines(summary_path)
    if lines[:1] != [SUMMARY_HEADER]:
        raise DataError(f"{summary_path}: expected header {SUMMARY_HEADER!r}")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    round_lines = _read_lines(rounds_path)
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
