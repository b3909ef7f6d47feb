"""Aggregation of round records into per-region summaries, figure series and
controller comparisons."""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import fingerprint
from .engine import SimResult
from .errors import DataError, UsageError
from .protocol import REGIONS, Region, classical_assign


class RegionSummary(NamedTuple):
    region: Region
    initial_count: int
    desired: int
    survivors: int
    threshold_loss_dbm: float
    threshold_level_dbm: float
    nodes_above_threshold: int
    nodes_below_threshold: int
    prr_min_pct: float
    prr_max_pct: float


class ComparisonReport(NamedTuple):
    """Totals for an adaptive run against its baseline twin; deltas are
    adaptive minus baseline."""

    east_control_packets: int
    classical_control_packets: int
    east_energy_j: float
    classical_energy_j: float
    east_survivors: int
    classical_survivors: int
    east_mean_prr: float
    classical_mean_prr: float

    @property
    def control_packets_delta(self) -> int:
        return self.east_control_packets - self.classical_control_packets

    @property
    def energy_delta_j(self) -> float:
        return self.east_energy_j - self.classical_energy_j

    @property
    def survivors_delta(self) -> int:
        return self.east_survivors - self.classical_survivors

    @property
    def mean_prr_delta(self) -> float:
        return self.east_mean_prr - self.classical_mean_prr

    @property
    def east_dominates(self) -> bool:
        """True when the adaptive run won on both overhead and energy."""
        return self.control_packets_delta < 0 and self.energy_delta_j < 0


class FigureSeries(NamedTuple):
    """Numeric series behind the standard plots: per-node snapshots from one
    round, per-region levels from the final round."""

    temp_per_node: list[float]
    loss_per_node: list[float]
    level_per_node: list[float]
    pt_per_node: list[float]
    region_level_baseline: dict[Region, float]
    region_level_assigned: dict[Region, float]


def summarize(result: SimResult) -> list[RegionSummary]:
    """Per-region summary over a whole run.

    Initial counts and desired neighbors come from initialization, survivors
    and the above/below threshold split from the final round, and the PRR
    band is the (min, max) of per-round region means across all rounds.
    """
    if not result.records:
        raise DataError("cannot summarize a run with no records")
    final = result.records[-1]
    summaries = []
    for region in REGIONS:
        member_ids = [i for i, r in enumerate(result.partition) if r is region]
        survivors = [i for i in member_ids if final.alive[i]]
        threshold_loss = result.config.regions.threshold_loss_dbm[region]
        above = sum(1 for i in survivors if final.losses_dbm[i] >= threshold_loss)
        prrs = [
            rec.region_prr[region]
            for rec in result.records
            if not math.isnan(rec.region_prr[region])
        ]
        summaries.append(
            RegionSummary(
                region=region,
                initial_count=len(member_ids),
                desired=result.desired[region],
                survivors=len(survivors),
                threshold_loss_dbm=threshold_loss,
                threshold_level_dbm=result.config.regions.threshold_level_dbm(region),
                nodes_above_threshold=above,
                nodes_below_threshold=len(survivors) - above,
                prr_min_pct=100.0 * min(prrs) if prrs else math.nan,
                prr_max_pct=100.0 * max(prrs) if prrs else math.nan,
            )
        )
    return summaries


def compare_runs(east: SimResult, classical: SimResult) -> ComparisonReport:
    """Compare an adaptive run (first argument) against a baseline run.

    Both runs must share every config key except the controller, which pins
    the deployment seed and round count to the same values.
    """
    relabeled = east.config._replace(controller=classical.config.controller)
    if fingerprint(relabeled) != fingerprint(classical.config):
        raise UsageError("runs are not comparable: configs differ beyond the controller")
    return ComparisonReport(
        east_control_packets=east.control_packets,
        classical_control_packets=classical.control_packets,
        east_energy_j=east.total_energy_j,
        classical_energy_j=classical.total_energy_j,
        east_survivors=east.survivors,
        classical_survivors=classical.survivors,
        east_mean_prr=east.mean_prr,
        classical_mean_prr=classical.mean_prr,
    )


def emit_figure_data(result: SimResult, round_index: int = 0) -> FigureSeries:
    """Series for the standard figures; ``round_index`` selects the per-node
    snapshot round."""
    if not result.records:
        raise DataError("cannot emit figure data for a run with no records")
    if not (0 <= round_index < len(result.records)):
        raise UsageError(
            f"figure round {round_index} out of range; run recorded "
            f"{len(result.records)} rounds"
        )
    snapshot = result.records[round_index]
    if snapshot.temps_c is None:
        raise UsageError(f"figure round {round_index} was not kept by the run")
    final = result.records[-1]
    baseline = min(classical_assign(result.config.temperature.t_max_c), result.config.level_cap_dbm)
    assigned: dict[Region, float] = {}
    for region in REGIONS:
        ids = [i for i, r in enumerate(result.partition) if r is region and final.alive[i]]
        assigned[region] = (
            sum(final.levels_dbm[i] for i in ids) / len(ids) if ids else math.nan
        )
    return FigureSeries(
        temp_per_node=list(snapshot.temps_c),
        loss_per_node=list(snapshot.losses_dbm),
        level_per_node=list(snapshot.levels_dbm),
        pt_per_node=list(snapshot.pt_dbm),
        region_level_baseline={r: baseline for r in REGIONS},
        region_level_assigned=assigned,
    )


def render_summary_table(rows: list[dict[str, str]], rounds_executed: int) -> str:
    """Aligned text table over the region summary, one label per metric."""
    by_region = {row["region"]: row for row in rows}
    regions = [r.value for r in REGIONS]

    def triple(key: str) -> str:
        return ",".join(by_region[r][key] for r in regions)

    def triple_fmt(key: str, fmt: str) -> str:
        return ",".join(fmt.format(float(by_region[r][key])) for r in regions)

    def prr_band(r: str) -> str:
        lo = float(by_region[r]["prr_min_pct"])
        hi = float(by_region[r]["prr_max_pct"])
        return f"({lo:.0f}-{hi:.0f})"

    labels_values = [
        ("Number of Nodes (A,B,C)", triple("initial_count")),
        ("Desired Neighbors (A,B,C)", triple("desired")),
        (f"Nodes after {rounds_executed} Rounds (A,B,C)", triple("survivors")),
        ("Threshold power level (A,B,C)", triple_fmt("threshold_level_dbm", "{:.2f}") + " dBm"),
        ("Nodes above threshold RSSI_loss (A,B,C)", triple("nodes_above_threshold")),
        ("Nodes below threshold RSSI_loss (A,B,C)", triple("nodes_below_threshold")),
        ("PRR (A,B,C)", ",".join(prr_band(r) for r in regions) + " %"),
        ("Threshold RSSI_loss (A,B,C)", triple_fmt("threshold_loss_dbm", "{:.2f}") + " dBm"),
    ]
    width = max(len(label) for label, _ in labels_values)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in labels_values) + "\n"
