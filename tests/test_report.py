"""Tests for summaries, comparisons and figure series."""

import math
from dataclasses import replace

import pytest

from eastsim.config import SimConfig
from eastsim.engine import run_simulation
from eastsim.errors import DataError, UsageError
from eastsim.protocol import REGIONS, Region, classical_assign
from eastsim.report import (
    ComparisonReport,
    compare_runs,
    emit_figure_data,
    render_summary_table,
    summarize,
)


def run(**kwargs):
    defaults = dict(node_count=25, rounds=30, seed=8)
    defaults.update(kwargs)
    return run_simulation(SimConfig(**defaults))


class TestSummarize:
    def test_threshold_echo(self):
        result = run()
        rows = {row.region: row for row in summarize(result)}
        assert rows[Region.A].threshold_loss_dbm == 3.78
        assert rows[Region.A].threshold_level_dbm == pytest.approx(43.24, abs=0.05)
        assert rows[Region.B].threshold_loss_dbm == -0.61
        assert rows[Region.C].threshold_loss_dbm == -5.17

    def test_death_free_run_keeps_all_nodes(self):
        result = run()
        for row in summarize(result):
            assert row.survivors == row.initial_count
            assert row.desired == max(row.initial_count - 5, 1)

    def test_survivors_sum_to_alive(self):
        cfg = SimConfig(node_count=15, rounds=200, seed=8)
        cfg.energy = replace(cfg.energy, initial_battery_j=0.02)
        result = run_simulation(cfg)
        rows = summarize(result)
        assert sum(row.survivors for row in rows) == result.survivors

    def test_above_below_split(self):
        result = run()
        final = result.records[-1]
        for row in summarize(result):
            assert row.nodes_above_threshold + row.nodes_below_threshold == row.survivors
            members = [
                i
                for i, region in enumerate(result.partition)
                if region is row.region and final.alive[i]
            ]
            above = sum(1 for i in members if final.losses_dbm[i] >= row.threshold_loss_dbm)
            assert row.nodes_above_threshold == above

    def test_loss_at_the_threshold_counts_as_above(self):
        result = run()
        final = result.records[-1]
        region = result.partition[0]
        members = [i for i, r in enumerate(result.partition) if r is region]
        lowest = min(final.losses_dbm[i] for i in members)
        thresholds = {**result.config.regions.threshold_loss_dbm, region: lowest}
        regions = replace(result.config.regions, threshold_loss_dbm=thresholds)
        result.config = replace(result.config, regions=regions)
        row = {row.region: row for row in summarize(result)}[region]
        assert (row.nodes_above_threshold, row.nodes_below_threshold) == (len(members), 0)

    def test_prr_band_orders(self):
        for row in summarize(run()):
            if not math.isnan(row.prr_min_pct):
                assert 0.0 <= row.prr_min_pct <= row.prr_max_pct <= 100.0

    def test_hand_checked_aggregation(self):
        # tiny run cross-checked field by field against the raw records
        result = run(node_count=5, rounds=4, seed=11)
        rows = {row.region: row for row in summarize(result)}
        final = result.records[-1]
        for region in REGIONS:
            members = [
                i for i, r in enumerate(result.partition) if r is region
            ]
            assert rows[region].initial_count == len(members)
            assert rows[region].survivors == sum(1 for i in members if final.alive[i])
            prrs = [
                rec.region_prr[region]
                for rec in result.records
                if not math.isnan(rec.region_prr[region])
            ]
            if prrs:
                assert rows[region].prr_min_pct == pytest.approx(100.0 * min(prrs))
                assert rows[region].prr_max_pct == pytest.approx(100.0 * max(prrs))

    def test_empty_records_rejected(self):
        result = run()
        result.records = []
        with pytest.raises(DataError):
            summarize(result)


class TestCompareRuns:
    def test_self_comparison_is_zero(self):
        result = run()
        report = compare_runs(result, result)
        assert report.control_packets_delta == 0
        assert report.energy_delta_j == 0.0
        assert report.survivors_delta == 0
        assert report.mean_prr_delta == 0.0
        assert not report.east_dominates

    def test_adaptive_beats_baseline(self):
        east = run()
        classical = run(controller="classical")
        report = compare_runs(east, classical)
        assert report.control_packets_delta < 0
        assert report.energy_delta_j < 0.0
        assert report.east_dominates

    @pytest.mark.parametrize("packets, energy_j", [(100, 1.0), (90, 2.0)], ids=["packets", "energy"])
    def test_a_tie_is_no_dominance(self, packets, energy_j):
        report = ComparisonReport(
            east_control_packets=packets, classical_control_packets=100,
            east_energy_j=energy_j, classical_energy_j=2.0,
            east_survivors=5, classical_survivors=5,
            east_mean_prr=0.9, classical_mean_prr=0.9,
        )
        assert not report.east_dominates

    def test_antisymmetry(self):
        east = run()
        classical = run(controller="classical")
        forward = compare_runs(east, classical)
        backward = compare_runs(classical, east)
        assert forward.control_packets_delta == -backward.control_packets_delta
        assert forward.energy_delta_j == -backward.energy_delta_j
        assert forward.survivors_delta == -backward.survivors_delta
        assert forward.mean_prr_delta == -backward.mean_prr_delta

    def test_mismatched_seed_rejected(self):
        east = run()
        classical = run(controller="classical", seed=9)
        with pytest.raises(UsageError, match="not comparable"):
            compare_runs(east, classical)

    def test_mismatched_rounds_rejected(self):
        east = run()
        classical = run(controller="classical", rounds=31)
        with pytest.raises(UsageError):
            compare_runs(east, classical)


class TestFigureSeries:
    def test_shapes(self):
        result = run()
        series = emit_figure_data(result)
        for values in (
            series.temp_per_node,
            series.loss_per_node,
            series.level_per_node,
            series.pt_per_node,
        ):
            assert len(values) == 25
        assert set(series.region_level_baseline) == set(REGIONS)
        assert set(series.region_level_assigned) == set(REGIONS)

    def test_single_node_series(self):
        result = run(node_count=1)
        series = emit_figure_data(result)
        assert len(series.temp_per_node) == 1
        assert len(series.pt_per_node) == 1

    def test_bounds_under_defaults(self):
        result = run(node_count=60, rounds=40)
        series = emit_figure_data(result)
        lo = 0.1996 * (-10.0 - 25.0)
        hi = 0.1996 * (53.0 - 25.0)
        for loss in series.loss_per_node:
            assert lo - 1e-9 <= loss <= hi + 1e-9
        for level in series.level_per_node:
            assert 19.0 <= level <= 48.7
        for pt in series.pt_per_node:
            assert math.isfinite(pt)

    def test_baseline_series_is_worst_case(self):
        result = run()
        series = emit_figure_data(result)
        expected = classical_assign(53.0)
        for region in REGIONS:
            assert series.region_level_baseline[region] == pytest.approx(expected)

    def test_assigned_series_stays_in_region_bands(self):
        series = emit_figure_data(run(node_count=60, rounds=40))
        bands = {Region.A: (40.0, 45.0), Region.B: (30.0, 35.0), Region.C: (20.0, 25.0)}
        for region, (lo, hi) in bands.items():
            assert lo <= series.region_level_assigned[region] <= hi

    def test_round_selector(self):
        result = run()
        series = emit_figure_data(result, round_index=7)
        snapshot = result.records[7]
        assert series.temp_per_node == snapshot.temps_c
        assert series.loss_per_node == snapshot.losses_dbm
        assert series.level_per_node == snapshot.levels_dbm
        assert series.pt_per_node == snapshot.pt_dbm

    def test_round_out_of_range(self):
        result = run()
        with pytest.raises(UsageError, match="out of range"):
            emit_figure_data(result, round_index=30)
        with pytest.raises(UsageError):
            emit_figure_data(result, round_index=-1)
        # a round the run recorded without its per-node vectors
        kept = run_simulation(SimConfig(node_count=25, rounds=30, seed=8), keep_rounds={0})
        with pytest.raises(UsageError) as excinfo:
            emit_figure_data(kept, round_index=7)
        assert str(excinfo.value) == "figure round 7 was not kept by the run"
        # no round at all
        result.records = []
        with pytest.raises(DataError) as excinfo:
            emit_figure_data(result, round_index=0)
        assert str(excinfo.value) == "cannot emit figure data for a run with no records"


class TestRenderSummaryTable:
    ROWS = [
        {
            "region": "A", "initial_count": "46", "desired": "41", "survivors": "41",
            "threshold_level_dbm": "43.221022", "nodes_above_threshold": "23",
            "nodes_below_threshold": "18", "prr_min_pct": "80.0", "prr_max_pct": "98.0",
            "threshold_loss_dbm": "3.780000",
        },
        {
            "region": "B", "initial_count": "30", "desired": "25", "survivors": "22",
            "threshold_level_dbm": "31.780138", "nodes_above_threshold": "11",
            "nodes_below_threshold": "11", "prr_min_pct": "70.0", "prr_max_pct": "96.0",
            "threshold_loss_dbm": "-0.610000",
        },
        {
            "region": "C", "initial_count": "24", "desired": "19", "survivors": "17",
            "threshold_level_dbm": "22.216067", "nodes_above_threshold": "8",
            "nodes_below_threshold": "9", "prr_min_pct": "63.0", "prr_max_pct": "97.0",
            "threshold_loss_dbm": "-5.170000",
        },
    ]

    def test_eight_rows(self):
        text = render_summary_table(self.ROWS, rounds_executed=1200)
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == 8
        assert lines[0].startswith("Number of Nodes (A,B,C)")
        assert "46,30,24" in lines[0]
        assert "41,25,19" in lines[1]
        assert "Nodes after 1200 Rounds" in lines[2]
        assert "43.22,31.78,22.22 dBm" in lines[3]
        assert "(80-98),(70-96),(63-97) %" in lines[6]
        assert "3.78,-0.61,-5.17 dBm" in lines[7]

    def test_deterministic(self):
        a = render_summary_table(self.ROWS, rounds_executed=1200)
        b = render_summary_table(self.ROWS, rounds_executed=1200)
        assert a == b
