"""Tests for the region controller: partition, feedback rules, cadence."""

import random
from array import array

import pytest

from eastsim.config import SimConfig
from eastsim.engine import run_simulation
from eastsim.protocol import (
    REGIONS,
    CadenceParams,
    Region,
    RegionConfig,
    classical_assign,
    east_assign,
    init_desired_neighbors,
    needs_closed_loop,
    partition_regions,
)
from eastsim.radio import power_level_for_rssi_loss, rssi_loss_from_temperature
from eastsim.topology import TemperatureProcess, TraceTable

CFG = RegionConfig()


def assign(level, region, loss, n_current, n_desired):
    """east_assign for a node of ``region`` under the default thresholds."""
    return east_assign(
        level,
        loss,
        CFG.threshold_loss_dbm[region],
        CFG.threshold_level_dbm(region),
        n_current,
        n_desired,
    )


class TestRegionConfig:
    def test_threshold_levels_derive_from_losses(self):
        for region in REGIONS:
            level = CFG.threshold_level_dbm(region)
            assert level == pytest.approx(
                power_level_for_rssi_loss(CFG.threshold_loss_dbm[region]), abs=1e-9
            )

    def test_default_levels_match_reference_values(self):
        assert CFG.threshold_level_dbm(Region.A) == pytest.approx(43.24, abs=0.05)
        assert CFG.threshold_level_dbm(Region.B) == pytest.approx(31.77, abs=0.05)
        assert CFG.threshold_level_dbm(Region.C) == pytest.approx(22.21, abs=0.05)


def one_round_run(temps, controller="east"):
    """Run one round with node i held at ``temps[i]`` degrees C."""
    cfg = SimConfig(node_count=len(temps), rounds=1, seed=1, controller=controller)
    cfg = cfg._replace(temperature=TemperatureProcess(trace=TraceTable((array("d", temps),))))
    return run_simulation(cfg)


class TestEstimateRssiLoss:
    """The beacon/ACK loss estimate as the engine runs and records it."""

    def test_reference_temperature_gives_zero(self):
        record = one_round_run([25.0, 25.0, 25.0]).records[0]
        assert record.losses_dbm == [0.0, 0.0, 0.0]

    def test_traffic_counting(self):
        for controller in ("east", "classical"):
            result = one_round_run([30.0, 30.0, 30.0], controller)
            assert (result.records[0].beacons, result.records[0].acks) == (1, 3)
            assert result.traffic.beacons_sent == 1
            assert result.traffic.acks_sent == 3

    def test_dead_nodes_do_not_ack(self):
        cfg = SimConfig(node_count=3, rounds=50, seed=1, controller="classical")
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.006))
        records = run_simulation(cfg).records
        alive_before = [3] + [sum(rec.alive) for rec in records[:-1]]
        assert [rec.acks for rec in records] == alive_before
        assert 0 < min(alive_before) < 3  # deaths happened mid-run

    def test_known_temperatures(self):
        losses = one_round_run([53.0, 25.0, -10.0]).records[0].losses_dbm
        assert losses[0] == pytest.approx(5.5888)
        assert losses[1] == 0.0
        assert losses[2] == pytest.approx(-6.986)

    def test_all_dead_signals_completion(self):
        cfg = SimConfig(node_count=2, rounds=500, seed=1)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.003))
        result = run_simulation(cfg)
        assert result.extinction_round == len(result.records) - 1 < 499
        assert not any(result.records[-1].alive)


class TestPartitionRegions:
    def test_high_losses_land_in_a(self):
        part = partition_regions([4.0, 1.0], CFG)
        assert part == (Region.A, Region.A)
        assert [part.count(r) for r in REGIONS] == [2, 0, 0]

    def test_three_way_split(self):
        part = partition_regions([4.0, 1.0, -2.0, -5.5, -6.0], CFG)
        assert part == (Region.A, Region.A, Region.B, Region.C, Region.C)

    def test_boundaries_are_half_open(self):
        part = partition_regions([-0.61, -5.17], CFG)
        assert part[0] is Region.B  # boundary value stays below A
        assert part[1] is Region.C  # boundary value stays below B

    def test_uniform_fractions(self):
        # analytic interval fractions for a uniform grid over the loss image
        lo, hi = -6.99, 5.59
        n = 20000
        losses = [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
        part = partition_regions(losses, CFG)
        frac_a = (hi - CFG.boundary_high_dbm) / (hi - lo)
        frac_b = (CFG.boundary_high_dbm - CFG.boundary_low_dbm) / (hi - lo)
        frac_c = (CFG.boundary_low_dbm - lo) / (hi - lo)
        assert part.count(Region.A) / n == pytest.approx(frac_a, abs=0.01)
        assert part.count(Region.B) / n == pytest.approx(frac_b, abs=0.01)
        assert part.count(Region.C) / n == pytest.approx(frac_c, abs=0.01)
        assert frac_a == pytest.approx(0.49, abs=0.01)
        assert frac_b == pytest.approx(0.36, abs=0.01)
        assert frac_c == pytest.approx(0.15, abs=0.01)

    def test_totality(self):
        rng = random.Random(17)
        losses = [rng.uniform(-7.0, 5.6) for _ in range(150)]
        part = partition_regions(losses, CFG)
        assert type(part) is tuple and len(part) == len(losses)
        assert sum(part.count(r) for r in REGIONS) == len(losses)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_regions([], CFG)


def partition_of(counts):
    """A partition tuple holding ``counts[r]`` nodes of each region r."""
    return tuple(r for r in REGIONS for _ in range(counts[r]))


class TestDesiredNeighbors:
    def test_reference_counts(self):
        part = partition_of({Region.A: 46, Region.B: 30, Region.C: 24})
        assert init_desired_neighbors(part) == {Region.A: 41, Region.B: 25, Region.C: 19}

    def test_minimum_counts(self):
        part = partition_of({Region.A: 6, Region.B: 6, Region.C: 6})
        assert init_desired_neighbors(part) == {Region.A: 1, Region.B: 1, Region.C: 1}

    def test_allow_small_floors_at_one(self):
        part = partition_of({Region.A: 2, Region.B: 0, Region.C: 9})
        assert init_desired_neighbors(part) == {Region.A: 1, Region.B: 1, Region.C: 4}
        part = partition_of({Region.A: 5, Region.B: 30, Region.C: 24})
        assert init_desired_neighbors(part) == {Region.A: 1, Region.B: 25, Region.C: 19}

    def test_exact_relation_above_minimum(self):
        rng = random.Random(23)
        for _ in range(100):
            counts = {r: rng.randint(6, 60) for r in REGIONS}
            desired = init_desired_neighbors(partition_of(counts))
            assert desired == {r: counts[r] - 5 for r in REGIONS}


class TestEastAssign:
    def test_rule_i_assigns_threshold(self):
        level = assign(10.0, Region.A, 4.5, n_current=46, n_desired=41)
        assert level == pytest.approx(43.24, abs=0.05)
        assert level == CFG.threshold_level_dbm(Region.A)

    def test_rule_i_at_threshold_boundary(self):
        # loss == threshold and n_current == n_desired is rule (i), even from
        # a level above the threshold level
        loss = CFG.threshold_loss_dbm[Region.B]
        level = assign(45.0, Region.B, loss, n_current=25, n_desired=25)
        assert level == CFG.threshold_level_dbm(Region.B)

    def test_rule_iii_keeps_level(self):
        assert assign(22.21, Region.C, -6.0, n_current=20, n_desired=15) == 22.21

    def test_rule_ii_compensates_never_decreasing(self):
        level = assign(31.77, Region.B, 0.5, n_current=24, n_desired=25)
        assert level == pytest.approx(34.4569388020839, rel=1e-12)
        assert level == max(31.77, power_level_for_rssi_loss(0.5))

    def test_rule_ii_keeps_higher_previous(self):
        assert assign(45.0, Region.B, 0.5, n_current=10, n_desired=25) == 45.0

    def test_randomized_truth_table(self):
        rng = random.Random(99)
        for _ in range(10_000):
            region = REGIONS[rng.randrange(3)]
            threshold = CFG.threshold_loss_dbm[region]
            loss = rng.uniform(-7.0, 5.6)
            prev = rng.uniform(0.0, 48.7)
            n_c = rng.randint(0, 60)
            n_d = rng.randint(1, 60)
            new = assign(prev, region, loss, n_current=n_c, n_desired=n_d)
            if loss >= threshold and n_c >= n_d:
                assert new == CFG.threshold_level_dbm(region)
            elif loss >= threshold:
                assert new == max(prev, power_level_for_rssi_loss(loss))
                assert new >= prev  # rule (ii) never decreases
            else:
                assert new == prev


class TestClassicalAssign:
    def test_worst_case_level(self):
        assert classical_assign(53.0) == pytest.approx(48.66, abs=0.05)
        assert classical_assign(25.0) == pytest.approx(33.24, abs=0.05)

    def test_independent_of_node_temperature(self):
        # the baseline depends only on the configured maximum
        assert classical_assign(53.0) == classical_assign(53.0)
        assert classical_assign(53.0) == power_level_for_rssi_loss(
            rssi_loss_from_temperature(53.0)
        )

    def test_dominates_adaptive_levels(self):
        worst = classical_assign(53.0)
        rng = random.Random(41)
        for _ in range(500):
            loss = rng.uniform(-6.986, 5.5888)
            assert power_level_for_rssi_loss(loss) <= worst


class TestNeedsClosedLoop:
    CADENCE = CadenceParams(period_rounds=10, drift_dbm=1.0)

    def test_first_round_always_exchanges(self):
        assert needs_closed_loop(0, None, self.CADENCE, [], [], [])

    def test_period_rule(self):
        # node 1 last measured at 0.0 dB in round 3
        assert needs_closed_loop(13, 3, self.CADENCE, [0.0, 0.0], [0.0, 0.0], [1])
        assert not needs_closed_loop(12, 3, self.CADENCE, [0.0, 0.0], [0.0, 0.0], [1])

    def test_drift_rule(self):
        assert needs_closed_loop(7, 3, self.CADENCE, [0.0, 1.5], [0.0, 0.0], [1])
        assert not needs_closed_loop(7, 3, self.CADENCE, [0.0, 0.9], [0.0, 0.0], [1])
        # a drift exactly at the bound does not trigger an exchange
        assert not needs_closed_loop(7, 3, self.CADENCE, [0.0, 1.0], [0.0, 0.0], [1])

    def test_empty_region_follows_period_only(self):
        assert not needs_closed_loop(5, 0, self.CADENCE, [], [], [])
        assert needs_closed_loop(10, 0, self.CADENCE, [], [], [])
