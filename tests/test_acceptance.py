"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure). Expensive default-scale runs are shared through module fixtures.
"""

import functools
import math
import os
import random
from dataclasses import replace

import pytest

from eastsim.cli import main
from eastsim.config import SimConfig
from eastsim.engine import run_simulation
from eastsim.protocol import (
    REGIONS,
    Region,
    RegionConfig,
    east_assign,
    init_desired_neighbors,
)
from eastsim.radio import (
    LinkBudgetParams,
    free_space_base_requirement,
    power_level_for_rssi_loss,
    rssi_loss_from_temperature,
)

from oracle import record_as_dict, records_equal, reference_run

LEVEL_BANDS = {Region.A: (40.0, 45.0), Region.B: (30.0, 35.0), Region.C: (20.0, 25.0)}

_TRACKED = []


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {description}")
            return out

        return wrapper

    return decorate


def tracked_run(config):
    result = run_simulation(config)
    _TRACKED.append((config, result))
    return result


@pytest.fixture(scope="module")
def east_default():
    return tracked_run(SimConfig())


@pytest.fixture(scope="module")
def classical_default():
    return tracked_run(SimConfig(controller="classical"))


@pytest.fixture(scope="module")
def k_sweep(east_default):
    results = {10: east_default}
    for k in (1, 5, 20):
        cfg = SimConfig()
        cfg.cadence = replace(cfg.cadence, period_rounds=k)
        results[k] = tracked_run(cfg)
    return results


@criterion(1, "compensation curve reproduces the reference threshold levels within 0.05 dBm")
def test_criterion_1_threshold_levels():
    expected = {3.78: 43.24, -0.61: 31.77, -5.17: 22.21}
    for loss, level in expected.items():
        assert power_level_for_rssi_loss(loss) == pytest.approx(level, abs=0.05)


@criterion(2, "temperature/loss endpoints exact to 1e-6; composed levels stay in [19.0, 48.7] "
              "and bracket the (20, 47) band within 2 dBm")
def test_criterion_2_loss_endpoints_and_level_range():
    assert rssi_loss_from_temperature(-10.0) == pytest.approx(-6.986, abs=1e-6)
    assert rssi_loss_from_temperature(25.0) == pytest.approx(0.0, abs=1e-6)
    assert rssi_loss_from_temperature(53.0) == pytest.approx(5.5888, abs=1e-6)
    low = power_level_for_rssi_loss(rssi_loss_from_temperature(-10.0))
    high = power_level_for_rssi_loss(rssi_loss_from_temperature(53.0))
    for step in range(0, 253):
        t = -10.0 + step * 0.25
        level = power_level_for_rssi_loss(rssi_loss_from_temperature(t))
        assert 19.0 <= level <= 48.7
    assert abs(low - 20.0) <= 2.0
    assert abs(high - 47.0) <= 2.0


@criterion(3, "desired neighbors are exactly initial counts minus 5; (46,30,24) -> (41,25,19)")
def test_criterion_3_desired_neighbors():
    def partition_of(counts):
        return tuple(r for r in REGIONS for _ in range(counts[r]))

    table = partition_of({Region.A: 46, Region.B: 30, Region.C: 24})
    assert init_desired_neighbors(table) == {Region.A: 41, Region.B: 25, Region.C: 19}
    rng = random.Random(2024)
    for _ in range(2000):
        counts = {r: rng.randint(6, 80) for r in REGIONS}
        assert init_desired_neighbors(partition_of(counts)) == {r: counts[r] - 5 for r in REGIONS}


@criterion(4, "controller rule table holds on the worked examples and 10^4 randomized cases")
def test_criterion_4_controller_truth_table():
    cfg = RegionConfig()

    def assign(level, region, loss, n_c, n_d):
        return east_assign(
            level, loss, cfg.threshold_loss_dbm[region], cfg.threshold_level_dbm(region), n_c, n_d
        )

    # worked examples
    assert assign(10.0, Region.A, 4.5, 46, 41) == pytest.approx(43.24, abs=0.05)
    assert assign(22.21, Region.C, -6.0, 20, 15) == 22.21
    rule_ii = assign(31.77, Region.B, 0.5, 24, 25)
    assert rule_ii == max(31.77, power_level_for_rssi_loss(0.5))
    assert rule_ii == pytest.approx(34.457, abs=0.05)

    rng = random.Random(4096)
    for _ in range(10_000):
        region = REGIONS[rng.randrange(3)]
        threshold = cfg.threshold_loss_dbm[region]
        loss = rng.uniform(-7.0, 5.6)
        prev = rng.uniform(0.0, 48.7)
        n_c, n_d = rng.randint(0, 60), rng.randint(1, 60)
        new = assign(prev, region, loss, n_c, n_d)
        if loss >= threshold and n_c >= n_d:
            assert new == cfg.threshold_level_dbm(region)
        elif loss >= threshold:
            assert new == max(prev, power_level_for_rssi_loss(loss))
            assert new >= prev
        else:
            assert new == prev


@criterion(5, "default run keeps >= 90% of surviving nodes per region inside the "
              "A [40,45] / B [30,35] / C [20,25] dBm level bands")
def test_criterion_5_region_level_bands(east_default):
    final = east_default.records[-1]
    for region in REGIONS:
        survivors = [i for i, r in enumerate(east_default.partition)
                     if r is region and final.alive[i]]
        assert survivors, f"region {region.value} died out under defaults"
        lo, hi = LEVEL_BANDS[region]
        in_band = sum(1 for i in survivors if lo <= final.levels_dbm[i] <= hi)
        assert in_band / len(survivors) >= 0.90, (
            f"region {region.value}: {in_band}/{len(survivors)} in [{lo}, {hi}]"
        )


@criterion(6, "adaptive controller sends fewer control packets and spends less energy than "
              "the baseline; control totals are non-increasing in the exchange period")
def test_criterion_6_comparative_claims(east_default, classical_default, k_sweep):
    assert east_default.control_packets < classical_default.control_packets
    assert east_default.total_energy_j < classical_default.total_energy_j
    totals = [k_sweep[k].control_packets for k in (1, 5, 10, 20)]
    assert all(a >= b for a, b in zip(totals, totals[1:])), totals


@criterion(7, "5-node 10-round runs match the brute-force reference executor "
              "record for record (both controllers, 3 seeds)")
def test_criterion_7_oracle_equivalence():
    for controller in ("east", "classical"):
        for seed in (101, 202, 303):
            cfg = SimConfig(node_count=5, rounds=10, seed=seed, controller=controller)
            result = tracked_run(cfg)
            engine = [record_as_dict(r) for r in result.records]
            reference = reference_run(
                SimConfig(node_count=5, rounds=10, seed=seed, controller=controller)
            )
            assert len(engine) == len(reference)
            for got, expected in zip(engine, reference):
                assert records_equal(got, expected), (controller, seed, got["round"])


@criterion(8, "byte-identical CSVs for identical (config, seed); battery draw equals "
              "tx + rx energy within 1e-9 relative on every run in the suite")
def test_criterion_8_determinism_and_conservation(
    tmp_path, east_default, classical_default, k_sweep
):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--out", str(out_a)]) == 0
    assert main(["run", "--out", str(out_b)]) == 0
    compared = 0
    for root, _, files in os.walk(out_a):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), out_a)
            assert (out_b / rel).read_bytes() == (out_a / rel).read_bytes(), rel
            compared += 1
    assert compared == 10

    # at minimum the five fixture runs; more when the whole module ran
    assert len(_TRACKED) >= 5
    for config, result in _TRACKED:
        initial = config.node_count * config.energy.initial_battery_j
        drop = initial - sum(result.batteries_j)
        assert drop == pytest.approx(result.total_energy_j, rel=1e-9)


@criterion(9, "link budget spot value -26.45 dBm at 100 m (within 0.1) and the 6.0206 dB "
              "distance-doubling law; survivor counts are out of scope by design")
def test_criterion_9_link_budget():
    params = LinkBudgetParams()
    assert free_space_base_requirement(100.0, params) == pytest.approx(-26.45, abs=0.1)
    rng = random.Random(512)
    doubling = 20.0 * math.log10(2.0)
    for _ in range(100):
        d = rng.uniform(0.25, 400.0)
        delta = free_space_base_requirement(2.0 * d, params) - free_space_base_requirement(
            d, params
        )
        assert delta == pytest.approx(doubling, abs=1e-9)
