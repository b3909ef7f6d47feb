"""Property-based differential test: the engine against tests/oracle.py.

Hypothesis draws small valid configurations (both controllers, sampled and
expected PRR, synthetic walks and dense traces, batteries small enough to
force extinction) and checks exact record equality with the reference
executor plus the engine's accounting invariants. A second test runs 2-3
such configs as one lockstep group, differing in everything but the seed,
nodes, area and temperature source, and checks every member against the
reference executor.
"""

import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eastsim.config import SimConfig
from eastsim.engine import Lockstep, run_simulation
from eastsim.protocol import REGIONS, Region, RegionConfig
from eastsim.topology import TemperatureProcess, TraceTable

from oracle import record_as_dict, records_equal, reference_run


def _trace(trace_seed, nodes, rounds, t_min, t_max):
    """Dense in-bounds trace: a clamped random walk per node."""
    rng = random.Random(trace_seed)
    step = rng.uniform(0.0, 0.2 * (t_max - t_min))
    columns = []
    for i in range(nodes):
        temp = rng.uniform(t_min, t_max)
        column = []
        for r in range(rounds):
            column.append(temp)
            temp = min(max(temp + rng.gauss(0.0, step), t_min), t_max)
        columns.append(column)
    return TemperatureProcess(
        mode="trace",
        t_min_c=t_min,
        t_max_c=t_max,
        walk_sigma_c=0.0,
        trace=TraceTable(tuple(zip(*columns))),
        trace_nodes=nodes,
        trace_rounds=rounds,
    )


def _draw_regions_and_cap(draw, cfg):
    # Boundaries may lie above every loss, which puts all nodes in region C.
    low = draw(st.floats(-9.0, 9.0))
    cfg.regions = RegionConfig(
        boundary_high_dbm=low + draw(st.floats(0.1, 10.0)),
        boundary_low_dbm=low,
        threshold_loss_dbm={r: draw(st.floats(-9.0, 6.0)) for r in REGIONS},
    )
    top_level = max(cfg.regions.threshold_level_dbm(r) for r in REGIONS)
    cfg.level_cap_dbm = top_level + draw(st.floats(0.0, 10.0))


@st.composite
def configs(draw):
    nodes = draw(st.integers(1, 12))
    rounds = draw(st.integers(1, 40))
    t_min = draw(st.floats(-20.0, 20.0))
    t_max = t_min + draw(st.floats(1.0, 50.0))
    cfg = SimConfig(
        node_count=nodes,
        rounds=rounds,
        seed=draw(st.integers(0, 2**32)),
        controller=draw(st.sampled_from(["east", "classical"])),
        area_side_m=draw(st.floats(1.0, 200.0)),
        prr_sampled=draw(st.booleans()),
    )
    _draw_regions_and_cap(draw, cfg)
    if draw(st.booleans()):
        cfg.temperature = _trace(
            draw(st.integers(0, 2**32)),
            nodes + draw(st.integers(0, 2)),
            rounds + draw(st.integers(0, 2)),
            t_min,
            t_max,
        )
    else:
        cfg.temperature = TemperatureProcess(
            t_min_c=t_min, t_max_c=t_max, walk_sigma_c=draw(st.floats(0.0, 3.0))
        )
    cfg.cadence = replace(
        cfg.cadence,
        period_rounds=draw(st.integers(1, 12)),
        drift_dbm=draw(st.floats(0.0, 2.0)),
    )
    cfg.energy = replace(cfg.energy, initial_battery_j=draw(st.floats(1e-4, 0.05)))
    return cfg


def one_region_drain():
    """All nodes in region C, above its threshold, on a battery that kills
    distant nodes first: n_current falls below n_desired and rule (ii) sets
    the survivors' levels."""
    cfg = SimConfig(node_count=12, rounds=40, seed=0, area_side_m=150.0)
    cfg.regions = RegionConfig(
        boundary_high_dbm=8.0,
        boundary_low_dbm=7.0,
        threshold_loss_dbm={Region.A: 3.78, Region.B: -0.61, Region.C: -9.0},
    )
    cfg.cadence = replace(cfg.cadence, period_rounds=1)
    cfg.energy = replace(cfg.energy, initial_battery_j=0.002)
    return cfg


def staggered_drain():
    """one_region_drain with a steeper link budget, a larger battery and a
    faster walk: distant nodes die first, and after six deaths rule (ii)
    raises the survivors' levels while they still have battery, so their
    transmit power and tx costs change mid-run."""
    cfg = one_region_drain()
    cfg.link_budget = replace(cfg.link_budget, eb_n0_db=35.0)
    cfg.energy = replace(cfg.energy, initial_battery_j=0.01)
    cfg.temperature = replace(cfg.temperature, walk_sigma_c=2.0)
    return cfg


def _subset_sums(counts):
    return {sum(c) for k in range(len(counts) + 1) for c in combinations(counts, k)}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(configs())
@example(one_region_drain())
@example(staggered_drain())
def test_engine_matches_oracle_and_invariants(cfg):
    result = run_simulation(cfg)

    engine = [record_as_dict(r) for r in result.records]
    reference = reference_run(cfg)
    assert len(engine) == len(reference)
    for got, expected in zip(engine, reference):
        assert records_equal(got, expected), got["round"]

    batteries = [node.battery_j for node in result.deployment.nodes]
    assert all(b >= 0.0 for b in batteries)
    drop = cfg.node_count * cfg.energy.initial_battery_j - sum(batteries)
    assert drop == pytest.approx(result.ledger.tx_j + result.ledger.rx_j, rel=1e-9)

    assignment = result.partition.assignment
    alive_before = [True] * cfg.node_count
    for rec in result.records:
        assert all(before or not now for before, now in zip(alive_before, rec.alive))
        assert all(level <= cfg.level_cap_dbm for level in rec.levels_dbm)
        members = [
            sum(1 for i, a in enumerate(alive_before) if a and assignment[i] is r)
            for r in REGIONS
        ]
        if cfg.controller == "classical" or rec.round_index == 0:
            assert (rec.beacons, rec.acks) == (1, sum(members))
        else:
            assert rec.beacons in (0, 1)
            assert rec.acks in _subset_sums(members)
            assert rec.beacons == 1 or rec.acks == 0
        alive_before = rec.alive
    if result.extinction_round is not None:
        assert result.extinction_round == len(result.records) - 1
        assert not any(result.records[-1].alive)


@st.composite
def lockstep_groups(draw):
    """One drawn config and 2-3 members that keep its seed, nodes, area and
    temperature source but vary everything a lockstep group may vary."""
    base = draw(configs())
    members = []
    for _ in range(draw(st.integers(2, 3))):
        cfg = replace(
            base,
            controller=draw(st.sampled_from(["east", "classical"])),
            rounds=draw(st.integers(1, base.rounds)),
            prr_sampled=draw(st.booleans()),
        )
        _draw_regions_and_cap(draw, cfg)
        cfg.cadence = replace(
            cfg.cadence,
            period_rounds=draw(st.integers(1, 12)),
            drift_dbm=draw(st.floats(0.0, 2.0)),
        )
        # Log-uniform, so members often lose nodes in different rounds.
        battery = 10.0 ** draw(st.floats(-4.0, -1.3))
        cfg.energy = replace(cfg.energy, initial_battery_j=battery)
        members.append(cfg)
    return members


def extinct_beside_survivor():
    """A member on a battery that lasts one round next to members that run
    all 30 rounds: the shared walk must go on for the survivors' nodes."""
    base = SimConfig(node_count=8, rounds=30, seed=7, area_side_m=80.0, prr_sampled=True)
    base.temperature = replace(base.temperature, walk_sigma_c=2.0)
    doomed = replace(base, energy=replace(base.energy, initial_battery_j=1e-6))
    sampled_classical = replace(base, controller="classical")
    expected_east = replace(base, prr_sampled=False, cadence=replace(base.cadence, period_rounds=1))
    return [doomed, sampled_classical, expected_east]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(lockstep_groups())
@example(extinct_beside_survivor())
def test_lockstep_members_match_oracle(members):
    group = Lockstep(members)
    for cfg in members:
        result = run_simulation(cfg, lockstep=group)
        engine = [record_as_dict(r) for r in result.records]
        reference = reference_run(cfg)
        assert len(engine) == len(reference)
        for got, expected in zip(engine, reference):
            assert records_equal(got, expected), got["round"]
