"""Property-based differential test: the engine against tests/oracle.py.

Hypothesis draws small valid configurations (both controllers, sampled and
expected PRR, synthetic walks and dense traces, batteries small enough to
force extinction) and checks exact record equality with the reference
executor plus the engine's accounting invariants. A second test runs 2-3
such configs as one lockstep group, differing in everything but the seed,
nodes, area and temperature source, and checks every member against the
reference executor. A third runs 2-4 twins, members that also share every
controller input, on batteries that let a twin lose a node mid-run: a twin
shares a round's PRR scoring only while it has lost no node. A fourth draws
larger networks crowded into one region and drained mid-run, so that rule
(ii) of the east controller sets levels, and counts how often; a fifth runs
3-4 twins of such a network, which rule (ii) sets apart once they lose
nodes. Every lockstep member's levels keep their set-up values until its
first death, which is what lets twins share no levels.
"""

import random
from array import array
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import event, example, given, seed, settings
from hypothesis import strategies as st

from eastsim import engine
from eastsim.config import SimConfig
from eastsim.engine import Lockstep, run_simulation
from eastsim.protocol import REGIONS, Region, RegionConfig, east_assign
from eastsim.radio import rssi_loss_from_temperature
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
        t_min_c=t_min,
        t_max_c=t_max,
        walk_sigma_c=0.0,
        trace=TraceTable(tuple(array("d", row) for row in zip(*columns))),
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


def assert_matches_oracle(cfg, result):
    engine_records = [record_as_dict(r) for r in result.records]
    reference = reference_run(cfg)
    assert len(engine_records) == len(reference)
    for got, expected in zip(engine_records, reference):
        assert records_equal(got, expected), got["round"]


def _subset_sums(counts):
    return {sum(c) for k in range(len(counts) + 1) for c in combinations(counts, k)}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(configs())
@example(one_region_drain())
@example(staggered_drain())
def test_engine_matches_oracle_and_invariants(cfg):
    result = run_simulation(cfg)
    assert_matches_oracle(cfg, result)

    batteries = result.batteries_j
    assert all(b >= 0.0 for b in batteries)
    assert_levels_fixed_until_first_death(result)
    drop = cfg.node_count * cfg.energy.initial_battery_j - sum(batteries)
    assert drop == pytest.approx(result.total_energy_j, rel=1e-9)

    partition = result.partition
    alive_before = [True] * cfg.node_count
    for rec in result.records:
        assert all(before or not now for before, now in zip(alive_before, rec.alive))
        assert all(level <= cfg.level_cap_dbm for level in rec.levels_dbm)
        members = [
            sum(1 for i, a in enumerate(alive_before) if a and partition[i] is r)
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


def assert_levels_fixed_until_first_death(result):
    """Rule (ii) needs a death: up to a run's first death every level keeps
    its set-up value (records kept on every round)."""
    for rec in result.records:
        assert rec.levels_dbm == result.records[0].levels_dbm, rec.round_index
        if not all(rec.alive):
            break


def assert_members_match_oracle(members):
    group = Lockstep(members)
    for cfg in members:
        result = run_simulation(cfg, lockstep=group)
        assert_matches_oracle(cfg, result)
        assert_levels_fixed_until_first_death(result)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(lockstep_groups())
@example(extinct_beside_survivor())
def test_lockstep_members_match_oracle(members):
    assert_members_match_oracle(members)


@st.composite
def twin_groups(draw):
    """2-4 twins of one drawn config: they keep its controller inputs too and
    vary only the cadence, the energy model, one link-budget key and the
    round count."""
    base = draw(configs())
    members = []
    for _ in range(draw(st.integers(2, 4))):
        cfg = replace(
            base,
            rounds=draw(st.integers(1, base.rounds)),
            cadence=replace(
                base.cadence,
                period_rounds=draw(st.integers(1, 12)),
                drift_dbm=draw(st.floats(0.0, 2.0)),
            ),
            link_budget=replace(base.link_budget, eb_n0_db=draw(st.floats(0.0, 20.0))),
            # Log-uniform, so a twin often loses a node mid-run.
            energy=replace(
                base.energy,
                initial_battery_j=10.0 ** draw(st.floats(-4.0, -1.0)),
                e_elec_j_per_bit=draw(st.floats(10e-9, 100e-9)),
                ack_bits=draw(st.integers(64, 512)),
                data_bits=draw(st.integers(256, 2048)),
            ),
        )
        members.append(cfg)
    return members


def _twin_base():
    base = SimConfig(node_count=8, rounds=30, seed=11, area_side_m=90.0)
    base.temperature = replace(base.temperature, walk_sigma_c=2.0)
    return base


def _with_battery(cfg, battery_j):
    return replace(cfg, energy=replace(cfg.energy, initial_battery_j=battery_j))


def first_twin_dies_first():
    """The first twin, which scores PRR for the second until then, loses a
    node mid-run while the second keeps all of its nodes."""
    base = _twin_base()
    fast = replace(base, cadence=replace(base.cadence, period_rounds=1))
    return [_with_battery(fast, 0.004), _with_battery(base, 2.0)]


def first_twin_ends_first():
    """The first twin runs the fewest rounds; the others go on without it."""
    base = _twin_base()
    return [replace(base, rounds=4),
            replace(base, cadence=replace(base.cadence, period_rounds=1)),
            replace(base, link_budget=replace(base.link_budget, eb_n0_db=12.0))]


def first_twin_drains_beside_intact_twins():
    """The first of four cadence twins loses a node in round 19 while the
    other three lose none: from round 20 on the second scores PRR for the
    third and fourth."""
    base = _twin_base()
    members = [replace(base, cadence=replace(base.cadence, period_rounds=p)) for p in (1, 5, 10, 20)]
    members[0] = _with_battery(members[0], 0.004)
    return members


def death_only_beside_twins():
    """A member that is no twin of the others drains first; the two twins
    after it in the group lose no node."""
    base = _twin_base()
    doomed = _with_battery(replace(base, controller="classical"), 0.004)
    return [doomed, base, replace(base, cadence=replace(base.cadence, period_rounds=1))]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(twin_groups())
@example(first_twin_dies_first())
@example(first_twin_ends_first())
@example(first_twin_drains_beside_intact_twins())
@example(death_only_beside_twins())
def test_twin_members_match_oracle(members):
    assert_members_match_oracle(members)


@st.composite
def crowded_drains(draw):
    """20-40 east nodes over 10-30 rounds, most of them in one drawn region
    and many above its threshold, with a steep link budget and a battery
    that distant nodes drain first. Once six or more of the crowded region's
    nodes have died, its next exchange leaves its neighbor count below the
    desired count, and rule (ii) sets the survivors' levels."""
    t_min = draw(st.floats(-10.0, 20.0))
    t_max = t_min + draw(st.floats(10.0, 40.0))
    low_loss, high_loss = rssi_loss_from_temperature(t_min), rssi_loss_from_temperature(t_max)
    span = high_loss - low_loss
    # The crowded region takes this share of the loss range, where base
    # temperatures are uniform; the others share the rest.
    share = draw(st.floats(0.75, 0.95))
    gap = draw(st.floats(0.1, 2.0))
    crowded = draw(st.sampled_from(REGIONS))
    if crowded is Region.A:
        high = high_loss - share * span
        low = high - gap
    elif crowded is Region.B:
        low, high = low_loss + (1.0 - share) / 2.0 * span, high_loss - (1.0 - share) / 2.0 * span
    else:
        low = low_loss + share * span
        high = low + gap
    cfg = SimConfig(
        node_count=draw(st.integers(20, 40)),
        rounds=draw(st.integers(10, 30)),
        seed=draw(st.integers(0, 2**32)),
        area_side_m=draw(st.floats(100.0, 200.0)),
        prr_sampled=draw(st.booleans()),
    )
    cfg.regions = RegionConfig(
        boundary_high_dbm=high,
        boundary_low_dbm=low,
        threshold_loss_dbm={r: low_loss + draw(st.floats(0.0, 0.5)) * span for r in REGIONS},
    )
    top_level = max(cfg.regions.threshold_level_dbm(r) for r in REGIONS)
    cfg.level_cap_dbm = top_level + draw(st.floats(0.0, 10.0))
    cfg.temperature = TemperatureProcess(
        t_min_c=t_min, t_max_c=t_max, walk_sigma_c=draw(st.floats(0.0, 2.0))
    )
    cfg.link_budget = replace(cfg.link_budget, eb_n0_db=draw(st.floats(20.0, 30.0)))
    cfg.cadence = replace(
        cfg.cadence,
        period_rounds=draw(st.integers(1, 5)),
        drift_dbm=draw(st.floats(0.0, 2.0)),
    )
    cfg.energy = replace(cfg.energy, initial_battery_j=10.0 ** draw(st.floats(-3.0, -2.0)))
    return cfg


def run_counting_rules(cfg):
    """run_simulation(cfg), with how many east_assign calls took each rule."""
    rules = Counter()

    def counting(level_dbm, loss_dbm, threshold_loss_dbm, threshold_level_dbm, n_current, n_desired):
        if loss_dbm < threshold_loss_dbm:
            rules["iii"] += 1
        else:
            rules["i" if n_current >= n_desired else "ii"] += 1
        return east_assign(level_dbm, loss_dbm, threshold_loss_dbm, threshold_level_dbm,
                           n_current, n_desired)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "east_assign", counting)
        return run_simulation(cfg), rules


# Each oracle test and its counting twin below run one explicit seed, which
# overrides derandomize: both then see the same examples, and the count
# cannot move with an edit to either test function.
CROWDED_DRAINS = settings(max_examples=100, derandomize=True, deadline=None)


@seed(1)
@CROWDED_DRAINS
@given(crowded_drains())
def test_crowded_drains_match_oracle(cfg):
    result, rules = run_counting_rules(cfg)
    for rule in ("ii", "iii"):  # shown by pytest --hypothesis-show-statistics
        event(f"rule ({rule}) node-rounds", "0" if not rules[rule] else "<50" if rules[rule] < 50 else "50+")
    # The engine runs the controller only in a region short of neighbors,
    # where rule (i) cannot apply.
    assert rules["i"] == 0
    assert_matches_oracle(cfg, result)


def test_crowded_drains_reach_rule_ii():
    reached = []

    @seed(1)
    @CROWDED_DRAINS
    @given(crowded_drains())
    def count(cfg):
        reached.append(run_counting_rules(cfg)[1]["ii"] > 0)

    count()
    # Rule (ii) set levels in 68 of these 100 examples when this was written.
    assert sum(reached) >= len(reached) // 4, f"rule (ii) reached in {sum(reached)} of {len(reached)}"


@st.composite
def crowded_twins(draw):
    """3-4 twins of one crowded_drains network, on their own cadences and
    batteries: each stops sharing the PRR scoring at its first death while
    the crowded region still drains, and the twins that go on reach rule
    (ii) in different rounds, so their levels part."""
    base = draw(crowded_drains())
    return [
        replace(
            base,
            cadence=replace(base.cadence, period_rounds=draw(st.integers(1, 5))),
            energy=replace(base.energy, initial_battery_j=10.0 ** draw(st.floats(-3.0, -2.5))),
        )
        for _ in range(draw(st.integers(3, 4)))
    ]


def followers_part_after_split(members):
    """Whether two or more twins after the first run on after the split,
    the first round in which some twin has a death or runs its last round,
    and two of them then hold different levels in some later round. A twin's
    levels move only after its own first death, so by then at least one of
    the two scores its own PRR."""
    records = [run_simulation(cfg).records for cfg in members]
    split = min(
        next((rec.round_index for rec in recs if not all(rec.alive)), len(recs) - 1)
        for recs in records
    )
    later = [
        [rec.levels_dbm for rec in recs[split + 1 :]] for recs in records[1:] if len(recs) > split + 1
    ]
    return any(
        a[r] != b[r] for a, b in combinations(later, 2) for r in range(min(len(a), len(b)))
    )


CROWDED_TWINS = settings(max_examples=40, derandomize=True, deadline=None)


@seed(1)
@CROWDED_TWINS
@given(crowded_twins())
def test_crowded_twins_match_oracle(members):
    assert_members_match_oracle(members)


def test_crowded_twins_part_after_split():
    parted = []

    @seed(1)
    @CROWDED_TWINS
    @given(crowded_twins())
    def count(members):
        parted.append(followers_part_after_split(members))

    count()
    # Twins after the first parted in 31 of these 40 examples when this was
    # written.
    assert sum(parted) >= len(parted) // 4, f"twins parted in {sum(parted)} of {len(parted)}"
