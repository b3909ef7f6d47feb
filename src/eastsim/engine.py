"""Deterministic discrete-round executor.

Set-up runs once, before the first round: deploy the nodes, take their
round-0 temperatures and losses, partition them into regions, derive the
desired neighbor counts and give every node its region's capped threshold
level. Each round then runs a fixed sequence: advance temperatures (from
round 1 on), decide which regions run a closed-loop exchange, then in one
pass over the alive nodes in id order assign each node's level (region-based
feedback or max-power baseline) and transmit power, score its data packet,
debit its energy and retire it if depleted, and finally record metrics.
Identical (config, seed) pairs produce identical output, record for record.

Configs that share the seed, node count, area and temperature source can run
as one lockstep group: the deployment and each node's temperatures, losses
and random draws are made once per round for the whole group, and each
member runs the rest of the round on them.

Per-node state lives in flat lists indexed by node id, and regions in the
kernel are the indices 0/1/2 of ``REGIONS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Collection, Generator, Optional, Sequence

from . import config as config_mod
from .config import SimConfig
from .protocol import (
    REGIONS,
    ControlTraffic,
    Region,
    RegionPartition,
    classical_assign,
    east_assign,
    init_desired_neighbors,
    needs_closed_loop,
    partition_regions,
)
from .radio import (
    free_space_base_requirement,
    power_level_for_rssi_loss,
    prr_from_margin,
    rssi_loss_from_temperature,
    rx_energy,
    tx_energy,
)
from .topology import (
    Deployment,
    deploy_random,
    distance,
    substream,
    walk_stream,
)


@dataclass
class EnergyLedger:
    """Cumulative energy accounting. The reference node is mains powered, so
    battery draw splits exactly into node-side tx and rx."""

    tx_j: float = 0.0
    rx_j: float = 0.0


@dataclass
class RoundRecord:
    """Everything observed in one executed round.

    The per-node vectors ``temps_c``, ``losses_dbm``, ``levels_dbm`` and
    ``pt_dbm`` are None on rounds the run was not asked to keep; ``alive``
    (the flags after the round's deaths) and the scalars are always set.
    """

    round_index: int
    beacons: int
    acks: int
    tx_energy_j: float
    rx_energy_j: float
    temps_c: Optional[list[float]]
    losses_dbm: Optional[list[float]]
    levels_dbm: Optional[list[float]]
    pt_dbm: Optional[list[float]]
    alive: tuple[bool, ...]
    region_alive: dict[Region, int]
    region_prr: dict[Region, float]
    prr_mean: float


@dataclass
class SimResult:
    config: SimConfig
    deployment: Deployment
    partition: RegionPartition
    desired: dict[Region, int]
    records: list[RoundRecord] = field(default_factory=list)
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    traffic: ControlTraffic = field(default_factory=ControlTraffic)
    extinction_round: Optional[int] = None

    @property
    def survivors(self) -> int:
        return sum(1 for node in self.deployment.nodes if node.alive)

    @property
    def control_packets(self) -> int:
        return self.traffic.beacons_sent + self.traffic.acks_sent

    @property
    def total_energy_j(self) -> float:
        return self.ledger.tx_j + self.ledger.rx_j

    @property
    def mean_prr(self) -> float:
        return sum(r.prr_mean for r in self.records) / len(self.records)


class Lockstep:
    """A group of configs that ``run_simulation`` runs together, one round
    at a time, sharing the deployment and each node's temperature walk.

    It exists so that callers still get each member's result through one
    ``run_simulation(config, keep_rounds, lockstep=handle)`` call per
    simulation, which is what code wrapping that function expects to see:
    ``perfbench/tracer.py`` reads one SimResult per call, and tests record
    the results the CLI gets. The first such call runs the whole group; the
    later ones return what it kept.
    """

    def __init__(self, configs: Sequence[SimConfig], keep_rounds: Optional[Collection[int]] = None):
        first = configs[0]
        for config in configs[1:]:
            if _shared_inputs(config) != _shared_inputs(first):
                raise ValueError(
                    "lockstep members must share seed, nodes, area_side_m and temperature"
                )
        self.configs = list(configs)
        self.keep = None if keep_rounds is None else frozenset(keep_rounds)
        self.results: Optional[list[SimResult]] = None

    def result(self, config: SimConfig, keep_rounds: Optional[Collection[int]]) -> SimResult:
        keep = None if keep_rounds is None else frozenset(keep_rounds)
        if keep != self.keep:
            raise ValueError("keep_rounds differs from the one the lockstep group runs with")
        for k, member in enumerate(self.configs):
            if member is config:
                if self.results is None:
                    self.results = _run_group(self.configs, self.keep)
                return self.results[k]
        raise ValueError("config is not a member of this lockstep group")


def _shared_inputs(config: SimConfig) -> tuple:
    """The inputs that fix the deployment and every node's temperatures."""
    return (config.seed, config.node_count, config.area_side_m, config.temperature)


def lockstep_groups(
    configs: Sequence[SimConfig], keep_rounds: Optional[Collection[int]] = None
) -> list[Lockstep]:
    """The lockstep group of each config, in order. Configs that share the
    seed, node count, area side and temperature source share a group."""
    index: list[int] = []
    members: list[list[SimConfig]] = []
    for config in configs:
        for g, group in enumerate(members):
            if _shared_inputs(group[0]) == _shared_inputs(config):
                break
        else:
            g = len(members)
            members.append([])
        members[g].append(config)
        index.append(g)
    handles = [Lockstep(group, keep_rounds) for group in members]
    return [handles[g] for g in index]


def run_simulation(
    config: SimConfig,
    keep_rounds: Optional[Collection[int]] = None,
    lockstep: Optional[Lockstep] = None,
) -> SimResult:
    """Run the configured experiment; fewer records than ``rounds`` only on
    extinction.

    ``keep_rounds`` names the rounds whose records carry per-node vectors;
    the final round always does. None keeps them on every round.
    ``lockstep``, when given, is the group ``config`` belongs to; its result
    equals that of a run on its own.
    """
    if lockstep is not None:
        return lockstep.result(config, keep_rounds)
    return _run_group([config], None if keep_rounds is None else frozenset(keep_rounds))[0]


def _run_group(configs: list[SimConfig], keep: Optional[frozenset[int]]) -> list[SimResult]:
    """Advance every config one round at a time.

    Each round makes one shared pass over the nodes alive in any unfinished
    member: the temperature step (walk draw or trace row), its loss, the
    compensation level of that loss and, if any member samples PRR, the
    node's uniform draw. Each member's own pass then reads those values.
    Sharing is exact because a node draws from its own streams once per
    round while alive, so a node alive in a member at round r has drawn the
    same values there as in a run on its own.
    """
    for config in configs:
        config_mod.validate(config)
    first = configs[0]
    proc = first.temperature
    trace_rows = proc.trace.rows if proc.mode == "trace" else None

    deployment = deploy_random(
        first.node_count,
        first.area_side_m,
        first.seed,
        t_min_c=proc.t_min_c,
        t_max_c=proc.t_max_c,
        initial_battery_j=first.energy.initial_battery_j,
    )
    n = len(deployment.nodes)
    if trace_rows is not None:
        temps = list(trace_rows[0][:n])
        walks = None
    else:
        temps = [node.base_temp_c for node in deployment.nodes]
        walks = [walk_stream(first.seed, i) for i in range(n)]
    losses = [rssi_loss_from_temperature(t) for t in temps]
    comp = [power_level_for_rssi_loss(loss) for loss in losses]
    if any(config.prr_sampled for config in configs):
        prr_streams = [substream(first.seed, "prr", i) for i in range(n)]
        draws = [stream.random() for stream in prr_streams]
    else:
        prr_streams = draws = None
    # refs[i]: the unfinished members in which node i is alive.
    refs = [len(configs)] * n

    runs = []
    for k, config in enumerate(configs):
        if k:
            battery = config.energy.initial_battery_j
            own = Deployment(
                nodes=[replace(node, battery_j=battery) for node in deployment.nodes],
                reference_pos=deployment.reference_pos,
                area_side_m=deployment.area_side_m,
            )
        else:
            own = deployment
        runs.append(_member_rounds(config, keep, own, temps, losses, comp, draws, refs))

    sigma = proc.walk_sigma_c
    t_min, t_max = proc.t_min_c, proc.t_max_c
    results: list[Optional[SimResult]] = [None] * len(configs)
    active = list(enumerate(runs))
    live = list(range(n))
    for round_idx in range(max(config.rounds for config in configs)):
        # (1) the shared pass; round 0 used the set-up values
        if round_idx > 0:
            row = trace_rows[round_idx] if trace_rows is not None else None
            for i in live:
                if row is not None:
                    t = row[i]
                else:
                    # min(max(t, t_min), t_max), without two builtin calls
                    t = temps[i] + sigma * walks[i].gauss(0.0, 1.0)
                    t = t_min if t_min > t else (t_max if t_max < t else t)
                temps[i] = t
                loss = rssi_loss_from_temperature(t)
                losses[i] = loss
                comp[i] = power_level_for_rssi_loss(loss)
            if prr_streams is not None:
                for i in live:
                    draws[i] = prr_streams[i].random()

        # (2)-(4) in each member, which yields once the round is done
        dropped = False
        for k, run in active:
            try:
                dropped |= next(run)
            except StopIteration as stop:
                results[k] = stop.value
                dropped = True
        if dropped:
            active = [(k, run) for k, run in active if results[k] is None]
            if not active:
                break
            live = [i for i in live if refs[i]]
    return results


def _member_rounds(
    config: SimConfig,
    keep: Optional[frozenset[int]],
    deployment: Deployment,
    temps: list[float],
    losses: list[float],
    comp: list[float],
    draws: Optional[list[float]],
    refs: list[int],
) -> Generator[bool, None, SimResult]:
    """One member's rounds: each ``next()`` runs one round on the shared
    values of that round, yields whether any of its nodes died, and the
    generator returns the member's SimResult after its last round.

    The shared lists are read, never written, except ``refs``, which counts
    down as this member's nodes die or its run ends.
    """
    nodes = deployment.nodes
    n = len(nodes)
    base_dbm = [
        free_space_base_requirement(distance(node.pos, deployment.reference_pos), config.link_budget)
        for node in nodes
    ]

    # Round-0 set-up: regions, desired counts and initial levels come from
    # the round-0 losses of every node.
    partition = partition_regions(dict(enumerate(losses)), config.regions)
    region_of = [REGIONS.index(partition.assignment[i]) for i in range(n)]
    desired = init_desired_neighbors(partition)
    n_desired = [desired[r] for r in REGIONS]
    n_current = [partition.counts[r] for r in REGIONS]
    threshold_loss = [config.regions.threshold_loss_dbm[r] for r in REGIONS]
    threshold_level = [config.regions.threshold_level_dbm(r) for r in REGIONS]
    last_round: list[Optional[int]] = [None, None, None]
    last_estimated = [0.0] * n
    cap = config.level_cap_dbm
    is_east = config.controller == "east"
    if is_east:
        levels = [min(threshold_level[k], cap) for k in region_of]
    else:
        # The baseline's level never changes: the worst-case compensation.
        levels = [min(classical_assign(config.temperature.t_max_c), cap)] * n
    # Transmit power and the ACK/data tx costs it fixes; the costs are
    # recomputed only when a node's power changes.
    pt = [math.nan] * n
    ack_tx_j = [0.0] * n
    data_tx_j = [0.0] * n
    batteries = [node.battery_j for node in nodes]
    alive = [True] * n
    alive_flags = tuple(alive)
    live = list(range(n))
    members: list[list[int]] = [[], [], []]
    for i in live:
        members[region_of[i]].append(i)
    # A dead node's temperature and loss as of its death; the shared lists
    # move on while the node lives in another member.
    frozen: dict[int, tuple[float, float]] = {}

    energy = config.energy
    beacon_rx_j = rx_energy(energy.beacon_bits, energy)
    prr_params = config.prr
    cadence = config.cadence
    sampled = draws if config.prr_sampled else None
    ledger_tx = ledger_rx = 0.0

    result = SimResult(config=config, deployment=deployment, partition=partition, desired=desired)
    traffic = result.traffic

    for round_idx in range(config.rounds):
        if round_idx > 0:
            # Hand back the round just run; resume once the shared pass of
            # this round is done.
            yield died

        # (2) closed-loop schedule
        if is_east:
            exchanging = [
                needs_closed_loop(round_idx, last_round[k], cadence, losses, last_estimated, members[k])
                for k in range(3)
            ]
            acks_this = 0
            for k in range(3):
                if exchanging[k]:
                    last_round[k] = round_idx
                    acks_this += len(members[k])
                    for i in members[k]:
                        last_estimated[i] = losses[i]
                    n_current[k] = len(members[k])
            beacons_this = 1 if any(exchanging) else 0
        else:
            # Baseline: full beacon/ACK exchange every round.
            exchanging = [True, True, True]
            beacons_this = 1
            acks_this = len(live)
        traffic.beacons_sent += beacons_this
        traffic.acks_sent += acks_this

        # (3) one pass over the alive nodes in id order: level, power, one
        # data packet and its reception quality, the beacon rx, ACK tx and
        # data tx debits, each capped at the remaining battery so draw always
        # equals tx + rx exactly, and death on an empty battery. The caps are
        # conditionals that pick what min() would, without a call per debit.
        prr_all = []
        prr_by_region: list[list[float]] = [[], [], []]
        tx_this = 0.0
        rx_this = 0.0
        died = False
        for i in live:
            k = region_of[i]
            loss = losses[i]
            if is_east:
                level = east_assign(levels[i], loss, threshold_loss[k], threshold_level[k],
                                    n_current[k], n_desired[k])
                levels[i] = level = cap if cap < level else level
            else:
                level = levels[i]
            power = base_dbm[i] + level
            if power != pt[i]:
                pt[i] = power
                ack_tx_j[i] = tx_energy(power, energy.ack_bits, energy)
                data_tx_j[i] = tx_energy(power, energy.data_bits, energy)

            prr = prr_from_margin(level - comp[i], prr_params)
            if sampled is not None:
                prr = 1.0 if sampled[i] < prr else 0.0
            prr_all.append(prr)
            prr_by_region[k].append(prr)

            battery = batteries[i]
            if exchanging[k]:
                spend = beacon_rx_j
                if battery < spend:
                    spend = battery
                battery -= spend
                ledger_rx += spend
                rx_this += spend
                spend = ack_tx_j[i]
                if battery < spend:
                    spend = battery
                battery -= spend
                ledger_tx += spend
                tx_this += spend
            spend = data_tx_j[i]
            if battery < spend:
                spend = battery
            battery -= spend
            ledger_tx += spend
            tx_this += spend
            batteries[i] = battery
            if battery <= 0.0:
                alive[i] = False
                died = True
                frozen[i] = (temps[i], loss)
                refs[i] -= 1

        # (4) record; the region and mean PRR sum each round's values in id
        # order
        region_prr = {
            r: sum(values) / len(values) if values else math.nan
            for r, values in zip(REGIONS, prr_by_region)
        }
        prr_mean = sum(prr_all) / len(prr_all)
        if died:
            live = [i for i in live if alive[i]]
            members = [[i for i in m if alive[i]] for m in members]
            alive_flags = tuple(alive)
        final = not live or round_idx == config.rounds - 1
        kept = keep is None or final or round_idx in keep
        if kept:
            kept_temps = temps[:]
            kept_losses = losses[:]
            for i, (temp, loss) in frozen.items():
                kept_temps[i] = temp
                kept_losses[i] = loss
        result.records.append(
            RoundRecord(
                round_index=round_idx,
                beacons=beacons_this,
                acks=acks_this,
                tx_energy_j=tx_this,
                rx_energy_j=rx_this,
                temps_c=kept_temps if kept else None,
                losses_dbm=kept_losses if kept else None,
                levels_dbm=levels[:] if kept else None,
                pt_dbm=pt[:] if kept else None,
                alive=alive_flags,
                region_alive={r: len(m) for r, m in zip(REGIONS, members)},
                region_prr=region_prr,
                prr_mean=prr_mean,
            )
        )
        if not live:
            result.extinction_round = round_idx
            break

    for i in live:
        refs[i] -= 1
    result.ledger.tx_j = ledger_tx
    result.ledger.rx_j = ledger_rx
    for node, k, battery, is_alive in zip(nodes, region_of, batteries, alive):
        node.region = REGIONS[k]
        node.battery_j = battery
        node.alive = is_alive
    return result
