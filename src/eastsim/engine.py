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

Per-node state lives in flat lists indexed by node id, and regions in the
kernel are the indices 0/1/2 of ``REGIONS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Optional

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


def run_simulation(config: SimConfig, keep_rounds: Optional[Collection[int]] = None) -> SimResult:
    """Run the configured experiment; fewer records than ``rounds`` only on
    extinction.

    ``keep_rounds`` names the rounds whose records carry per-node vectors;
    the final round always does. None keeps them on every round.
    """
    config_mod.validate(config)
    proc = config.temperature
    trace_rows = proc.trace.rows if proc.mode == "trace" else None
    keep = None if keep_rounds is None else frozenset(keep_rounds)

    deployment = deploy_random(
        config.node_count,
        config.area_side_m,
        config.seed,
        t_min_c=proc.t_min_c,
        t_max_c=proc.t_max_c,
        initial_battery_j=config.energy.initial_battery_j,
    )
    nodes = deployment.nodes
    n = len(nodes)
    if trace_rows is not None:
        temps = list(trace_rows[0][:n])
    else:
        temps = [node.base_temp_c for node in nodes]
    base_dbm = [
        free_space_base_requirement(distance(node.pos, deployment.reference_pos), config.link_budget)
        for node in nodes
    ]
    walks = [walk_stream(config.seed, i) for i in range(n)]
    prr_streams = (
        [substream(config.seed, "prr", i) for i in range(n)] if config.prr_sampled else None
    )

    # Round-0 set-up: regions, desired counts and initial levels come from
    # the round-0 losses of every node.
    losses = [rssi_loss_from_temperature(t) for t in temps]
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
        levels = [min(classical_assign(proc.t_max_c), cap)] * n
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

    energy = config.energy
    beacon_rx_j = rx_energy(energy.beacon_bits, energy)
    prr_params = config.prr
    cadence = config.cadence
    sigma = proc.walk_sigma_c
    t_min, t_max = proc.t_min_c, proc.t_max_c
    ledger_tx = ledger_rx = 0.0

    result = SimResult(config=config, deployment=deployment, partition=partition, desired=desired)
    traffic = result.traffic

    for round_idx in range(config.rounds):
        # (1) temperatures and their losses; round 0 used the set-up values
        if round_idx > 0:
            row = trace_rows[round_idx] if trace_rows is not None else None
            for i in live:
                if row is not None:
                    t = row[i]
                else:
                    t = min(max(temps[i] + sigma * walks[i].gauss(0.0, 1.0), t_min), t_max)
                temps[i] = t
                losses[i] = rssi_loss_from_temperature(t)

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
        # equals tx + rx exactly, and death on an empty battery
        prr_all = []
        prr_by_region: list[list[float]] = [[], [], []]
        tx_this = 0.0
        rx_this = 0.0
        died = False
        for i in live:
            k = region_of[i]
            loss = losses[i]
            if is_east:
                levels[i] = min(east_assign(levels[i], loss, threshold_loss[k], threshold_level[k],
                                            n_current[k], n_desired[k]), cap)
            level = levels[i]
            power = base_dbm[i] + level
            if power != pt[i]:
                pt[i] = power
                ack_tx_j[i] = tx_energy(power, energy.ack_bits, energy)
                data_tx_j[i] = tx_energy(power, energy.data_bits, energy)

            prr = prr_from_margin(level - power_level_for_rssi_loss(loss), prr_params)
            if prr_streams is not None:
                prr = 1.0 if prr_streams[i].random() < prr else 0.0
            prr_all.append(prr)
            prr_by_region[k].append(prr)

            battery = batteries[i]
            if exchanging[k]:
                spend = min(beacon_rx_j, battery)
                battery -= spend
                ledger_rx += spend
                rx_this += spend
                spend = min(ack_tx_j[i], battery)
                battery -= spend
                ledger_tx += spend
                tx_this += spend
            spend = min(data_tx_j[i], battery)
            battery -= spend
            ledger_tx += spend
            tx_this += spend
            batteries[i] = battery
            if battery <= 0.0:
                alive[i] = False
                died = True

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
        result.records.append(
            RoundRecord(
                round_index=round_idx,
                beacons=beacons_this,
                acks=acks_this,
                tx_energy_j=tx_this,
                rx_energy_j=rx_this,
                temps_c=temps[:] if kept else None,
                losses_dbm=losses[:] if kept else None,
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

    result.ledger.tx_j = ledger_tx
    result.ledger.rx_j = ledger_rx
    for node, k, battery, is_alive in zip(nodes, region_of, batteries, alive):
        node.region = REGIONS[k]
        node.battery_j = battery
        node.alive = is_alive
    return result
