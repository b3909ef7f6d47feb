"""Deterministic discrete-round executor.

Set-up runs once, before the first round: deploy the nodes, take their
round-0 temperatures and losses, partition them into regions, derive the
desired neighbor counts and give every node its region's capped threshold
level. Each round then runs a fixed sequence: advance temperatures (from
round 1 on), run the selected controller (region-based feedback or max-power
baseline), recompute each node's transmit power, send one data packet per
alive node, debit energy, kill depleted nodes, and record metrics. Identical
(config, seed) pairs produce identical output, record for record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import config as config_mod
from .config import SimConfig
from .errors import ConfigError
from .protocol import (
    REGIONS,
    ControllerState,
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
    """Everything observed in one executed round."""

    round_index: int
    beacons: int
    acks: int
    tx_energy_j: float
    rx_energy_j: float
    temps_c: list[float]
    losses_dbm: list[float]
    levels_dbm: list[float]
    pt_dbm: list[float]
    alive: list[bool]
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


def run_simulation(config: SimConfig) -> SimResult:
    """Run the configured experiment; fewer records than ``rounds`` only on
    extinction."""
    config_mod.validate(config)
    proc = config.temperature
    if proc.mode == "trace":
        if proc.trace_nodes < config.node_count or proc.trace_rounds < config.rounds:
            raise ConfigError(
                f"temperature.trace_path: trace covers {proc.trace_nodes} nodes x "
                f"{proc.trace_rounds} rounds, run needs {config.node_count} x {config.rounds}"
            )

    deployment = deploy_random(
        config.node_count,
        config.area_side_m,
        config.seed,
        t_min_c=proc.t_min_c,
        t_max_c=proc.t_max_c,
        initial_battery_j=config.energy.initial_battery_j,
    )
    nodes = deployment.nodes
    if proc.mode == "trace":
        for node in nodes:
            node.base_temp_c = proc.trace[(node.node_id, 0)]
            node.current_temp_c = node.base_temp_c

    base_dbm = {
        node.node_id: free_space_base_requirement(
            distance(node.pos, deployment.reference_pos), config.link_budget
        )
        for node in nodes
    }
    cap = config.level_cap_dbm
    baseline_level = min(classical_assign(proc.t_max_c), cap)
    is_east = config.controller == "east"
    energy = config.energy
    beacon_rx_j = rx_energy(energy.beacon_bits, energy)

    walks = {node.node_id: walk_stream(config.seed, node.node_id) for node in nodes}
    prr_streams = (
        {node.node_id: substream(config.seed, "prr", node.node_id) for node in nodes}
        if config.prr_sampled
        else None
    )

    # Round-0 set-up: regions, desired counts and initial levels come from
    # the round-0 losses of every node.
    losses = {node.node_id: rssi_loss_from_temperature(node.current_temp_c) for node in nodes}
    last_loss = dict(losses)
    partition = partition_regions(losses, config.regions)
    for node in nodes:
        node.region = partition.assignment[node.node_id]
        node.assigned_level_dbm = min(config.regions.threshold_level_dbm(node.region), cap)
    desired = init_desired_neighbors(partition)
    state = ControllerState(
        n_current=dict(partition.counts),
        n_desired=desired,
        last_closed_loop_round={r: None for r in REGIONS},
        last_estimated_loss={},
    )
    result = SimResult(
        config=config, deployment=deployment, partition=partition, desired=desired
    )
    ledger = result.ledger
    traffic = result.traffic

    for round_idx in range(config.rounds):
        alive_nodes = [node for node in nodes if node.alive]

        # (1) temperatures and their losses; round 0 used the set-up values
        if round_idx > 0:
            if proc.mode == "trace":
                for node in alive_nodes:
                    node.current_temp_c = proc.trace[(node.node_id, round_idx)]
            else:
                for node in alive_nodes:
                    step = proc.walk_sigma_c * walks[node.node_id].gauss(0.0, 1.0)
                    node.current_temp_c = min(
                        max(node.current_temp_c + step, proc.t_min_c), proc.t_max_c
                    )
            losses = {
                node.node_id: rssi_loss_from_temperature(node.current_temp_c)
                for node in alive_nodes
            }
            last_loss.update(losses)

        # (2) controller step
        members = {r: [n.node_id for n in alive_nodes if n.region is r] for r in REGIONS}
        if is_east:
            exchanging = [
                r
                for r in REGIONS
                if needs_closed_loop(r, round_idx, state, config.cadence, losses, members[r])
            ]
            beacons_this = 1 if exchanging else 0
            acks_this = 0
            for region in exchanging:
                state.last_closed_loop_round[region] = round_idx
                acks_this += len(members[region])
                for node_id in members[region]:
                    state.last_estimated_loss[node_id] = losses[node_id]
                state.n_current[region] = len(members[region])
            exchange_regions = set(exchanging)
            for node in alive_nodes:
                new_level = east_assign(node, node.region, losses[node.node_id], state, config.regions)
                node.assigned_level_dbm = min(new_level, cap)
        else:
            # Baseline: full beacon/ACK exchange and worst-case level, every round.
            beacons_this = 1
            acks_this = len(alive_nodes)
            exchange_regions = set(REGIONS)
            for node in alive_nodes:
                node.assigned_level_dbm = baseline_level
        traffic.beacons_sent += beacons_this
        traffic.acks_sent += acks_this

        # (3) per-node transmit power
        for node in alive_nodes:
            node.assigned_pt_dbm = base_dbm[node.node_id] + node.assigned_level_dbm

        # (4) one data packet per alive node; reception quality from margin
        prr_values: dict[int, float] = {}
        for node in alive_nodes:
            needed_level = power_level_for_rssi_loss(losses[node.node_id])
            margin = node.assigned_level_dbm - needed_level
            prr = prr_from_margin(margin, config.prr)
            if prr_streams is not None:
                prr = 1.0 if prr_streams[node.node_id].random() < prr else 0.0
            prr_values[node.node_id] = prr

        # (5) energy: beacon rx, ACK tx, then data tx, each capped at the
        # remaining battery so batteries never go negative and draw always
        # equals tx + rx exactly
        tx_this = 0.0
        rx_this = 0.0
        for node in alive_nodes:
            battery = node.battery_j
            if node.region in exchange_regions:
                spend = min(beacon_rx_j, battery)
                battery -= spend
                ledger.rx_j += spend
                rx_this += spend
                spend = min(tx_energy(node.assigned_pt_dbm, energy.ack_bits, energy), battery)
                battery -= spend
                ledger.tx_j += spend
                tx_this += spend
            spend = min(tx_energy(node.assigned_pt_dbm, energy.data_bits, energy), battery)
            battery -= spend
            ledger.tx_j += spend
            tx_this += spend
            node.battery_j = battery

        # (6) deaths
        for node in alive_nodes:
            if node.battery_j <= 0.0:
                node.alive = False

        # (7) record
        region_alive = {
            r: sum(1 for n in nodes if n.alive and n.region is r) for r in REGIONS
        }
        region_prr = {}
        for region in REGIONS:
            ids = members[region]
            region_prr[region] = (
                sum(prr_values[i] for i in ids) / len(ids) if ids else math.nan
            )
        prr_mean = sum(prr_values[n.node_id] for n in alive_nodes) / len(alive_nodes)
        result.records.append(
            RoundRecord(
                round_index=round_idx,
                beacons=beacons_this,
                acks=acks_this,
                tx_energy_j=tx_this,
                rx_energy_j=rx_this,
                temps_c=[n.current_temp_c for n in nodes],
                losses_dbm=[last_loss[n.node_id] for n in nodes],
                levels_dbm=[n.assigned_level_dbm for n in nodes],
                pt_dbm=[n.assigned_pt_dbm for n in nodes],
                alive=[n.alive for n in nodes],
                region_alive=region_alive,
                region_prr=region_prr,
                prr_mean=prr_mean,
            )
        )

        if not any(node.alive for node in nodes):
            result.extinction_round = round_idx
            break

    return result
