"""Deterministic discrete-round executor.

The nodes are deployed once. Each round, round 0 included, then runs a
fixed sequence. One shared step sets every node's temperature from the
round's row of the trace or of the synthetic walk (the base temperatures in
round 0, a Gaussian step after that), which the walk cache holds once it has
been drawn, then its loss and the compensation level of that loss, through
``radio.loss_row`` and ``radio.level_row``, once per round each. In round 0
set-up follows: partition the nodes into regions by those losses, derive
the desired neighbor counts and give every node its level (its region's
threshold level, or the baseline's worst-case level) and tx costs. Then
decide which regions run a closed-loop exchange, reassign the levels in each
east region short of neighbors, then in one pass over the alive nodes in id
order score each node's data packet, debit its energy and retire it if
depleted, and finally record metrics. The baseline runs the same per-region
step, with every region exchanging every round at the worst-case level,
which no rule moves. Identical (config, seed) pairs produce identical
output, record for record.

Configs that share the seed, node count, area and temperature source can run
as one lockstep group: the deployment and each node's temperatures, losses
and random draws are made once per round for the whole group, and each
member runs the rest of the round on them. Members that also share every
controller input are twins, and twins that have lost no node share a
round's PRR scoring.

Per-node state lives in flat lists indexed by node id, as the deployment's
positions and base temperatures do, and regions in the kernel are the
indices 0/1/2 of ``REGIONS``.
"""

from __future__ import annotations

import math
from math import cos, exp, hypot, log, sin, sqrt
from types import SimpleNamespace
from typing import Collection, Generator, NamedTuple, Optional, Sequence

from . import config as config_mod
from .config import SimConfig
from .protocol import (
    REGIONS,
    ControlTraffic,
    Region,
    classical_assign,
    east_assign,
    init_desired_neighbors,
    needs_closed_loop,
    partition_regions,
)
from .radio import (
    free_space_base_requirement,
    level_row,
    loss_row,
    # not called; perfbench/tracer.py wraps these three names here
    power_level_for_rssi_loss,  # noqa: F401
    prr_from_margin,  # noqa: F401
    rssi_loss_from_temperature,  # noqa: F401
    rx_energy,
    tx_energy,
)
from .topology import (
    Deployment,
    TemperatureProcess,
    deploy_random,
    substream,
    walk_rows,
    walk_stream,
)


class RoundRecord(NamedTuple):
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


class SimResult(SimpleNamespace):
    """One run, made with every field below as a keyword; the run appends to
    its own ``records`` list. Equality and repr are over the fields."""

    config: SimConfig
    deployment: Deployment
    # each node's region, by node id
    partition: tuple[Region, ...]
    desired: dict[Region, int]
    # each node's battery after its last round, by node id
    batteries_j: list[float]
    records: list[RoundRecord]

    # Every total is read off the records, the run's only account.
    @property
    def traffic(self) -> ControlTraffic:
        return ControlTraffic(sum(r.beacons for r in self.records), sum(r.acks for r in self.records))

    @property
    def extinction_round(self) -> Optional[int]:
        final = self.records[-1]
        return None if any(final.alive) else final.round_index

    @property
    def survivors(self) -> int:
        return sum(self.records[-1].alive)

    @property
    def control_packets(self) -> int:
        return sum(r.beacons + r.acks for r in self.records)

    @property
    def total_energy_j(self) -> float:
        # battery draw, all node-side tx and rx: the reference node is mains powered
        return sum(r.tx_energy_j for r in self.records) + sum(r.rx_energy_j for r in self.records)

    @property
    def mean_prr(self) -> float:
        return sum(r.prr_mean for r in self.records) / len(self.records)


class Lockstep:
    """The simulations of one command, which ``run_simulation`` runs as a
    batch: configs that share the seed, node count, area side and
    temperature source form one group, run one round at a time on a shared
    deployment and temperature walk.

    It exists so that callers still get each member's result through one
    ``run_simulation(config, keep_rounds, lockstep=batch)`` call per
    simulation, which is what code wrapping that function expects to see:
    ``perfbench/tracer.py`` reads one SimResult per call, and tests record
    the results the CLI gets. The first such call runs every group; the
    later ones return what it kept.
    """

    def __init__(self, configs: Sequence[SimConfig], keep_rounds: Optional[Collection[int]] = None):
        self.configs = list(configs)
        self.keep = None if keep_rounds is None else frozenset(keep_rounds)
        self.results: Optional[dict[int, SimResult]] = None

    def result(self, config: SimConfig, keep_rounds: Optional[Collection[int]]) -> SimResult:
        keep = None if keep_rounds is None else frozenset(keep_rounds)
        if keep != self.keep:
            raise ValueError("keep_rounds differs from the one the lockstep batch runs with")
        if not any(member is config for member in self.configs):
            raise ValueError("config is not a member of this lockstep batch")
        if self.results is None:
            groups: list[list[SimConfig]] = []
            for member in self.configs:
                for group in groups:
                    if _shared_inputs(group[0]) == _shared_inputs(member):
                        group.append(member)
                        break
                else:
                    groups.append([member])
            self.results = {}
            for group in groups:
                for member, result in zip(group, _run_group(group, self.keep)):
                    self.results[id(member)] = result
        return self.results[id(config)]


def _shared_inputs(config: SimConfig) -> tuple:
    """The inputs that fix the deployment and every node's temperatures."""
    return (config.seed, config.node_count, config.area_side_m, config.temperature)


def _controller_inputs(config: SimConfig) -> tuple:
    """The inputs that, within one group, fix every level and PRR value
    until a node dies: until then each level keeps its set-up value. The
    other inputs (cadence, energy model, link budget, rounds) reach the
    levels only through a region's neighbor count, which changes only at an
    exchange after a death."""
    return (config.controller, config.level_cap_dbm, config.regions, config.prr,
            config.prr_sampled)


def run_simulation(
    config: SimConfig,
    keep_rounds: Optional[Collection[int]] = None,
    lockstep: Optional[Lockstep] = None,
) -> SimResult:
    """Run the configured experiment; fewer records than ``rounds`` only on
    extinction.

    ``keep_rounds`` names the rounds whose records carry per-node vectors;
    the final round always does. None keeps them on every round.
    ``lockstep``, when given, is the batch ``config`` belongs to; its result
    equals that of a run on its own.
    """
    if lockstep is not None:
        return lockstep.result(config, keep_rounds)
    return _run_group([config], None if keep_rounds is None else frozenset(keep_rounds))[0]


def _run_group(configs: list[SimConfig], keep: Optional[frozenset[int]]) -> list[SimResult]:
    """Advance every config one round at a time.

    Each round, round 0 included, starts with one shared step over every
    node, which rewrites the shared lists in place: the temperatures, their
    losses, the compensation levels of those losses and, if any member
    samples PRR, each node's uniform draw. The temperatures come from one
    iterator of per-round rows for the group's longest member: the trace's
    rows, cropped to the run, or ``topology.walk_rows``, which reads the
    walk from the walk cache or draws it with ``_walk_steps`` and writes it
    there; either way one row is held at a time. Then each unfinished member
    runs its round on those values; a member's set-up runs at its first
    ``next()``, after round 0's step. Sharing is exact because every node
    draws from its own streams once per round, in a group just as in a run
    on its own; a member reads a node's values only while the node is alive
    there.

    Members with equal ``_controller_inputs`` that have lost no node share
    a round's scoring: each member gets the scoring cell of the first config
    with its controller inputs (see ``_member_rounds``). This loop only steps
    the members.
    """
    for config in configs:
        config_mod.validate(config)
    first = configs[0]
    proc = first.temperature
    n_rounds = max(config.rounds for config in configs)

    deployment = deploy_random(
        first.node_count,
        first.area_side_m,
        first.seed,
        t_min_c=proc.t_min_c,
        t_max_c=proc.t_max_c,
    )
    n = len(deployment.x_m)
    # Every temperature lies in [t_min_c, t_max_c] (a trace value checked
    # at load, or a clamped walk step), as the unchecked loss_row and
    # level_row require.
    if proc.trace is not None:
        rows = (row[:n] for row in proc.trace.rows[:n_rounds])
    else:
        rows = walk_rows(first.seed, n, n_rounds, proc,
                         _walk_steps(first.seed, deployment.base_temp_c, proc, n_rounds))
    temps: list[float] = []
    losses: list[float] = []
    comp: list[float] = []
    if any(config.prr_sampled for config in configs):
        prr_streams = [substream(first.seed, "prr", i) for i in range(n)]
        draws: Optional[list[float]] = []
    else:
        prr_streams = draws = None

    keys = [_controller_inputs(config) for config in configs]
    cells = [[None, None, None] for _ in configs]
    runs = [
        _member_rounds(config, keep, deployment, temps, losses, comp, draws, cells[keys.index(key)])
        for config, key in zip(configs, keys)
    ]

    results: list[Optional[SimResult]] = [None] * len(configs)
    active = list(enumerate(runs))
    try:
        for row in rows:
            # (1) the shared step
            temps[:] = row
            losses[:] = loss_row(temps)
            comp[:] = level_row(losses)
            if prr_streams is not None:
                draws[:] = [stream.random() for stream in prr_streams]

            # (2)-(4) in each member, which yields once the round is done
            for k, run in active:
                try:
                    next(run)
                except StopIteration as stop:
                    results[k] = stop.value
            active = [(k, run) for k, run in active if results[k] is None]
            if not active:
                break
    finally:
        # the walk cache keeps a walk only once all its rows were read
        rows.close()
    return results


def _walk_steps(
    seed: int, base_temp_c: Sequence[float], proc: TemperatureProcess, n_rounds: int
) -> Generator[Sequence[float], None, None]:
    """The synthetic walk's rows for rounds 0 to ``n_rounds - 1``: the base
    temperatures, then per round every node's Gaussian step of
    ``walk_sigma_c`` on its own walk stream, clamped to [t_min_c, t_max_c].
    The streams are seeded at the first ``next()``."""
    walks = [walk_stream(seed, i).random for i in range(len(base_temp_c))]
    sigma = proc.walk_sigma_c
    t_min, t_max = proc.t_min_c, proc.t_max_c
    two_pi = 2.0 * math.pi
    temps = base_temp_c
    yield temps
    # Every node steps every round, so all draw their Box-Muller pairs in the
    # same rounds: spare is every node's cached second normal, or None.
    spare: Optional[list[float]] = None
    for _ in range(1, n_rounds):
        # Random.gauss(0.0, 1.0) written out: the same Box-Muller arithmetic
        # and cached spare, and the same mu + z * sigma, where 0.0 + z turns
        # a -0.0 draw into 0.0 as gauss does.
        if spare is None:
            # every node draws from its own stream, so each still takes its
            # x2pi from its first draw and its g2rad from its second
            x2pis = [rand() * two_pi for rand in walks]
            g2rads = [sqrt(-2.0 * log(1.0 - rand())) for rand in walks]
            normals = [cos(x2pi) * g2rad for x2pi, g2rad in zip(x2pis, g2rads)]
            spare = [sin(x2pi) * g2rad for x2pi, g2rad in zip(x2pis, g2rads)]
        else:
            normals, spare = spare, None
        stepped = [t + sigma * (0.0 + z) for t, z in zip(temps, normals)]
        # min(max(t, t_min), t_max), without two builtin calls
        temps = [t_min if t_min > t else (t_max if t_max < t else t) for t in stepped]
        yield temps


def _member_rounds(
    config: SimConfig,
    keep: Optional[frozenset[int]],
    deployment: Deployment,
    temps: list[float],
    losses: list[float],
    comp: list[float],
    draws: Optional[list[float]],
    scored: list,
) -> Generator[None, None, SimResult]:
    """One member's rounds: each ``next()`` runs one round on the shared
    values of that round, and the generator returns the member's SimResult
    after its last round. The deployment and the shared lists are read,
    never written.

    ``scored`` is the ``[round, region_prr, prr_mean]`` cell this member
    shares with its twins. Members with equal controller inputs that have
    lost no node share a round's scoring: such a member reads the round's
    region and mean PRR from the cell when a twin has written it this round,
    else scores PRR itself and writes the cell. A member that has lost a
    node scores its own and leaves the cell alone. A member that has lost no
    node still has every node alive and its set-up levels (see the level
    step), so any two such twins score a round alike, in whatever order.
    """
    n = len(deployment.x_m)
    ref_x, ref_y = deployment.reference_m
    base_dbm = [
        free_space_base_requirement(hypot(x - ref_x, y - ref_y), config.link_budget)
        for x, y in zip(deployment.x_m, deployment.y_m)
    ]

    # Round-0 set-up: regions, desired counts and initial levels come from
    # the round-0 losses of every node.
    partition = partition_regions(losses, config.regions)
    region_of = [REGIONS.index(r) for r in partition]
    desired = init_desired_neighbors(partition)
    n_desired = [desired[r] for r in REGIONS]
    threshold_loss = [config.regions.threshold_loss_dbm[r] for r in REGIONS]
    is_east = config.controller == "east"
    # The baseline's level in every region is the worst-case compensation.
    threshold_level = ([config.regions.threshold_level_dbm(r) for r in REGIONS] if is_east
                       else [classical_assign(config.temperature.t_max_c)] * 3)
    # Each region's last exchange round and the losses it measured then.
    last_round: list[Optional[int]] = [None, None, None]
    estimated: list[Optional[list[float]]] = [None, None, None]
    cap = config.level_cap_dbm
    levels = [min(threshold_level[k], cap) for k in region_of]
    # The ACK/data tx costs fixed by each transmit power, base + level; the
    # costs are recomputed only when the level step moves a node's level.
    energy = config.energy
    ack_tx_j = [tx_energy(base + level, energy.ack_bits, energy)
                for base, level in zip(base_dbm, levels)]
    data_tx_j = [tx_energy(base + level, energy.data_bits, energy)
                 for base, level in zip(base_dbm, levels)]
    batteries = [energy.initial_battery_j] * n
    alive = [True] * n
    alive_flags = tuple(alive)
    live = list(range(n))
    members: list[list[int]] = [[], [], []]
    for i in live:
        members[region_of[i]].append(i)
    n_current = [len(m) for m in members]
    # A dead node's temperature as of its death; the shared lists move on
    # while the node lives in another member.
    frozen: dict[int, float] = {}

    beacon_rx_j = rx_energy(energy.beacon_bits, energy)
    neg_alpha = -config.prr.alpha_per_db
    beta = config.prr.beta_db
    cadence = config.cadence
    sampled = draws if config.prr_sampled else None

    result = SimResult(config=config, deployment=deployment, partition=partition, desired=desired,
                       batteries_j=batteries, records=[])

    for round_idx in range(config.rounds):
        if round_idx > 0:
            # Hand back the round just run; resume once the shared pass of
            # this round is done.
            yield

        # (2) closed-loop schedule and levels: the baseline exchanges in
        # every region every round.
        exchanging = [not is_east or needs_closed_loop(round_idx, last_round[k], cadence, losses,
                                                       estimated[k], members[k])
                      for k in range(3)]
        acks_this = 0
        for k in range(3):
            if exchanging[k]:
                last_round[k] = round_idx
                acks_this += len(members[k])
                estimated[k] = losses[:]
                n_current[k] = len(members[k])
            # Levels and tx costs move only here. A region's neighbor count
            # only falls; until it is short of the desired count, rule (i)
            # gives the threshold level, which validate keeps at or below the
            # cap, and rule (iii) keeps the level, so the set-up levels hold
            # and only short regions assign. The baseline's regions skip the
            # step: rule (ii) would keep its level, the compensation of the
            # loss at t_max_c, which no loss exceeds, under the same cap.
            if is_east and n_current[k] < n_desired[k]:
                for i in members[k]:
                    level = east_assign(levels[i], losses[i], threshold_loss[k],
                                        threshold_level[k], n_current[k], n_desired[k])
                    level = cap if cap < level else level
                    if level != levels[i]:
                        levels[i] = level
                        power = base_dbm[i] + level
                        ack_tx_j[i] = tx_energy(power, energy.ack_bits, energy)
                        data_tx_j[i] = tx_energy(power, energy.data_bits, energy)
        beacons_this = 1 if any(exchanging) else 0

        # (3) one pass over the alive nodes in id order: one data packet's
        # reception quality (unless the member follows its cell), the
        # beacon rx, ACK tx and data tx debits, each capped at the remaining
        # battery so draw always equals tx + rx exactly, and death on an
        # empty battery. The caps are conditionals that pick what min()
        # would, without a call per debit.
        pristine = len(live) == n
        follows = pristine and scored[0] == round_idx
        prr_all = []
        prr_by_region: list[list[float]] = [[], [], []]
        tx_this = 0.0
        rx_this = 0.0
        died = False
        for i in live:
            k = region_of[i]
            if not follows:
                # prr_from_margin written out; both operands are finite.
                try:
                    prr = 1.0 / (1.0 + exp(neg_alpha * (levels[i] - comp[i] - beta)))
                except OverflowError:
                    prr = 0.0
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
                rx_this += spend
                spend = ack_tx_j[i]
                if battery < spend:
                    spend = battery
                battery -= spend
                tx_this += spend
            spend = data_tx_j[i]
            if battery < spend:
                spend = battery
            battery -= spend
            tx_this += spend
            batteries[i] = battery
            if battery <= 0.0:
                alive[i] = False
                died = True
                frozen[i] = temps[i]

        # (4) record; the region and mean PRR sum each round's values in id
        # order
        if follows:
            region_prr = dict(scored[1])
            prr_mean = scored[2]
        else:
            region_prr = {
                r: sum(values) / len(values) if values else math.nan
                for r, values in zip(REGIONS, prr_by_region)
            }
            prr_mean = sum(prr_all) / len(prr_all)
            if pristine:
                scored[:] = round_idx, region_prr, prr_mean
        if died:
            live = [i for i in live if alive[i]]
            members = [[i for i in m if alive[i]] for m in members]
            alive_flags = tuple(alive)
        final = not live or round_idx == config.rounds - 1
        kept = keep is None or final or round_idx in keep
        if kept:
            kept_temps = temps[:]
            for i, temp in frozen.items():
                kept_temps[i] = temp
            # the shared step's arithmetic, so a live node's loss is its shared one
            kept_losses = loss_row(kept_temps)
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
                pt_dbm=[base + level for base, level in zip(base_dbm, levels)] if kept else None,
                alive=alive_flags,
                region_alive={r: len(m) for r, m in zip(REGIONS, members)},
                region_prr=region_prr,
                prr_mean=prr_mean,
            )
        )
        if not live:
            break
    return result
