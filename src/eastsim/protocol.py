"""Region-based transmission power controller and the max-power baseline.

A reference node estimates each neighbor's temperature-induced power loss
via beacon/ACK exchanges. Nodes are split once into three regions (A: high
loss, B: medium, C: low); each region carries a loss threshold, the power
level compensating that threshold, and a desired neighbor count. Per round
each node's level follows three rules:

  (i)   loss >= threshold and n_current >= n_desired -> region threshold level
  (ii)  loss >= threshold and n_current <  n_desired -> own compensation
        level, never decreasing
  (iii) loss <  threshold                            -> level unchanged

A region's neighbor count only falls, and until it falls below the desired
count, rule (i) gives the threshold level a node starts at and rule (iii)
keeps the level: only rule (ii) moves a level off its start.

The baseline runs the same per-region step, with every region exchanging
every round at the worst-case compensation level, which no rule moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .radio import power_level_for_rssi_loss, rssi_loss_from_temperature

# Desired neighbor count per region sits this far below the initial count.
DESIRED_NEIGHBOR_DEFICIT = 5


class Region(Enum):
    A = "A"
    B = "B"
    C = "C"


REGIONS = (Region.A, Region.B, Region.C)


@dataclass(frozen=True)
class RegionConfig:
    """Partition cuts and per-region controller thresholds.

    Nodes with loss above ``boundary_high_dbm`` land in A, between the two
    boundaries in B, and at or below ``boundary_low_dbm`` in C. Threshold
    power levels are always derived from the threshold losses through the
    compensation curve, never stored independently.
    """

    boundary_high_dbm: float = -0.61
    boundary_low_dbm: float = -5.17
    threshold_loss_dbm: Mapping[Region, float] = field(
        default_factory=lambda: {Region.A: 3.78, Region.B: -0.61, Region.C: -5.17}
    )

    def threshold_level_dbm(self, region: Region) -> float:
        return power_level_for_rssi_loss(self.threshold_loss_dbm[region])


@dataclass(frozen=True)
class CadenceParams:
    """Closed-loop schedule: run an exchange every ``period_rounds`` rounds,
    or sooner when some node's predicted loss drifts more than ``drift_dbm``
    from its last measured value."""

    period_rounds: int = 10
    drift_dbm: float = 1.0


@dataclass
class ControlTraffic:
    beacons_sent: int = 0
    acks_sent: int = 0


def partition_regions(losses_dbm: Sequence[float], cfg: RegionConfig) -> tuple[Region, ...]:
    """Each node's region by loss severity; entry ``i`` is node ``i``'s."""
    if not losses_dbm:
        raise ValueError("cannot partition an empty loss list")
    partition = []
    for loss in losses_dbm:
        if loss > cfg.boundary_high_dbm:
            region = Region.A
        elif loss > cfg.boundary_low_dbm:
            region = Region.B
        else:
            region = Region.C
        partition.append(region)
    return tuple(partition)


def init_desired_neighbors(partition: Sequence[Region]) -> dict[Region, int]:
    """Desired neighbor count per region: initial count minus 5, floored at 1
    so that regions of 5 or fewer nodes (desk-scale networks) still get a
    positive target."""
    return {
        region: max(partition.count(region) - DESIRED_NEIGHBOR_DEFICIT, 1)
        for region in REGIONS
    }


def east_assign(
    level_dbm: float,
    loss_dbm: float,
    threshold_loss_dbm: float,
    threshold_level_dbm: float,
    n_current: int,
    n_desired: int,
) -> float:
    """New power level for one node under the three-rule table, given its
    current level and loss and its region's threshold loss and level,
    current neighbor count and desired neighbor count."""
    if loss_dbm >= threshold_loss_dbm:
        if n_current >= n_desired:
            return threshold_level_dbm
        return max(level_dbm, power_level_for_rssi_loss(loss_dbm))
    return level_dbm


def classical_assign(t_max_c: float) -> float:
    """Baseline level: compensation for the worst-case temperature.

    Constant across nodes and rounds; every node transmits as if it sat at
    the hottest configured temperature.
    """
    return power_level_for_rssi_loss(rssi_loss_from_temperature(t_max_c))


def needs_closed_loop(
    round_idx: int,
    last_round: Optional[int],
    cadence: CadenceParams,
    predicted_loss_dbm: Sequence[float],
    last_estimated_loss_dbm: Sequence[float],
    members: Iterable[int],
) -> bool:
    """Whether a region must run a beacon/ACK exchange this round.

    ``last_round`` is the region's last exchange round (None before the
    first); the two loss sequences are indexed by node id and read only at
    ``members``. True when no exchange has happened yet, the period has
    elapsed, or some member's locally predicted loss drifted past the drift
    bound since the last exchange. Rounds returning False cost the region
    no control packets.
    """
    if last_round is None:
        return True
    if round_idx - last_round >= cadence.period_rounds:
        return True
    drift = cadence.drift_dbm
    # A plain loop: any() over a generator costs more per scanned member.
    for i in members:
        if abs(predicted_loss_dbm[i] - last_estimated_loss_dbm[i]) > drift:
            return True
    return False
