"""Straight-line reference executor used to cross-check the engine.

Deliberately flat and slow: dicts, loops and inline formulas, no imports
from the package besides the config object it reads. Each round yields a
plain dict so tests can compare engine output record for record.
"""

import hashlib
import math
import random

REGION_NAMES = ("A", "B", "C")


def _stream(seed, *labels):
    key = ":".join([str(seed), *(str(label) for label in labels)])
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def reference_run(cfg):
    n = cfg.node_count
    side = cfg.area_side_m
    seed = cfg.seed
    lb = cfg.link_budget
    en = cfg.energy
    t_min = cfg.temperature.t_min_c
    t_max = cfg.temperature.t_max_c
    sigma = cfg.temperature.walk_sigma_c
    trace = cfg.temperature.trace if cfg.temperature.mode == "trace" else None

    def eq2(loss):
        return ((loss + 40.0) / 12.0) ** 2.91

    # deployment: node i draws x, y then its base temperature
    xs, ys, base_temp = {}, {}, {}
    for i in range(n):
        rng = _stream(seed, "deploy", i)
        xs[i] = rng.uniform(0.0, side)
        ys[i] = rng.uniform(0.0, side)
        base_temp[i] = _stream(seed, "base-temp", i).uniform(t_min, t_max)
    ref_x, ref_y = 0.0, side / 2.0

    lam = 299792458.0 / lb.frequency_hz
    noise_mw = lb.margin_m * lb.boltzmann_k * lb.temperature_kelvin * lb.bandwidth_hz / 1e-3
    base_dbm = {}
    for i in range(n):
        d = math.hypot(xs[i] - ref_x, ys[i] - ref_y)
        base_dbm[i] = (
            10.0 * math.log10(lb.eta)
            + lb.eb_n0_db
            + 10.0 * math.log10(noise_mw)
            + 20.0 * math.log10(4.0 * math.pi * d / lam)
            + lb.rnf_db
        )

    cap = cfg.level_cap_dbm
    thr_loss = {r.value: v for r, v in cfg.regions.threshold_loss_dbm.items()}
    thr_level = {k: eq2(v) for k, v in thr_loss.items()}
    baseline_level = min(eq2(0.1996 * (t_max - 25.0)), cap)
    east = cfg.controller == "east"

    walks = {i: _stream(seed, "temp-walk", i) for i in range(n)}
    prr_rng = {i: _stream(seed, "prr", i) for i in range(n)} if cfg.prr_sampled else None

    temp = dict(base_temp)
    if trace is not None:
        for i in range(n):
            temp[i] = trace.rows[0][i]
    battery = {i: en.initial_battery_j for i in range(n)}
    alive = {i: True for i in range(n)}
    level = {i: 0.0 for i in range(n)}
    pt = {i: 0.0 for i in range(n)}
    loss = {i: 0.0 for i in range(n)}
    region = {}
    desired = {}
    n_current = {}
    last_cl = {k: None for k in REGION_NAMES}
    last_est = {}

    records = []
    for rnd in range(cfg.rounds):
        live = [i for i in range(n) if alive[i]]

        if trace is not None:
            for i in live:
                temp[i] = trace.rows[rnd][i]
        elif rnd > 0:
            for i in live:
                t = temp[i] + sigma * walks[i].gauss(0.0, 1.0)
                temp[i] = min(max(t, t_min), t_max)

        cur_loss = {i: 0.1996 * (temp[i] - 25.0) for i in live}
        loss.update(cur_loss)

        if rnd == 0:
            for i in sorted(cur_loss):
                if cur_loss[i] > cfg.regions.boundary_high_dbm:
                    region[i] = "A"
                elif cur_loss[i] > cfg.regions.boundary_low_dbm:
                    region[i] = "B"
                else:
                    region[i] = "C"
            counts0 = {k: sum(1 for i in live if region[i] == k) for k in REGION_NAMES}
            desired = {k: max(counts0[k] - 5, 1) for k in REGION_NAMES}
            n_current = dict(counts0)
            for i in live:
                level[i] = min(thr_level[region[i]], cap)

        members = {k: [i for i in live if region[i] == k] for k in REGION_NAMES}
        beacons = 0
        acks = 0
        if east:
            exchanging = []
            for k in REGION_NAMES:
                if last_cl[k] is None:
                    need = True
                elif rnd - last_cl[k] >= cfg.cadence.period_rounds:
                    need = True
                else:
                    drift = max(
                        (abs(cur_loss[i] - last_est[i]) for i in members[k]), default=0.0
                    )
                    need = drift > cfg.cadence.drift_dbm
                if need:
                    exchanging.append(k)
            if exchanging:
                beacons = 1
            for k in exchanging:
                last_cl[k] = rnd
                acks += len(members[k])
                for i in members[k]:
                    last_est[i] = cur_loss[i]
                n_current[k] = len(members[k])
            exch = set(exchanging)
            for i in live:
                k = region[i]
                if cur_loss[i] >= thr_loss[k]:
                    if n_current[k] >= desired[k]:
                        new = thr_level[k]
                    else:
                        new = max(level[i], eq2(cur_loss[i]))
                else:
                    new = level[i]
                level[i] = min(new, cap)
        else:
            beacons = 1
            acks = len(live)
            for k in REGION_NAMES:
                last_cl[k] = rnd
                for i in members[k]:
                    last_est[i] = cur_loss[i]
                n_current[k] = len(members[k])
            exch = set(REGION_NAMES)
            for i in live:
                level[i] = baseline_level

        for i in live:
            pt[i] = base_dbm[i] + level[i]

        prr_vals = {}
        for i in live:
            margin = level[i] - eq2(cur_loss[i])
            p = 1.0 / (1.0 + math.exp(-cfg.prr.alpha_per_db * (margin - cfg.prr.beta_db)))
            if prr_rng is not None:
                p = 1.0 if prr_rng[i].random() < p else 0.0
            prr_vals[i] = p

        tx_this = 0.0
        rx_this = 0.0
        for i in live:
            costs = []
            if region[i] in exch:
                costs.append(("rx", en.e_elec_j_per_bit * en.beacon_bits))
                costs.append(
                    (
                        "tx",
                        en.e_elec_j_per_bit * en.ack_bits
                        + 10.0 ** ((pt[i] - 30.0) / 10.0) * (en.ack_bits / en.bitrate_bps),
                    )
                )
            costs.append(
                (
                    "tx",
                    en.e_elec_j_per_bit * en.data_bits
                    + 10.0 ** ((pt[i] - 30.0) / 10.0) * (en.data_bits / en.bitrate_bps),
                )
            )
            for direction, cost in costs:
                spend = min(cost, battery[i])
                battery[i] = battery[i] - spend
                if direction == "tx":
                    tx_this += spend
                else:
                    rx_this += spend
        for i in live:
            if battery[i] <= 0.0:
                alive[i] = False

        region_alive = {
            k: sum(1 for i in range(n) if alive[i] and region.get(i) == k)
            for k in REGION_NAMES
        }
        region_prr = {}
        for k in REGION_NAMES:
            ids = members[k]
            region_prr[k] = sum(prr_vals[i] for i in ids) / len(ids) if ids else math.nan
        prr_mean = sum(prr_vals[i] for i in live) / len(live)

        records.append(
            {
                "round": rnd,
                "beacons": beacons,
                "acks": acks,
                "tx_j": tx_this,
                "rx_j": rx_this,
                "temps": tuple(temp[i] for i in range(n)),
                "losses": tuple(loss[i] for i in range(n)),
                "levels": tuple(level[i] for i in range(n)),
                "pts": tuple(pt[i] for i in range(n)),
                "alive": tuple(alive[i] for i in range(n)),
                "region_alive": tuple(region_alive[k] for k in REGION_NAMES),
                "region_prr": tuple(region_prr[k] for k in REGION_NAMES),
                "prr_mean": prr_mean,
            }
        )
        if not any(alive.values()):
            break
    return records


def record_as_dict(rec):
    """Flatten an engine RoundRecord into the oracle's record shape."""
    region_keys = sorted(rec.region_alive, key=lambda r: r.value)
    return {
        "round": rec.round_index,
        "beacons": rec.beacons,
        "acks": rec.acks,
        "tx_j": rec.tx_energy_j,
        "rx_j": rec.rx_energy_j,
        "temps": tuple(rec.temps_c),
        "losses": tuple(rec.losses_dbm),
        "levels": tuple(rec.levels_dbm),
        "pts": tuple(rec.pt_dbm),
        "alive": tuple(rec.alive),
        "region_alive": tuple(rec.region_alive[r] for r in region_keys),
        "region_prr": tuple(rec.region_prr[r] for r in region_keys),
        "prr_mean": rec.prr_mean,
    }


def records_equal(a, b):
    """Exact record equality, treating NaN as equal to NaN."""
    if a.keys() != b.keys():
        return False
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, tuple):
            if len(va) != len(vb):
                return False
            for xa, xb in zip(va, vb):
                if isinstance(xa, float) and isinstance(xb, float):
                    if math.isnan(xa) and math.isnan(xb):
                        continue
                    if xa != xb:
                        return False
                elif xa != xb:
                    return False
        elif isinstance(va, float) and isinstance(vb, float):
            if not (va == vb or (math.isnan(va) and math.isnan(vb))):
                return False
        elif va != vb:
            return False
    return True
