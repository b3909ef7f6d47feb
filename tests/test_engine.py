"""Tests for the discrete-round executor."""

import math
import os
import random
import tracemalloc

import pytest

from eastsim import engine, protocol, radio, topology
from eastsim.cli import main, write_run_outputs
from eastsim.config import SimConfig, fingerprint
from eastsim.engine import Lockstep, run_simulation
from eastsim.errors import ConfigError
from eastsim.protocol import REGIONS, classical_assign
from eastsim.radio import free_space_base_requirement
from eastsim.report import emit_figure_data
from eastsim.topology import deploy_random, load_temperature_trace, substream, walk_stream

from oracle import record_as_dict, records_equal, reference_run
from test_property import death_only_beside_twins, first_twin_drains_beside_intact_twins


def small_config(**kwargs):
    defaults = dict(node_count=12, rounds=20, seed=3)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def total_battery(result):
    return sum(result.batteries_j)


class TestRunSimulation:
    def test_record_count(self):
        result = run_simulation(small_config())
        assert len(result.records) == 20
        assert [rec.round_index for rec in result.records] == list(range(20))

    def test_invalid_config_rejected_before_execution(self):
        with pytest.raises(ConfigError, match="rounds"):
            run_simulation(small_config(rounds=0))

    def test_deterministic(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config())
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert records_equal(record_as_dict(ra), record_as_dict(rb))

    def test_seed_changes_output(self):
        a = run_simulation(small_config(seed=3))
        b = run_simulation(small_config(seed=4))
        assert a.records[0].temps_c != b.records[0].temps_c


class TestRoundSemantics:
    def test_single_node_round_zero(self):
        # one node at the reference temperature: loss 0 puts it in region A,
        # below A's threshold, so it keeps the region default level
        cfg = small_config(node_count=1, rounds=1)
        cfg = cfg._replace(temperature=cfg.temperature._replace(walk_sigma_c=0.0))
        result = run_simulation(cfg)
        loss = result.records[0].losses_dbm[0]
        region = result.partition[0]
        expected = cfg.regions.threshold_level_dbm(region)
        assert result.records[0].levels_dbm[0] == pytest.approx(min(expected, cfg.level_cap_dbm))
        assert result.records[0].region_alive[region] == 1
        assert loss == pytest.approx(0.1996 * (result.deployment.base_temp_c[0] - 25.0), rel=1e-12)

    def test_classical_constant_level(self):
        cfg = small_config(controller="classical")
        result = run_simulation(cfg)
        expected = min(classical_assign(cfg.temperature.t_max_c), cfg.level_cap_dbm)
        for rec in result.records:
            for node_id, alive in enumerate(rec.alive):
                if alive:
                    assert rec.levels_dbm[node_id] == expected

    def test_classical_full_exchange_every_round(self):
        cfg = small_config(controller="classical")
        result = run_simulation(cfg)
        for rec in result.records:
            assert rec.beacons == 1
            assert rec.acks == sum(rec.alive)

    def test_pt_is_base_plus_level(self):
        cfg = small_config()
        result = run_simulation(cfg)
        ref_x, ref_y = result.deployment.reference_m
        for i, (x, y) in enumerate(zip(result.deployment.x_m, result.deployment.y_m)):
            base = free_space_base_requirement(math.hypot(x - ref_x, y - ref_y), cfg.link_budget)
            final = result.records[-1]
            assert final.pt_dbm[i] == base + final.levels_dbm[i]

    def test_level_cap_respected(self):
        cfg = small_config(level_cap_dbm=44.0, rounds=40)
        result = run_simulation(cfg)
        for rec in result.records:
            assert all(level <= 44.0 for level in rec.levels_dbm)

    def test_quiet_round_costs_nothing(self):
        # constant temperatures below every threshold: after round 0 no
        # drift, no threshold crossing, so rounds 1..K-1 carry no traffic
        cfg = small_config(rounds=8)
        cfg = cfg._replace(temperature=cfg.temperature._replace(
            t_min_c=-10.0, t_max_c=-8.0, walk_sigma_c=0.0
        ))
        result = run_simulation(cfg)
        assert result.records[0].beacons == 1
        for rec in result.records[1:]:
            assert rec.beacons == 0
            assert rec.acks == 0
            assert rec.rx_energy_j == 0.0
        # all losses below region C threshold keeps the initial levels
        first, last = result.records[0], result.records[-1]
        assert first.levels_dbm == last.levels_dbm

    def test_region_membership_frozen(self):
        result = run_simulation(small_config(rounds=25))
        for rec in result.records:
            for region in REGIONS:
                members = [i for i, r in enumerate(result.partition)
                           if r is region and rec.alive[i]]
                assert rec.region_alive[region] == len(members)


class TestLevelStep:
    @staticmethod
    def count_calls(monkeypatch, name, real):
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(engine, name, counting)
        return calls

    def test_run_without_deaths_never_assigns(self, monkeypatch):
        # No region falls short of neighbors before a death, so the
        # controller never runs.
        calls = self.count_calls(monkeypatch, "east_assign", protocol.east_assign)
        result = run_simulation(small_config(rounds=40))
        assert result.survivors == 12
        assert calls[0] == 0

    def test_tx_costs_refresh_only_when_a_level_moves(self, monkeypatch):
        # 30 nodes in one region, drained: rule (ii) raises levels once six
        # have died. Each node's two costs are computed at set-up and again
        # each time its level moves.
        calls = self.count_calls(monkeypatch, "tx_energy", radio.tx_energy)
        cfg = SimConfig(node_count=30, rounds=40, seed=1)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.002))
        cfg = cfg._replace(regions=cfg.regions._replace(boundary_high_dbm=10.0, boundary_low_dbm=-10.0))
        cfg = cfg._replace(cadence=cfg.cadence._replace(drift_dbm=0.3))
        records = run_simulation(cfg).records
        moves = sum(a != b for prev, rec in zip(records, records[1:])
                    for a, b in zip(prev.levels_dbm, rec.levels_dbm))
        assert moves > 0
        assert calls[0] == 2 * (30 + moves) == 104

    def test_drained_baseline_exchanges_every_round_and_never_assigns(self, monkeypatch):
        # Deaths leave regions short of neighbors, where the east controller
        # would run, yet the baseline neither asks the cadence nor assigns:
        # every region exchanges every round at the worst-case level.
        assigns = self.count_calls(monkeypatch, "east_assign", protocol.east_assign)
        schedules = self.count_calls(monkeypatch, "needs_closed_loop", protocol.needs_closed_loop)
        cfg = SimConfig(node_count=40, rounds=300, seed=1, controller="classical")
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.01))
        result = run_simulation(cfg)
        assert result.extinction_round == 121
        assert assigns[0] == schedules[0] == 0
        alive_at_start = [40] + [sum(rec.alive) for rec in result.records[:-1]]
        assert [rec.beacons for rec in result.records] == [1] * 122
        assert [rec.acks for rec in result.records] == alive_at_start


class TestEnergyAndDeath:
    def test_conservation(self):
        cfg = small_config(rounds=50)
        result = run_simulation(cfg)
        initial = cfg.node_count * cfg.energy.initial_battery_j
        drop = initial - total_battery(result)
        assert drop == pytest.approx(result.total_energy_j, rel=1e-9)

    def test_batteries_never_negative(self):
        cfg = small_config(rounds=200)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.01))
        result = run_simulation(cfg)
        assert all(battery >= 0.0 for battery in result.batteries_j)

    def test_death_monotone_and_alive_flags(self):
        cfg = small_config(rounds=300)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.015))
        result = run_simulation(cfg)
        alive_counts = [sum(rec.alive) for rec in result.records]
        assert all(a >= b for a, b in zip(alive_counts, alive_counts[1:]))
        assert any(a < cfg.node_count for a in alive_counts)  # some attrition happened
        final = result.records[-1]
        for i, battery in enumerate(result.batteries_j):
            assert final.alive[i] == (battery > 0.0)

    def test_extinction_terminates_early(self):
        cfg = small_config(node_count=4, rounds=500)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.003))
        result = run_simulation(cfg)
        assert result.extinction_round is not None
        assert len(result.records) == result.extinction_round + 1
        assert len(result.records) < 500
        assert result.survivors == 0
        # conservation still holds with capped final debits
        initial = cfg.node_count * cfg.energy.initial_battery_j
        assert initial - total_battery(result) == pytest.approx(result.total_energy_j, rel=1e-9)


class TestOracleEquivalence:
    def test_three_round_run(self):
        cfg = SimConfig(node_count=5, rounds=3, seed=11)
        engine = [record_as_dict(r) for r in run_simulation(cfg).records]
        reference = reference_run(SimConfig(node_count=5, rounds=3, seed=11))
        assert len(engine) == len(reference)
        for got, expected in zip(engine, reference):
            assert records_equal(got, expected)

    @pytest.mark.parametrize("controller", ["east", "classical"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ten_round_runs(self, controller, seed):
        cfg = SimConfig(node_count=5, rounds=10, seed=seed, controller=controller)
        engine = [record_as_dict(r) for r in run_simulation(cfg).records]
        reference = reference_run(
            SimConfig(node_count=5, rounds=10, seed=seed, controller=controller)
        )
        assert len(engine) == len(reference)
        for got, expected in zip(engine, reference):
            assert records_equal(got, expected)

    def test_with_deaths_and_sampling(self):
        cfg = SimConfig(node_count=6, rounds=30, seed=5, prr_sampled=True)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.004))
        engine_result = run_simulation(cfg)
        cfg2 = SimConfig(node_count=6, rounds=30, seed=5, prr_sampled=True)
        cfg2 = cfg2._replace(energy=cfg2.energy._replace(initial_battery_j=0.004))
        reference = reference_run(cfg2)
        engine = [record_as_dict(r) for r in engine_result.records]
        assert len(engine) == len(reference)
        for got, expected in zip(engine, reference):
            assert records_equal(got, expected)


def same_as_solo_runs(configs, results):
    """Whether each lockstep result equals, record for record, its run alone."""
    for cfg, result in zip(configs, results):
        solo = run_simulation(cfg)
        assert len(result.records) == len(solo.records)
        for got, expected in zip(result.records, solo.records):
            assert records_equal(record_as_dict(got), record_as_dict(expected))
    return True


class TestLockstep:
    def test_node_dead_in_one_member_keeps_walking_in_the_other(self):
        # Node 0 dies in round 27 of the small-battery member, after an odd
        # number of walk draws, so its walk holds a cached Box-Muller spare
        # that the surviving member's next round must use.
        def member(battery_j):
            cfg = SimConfig(node_count=4, rounds=40, seed=2)
            cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=battery_j))
            return cfg

        drained, kept = member(0.004), member(2.0)
        group = Lockstep([drained, kept])
        results = [run_simulation(cfg, lockstep=group) for cfg in (drained, kept)]
        death = next(r.round_index for r in results[0].records if not r.alive[0])
        assert death == 27
        assert all(r.alive[0] for r in results[1].records)
        assert results[0].deployment is results[1].deployment
        assert same_as_solo_runs((drained, kept), results)

    def test_dead_node_keeps_its_values_while_its_walk_goes_on(self, tmp_path, monkeypatch):
        # The shared pass steps every node every round, so node 0's walk
        # draws as often as in a run without deaths: 39 Gaussian steps take
        # 40 uniform draws (20 Box-Muller pairs). Its records keep the
        # temperature and loss it had in round 27, when it died. Each run
        # gets an empty walk cache, so each draws its own walk.
        draws = {}

        class CountingRandom(random.Random):
            def random(self):
                draws[self.node_id] += 1
                return super().random()

        def counting_stream(seed, node_id):
            stream = CountingRandom()
            stream.setstate(walk_stream(seed, node_id).getstate())
            stream.node_id = node_id
            draws[node_id] = 0
            return stream

        monkeypatch.setattr(engine, "walk_stream", counting_stream)
        kept = run_simulation(SimConfig(node_count=4, rounds=40, seed=2))
        assert all(all(r.alive) for r in kept.records)
        kept_draws = draws[0]
        cfg = SimConfig(node_count=4, rounds=40, seed=2)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.004))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "second-cache"))
        result = run_simulation(cfg)
        death = next(r.round_index for r in result.records if not r.alive[0])
        assert death == 27
        assert draws[0] == kept_draws == 40
        at_death = result.records[death]
        assert at_death.temps_c[0] == kept.records[death].temps_c[0]
        for later in result.records[death + 1:]:
            assert (later.temps_c[0], later.losses_dbm[0]) == (at_death.temps_c[0],
                                                               at_death.losses_dbm[0])
        assert result.records[-1].temps_c[0] != kept.records[-1].temps_c[0]

    def test_batch_groups_members_by_shared_inputs(self):
        # Two seeds, interleaved: the batch splits them into two groups.
        def member(seed, **kwargs):
            return SimConfig(node_count=4, rounds=40, seed=seed, **kwargs)

        drained = member(2, controller="classical")
        drained = drained._replace(energy=drained.energy._replace(initial_battery_j=0.004))
        fast = member(3)
        fast = fast._replace(cadence=fast.cadence._replace(period_rounds=1))
        configs = [member(2), member(3), drained, fast]
        batch = Lockstep(configs)
        results = [run_simulation(cfg, lockstep=batch) for cfg in configs]
        assert all(result.config is cfg for cfg, result in zip(configs, results))
        assert same_as_solo_runs(configs, results)
        assert results[0].deployment is results[2].deployment
        assert results[1].deployment is results[3].deployment
        assert results[0].deployment is not results[1].deployment
        assert run_simulation(configs[1], lockstep=batch) is results[1]

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_batch_modifies_no_config_and_keeps_the_deployment_it_made(self, command):
        # The members share their sub-configs, as the CLI's do, and drain
        # with sampled PRR, so every kernel write has a chance to leak.
        base = SimConfig(node_count=8, rounds=40, seed=2, prr_sampled=True)
        base = base._replace(energy=base.energy._replace(initial_battery_j=0.004))
        if command == "compare":
            configs = [base._replace(controller=c) for c in ("east", "classical")]
        else:
            configs = [base._replace(energy=base.energy._replace(initial_battery_j=battery_j))
                       for battery_j in (0.004, 0.006, 2.0)]
        fingerprints = [fingerprint(cfg) for cfg in configs]
        batch = Lockstep(configs, keep_rounds=())
        results = [run_simulation(cfg, (), lockstep=batch) for cfg in configs]
        assert not all(results[0].records[-1].alive)
        assert [fingerprint(cfg) for cfg in configs] == fingerprints
        for cfg, result in zip(configs, results):
            temp = cfg.temperature
            assert result.deployment == deploy_random(cfg.node_count, cfg.area_side_m, cfg.seed,
                                                      t_min_c=temp.t_min_c, t_max_c=temp.t_max_c)

    def test_batch_refuses_other_keep_rounds_and_non_members(self):
        cfg = SimConfig(node_count=4, rounds=5, seed=2)
        batch = Lockstep([cfg], keep_rounds=(1,))
        with pytest.raises(ValueError, match="keep_rounds"):
            run_simulation(cfg, (2,), lockstep=batch)
        with pytest.raises(ValueError, match="not a member"):
            run_simulation(SimConfig(node_count=4, rounds=5, seed=2), (1,), lockstep=batch)


class TestTwins:
    @pytest.fixture
    def prr_scorings(self, monkeypatch):
        # Only the member pass's PRR line calls the engine's exp.
        calls = [0]

        def counting_exp(x):
            calls[0] += 1
            return math.exp(x)

        monkeypatch.setattr(engine, "exp", counting_exp)
        return calls

    def test_sweep_without_deaths_scores_prr_once(self, tmp_path, prr_scorings):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--key", "cadence.period_rounds",
                     "--values", "1,5,10,20", "--set", "nodes=15", "--set", "rounds=12"]) == 0
        survivors = [line.split(",")[6] for line in
                     (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert survivors == ["15"] * 4
        assert prr_scorings[0] == 15 * 12

    def test_drained_member_ends_the_sharing(self, prr_scorings):
        # The first of four twins loses a node in round 19. It scores for
        # all four in rounds 0-19; from round 20 on it scores its own 65
        # alive node-rounds, and the second twin scores for the other three.
        configs = first_twin_drains_beside_intact_twins()
        batch = Lockstep(configs)
        results = [run_simulation(cfg, lockstep=batch) for cfg in configs]
        drained = results[0].records
        death = next(r.round_index for r in drained if not all(r.alive))
        assert death == 19
        assert sum(sum(r.alive) for r in drained[19:-1]) == 65
        assert all(all(r.alive) for result in results[1:] for r in result.records)
        assert prr_scorings[0] == 8 * 20 + 65 + 8 * 10
        assert same_as_solo_runs(configs, results)

    def test_last_twin_drains_while_the_first_scores_for_the_others(self, prr_scorings):
        # The same twins in reverse order: the drained twin follows the first
        # until its death in round 19, then scores its own alive nodes while
        # the first goes on scoring for the other two.
        configs = first_twin_drains_beside_intact_twins()[::-1]
        batch = Lockstep(configs)
        results = [run_simulation(cfg, lockstep=batch) for cfg in configs]
        drained = results[-1].records
        assert next(r.round_index for r in drained if not all(r.alive)) == 19
        assert prr_scorings[0] == 8 * 30 + 65
        assert same_as_solo_runs(configs, results)

    def test_death_beside_twins_leaves_their_sharing(self, prr_scorings):
        # The drained classical member is no twin of the two east twins after
        # it, so its deaths do not end their sharing: it scores its alive
        # nodes of each round, and the first twin scores for both twins.
        configs = death_only_beside_twins()
        batch = Lockstep(configs)
        results = [run_simulation(cfg, lockstep=batch) for cfg in configs]
        drained = results[0].records
        at_start = [(True,) * 8] + [r.alive for r in drained[:-1]]
        assert sum(sum(alive) for alive in at_start) == 129
        assert all(all(r.alive) for result in results[1:] for r in result.records)
        assert prr_scorings[0] == 129 + 8 * 30
        assert same_as_solo_runs(configs, results)

    @pytest.mark.parametrize(
        "change",
        [
            dict(prr=SimConfig().prr._replace(alpha_per_db=2.0)),
            dict(prr=SimConfig().prr._replace(beta_db=-1.0)),
            dict(prr_sampled=True),
            # binds the classical controller's level
            dict(level_cap_dbm=45.0),
            dict(regions=SimConfig().regions._replace(boundary_low_dbm=-3.0)),
        ],
        ids=["alpha", "beta", "sampled", "cap", "regions"],
    )
    def test_members_differing_in_a_controller_input_are_not_twins(self, change, prr_scorings):
        base = SimConfig(node_count=8, rounds=15, seed=5, controller="classical")
        configs = [base, base._replace(**change)]
        configs += [cfg._replace(controller="east") for cfg in configs]
        batch = Lockstep(configs)
        results = [run_simulation(cfg, lockstep=batch) for cfg in configs]
        assert prr_scorings[0] == 4 * 8 * 15
        assert same_as_solo_runs(configs, results)


class TestRetention:
    @staticmethod
    def artifacts(result, out_dir, figure_round):
        names = write_run_outputs(result, str(out_dir), emit_figure_data(result, figure_round))
        return {name: (out_dir / name).read_bytes() for name in names}

    @pytest.mark.parametrize("battery_j", [2.0, 0.003], ids=["survivors", "extinct"])
    def test_kept_rounds_write_identical_outputs(self, tmp_path, battery_j):
        cfg = small_config(node_count=6, rounds=60)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=battery_j))
        full = run_simulation(cfg)
        last = len(full.records) - 1
        assert (full.extinction_round is not None) == (battery_j < 1.0)
        for k in (0, last // 2, last):
            kept = run_simulation(cfg, keep_rounds={k})
            assert [r.round_index for r in kept.records if r.temps_c is not None] == sorted(
                {k, last}
            )
            assert self.artifacts(kept, tmp_path / f"kept{k}", k) == self.artifacts(
                full, tmp_path / f"full{k}", k
            )


class TestStreamSeeding:
    """A run seeds the walk streams only without a trace, and the PRR
    streams only when a member of its group samples PRR."""

    @staticmethod
    def count_seeding(monkeypatch):
        calls = {"walk": 0, "prr": 0}

        def counting_walk(seed, node_id):
            calls["walk"] += 1
            return walk_stream(seed, node_id)

        def counting_substream(seed, *labels):
            if labels[0] == "prr":
                calls["prr"] += 1
            return substream(seed, *labels)

        monkeypatch.setattr(engine, "walk_stream", counting_walk)
        monkeypatch.setattr(engine, "substream", counting_substream)
        return calls

    def test_trace_driven_run_seeds_no_walk(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        path.write_text("node,round,temp_c\n"
                        + "".join(f"{n},{r},{20.0 + n}\n" for n in range(4) for r in range(5)))
        cfg = SimConfig(node_count=3, rounds=4, seed=1, prr_sampled=True)
        cfg = cfg._replace(temperature=load_temperature_trace(str(path)))
        calls = self.count_seeding(monkeypatch)
        run_simulation(cfg)
        assert calls == {"walk": 0, "prr": 3}

    @pytest.mark.parametrize("sampling", [(False, False), (False, True)])
    def test_prr_streams_seeded_only_for_a_sampling_group(self, monkeypatch, sampling):
        calls = self.count_seeding(monkeypatch)
        configs = [small_config(controller=controller, prr_sampled=sampled)
                   for controller, sampled in zip(("east", "classical"), sampling)]
        batch = Lockstep(configs)
        for config in configs:
            run_simulation(config, lockstep=batch)
        assert calls == {"walk": 12, "prr": 12 if any(sampling) else 0}


class TestWalkCache:
    """A synthetic walk is drawn once per (seed, nodes, rounds, bounds,
    sigma) and package source; later runs read its rows from the walk cache."""

    @staticmethod
    def same_records(a, b):
        return len(a.records) == len(b.records) and all(
            records_equal(record_as_dict(ra), record_as_dict(rb)) and repr(ra) == repr(rb)
            for ra, rb in zip(a.records, b.records)
        )

    def test_warm_run_draws_no_walk(self, monkeypatch, cache_dirs):
        calls = TestStreamSeeding.count_seeding(monkeypatch)
        cold = run_simulation(small_config())
        assert calls["walk"] == 12  # once per node
        warm = run_simulation(small_config())
        assert calls["walk"] == 12  # not at all
        assert self.same_records(warm, cold)
        assert len(os.listdir(cache_dirs.walks)) == 1

    def test_group_caches_the_walk_of_its_longest_member(self, monkeypatch, cache_dirs):
        calls = TestStreamSeeding.count_seeding(monkeypatch)
        configs = [small_config(rounds=10), small_config(rounds=20)]
        batch = Lockstep(configs)
        grouped = [run_simulation(config, lockstep=batch) for config in configs]
        assert calls["walk"] == 12
        assert self.same_records(run_simulation(small_config(rounds=20)), grouped[1])
        assert calls["walk"] == 12  # a hit on the group's 20 rounds
        assert self.same_records(run_simulation(small_config(rounds=10)), grouped[0])
        assert calls["walk"] == 24  # 10 rounds name a walk of their own
        assert len(os.listdir(cache_dirs.walks)) == 2

    def test_extinct_run_caches_nothing(self, monkeypatch, cache_dirs):
        calls = TestStreamSeeding.count_seeding(monkeypatch)
        cfg = small_config(rounds=200)
        cfg = cfg._replace(energy=cfg.energy._replace(initial_battery_j=0.002))
        for _ in range(2):
            result = run_simulation(cfg)
            assert result.extinction_round is not None and len(result.records) < 200
            assert os.listdir(cache_dirs.walks) == []  # no cache file and no *.tmp
        assert calls["walk"] == 24  # each run drew its own walk

    def test_failed_run_caches_nothing(self, monkeypatch, cache_dirs):
        rounds = []

        def failing_level_row(losses):
            rounds.append(None)
            if len(rounds) == 5:
                raise RuntimeError("a failure in round 4")
            return radio.level_row(losses)

        monkeypatch.setattr(engine, "level_row", failing_level_row)
        with pytest.raises(RuntimeError, match="round 4"):
            run_simulation(small_config())
        assert os.listdir(cache_dirs.walks) == []

    def test_walk_rows_stream_one_row_at_a_time(self, cache_dirs):
        # 200 nodes x 2000 rounds, 3.2 MB of walk, drawn (cold) and read
        # back (warm) as the shared step reads them. Cold, the peak is the
        # 200 walk streams' Mersenne Twister states; warm, two 64 KB chunks
        # of the cache file's check.
        proc = small_config().temperature
        nodes, rounds, seed = 200, 2000, 1
        deployment = deploy_random(nodes, 100.0, seed)
        topology._source_digest()  # cached before the first measurement
        peaks = []
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                rows = engine.walk_rows(seed, nodes, rounds, proc,
                                        engine._walk_steps(seed, deployment.base_temp_c, proc, rounds))
                temps = []
                for row in rows:
                    temps[:] = row
                rows.close()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(os.listdir(cache_dirs.walks)) == 1
        assert all(peak < nodes * rounds * 8 / 4 for peak in peaks), peaks


class TestTraceMode:
    def test_trace_driven_run(self, tmp_path):
        rows = ["node,round,temp_c"]
        temps = {(n, r): 20.0 + 5.0 * n - r for n in range(3) for r in range(4)}
        rows += [f"{n},{r},{temps[(n, r)]}" for n, r in temps]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(rows) + "\n")

        cfg = SimConfig(node_count=3, rounds=4, seed=1)
        cfg = cfg._replace(temperature=load_temperature_trace(str(path)))
        result = run_simulation(cfg)
        for rec in result.records:
            for node_id in range(3):
                assert rec.temps_c[node_id] == temps[(node_id, rec.round_index)]

    def test_insufficient_trace_rejected(self, tmp_path):
        rows = ["node,round,temp_c"] + [f"{n},{r},20.0" for n in range(2) for r in range(4)]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(rows) + "\n")

        cfg = SimConfig(node_count=3, rounds=4, seed=1)
        cfg = cfg._replace(temperature=load_temperature_trace(str(path)))
        with pytest.raises(ConfigError, match="trace"):
            run_simulation(cfg)
