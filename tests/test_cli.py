"""Tests for the command-line surface: config parsing, subcommands, exit codes."""

import json
import os
import random
import re

import pytest

from eastsim import cli
from eastsim.cli import main
from eastsim.config import (
    SimConfig,
    SWEEPABLE_KEYS,
    _schema,
    fingerprint,
    parse_config,
    serialize_config,
)
from eastsim.engine import run_simulation
from eastsim.errors import ConfigError
from eastsim.protocol import Region

SMALL = ["--set", "nodes=15", "--set", "rounds=12"]
FLOAT_KEYS = [key for key, (kind, _, _) in _schema().items() if kind == "float"]


@pytest.fixture
def recorded_runs(monkeypatch):
    """The result of every run_simulation call the CLI makes."""
    results = []

    def recording_run(config, keep_rounds=None, lockstep=None):
        results.append(run_simulation(config, keep_rounds, lockstep))
        return results[-1]

    monkeypatch.setattr(cli, "run_simulation", recording_run)
    return results


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg.node_count == 100
        assert cfg.rounds == 1200
        assert cfg.area_side_m == 100.0
        assert cfg.temperature.t_min_c == -10.0
        assert cfg.temperature.t_max_c == 53.0
        assert cfg.link_budget.eta == 0.0029
        assert cfg.link_budget.eb_n0_db == 8.3
        assert cfg.link_budget.bandwidth_hz == 83.5e6
        assert cfg.link_budget.frequency_hz == 2.45e9
        assert cfg.link_budget.rnf_db == 5.0
        assert cfg.link_budget.temperature_kelvin == 300.0
        assert cfg.regions.threshold_loss_dbm[Region.A] == 3.78
        assert cfg.regions.threshold_loss_dbm[Region.B] == -0.61
        assert cfg.regions.threshold_loss_dbm[Region.C] == -5.17

    def test_empty_file_is_defaults(self, tmp_path):
        path = write_config(tmp_path, "# nothing but a comment\n\n")
        assert parse_config(path) == parse_config(None)

    def test_round_trip(self, tmp_path):
        defaults = parse_config(None)
        path = write_config(tmp_path, serialize_config(defaults))
        assert parse_config(path) == defaults

    def test_values_and_comments(self, tmp_path):
        path = write_config(
            tmp_path,
            "nodes = 30        # compact network\n"
            "cadence.period_rounds = 4\n"
            "link_budget.rnf_db = 6.5\n"
            "prr.sampled = true\n",
        )
        cfg = parse_config(path)
        assert cfg.node_count == 30
        assert cfg.cadence.period_rounds == 4
        assert cfg.link_budget.rnf_db == 6.5
        assert cfg.prr_sampled is True

    def test_overrides_win_over_file(self, tmp_path):
        path = write_config(tmp_path, "nodes = 30\n")
        cfg = parse_config(path, ["nodes=44"])
        assert cfg.node_count == 44

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "nodess = 30\n")
        with pytest.raises(ConfigError, match="nodess"):
            parse_config(path)

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(None, ["rounds=ten"])

    def test_invariant_violations(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(None, ["rounds=0"])
        with pytest.raises(ConfigError, match="boundary_low.*boundary_high"):
            parse_config(None, ["regions.boundary_low_dbm=1.0"])
        with pytest.raises(ConfigError, match="controller"):
            parse_config(None, ["controller=magic"])
        with pytest.raises(ConfigError, match="level_cap"):
            parse_config(None, ["level_cap_dbm=30.0"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key):
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=re.escape(key) + ": must be finite"):
                parse_config(None, [f"{key}={raw}"])

    def test_fingerprint_stable_under_reordering(self, tmp_path):
        a = parse_config(write_config(tmp_path, "nodes = 30\nrounds = 50\n", "a.cfg"))
        b = parse_config(write_config(tmp_path, "rounds = 50\nnodes = 30\n", "b.cfg"))
        assert fingerprint(a) == fingerprint(b)
        c = parse_config(write_config(tmp_path, "nodes = 31\nrounds = 50\n", "c.cfg"))
        assert fingerprint(a) != fingerprint(c)

    def test_fingerprint_hashes_trace_contents(self, tmp_path):
        trace = tmp_path / "t.csv"

        def fingerprint_with(temps):
            trace.write_text(
                "node,round,temp_c\n" + "".join(f"0,{r},{t}\n" for r, t in enumerate(temps))
            )
            overrides = ["nodes=1", "rounds=2", f"temperature.trace_path={trace}"]
            return fingerprint(parse_config(None, overrides))

        cool = fingerprint_with([20.0, 21.0])
        assert cool != fingerprint_with([40.0, 41.0])
        assert cool == fingerprint_with([20.0, 21.0])

    def test_fingerprint_exclusion(self):
        east = parse_config(None, ["controller=east"])
        classical = parse_config(None, ["controller=classical"])
        assert fingerprint(east) != fingerprint(classical)
        assert fingerprint(east, exclude=("controller",)) == fingerprint(
            classical, exclude=("controller",)
        )


class TestCmdRun:
    def test_artifact_set(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), *SMALL]) == 0
        for name in ("rounds.csv", "nodes.csv", "summary.csv", "manifest.json"):
            assert (out / name).is_file()
        figures = sorted(os.listdir(out / "figures"))
        assert figures == [
            "level_per_node.csv",
            "level_per_region_assigned.csv",
            "level_per_region_baseline.csv",
            "loss_per_node.csv",
            "pt_per_node.csv",
            "temp_per_node.csv",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"fingerprint", "seed", "version", "outputs"}
        assert manifest["seed"] == 42
        assert len(manifest["outputs"]) == 10

    def test_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(out_a), *SMALL]) == 0
        assert main(["run", "--out", str(out_b), *SMALL]) == 0
        for root, _, files in os.walk(out_a):
            for name in files:
                rel = os.path.relpath(os.path.join(root, name), out_a)
                assert (out_b / rel).read_bytes() == (out_a / rel).read_bytes(), rel

    def test_rounds_csv_matches_oracle(self, tmp_path):
        from oracle import reference_run

        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--set", "nodes=5", "--set", "rounds=3"]) == 0
        reference = reference_run(SimConfig(node_count=5, rounds=3))
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines[0].startswith("round,controller,beacons,acks")
        assert len(lines) == 4
        for rec, line in zip(reference, lines[1:]):
            cols = line.split(",")
            assert int(cols[0]) == rec["round"]
            assert cols[1] == "east"
            assert int(cols[2]) == rec["beacons"]
            assert int(cols[3]) == rec["acks"]
            assert float(cols[4]) == pytest.approx(rec["tx_j"], abs=5e-7)
            assert float(cols[5]) == pytest.approx(rec["rx_j"], abs=5e-7)
            assert int(cols[6]) == sum(rec["alive"])

    def test_header_contracts(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--out", str(out), *SMALL])
        assert (out / "rounds.csv").read_text().splitlines()[0] == (
            "round,controller,beacons,acks,tx_energy_j,rx_energy_j,"
            "alive,alive_A,alive_B,alive_C,prr_A,prr_B,prr_C"
        )
        assert (out / "nodes.csv").read_text().splitlines()[0] == (
            "node,x_m,y_m,region,final_temp_c,final_loss_dbm,"
            "final_level_dbm,final_pt_dbm,battery_j,alive"
        )
        assert (out / "summary.csv").read_text().splitlines()[0] == (
            "region,initial_count,desired,survivors,threshold_level_dbm,"
            "nodes_above_threshold,nodes_below_threshold,prr_min_pct,prr_max_pct,"
            "threshold_loss_dbm"
        )

    def test_extinction_flagged(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "run", "--out", str(out), "--set", "nodes=4", "--set", "rounds=400",
                "--set", "energy.initial_battery_j=0.003",
            ]
        )
        assert code == 0
        assert "extinct_at_round=" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "o"), "--set", "rounds=0"]) == 2
        assert "rounds" in capsys.readouterr().err

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        for item in ("link_budget.rnf_db=nan", "prr.beta_db=nan", "level_cap_dbm=nan"):
            out = tmp_path / item
            assert main(["run", "--out", str(out), *SMALL, "--set", item]) == 2
            assert item.split("=")[0] in capsys.readouterr().err
            assert not out.exists()

    def test_loss_undefined_at_t_min_exits_2(self, tmp_path, capsys):
        # 0.1996 * (-200 - 25) is below -40 dB, where no level compensates
        out = tmp_path / "cold"
        assert main(["run", "--out", str(out), *SMALL, "--set", "temperature.t_min_c=-200"]) == 2
        assert "temperature.t_min_c" in capsys.readouterr().err
        assert not out.exists()
        assert main(["run", "--out", str(tmp_path / "ok"), *SMALL,
                     "--set", "temperature.t_min_c=-175"]) == 0

    @pytest.mark.parametrize(
        "item, named",
        [
            ("temperature.t_max_c=1e300", "temperature.t_max_c"),
            ("link_budget.eb_n0_db=1e5", "link_budget"),
            ("area_side_m=1e300", "area_side_m"),
            ("regions.threshold_loss_a_dbm=1e300", "regions.threshold_loss_a_dbm"),
        ],
    )
    def test_overflowing_value_exits_2(self, tmp_path, capsys, item, named):
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), *SMALL, "--set", item]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_cap_far_above_reachable_levels_exits_0(self, tmp_path):
        # levels never exceed the top threshold or hottest-loss level, so a
        # cap whose power would overflow is never reached
        assert main(["run", "--out", str(tmp_path / "o"), *SMALL, "--set", "level_cap_dbm=1e5"]) == 0

    def test_steep_prr_slope_exits_0(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), *SMALL, "--set", "prr.alpha_per_db=1000"]) == 0
        rows = [line.split(",") for line in (out / "rounds.csv").read_text().splitlines()[1:]]
        prrs = [float(value) for row in rows for value in row[10:] if value != "nan"]
        assert prrs and all(0.0 <= p <= 1.0 for p in prrs)

    def test_keeps_node_vectors_of_figure_and_final_round_only(self, tmp_path, recorded_runs):
        commands = {
            "run": [*SMALL, "--figure-round", "5"],
            "sweep": [*SMALL, "--figure-round", "5", "--key", "seed", "--values", "1,2"],
            "compare": SMALL,
        }
        expected = {"run": [5, 11], "sweep": [5, 11], "compare": [11]}
        for command, argv in commands.items():
            recorded_runs.clear()
            assert main([command, "--out", str(tmp_path / command), *argv]) == 0
            assert len(recorded_runs) == (1 if command == "run" else 2)
            for result in recorded_runs:
                kept = [r.round_index for r in result.records if r.temps_c is not None]
                assert kept == expected[command], command
                for rec in result.records:
                    vectors = (rec.temps_c, rec.losses_dbm, rec.levels_dbm, rec.pt_dbm)
                    assert all(v is None for v in vectors) != (rec.round_index in kept)
                    assert len(rec.alive) == 15

    def test_figure_round_out_of_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), *SMALL, "--figure-round", "99"]) == 2
        assert "--figure-round 99" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_round_after_extinction_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["run", "--out", str(out), *SMALL, "--set", "energy.initial_battery_j=1e-6"]
        assert main([*argv, "--figure-round", "10"]) == 2
        assert "figure round 10" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 0
        assert "extinct_at_round=0" in capsys.readouterr().out

    def test_figure_round_selects_snapshot(self, tmp_path):
        out0, out5 = tmp_path / "r0", tmp_path / "r5"
        main(["run", "--out", str(out0), *SMALL])
        main(["run", "--out", str(out5), *SMALL, "--figure-round", "5"])
        snap0 = (out0 / "figures" / "temp_per_node.csv").read_text()
        snap5 = (out5 / "figures" / "temp_per_node.csv").read_text()
        assert snap0 != snap5
        # the rest of the artifact set is unaffected by the snapshot round
        assert (out0 / "rounds.csv").read_bytes() == (out5 / "rounds.csv").read_bytes()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the output directory should go\n")
        assert main(["run", "--out", str(blocker), *SMALL]) == 3
        assert "i/o error" in capsys.readouterr().err


class TestSeedResolution:
    def test_env_overrides_config(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("EAST_SEED", "777")
        main(["run", "--out", str(out), *SMALL])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 777

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("EAST_SEED", "777")
        main(["run", "--out", str(out), *SMALL, "--seed", "5"])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 5

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EAST_SEED", "not-a-seed")
        assert main(["run", "--out", str(tmp_path / "o"), *SMALL]) == 2


class TestCmdCompare:
    def test_compare_csv(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out), *SMALL]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "metric,east,classical,delta"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"control_packets", "energy_j", "survivors", "mean_prr"}
        assert int(rows["control_packets"][3]) < 0
        assert float(rows["energy_j"][3]) < 0.0
        assert "east_dominates=1" in capsys.readouterr().out

    def test_single_round_k1_equal_overhead(self, tmp_path):
        out = tmp_path / "cmp"
        assert (
            main(
                [
                    "compare", "--out", str(out), "--set", "nodes=15",
                    "--set", "rounds=1", "--set", "cadence.period_rounds=1",
                ]
            )
            == 0
        )
        lines = (out / "compare.csv").read_text().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert int(rows["control_packets"][3]) == 0

    def test_lockstep_compare_matches_solo_runs(self, tmp_path, monkeypatch, recorded_runs):
        # a sampled-PRR trace run on a draining battery
        rng = random.Random(3)
        rows = []
        for n in range(15):
            temp = rng.uniform(-10.0, 53.0)
            for r in range(30):
                rows.append(f"{n},{r},{temp}")
                temp = min(max(temp + rng.gauss(0.0, 3.0), -10.0), 53.0)
        trace = tmp_path / "trace.csv"
        trace.write_text("node,round,temp_c\n" + "\n".join(rows) + "\n")
        argv = ["--set", "nodes=15", "--set", "rounds=30", "--set", "prr.sampled=true",
                "--set", "energy.initial_battery_j=0.004",
                "--set", f"temperature.trace_path={trace}"]
        assert main(["compare", "--out", str(tmp_path / "lockstep"), *argv]) == 0
        east, classical = recorded_runs

        def deaths(result):
            return [sum(rec.alive) for rec in result.records]

        assert deaths(east) != deaths(classical)
        assert min(deaths(east)) < 15 and min(deaths(classical)) < 15

        def solo_run(config, keep_rounds=None, lockstep=None):
            return run_simulation(config, keep_rounds)

        monkeypatch.setattr(cli, "run_simulation", solo_run)
        assert main(["compare", "--out", str(tmp_path / "solo"), *argv]) == 0
        lockstep_csv = (tmp_path / "lockstep" / "compare.csv").read_bytes()
        assert lockstep_csv == (tmp_path / "solo" / "compare.csv").read_bytes()

    def test_controller_override_rejected(self, tmp_path, capsys):
        code = main(["compare", "--out", str(tmp_path / "o"), "--set", "controller=east"])
        assert code == 2
        assert "controller" in capsys.readouterr().err


class TestCmdSweep:
    def test_sweep_layout(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--out", str(out), "--key", "cadence.period_rounds",
                "--values", "1,3,6", *SMALL,
            ]
        )
        assert code == 0
        for value in ("1", "3", "6"):
            assert (out / f"cadence.period_rounds={value}" / "rounds.csv").is_file()
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "key,value,beacons,acks,control_packets,energy_j,survivors,mean_prr"
        assert len(lines) == 4
        totals = [int(line.split(",")[4]) for line in lines[1:]]
        assert totals == sorted(totals, reverse=True)

    def test_single_value_sweep_matches_run(self, tmp_path):
        out_sweep = tmp_path / "sweep"
        out_run = tmp_path / "run"
        main(["sweep", "--out", str(out_sweep), "--key", "rounds", "--values", "12",
              "--set", "nodes=15"])
        main(["run", "--out", str(out_run), *SMALL])
        sweep_rounds = (out_sweep / "rounds=12" / "rounds.csv").read_bytes()
        assert sweep_rounds == (out_run / "rounds.csv").read_bytes()

    @pytest.mark.parametrize(
        "key, values",
        [
            ("cadence.period_rounds", ["1", "5", "10"]),
            # members lose nodes in different rounds
            ("energy.initial_battery_j", ["0.0003", "0.0006", "2"]),
            # members end in different rounds
            ("rounds", ["12", "4"]),
            # different seeds split into one-member groups
            ("seed", ["1", "2"]),
        ],
    )
    def test_sweep_members_match_solo_runs(self, tmp_path, key, values):
        out = tmp_path / "sweep"
        argv = [*SMALL, "--figure-round", "3"]
        assert main(["sweep", "--out", str(out), *argv, "--key", key,
                     "--values", ",".join(values)]) == 0
        for value in values:
            solo = tmp_path / f"run-{value}"
            assert main(["run", "--out", str(solo), *argv, "--set", f"{key}={value}"]) == 0
            member = out / f"{key}={value}"
            files = sorted(p.relative_to(solo) for p in solo.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(member) for p in member.rglob("*") if p.is_file())
            for name in files:
                assert (member / name).read_bytes() == (solo / name).read_bytes(), (value, name)

    def test_late_figure_round_failure_writes_nothing(self, tmp_path, capsys):
        # the second value goes extinct in round 0, after the first has run
        out = tmp_path / "sw"
        code = main(["sweep", "--key", "energy.initial_battery_j", "--values", "2,1e-6",
                     "--figure-round", "5", "--set", "nodes=5", "--set", "rounds=10",
                     "--out", str(out)])
        assert code == 2
        assert "figure round 5" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_round_checked_against_every_value_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sw"
        argv = ["sweep", "--out", str(out), *SMALL, "--key", "rounds", "--values", "12,4"]
        assert main([*argv, "--figure-round", "5"]) == 2
        assert "--figure-round 5 out of range; the run has 4 rounds" in capsys.readouterr().err
        assert not out.exists()

    def test_swept_value_checked_against_trace(self, tmp_path, capsys):
        # the swept bound applies to the trace exactly as it does for run
        trace = tmp_path / "trace.csv"
        rows = [f"{n},{r},{50.0 if n == 0 else 10.0}" for n in range(15) for r in range(12)]
        trace.write_text("node,round,temp_c\n" + "\n".join(rows) + "\n")
        common = [*SMALL, "--set", f"temperature.trace_path={trace}"]
        assert main(["run", "--out", str(tmp_path / "r"), *common,
                     "--set", "temperature.t_max_c=20"]) == 2
        capsys.readouterr()
        assert main(["sweep", "--out", str(tmp_path / "s"), *common,
                     "--key", "temperature.t_max_c", "--values", "20"]) == 2
        assert "outside declared range" in capsys.readouterr().err

    def test_bad_value_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--out", str(out), "--key", "nodes", "--values", "10,abc",
                     "--set", "rounds=5"])
        assert code == 2
        assert "nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_values_share_one_loaded_trace(self, tmp_path, recorded_runs):
        trace = tmp_path / "trace.csv"
        rows = [f"{n},{r},{20.0 + n}" for n in range(15) for r in range(12)]
        trace.write_text("node,round,temp_c\n" + "\n".join(rows) + "\n")
        assert main(["sweep", "--out", str(tmp_path / "s"), *SMALL,
                     "--set", f"temperature.trace_path={trace}",
                     "--key", "cadence.period_rounds", "--values", "1,2"]) == 0
        first, second = (result.config for result in recorded_runs)
        assert first.temperature is second.temperature

    def test_non_sweepable_key_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "o"), "--key", "controller",
                     "--values", "east,classical"])
        assert code == 2
        assert "sweepable" in capsys.readouterr().err
        assert "controller" not in SWEEPABLE_KEYS


class TestCmdReport:
    def test_renders_eight_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--out", str(out), *SMALL])
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 8
        assert lines[0].startswith("Number of Nodes (A,B,C)")
        assert "Nodes after 12 Rounds" in lines[2]

    def test_rerender_identical(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--out", str(out), *SMALL])
        capsys.readouterr()
        main(["report", "--dir", str(out)])
        first = capsys.readouterr().out
        main(["report", "--dir", str(out)])
        assert capsys.readouterr().out == first

    def test_malformed_summary_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--out", str(out), *SMALL])
        summary = out / "summary.csv"
        lines = summary.read_text().splitlines()
        broken = {
            "missing column": [",".join(line.split(",")[:-1]) for line in lines],
            "missing region": lines[:-1],
            "bad value": [*lines[:-1], lines[-1].replace(lines[-1].split(",")[4], "x", 1)],
        }
        for what, text in broken.items():
            summary.write_text("\n".join(text) + "\n")
            capsys.readouterr()
            assert main(["report", "--dir", str(out)]) == 2, what
            assert "summary.csv" in capsys.readouterr().err, what

    def test_malformed_rounds_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--out", str(out), *SMALL])
        rounds = out / "rounds.csv"
        lines = rounds.read_text().splitlines()
        broken = {
            "empty": "",
            "no header": "\n".join(lines[1:]) + "\n",
            "header only": lines[0] + "\n",
        }
        for what, text in broken.items():
            rounds.write_text(text)
            capsys.readouterr()
            assert main(["report", "--dir", str(out)]) == 2, what
            assert "rounds.csv" in capsys.readouterr().err, what

    def test_missing_artifacts_exit_3(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--dir", str(empty)]) == 3
        assert "summary.csv" in capsys.readouterr().err
