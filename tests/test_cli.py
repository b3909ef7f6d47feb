"""Tests for the command-line surface: config parsing, subcommands, exit codes."""

import csv
import json
import os
import random
import re
import sys

import pytest

from eastsim import cli, engine, topology
from eastsim.cli import main
from eastsim.config import (
    CONFIG_KEYS,
    SimConfig,
    SWEEPABLE_KEYS,
    _get,
    fingerprint,
    parse_config,
    validate,
)
from eastsim.engine import run_simulation
from eastsim.errors import ConfigError
from eastsim.protocol import REGIONS, Region
from eastsim.report import compare_runs, emit_figure_data, summarize

SMALL = ["--set", "nodes=15", "--set", "rounds=12"]
FARTHEST = "the transmit power at the farthest point of the square"
FLOAT_KEYS = [key for key, (kind, _, _) in CONFIG_KEYS.items() if kind == "float"]
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture
def recorded_runs(monkeypatch):
    """The result of every run_simulation call the CLI makes."""
    results = []

    def recording_run(config, keep_rounds=None, lockstep=None):
        results.append(run_simulation(config, keep_rounds, lockstep))
        return results[-1]

    monkeypatch.setattr(cli, "run_simulation", recording_run)
    return results


def assert_same_files(member, solo, value):
    """A sweep member's directory holds the same files, byte for byte, as a solo run's."""
    files = sorted(p.relative_to(solo) for p in solo.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(member) for p in member.rglob("*") if p.is_file())
    for name in files:
        assert (member / name).read_bytes() == (solo / name).read_bytes(), (value, name)


def draining_trace_argv(tmp_path):
    """A 15-node x 30-round trace config with sampled PRR on a draining
    battery, as command-line options."""
    rng = random.Random(3)
    rows = []
    for n in range(15):
        temp = rng.uniform(-10.0, 53.0)
        for r in range(30):
            rows.append(f"{n},{r},{temp}")
            temp = min(max(temp + rng.gauss(0.0, 3.0), -10.0), 53.0)
    trace = tmp_path / "trace.csv"
    trace.write_text("node,round,temp_c\n" + "\n".join(rows) + "\n")
    return ["--set", "nodes=15", "--set", "rounds=30", "--set", "prr.sampled=true",
            "--set", "energy.initial_battery_j=0.004",
            "--set", f"temperature.trace_path={trace}"]


def f6(value):
    """A real-number cell, formatted apart from the CLI's writers."""
    return format(value, ".6f")


def records_mean_prr(result):
    """The mean of a run's per-round mean PRR, read off its records."""
    return sum(record.prr_mean for record in result.records) / len(result.records)


def set_args(items):
    """``--set`` options for blank-separated ``key=value`` items."""
    return [arg for item in items.split() for arg in ("--set", item)]


def csv_body(path):
    """Every data row of a CSV the CLI wrote, as lists of cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


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
        text = "".join(
            f"{key} = {_get(defaults, path)}\n" for key, (_, path, _) in CONFIG_KEYS.items()
        )
        assert parse_config(write_config(tmp_path, text)) == defaults

    def test_readme_table_matches_keys(self):
        with open(README, encoding="utf-8") as fh:
            section = fh.read().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [
            [cell.strip().strip("`") for cell in line.split("|")[1:4]]
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        assert [key for key, _, _ in rows] == list(CONFIG_KEYS)
        defaults = SimConfig()
        for key, default, bound in rows:
            kind, path, table_bound = CONFIG_KEYS[key]
            value = _get(defaults, path)
            assert bound == (table_bound or ""), key
            if kind in ("int", "float"):
                assert float(default) == value, key
            elif kind == "bool":
                assert default == str(value).lower(), key
            else:
                assert default == (value or "*(unset)*"), key

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["temperature.t_min_c=20", "temperature.t_max_c=20"],
             "temperature.t_min_c/temperature.t_max_c: require t_min_c < t_max_c, got 20.0 >= 20.0"),
            (["regions.boundary_low_dbm=2", "regions.boundary_high_dbm=2"],
             "regions.boundary_low_dbm/regions.boundary_high_dbm: require "
             "boundary_low < boundary_high, got 2.0 >= 2.0"),
            (["regions.threshold_loss_a_dbm=-40"],
             "regions.threshold_loss_a_dbm: must exceed -40 dB, got -40.0"),
            # 0.1996 * (t_min_c - 25) is exactly -40.0 at this t_min_c
            (["temperature.t_min_c=-175.40080160320642"],
             "temperature.t_min_c: its loss -40.0 dB must exceed -40 dB, got -175.40080160320642"),
        ],
        ids=["equal_temperature_bounds", "equal_region_boundaries", "threshold_loss_at_-40",
             "loss_at_t_min_at_-40"],
    )
    def test_equality_at_a_strict_bound_rejected(self, overrides, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(None, overrides)
        assert str(excinfo.value) == message

    def test_bit_count_equal_to_the_largest_float_accepted(self):
        # checked by validate alone: a run with this many bits is never made
        config = parse_config(None)
        config = config._replace(energy=config.energy._replace(data_bits=int(sys.float_info.max)))
        validate(config)
        config = config._replace(energy=config.energy._replace(data_bits=int(sys.float_info.max) + 1))
        with pytest.raises(ConfigError, match="energy.data_bits: must fit a float"):
            validate(config)

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

    def test_fingerprint_pinned(self, tmp_path):
        # perfbench's digests leave manifest.json out, so these hexes are
        # what keeps the fingerprint definition from moving unnoticed
        trace = tmp_path / "t.csv"
        trace.write_text("node,round,temp_c\n0,0,20.0\n0,1,21.0\n")
        pinned = {
            "5b21d0820026ae51942538d113abbd31ef37e402327777f98d465273abbe6ad2": [],
            "6e2fd9973e9571740f446403610f6e010eb31cb2bddc9087a93541743eb20142":
                ["controller=classical", "prr.sampled=true"],
            "ad8b81d78001340b0b76c92af5748b4a85cc1ee8718ccab25053ae1745fc7812":
                ["nodes=1", "rounds=2", f"temperature.trace_path={trace}"],
        }
        for hex_digest, overrides in pinned.items():
            assert fingerprint(parse_config(None, overrides)) == hex_digest, overrides

    @pytest.mark.parametrize(
        "key, boundary, past, message",
        [
            # > 0: the boundary itself is rejected
            *((key, None, "0", "must be positive, got 0.0") for key in (
                "area_side_m", "link_budget.eta", "link_budget.bandwidth_hz",
                "link_budget.frequency_hz", "link_budget.temperature_kelvin",
                "prr.alpha_per_db", "energy.e_elec_j_per_bit", "energy.bitrate_bps",
                "energy.initial_battery_j")),
            *((key, None, "0", "must be positive, got 0") for key in (
                "energy.beacon_bits", "energy.ack_bits", "energy.data_bits")),
            ("nodes", "1", "0", "must be >= 1, got 0"),
            ("rounds", "1", "0", "must be >= 1, got 0"),
            ("temperature.walk_sigma_c", "0", "-0.5", "must be >= 0, got -0.5"),
            ("link_budget.margin_m", "1", "0.5", "must be >= 1, got 0.5"),
            ("cadence.period_rounds", "1", "0", "must be >= 1, got 0"),
            ("cadence.drift_dbm", "0", "-0.5", "must be >= 0, got -0.5"),
        ],
    )
    def test_lower_bound(self, key, boundary, past, message):
        if boundary is not None:
            parse_config(None, [f"{key}={boundary}"])
        with pytest.raises(ConfigError) as excinfo:
            parse_config(None, [f"{key}={past}"])
        assert str(excinfo.value) == f"{key}: {message}"

    def test_fingerprint_exclusion(self):
        # compare_runs relabels the adaptive config with the baseline's
        # controller and asks for equal fingerprints
        east = parse_config(None, ["controller=east"])
        classical = parse_config(None, ["controller=classical"])
        assert fingerprint(east) != fingerprint(classical)
        assert fingerprint(east._replace(controller="classical")) == fingerprint(classical)


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

    def test_every_cell_matches_the_run(self, tmp_path, recorded_runs):
        # 40 nodes drained over 170 rounds with sampled PRR: region A is
        # empty from round 152, so 18 rounds.csv rows hold a nan PRR and the
        # assigned-level figure a nan level, and 13 nodes survive.
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--set", "nodes=40", "--set", "rounds=170",
                     "--set", "energy.initial_battery_j=0.01", "--set", "prr.sampled=true",
                     "--figure-round", "100"]) == 0
        [result] = recorded_runs
        final = result.records[-1]
        series = emit_figure_data(result, 100)
        expected = {
            "rounds.csv": [
                [str(rec.round_index), "east", str(rec.beacons), str(rec.acks),
                 f6(rec.tx_energy_j), f6(rec.rx_energy_j), str(sum(rec.alive)),
                 *(str(rec.region_alive[r]) for r in REGIONS),
                 *(f6(rec.region_prr[r]) for r in REGIONS)]
                for rec in result.records
            ],
            "nodes.csv": [
                [str(i), f6(x), f6(y),
                 result.partition[i].value,
                 *(f6(values[i]) for values in (final.temps_c, final.losses_dbm,
                                                final.levels_dbm, final.pt_dbm,
                                                result.batteries_j)),
                 str(int(final.alive[i]))]
                for i, (x, y) in enumerate(zip(result.deployment.x_m, result.deployment.y_m))
            ],
            "summary.csv": [
                [row.region.value, str(row.initial_count), str(row.desired), str(row.survivors),
                 f6(row.threshold_level_dbm), str(row.nodes_above_threshold),
                 str(row.nodes_below_threshold), f6(row.prr_min_pct), f6(row.prr_max_pct),
                 f6(row.threshold_loss_dbm)]
                for row in summarize(result)
            ],
        }
        for name, values in (("temp_per_node.csv", series.temp_per_node),
                             ("loss_per_node.csv", series.loss_per_node),
                             ("level_per_node.csv", series.level_per_node),
                             ("pt_per_node.csv", series.pt_per_node)):
            expected[f"figures/{name}"] = [[str(i), f6(v)] for i, v in enumerate(values)]
        for name, levels in (("level_per_region_baseline.csv", series.region_level_baseline),
                             ("level_per_region_assigned.csv", series.region_level_assigned)):
            expected[f"figures/{name}"] = [[r.value, f6(levels[r])] for r in REGIONS]
        for name, rows in expected.items():
            assert csv_body(out / name) == rows, name
        assert sum("nan" in row for row in expected["rounds.csv"]) == 18
        alive = [row[-1] for row in expected["nodes.csv"]]
        assert (alive.count("1"), alive.count("0")) == (13, 27)
        assert ["A", "nan"] in expected["figures/level_per_region_assigned.csv"]

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
            # The farthest point's power is its base requirement plus the top
            # level. Region A's level for a 151 dB threshold loss, 3143 dBm,
            # overflows on its own; the base there is -25.5 dBm.
            ("regions.threshold_loss_a_dbm=151 level_cap_dbm=1e5", FARTHEST),
            # its farthest point, hypot(side, side / 2) away, needs 2.6 dB more
            # than the largest power
            ("area_side_m=4e156", FARTHEST),
        ],
    )
    def test_overflowing_value_exits_2(self, tmp_path, capsys, item, named):
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), *SMALL, *set_args(item)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "item",
        [
            # 3095.7 dBm of level: the power, 3070.2 dBm, is 42 dB below the largest
            "regions.threshold_loss_a_dbm=150 level_cap_dbm=1e5",
            # 3.4 dB below the largest power at the farthest point, and 2.6 dB
            # above it at twice that distance
            "area_side_m=2e156",
        ],
    )
    def test_power_just_in_range_at_the_farthest_point_exits_0(self, tmp_path, item):
        assert main(["run", "--out", str(tmp_path / "o"), *SMALL, *set_args(item)]) == 0

    def test_bit_count_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        tiny = ["--set", "nodes=5", "--set", "rounds=5"]
        for key in ("energy.beacon_bits", "energy.ack_bits", "energy.data_bits"):
            out = tmp_path / key
            assert main(["run", "--out", str(out), *tiny, "--set", f"{key}={10**400}"]) == 2
            assert f"{key}: must fit a float" in capsys.readouterr().err
            assert not out.exists()
        # the seed only feeds a hash, so any integer is one
        assert main(["run", "--out", str(tmp_path / "s"), *tiny, "--set", f"seed={10**400}"]) == 0

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_node_on_reference_point_exits_2(self, tmp_path, capsys, command):
        # a subnormal side rounds some positions onto the reference point
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--set", "nodes=5", "--set", "rounds=5"]
        assert main([*argv, "--set", "area_side_m=5e-324"]) == 2
        assert "area_side_m: node" in capsys.readouterr().err
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
        for figure_round in ("99", "12"):  # SMALL runs 12 rounds
            assert main(["run", "--out", str(out), *SMALL, "--figure-round", figure_round]) == 2
            assert (f"--figure-round {figure_round} out of range; the run has 12 rounds"
                    in capsys.readouterr().err)
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

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), *SMALL, "--seed", "1"]) == 0
        figure = out / "figures" / "temp_per_node.csv"
        figure.unlink()
        figure.mkdir()
        assert main(["run", "--out", str(out), *SMALL, "--seed", "2"]) == 3
        assert "i/o error" in capsys.readouterr().err
        # rounds.csv is now the seed-2 run's; a manifest naming seed 1 beside it would lie
        assert not (out / "manifest.json").exists()


# Two valid values of every config key, in CONFIG_KEYS order, whose 10-node
# x 20-round runs write different artifacts: a key that reaches none of them
# is a knob that does nothing. {tmp} is the test's tmp_path, which holds a
# cool and a warm trace.
KEY_EFFECTS = {
    "nodes": ("10", "11"),
    "rounds": ("20", "21"),
    "area_side_m": ("100", "50"),
    "seed": ("1", "2"),
    "controller": ("east", "classical"),
    # above every threshold level (43.2 dBm at most), below the baseline's 48.6 dBm
    "level_cap_dbm": ("45", "48.7"),
    "temperature.t_min_c": ("-10", "0"),
    "temperature.t_max_c": ("53", "60"),
    "temperature.walk_sigma_c": ("0.5", "2"),
    "temperature.trace_path": ("{tmp}/cool.csv", "{tmp}/warm.csv"),
    "link_budget.eta": ("0.0029", "0.005"),
    "link_budget.eb_n0_db": ("8.3", "10"),
    "link_budget.bandwidth_hz": ("83.5e6", "2e6"),
    "link_budget.frequency_hz": ("2.45e9", "9e8"),
    "link_budget.rnf_db": ("5", "8"),
    "link_budget.temperature_kelvin": ("300", "400"),
    "link_budget.margin_m": ("1", "2"),
    "regions.boundary_high_dbm": ("-0.61", "3"),
    "regions.boundary_low_dbm": ("-5.17", "-2"),
    "regions.threshold_loss_a_dbm": ("3.78", "2"),
    "regions.threshold_loss_b_dbm": ("-0.61", "1"),
    "regions.threshold_loss_c_dbm": ("-5.17", "-3"),
    "cadence.period_rounds": ("10", "3"),
    # a drift of 0 forces an exchange at any change of a member's loss
    "cadence.drift_dbm": ("0", "1"),
    "prr.alpha_per_db": ("0.5", "1"),
    "prr.beta_db": ("-4", "0"),
    "prr.sampled": ("false", "true"),
    "energy.e_elec_j_per_bit": ("5e-8", "1e-7"),
    "energy.bitrate_bps": ("250000", "1000"),
    "energy.beacon_bits": ("256", "512"),
    "energy.ack_bits": ("256", "512"),
    "energy.data_bits": ("1024", "2048"),
    "energy.initial_battery_j": ("2", "0.001"),
}


class TestEveryKeyReachesTheArtifacts:
    def test_table_lists_every_key(self):
        assert list(KEY_EFFECTS) == list(CONFIG_KEYS)

    @pytest.mark.parametrize("key", list(KEY_EFFECTS))
    def test_two_values_write_different_artifacts(self, tmp_path, monkeypatch, key):
        monkeypatch.delenv("EAST_SEED", raising=False)
        for name, temp in (("cool", 20.0), ("warm", 40.0)):
            (tmp_path / f"{name}.csv").write_text("node,round,temp_c\n" + "".join(
                f"{n},{r},{temp + n}\n" for n in range(11) for r in range(21)))

        def artifacts(name, value):
            out = tmp_path / name
            argv = ["run", "--out", str(out), *set_args("nodes=10 rounds=20"),
                    "--set", f"{key}={value.format(tmp=tmp_path)}"]
            assert main(argv) == 0
            return {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                    if path.is_file() and path.name != "manifest.json"}

        first, second = KEY_EFFECTS[key]
        assert artifacts("first", first) != artifacts("second", second)


class TestWalkCache:
    """A rerun of a synthetic command reads its walk from the walk cache."""

    @pytest.fixture
    def walk_streams(self, monkeypatch):
        """How many walk streams the commands seeded."""
        seeded = []

        def counting_walk(seed, node_id):
            seeded.append(node_id)
            return topology.walk_stream(seed, node_id)

        monkeypatch.setattr(engine, "walk_stream", counting_walk)
        return seeded

    @staticmethod
    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("command", [
        ["run"], ["compare"], ["sweep", "--key", "cadence.period_rounds", "--values", "1,4"],
    ], ids=["run", "compare", "sweep"])
    def test_warm_command_writes_the_files_of_a_cold_one(self, tmp_path, cache_dirs, walk_streams,
                                                         command):
        for name in ("cold", "warm"):
            assert main([*command, *SMALL, "--out", str(tmp_path / name)]) == 0
            assert len(walk_streams) == 15  # the cold command's, once per node
        assert len(os.listdir(cache_dirs.walks)) == 1
        cold, warm = self.files(tmp_path / "cold"), self.files(tmp_path / "warm")
        assert cold == warm and cold  # every file, manifests included

    @pytest.mark.parametrize("setting, names_a_walk", [
        ("seed=8", True), ("nodes=14", True), ("rounds=11", True),
        ("temperature.t_min_c=-9", True), ("temperature.t_max_c=52", True),
        ("temperature.walk_sigma_c=0.75", True),
        ("controller=classical", False), ("cadence.period_rounds=3", False),
        ("cadence.drift_dbm=0.5", False), ("energy.initial_battery_j=1.5", False),
        ("energy.data_bits=512", False),
    ])
    def test_only_walk_inputs_name_another_file(self, tmp_path, cache_dirs, walk_streams, setting,
                                                names_a_walk):
        assert main(["run", *SMALL, "--out", str(tmp_path / "first")]) == 0
        seeded = len(walk_streams)
        assert main(["run", *SMALL, "--set", setting, "--out", str(tmp_path / "second")]) == 0
        assert len(os.listdir(cache_dirs.walks)) == (2 if names_a_walk else 1)
        assert (len(walk_streams) > seeded) == names_a_walk

    def test_unwritable_location_runs_and_writes_nothing(self, tmp_path, monkeypatch, walk_streams):
        assert main(["run", *SMALL, "--out", str(tmp_path / "cached")]) == 0
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for name in ("first", "second"):
            assert main(["run", *SMALL, "--out", str(tmp_path / name)]) == 0
        assert len(walk_streams) == 3 * 15  # nothing cached, so every run drew
        assert blocker.read_text() == "not a directory\n"
        cached = self.files(tmp_path / "cached")
        assert self.files(tmp_path / "first") == self.files(tmp_path / "second") == cached


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

    def test_every_cell_matches_the_runs(self, tmp_path, recorded_runs):
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out), *draining_trace_argv(tmp_path)]) == 0
        report = compare_runs(*recorded_runs)
        assert report.survivors_delta != 0
        east_prr, classical_prr = map(records_mean_prr, recorded_runs)
        assert csv_body(out / "compare.csv") == [
            ["control_packets", str(report.east_control_packets),
             str(report.classical_control_packets), str(report.control_packets_delta)],
            ["energy_j", f6(report.east_energy_j), f6(report.classical_energy_j),
             f6(report.energy_delta_j)],
            ["survivors", str(report.east_survivors), str(report.classical_survivors),
             str(report.survivors_delta)],
            ["mean_prr", f6(east_prr), f6(classical_prr), f6(east_prr - classical_prr)],
        ]

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
        argv = draining_trace_argv(tmp_path)
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

    def test_runs_leave_the_trace_rows_as_loaded(self, tmp_path, monkeypatch, recorded_runs):
        # the rows are mutable arrays, shared by both controllers' runs
        argv = draining_trace_argv(tmp_path)
        assert main(["compare", "--out", str(tmp_path / "o"), *argv]) == 0
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh-cache"))
        fresh = topology.load_temperature_trace(str(tmp_path / "trace.csv")).trace
        assert len(recorded_runs) == 2
        assert all(result.config.temperature.trace == fresh for result in recorded_runs)

    def test_controller_override_rejected(self, tmp_path, capsys):
        code = main(["compare", "--out", str(tmp_path / "o"), "--set", "controller=east"])
        assert code == 2
        assert "controller" in capsys.readouterr().err


class TestCmdSweep:
    def test_sweep_layout(self, tmp_path):
        # The drained sweep dies out in round 10 at period 1 and loses nodes
        # at periods 3 and 6. Each summary row is the sum of its run's rounds.
        for name, drain in (("sweep", []), ("drained", ["--set", "energy.initial_battery_j=0.0008"])):
            out = tmp_path / name
            code = main(
                [
                    "sweep", "--out", str(out), "--key", "cadence.period_rounds",
                    "--values", "1,3,6", *SMALL, *drain,
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
            last_rounds = []
            for line in lines[1:]:
                key, value, beacons, acks, control, energy, survivors, _ = line.split(",")
                with open(out / f"{key}={value}" / "rounds.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                assert int(beacons) == sum(int(row["beacons"]) for row in rows)
                assert int(acks) == sum(int(row["acks"]) for row in rows)
                assert int(control) == int(beacons) + int(acks)
                assert int(survivors) == int(rows[-1]["alive"])
                # each rounds.csv value and the total are rounded to 1e-6
                spent = sum(float(row["tx_energy_j"]) + float(row["rx_energy_j"]) for row in rows)
                assert abs(float(energy) - spent) <= 1e-6 * (len(rows) + 1)
                last_rounds.append((int(rows[-1]["round"]), int(survivors)))
            if drain:
                assert last_rounds[0] == (10, 0)
                assert all(last == 11 and 0 < alive < 15 for last, alive in last_rounds[1:])

    def test_summary_cells_match_the_runs(self, tmp_path, recorded_runs):
        out = tmp_path / "sweep"
        key, values = "energy.initial_battery_j", ["0.0008", "2"]
        assert main(["sweep", "--out", str(out), *SMALL, "--key", key,
                     "--values", ",".join(values)]) == 0
        assert csv_body(out / "sweep_summary.csv") == [
            [key, value, str(result.traffic.beacons_sent), str(result.traffic.acks_sent),
             str(result.control_packets), f6(result.total_energy_j), str(result.survivors),
             f6(records_mean_prr(result))]
            for value, result in zip(values, recorded_runs)
        ]

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
            # temperature keys parse once per value and split into
            # one-member groups, each on its own temperature process
            ("temperature.t_max_c", ["50", "60"]),
            ("temperature.walk_sigma_c", ["0.5", "2"]),
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
            assert_same_files(member, solo, value)

    def test_failed_rerun_leaves_no_stale_summary(self, tmp_path, capsys):
        out = tmp_path / "sw"
        argv = ["sweep", "--key", "cadence.period_rounds", "--values", "1,5",
                "--set", "nodes=5", "--set", "rounds=5", "--out", str(out)]
        assert main([*argv, "--seed", "1"]) == 0
        figure = out / "cadence.period_rounds=5" / "figures" / "temp_per_node.csv"
        figure.unlink()
        figure.mkdir()
        assert main([*argv, "--seed", "2"]) == 3
        assert "i/o error" in capsys.readouterr().err
        # the first run directory now holds seed 2; a seed-1 summary beside it would lie
        assert not (out / "sweep_summary.csv").exists()

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

    def test_trace_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        # with no writable cache every load parses, so the count is the loads
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        parses = []
        real = topology._load_per_line

        def counting_load(*args):
            parses.append(args[0])
            return real(*args)

        monkeypatch.setattr(topology, "_load_per_line", counting_load)
        trace = tmp_path / "trace.csv"
        rows = [f"{n},{r},{20.0 + n + r / 10}" for n in range(15) for r in range(12)]
        trace.write_text("node,round,temp_c\n" + "\n".join(rows) + "\n")
        argv = [*SMALL, "--set", f"temperature.trace_path={trace}", "--figure-round", "3"]
        values = ["1", "2", "5"]
        assert main(["sweep", "--out", str(tmp_path / "s"), *argv,
                     "--key", "cadence.period_rounds", "--values", ",".join(values)]) == 0
        assert parses == [str(trace)]
        for value in values:
            solo = tmp_path / f"run-{value}"
            assert main(["run", "--out", str(solo), *argv,
                         "--set", f"cadence.period_rounds={value}"]) == 0
            member = tmp_path / "s" / f"cadence.period_rounds={value}"
            assert_same_files(member, solo, value)

    @pytest.mark.parametrize(
        "key, values, extra, env_seed",
        [
            ("seed", "1,1", [], None),
            ("temperature.walk_sigma_c", "0.1,0.2", ["--set", "temperature.trace_path={trace}"],
             None),
            ("seed", "1,2", ["--seed", "5"], None),
            ("seed", "1,2", [], "7"),
        ],
        ids=["repeated-value", "trace-drops-walk-sigma", "seed-flag", "seed-env"],
    )
    def test_values_making_one_config_rejected(self, tmp_path, capsys, monkeypatch,
                                               key, values, extra, env_seed):
        # Each pair of values resolves to one config; running it twice would
        # write two identical rows under names that misstate an input.
        trace = tmp_path / "trace.csv"
        trace.write_text("node,round,temp_c\n" + "".join(
            f"{n},{r},20.0\n" for n in range(5) for r in range(3)))
        if env_seed is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env_seed)
        out = tmp_path / "sweep"
        extra = [arg.format(trace=trace) for arg in extra]
        code = main(["sweep", "--out", str(out), "--set", "nodes=5", "--set", "rounds=3",
                     *extra, "--key", key, "--values", values])
        assert code == 2
        err = capsys.readouterr().err
        first, second = values.split(",")
        assert f"{key} values {first!r} and {second!r} make the same config" in err
        assert not out.exists()

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

    def test_renders_a_single_round_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--set", "nodes=15", "--set", "rounds=1"]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        assert "Nodes after 1 Rounds" in capsys.readouterr().out

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


@pytest.mark.parametrize("damaged", ["config", "trace", "summary.csv", "rounds.csv"])
def test_invalid_utf8_input_is_a_named_error(tmp_path, capsys, damaged):
    # A trailing byte that is not UTF-8, in each file a command reads.
    config = tmp_path / "run.cfg"
    config.write_text("nodes = 2\nrounds = 3\n")
    trace = tmp_path / "trace.csv"
    trace.write_text("node,round,temp_c\n" + "".join(
        f"{n},{r},20.0\n" for n in range(2) for r in range(3)))
    out = tmp_path / "out"
    argv = ["run", "--out", str(out), "--config", str(config)]
    if damaged in ("config", "trace"):
        path = config if damaged == "config" else trace
        path.write_bytes(path.read_bytes() + b"\xff")
        assert main([*argv, "--set", f"temperature.trace_path={trace}"]) == 2
        assert not out.exists()
    else:
        assert main(argv) == 0
        path = out / damaged
        path.write_bytes(path.read_bytes() + b"\xff")
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["config", "trace"])
def test_byte_order_mark_is_read_past(tmp_path, capsys, kind):
    # A file saved with a UTF-8 byte order mark runs like the same file
    # without one, and a bad byte after the mark is named at its offset in
    # the file. A trace's manifest differs: it hashes the trace's bytes.
    config = tmp_path / "run.cfg"
    config.write_text("nodes = 2\nrounds = 3\n")
    trace = tmp_path / "trace.csv"
    trace.write_text("node,round,temp_c\n" + "".join(
        f"{n},{r},2{n}.{r}\n" for n in range(2) for r in range(3)))
    path = config if kind == "config" else trace
    plain = path.read_bytes()
    argv = ["run", "--config", str(config), "--set", f"temperature.trace_path={trace}", "--out"]
    assert main([*argv, str(tmp_path / "plain")]) == 0
    path.write_bytes(b"\xef\xbb\xbf" + plain)
    assert main([*argv, str(tmp_path / "bom")]) == 0
    if kind == "trace":
        (tmp_path / "plain" / "manifest.json").unlink()
        (tmp_path / "bom" / "manifest.json").unlink()
    assert_same_files(tmp_path / "bom", tmp_path / "plain", kind)
    path.write_bytes(b"\xef\xbb\xbf" + plain + b"\xff")
    capsys.readouterr()
    assert main([*argv, str(tmp_path / "bad")]) == 2
    assert f"{path}: not UTF-8 text: invalid start byte at byte {3 + len(plain)}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({}, ["run", "--set", "nodes"], "override 'nodes' is not of the form key=value"),
        ({"run.cfg": "nodes = 5\nrounds\n"}, ["run", "--config", "{tmp}/run.cfg"],
         "{tmp}/run.cfg:2: expected 'key = value', got 'rounds'"),
        ({"trace.csv": ""}, ["run", "--set", "temperature.trace_path={tmp}/trace.csv"],
         "{tmp}/trace.csv: empty trace file"),
        ({"trace.csv": "node,round,temp_c\n"},
         ["run", "--set", "temperature.trace_path={tmp}/trace.csv"],
         "{tmp}/trace.csv: trace contains no rows"),
        # the blank lines keep 2 x 2 cells within the lines of the file, so
        # the rows stay dense with a cell missing
        ({"trace.csv": "node,round,temp_c\n0,0,20\n1,1,21\n\n\n"},
         ["run", "--set", "temperature.trace_path={tmp}/trace.csv"],
         "{tmp}/trace.csv: missing entry for node 0, round 1"),
        ({}, ["run", "--set", "prr.sampled=maybe"], "prr.sampled: cannot parse 'maybe' as bool"),
        ({}, ["sweep", "--key", "seed", "--values", ","], "sweep needs at least one value"),
        ({"run/summary.csv": "region,count\nA,1\n"}, ["report", "--dir", "{tmp}/run"],
         f"{{tmp}}/run/summary.csv: expected header {cli.SUMMARY_HEADER!r}"),
    ],
    ids=["override-without-equals", "config-line-without-equals", "empty-trace",
         "header-only-trace", "dense-trace-missing-a-cell", "bool-that-is-not-one",
         "no-sweep-values", "summary-with-wrong-header"],
)
def test_malformed_input_exits_2_with_its_message(tmp_path, capsys, files, argv, message):
    # Each input is refused by its own check, with that check's message,
    # before a command that writes makes its output directory.
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    out = tmp_path / "out"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] != "report":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not out.exists()
