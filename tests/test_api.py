"""Tests for the Python API's value types, what importing the CLI loads, and
README's Python examples."""

import os
import re
import subprocess
import sys
from array import array

import pytest

import eastsim
from eastsim.config import CONFIG_KEYS, SimConfig, apply_overrides, fingerprint, parse_config
from eastsim.engine import run_simulation
from eastsim.errors import ConfigError, DataError
from eastsim.protocol import Region, RegionConfig
from eastsim.topology import TraceTable, deploy_random

from oracle import record_as_dict, records_equal

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SECTIONS = ("temperature", "link_budget", "regions", "cadence", "prr", "energy")


def loaded_modules(code):
    """The names in sys.modules after a fresh interpreter runs ``code`` with
    the package's source directory as its PYTHONPATH."""
    source = os.path.dirname(os.path.dirname(eastsim.__file__))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=source), capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_importing_the_cli_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize), which
    # every command would pay for at start-up
    added = loaded_modules("import eastsim.cli") - loaded_modules("pass")
    assert "eastsim.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("value", [SimConfig(), *(getattr(SimConfig(), name) for name in SECTIONS),
                                   deploy_random(3, 10.0, seed=1)],
                         ids=["config", *SECTIONS, "deployment"])
def test_sections_and_deployment_reject_field_assignment(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


def test_default_thresholds_are_read_only():
    # the mapping is a new copy on every read, and the property has no setter
    regions = RegionConfig()
    regions.threshold_loss_dbm[Region.A] = 0.0
    with pytest.raises(AttributeError):
        regions.threshold_loss_dbm = {}
    assert regions.threshold_loss_dbm[Region.A] == regions.threshold_loss_a_dbm == 3.78
    assert regions == RegionConfig()


def test_config_replace_leaves_the_original():
    config = SimConfig(node_count=5)
    before = repr(config)
    changed = config._replace(controller="classical",
                              energy=config.energy._replace(initial_battery_j=0.5))
    assert repr(config) == before
    assert (config.controller, config.energy.initial_battery_j) == ("east", 2.0)
    assert changed == SimConfig(node_count=5, controller="classical",
                                energy=config.energy._replace(initial_battery_j=0.5))
    with pytest.raises(AttributeError):
        changed.seed = 7
    assert config.seed == 42
    assert config._replace() == config and config._replace() is not config


def test_apply_overrides_returns_a_copy():
    config = SimConfig(node_count=5)
    before = repr(config)
    changed = apply_overrides(config, ["seed=7", "energy.data_bits=512",
                                       "regions.threshold_loss_b_dbm=0.5"])
    assert repr(config) == before
    assert changed is not config
    assert (changed.seed, changed.energy.data_bits) == (7, 512)
    assert changed.regions.threshold_loss_dbm[Region.B] == 0.5


def test_every_settable_field_is_a_config_key():
    # a field that no config key reaches is a knob only the Python API can
    # turn; the trace load alone sets the loaded table
    config = SimConfig()
    leaves = set()
    for name in SimConfig._fields:
        if name not in SECTIONS:
            leaves.add(name)
            continue
        leaves.update(f"{name}.{field}" for field in getattr(config, name)._fields)
    leaves -= {"temperature.trace"}
    assert leaves == {path for _, path, _ in CONFIG_KEYS.values()}


def test_config_rejects_an_unknown_field():
    with pytest.raises(TypeError, match="nodes"):
        SimConfig(nodes=5)


def test_trace_tables_compare_by_rows():
    table = TraceTable((array("d", [1.0, 2.0]),))
    assert table == TraceTable((array("d", [1.0, 2.0]),))
    assert table != TraceTable((array("d", [1.0, 2.5]),))
    assert table != table.rows


def test_readme_python_examples_run(tmp_path, monkeypatch):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 2
    (tmp_path / "exp.cfg").write_text("rounds = 6\nseed = 3\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert namespace["result"].config.node_count == 500
    assert len(namespace["result"].records) == 6
    assert namespace["config"].controller == "east"
    assert [run.config.controller for run in (namespace["east"], namespace["classical"])] == [
        "east", "classical"]


def write_trace(path, low=20.0):
    """A 3-node, 2-round trace whose values lie in [low + 0.5, low + 3.5]."""
    path.write_text("node,round,temp_c\n" + "".join(
        f"{n},{r},{low + n + r + 0.5}\n" for n in range(3) for r in range(2)))
    return path


def test_a_trace_path_never_loaded_is_refused():
    # a config built in Python names a trace that no load read: running the
    # synthetic walk under that name would mislabel the run
    with pytest.raises(ConfigError, match="temperature.trace_path: a.csv was never loaded"):
        run_simulation(SimConfig(node_count=3, rounds=2, trace_path="a.csv"))


def test_overriding_the_trace_path_drops_the_loaded_trace(tmp_path):
    trace = write_trace(tmp_path / "trace.csv")
    parsed = parse_config(None, ["nodes=3", "rounds=2", f"temperature.trace_path={trace}"])
    assert parsed.temperature.trace is not None
    moved = apply_overrides(parsed, ["temperature.trace_path=/nonexistent.csv"])
    assert moved.temperature.trace is None
    assert parsed.temperature.trace is not None  # the parsed config keeps its table
    with pytest.raises(ConfigError, match="temperature.trace_path: /nonexistent.csv was never loaded"):
        run_simulation(moved)
    assert run_simulation(parsed).records[-1].temps_c == [21.5, 22.5, 23.5]  # round 1 of the trace


def test_clearing_the_trace_path_runs_the_configured_walk(tmp_path):
    # a config that loaded a trace, with the trace path cleared, runs the
    # walk of the configured sigma, as if it had never named a trace
    keys = ["nodes=3", "rounds=3", "temperature.walk_sigma_c=2.0"]
    trace = write_trace(tmp_path / "trace.csv")
    parsed = parse_config(None, [*keys, f"temperature.trace_path={trace}", "rounds=2"])
    cleared = apply_overrides(parsed, ["temperature.trace_path=", "rounds=3"])
    synthetic = parse_config(None, keys)
    assert fingerprint(cleared) == fingerprint(synthetic)
    runs = [[record_as_dict(r) for r in run_simulation(c).records] for c in (cleared, synthetic)]
    assert len(runs[0]) == len(runs[1]) == 3
    assert all(records_equal(a, b) for a, b in zip(*runs))
    assert len({record["temps"] for record in runs[0]}) == 3  # the walk moves


@pytest.mark.parametrize("override", ["temperature.t_min_c=42", "temperature.t_max_c=42"])
def test_a_range_override_drops_the_loaded_trace(tmp_path, override):
    # the trace holds 40.5 to 43.5 C, part of which either new bound excludes
    keys = ["nodes=3", "rounds=2", f"temperature.trace_path={write_trace(tmp_path / 'a.csv', 40.0)}"]
    parsed = parse_config(None, keys)
    changed = apply_overrides(parsed, [override])
    assert changed.temperature.trace is None
    with pytest.raises(ConfigError, match="temperature.trace_path: .*a.csv was never loaded"):
        run_simulation(changed)
    with pytest.raises(DataError, match="outside declared range"):
        parse_config(None, [*keys, override])


@pytest.mark.parametrize("override", ["temperature.walk_sigma_c=0.75", "seed=5", "rounds=1"])
def test_an_override_the_trace_load_does_not_read_keeps_the_trace(tmp_path, override):
    parsed = parse_config(None, ["nodes=3", "rounds=2",
                                 f"temperature.trace_path={write_trace(tmp_path / 'a.csv')}"])
    changed = apply_overrides(parsed, [override])
    assert changed.temperature.trace is parsed.temperature.trace
    assert run_simulation(changed).records[0].temps_c == [20.5, 21.5, 22.5]
