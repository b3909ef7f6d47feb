"""Tests for deployment and the temperature process."""

import binascii
import hashlib
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from array import array
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastsim import topology
from eastsim.cli import main
from eastsim import config as config_mod
from eastsim.config import SimConfig, fingerprint, parse_config
from eastsim.engine import run_simulation
from eastsim.errors import ConfigError, DataError
from eastsim.topology import (
    TemperatureProcess,
    TraceTable,
    deploy_random,
    lean_sha256,
    load_temperature_trace,
    walk_rows,
    walk_stream,
)

from oracle import record_as_dict, records_equal


def reference_stream(seed, *labels):
    # independent re-derivation of the substream recipe
    key = ":".join([str(seed), *(str(label) for label in labels)])
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class TestDeployRandom:
    def test_deterministic(self):
        a = deploy_random(100, 100.0, seed=42)
        b = deploy_random(100, 100.0, seed=42)
        assert a == b

    def test_bounds(self):
        dep = deploy_random(100, 100.0, seed=42)
        assert len(dep.x_m) == len(dep.y_m) == len(dep.base_temp_c) == 100
        assert all(0.0 <= x <= 100.0 for x in dep.x_m)
        assert all(0.0 <= y <= 100.0 for y in dep.y_m)
        assert all(-10.0 <= t <= 53.0 for t in dep.base_temp_c)

    def test_positions_match_rng_oracle(self):
        dep = deploy_random(5, 100.0, seed=7)
        assert len(dep.x_m) == 5
        for i in range(5):
            rng = reference_stream(7, "deploy", i)
            assert dep.x_m[i] == rng.uniform(0.0, 100.0)
            assert dep.y_m[i] == rng.uniform(0.0, 100.0)
            assert dep.base_temp_c[i] == reference_stream(7, "base-temp", i).uniform(-10.0, 53.0)

    def test_reference_on_boundary(self):
        dep = deploy_random(10, 80.0, seed=1)
        assert dep.reference_m == (0.0, 40.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            deploy_random(0, 100.0, seed=1)
        with pytest.raises(ConfigError):
            deploy_random(5, 0.0, seed=1)


HAS_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))

# Runs run, compare and sweep without a trace, then reports whether
# OpenSSL's sha256 (the _hashlib module behind hashlib) and the array module,
# which only trace rows need, were ever imported.
LEAN_COMMANDS = """
import sys
from eastsim.cli import main
small = ["--set", "nodes=5", "--set", "rounds=3", "--out"]
for command, *extra in (["run"], ["compare"], ["sweep", "--key", "cadence.period_rounds", "--values", "1,2"]):
    assert main([command, *extra, *small, sys.argv[1] + "/" + command]) == 0, command
print("_hashlib" in sys.modules, "array" in sys.modules)
"""


class TestLeanSha256:
    def test_digests_equal_hashlib(self, monkeypatch):
        for seed, *labels in [(1, "deploy", 0), (1, "base-temp", 999), (2**70, "temp-walk", 3)]:
            key = ":".join([str(seed), *(str(label) for label in labels)]).encode("ascii")
            assert lean_sha256(key).digest() == hashlib.sha256(key).digest()
        payloads = []

        def recording_sha256(data):
            payloads.append(data)
            return lean_sha256(data)

        monkeypatch.setattr(config_mod, "lean_sha256", recording_sha256)
        digest = fingerprint(parse_config(None, ["controller=classical"]))
        assert digest == hashlib.sha256(payloads[-1]).hexdigest()
        assert b"controller=classical" in payloads[-1]

    @pytest.mark.skipif(not HAS_BUILTIN_SHA256, reason="no builtin _sha2 or _sha256 module")
    def test_trace_free_commands_do_not_load_openssl(self, tmp_path):
        # -S keeps site-packages' start-up hooks from importing hashlib themselves
        source = os.path.dirname(os.path.dirname(topology.__file__))
        done = subprocess.run(
            [sys.executable, "-S", "-c", LEAN_COMMANDS, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=source), capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines()[-1] == "False False"


def walk_temps(nodes, rounds, seed, sigma):
    """Per-round temperatures of a synthetic-walk run, as the engine records them."""
    cfg = SimConfig(node_count=nodes, rounds=rounds, seed=seed)
    cfg = cfg._replace(temperature=cfg.temperature._replace(walk_sigma_c=sigma))
    result = run_simulation(cfg)
    assert len(result.records) == rounds
    return result, [rec.temps_c for rec in result.records]


class TestTemperatureAt:
    """Node temperatures per round, as the engine's records report them."""

    def test_constant_when_sigma_zero(self):
        result, temps = walk_temps(3, 10, seed=5, sigma=0.0)
        for row in temps:
            assert row == list(result.deployment.base_temp_c)

    def test_bounded(self):
        _, temps = walk_temps(4, 60, seed=2, sigma=5.0)
        for row in temps:
            assert all(-10.0 <= t <= 53.0 for t in row)

    def test_matches_walk_oracle(self):
        result, temps = walk_temps(1, 10, seed=1, sigma=0.5)
        rng = reference_stream(1, "temp-walk", 0)
        expected = result.deployment.base_temp_c[0]
        assert temps[0][0] == expected
        for rnd in range(1, 10):
            expected = min(max(expected + 0.5 * rng.gauss(0.0, 1.0), -10.0), 53.0)
            assert temps[rnd][0] == expected

    def test_long_walk_matches_random_gauss(self):
        # 4 nodes x 2500 steps: 10^4 draws of the engine's own Box-Muller
        # step, checked against Random.gauss on the same streams. A sigma of
        # 20 C drives every node into both clamps many times.
        nodes, rounds, seed, sigma = 4, 2501, 7, 20.0
        result, temps = walk_temps(nodes, rounds, seed=seed, sigma=sigma)
        for i, expected in enumerate(result.deployment.base_temp_c):
            assert result.records[-1].alive[i]
            rng = walk_stream(seed, i)
            walk = [expected]
            for _ in range(1, rounds):
                expected = min(max(expected + sigma * rng.gauss(0.0, 1.0), -10.0), 53.0)
                walk.append(expected)
            assert [row[i] for row in temps] == walk
            assert walk.count(-10.0) > 10 and walk.count(53.0) > 10


def write_trace(path, rows, header="node,round,temp_c"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def node_major_lines(n_nodes, n_rounds):
    return [f"{n},{r},{20.0 + n + 0.25 * r}" for n in range(n_nodes) for r in range(n_rounds)]


def trace_text(lines, end="\n"):
    return "node,round,temp_c\n" + "".join(line + end for line in lines)


def with_value(lines, i, value):
    node, rnd, _ = lines[i].split(",")
    return lines[:i] + [f"{node},{rnd},{value}"] + lines[i + 1 :]


def with_index_prefix(lines, i, prefix):
    return lines[:i] + [prefix + lines[i]] + lines[i + 1 :]


def swapped(lines, i):
    j = (i + 1) % len(lines)
    out = list(lines)
    out[i], out[j] = out[j], out[i]
    return out


def inside_value(lines, i, char):
    node, rnd, temp = lines[i].split(",")
    return lines[:i] + [f"{node},{rnd},{temp[:1]}{char}{temp[1:]}"] + lines[i + 1 :]


# Variants of a node-major trace's text: each maps (data lines, a line
# index) to the text of the file.
PERTURBATIONS = {
    "crlf": lambda lines, i: trace_text(lines, "\r\n"),
    "blank_line": lambda lines, i: trace_text(lines[:i] + [""] + lines[i:]),
    "two_trailing_newlines": lambda lines, i: trace_text(lines) + "\n",
    "plus_index": lambda lines, i: trace_text(with_index_prefix(lines, i, "+")),
    "zero_padded_index": lambda lines, i: trace_text(with_index_prefix(lines, i, "0")),
    "space_before_index": lambda lines, i: trace_text(with_index_prefix(lines, i, " ")),
    "nan": lambda lines, i: trace_text(with_value(lines, i, "nan")),
    "inf": lambda lines, i: trace_text(with_value(lines, i, "inf")),
    "overflow": lambda lines, i: trace_text(with_value(lines, i, "1e400")),
    "out_of_range": lambda lines, i: trace_text(with_value(lines, i, "60.0")),
    "line_dropped": lambda lines, i: trace_text(lines[:i] + lines[i + 1 :]),
    "line_duplicated": lambda lines, i: trace_text(lines[: i + 1] + lines[i:]),
    "lines_swapped": lambda lines, i: trace_text(swapped(lines, i)),
    "round_major": lambda lines, i: trace_text(
        sorted(lines, key=lambda line: [int(f) for f in line.split(",")[1::-1]])
    ),
    "vertical_tab_in_value": lambda lines, i: trace_text(inside_value(lines, i, "\x0b")),
    "file_separator_in_value": lambda lines, i: trace_text(inside_value(lines, i, "\x1c")),
    "no_trailing_newline": lambda lines, i: trace_text(lines)[:-1],
}


def load_text(path, text):
    """Writes ``text`` to ``path`` and loads it with the default bounds: the
    table, or the DataError's message with the path stripped."""
    path.write_bytes(text.encode("utf-8"))
    try:
        return load_temperature_trace(str(path)).trace
    except DataError as exc:
        return str(exc).removeprefix(f"{path}: ")


def trace_table(rows):
    """The table whose per-round rows hold these values, as a load builds it."""
    return TraceTable(tuple(array("d", row) for row in rows))


def grid_table(n_nodes, n_rounds):
    """The table of node_major_lines(n_nodes, n_rounds)."""
    return trace_table([20.0 + n + 0.25 * r for n in range(n_nodes)] for r in range(n_rounds))


@st.composite
def perturbed_node_major_traces(draw):
    """A node-major grid of 1-6 x 1-6 with values in and just outside the
    default bounds, and at most one perturbation; with the grid's per-round
    rows where the file is unperturbed and every value in range, else None."""
    n_nodes, n_rounds = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    temperature = st.one_of(
        st.floats(-10.5, 53.5),
        st.sampled_from([-10.0, 53.0, -10.000001, 53.000001]),
    )
    temps = draw(st.lists(temperature, min_size=n_nodes * n_rounds, max_size=n_nodes * n_rounds))
    cells = product(range(n_nodes), range(n_rounds))
    lines = [f"{n},{r},{t!r}" for (n, r), t in zip(cells, temps)]
    perturbation = draw(st.sampled_from([None, *PERTURBATIONS]))
    if perturbation is None:
        in_range = all(-10.0 <= t <= 53.0 for t in temps)
        rows = tuple(tuple(temps[n * n_rounds + r] for n in range(n_nodes)) for r in range(n_rounds))
        return trace_text(lines), rows if in_range else None
    return PERTURBATIONS[perturbation](lines, draw(st.integers(0, len(lines) - 1))), None


class TestLoadTemperatureTrace:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = [f"{n},{r},{20.0 + n + r}" for n in range(2) for r in range(3)]
        write_trace(path, rows)
        proc = load_temperature_trace(str(path))
        assert proc.mode == "trace"
        assert len(proc.trace) == 6
        assert len(proc.trace.rows[0]) == 2
        assert len(proc.trace.rows) == 3
        assert proc.trace.rows[2][1] == 23.0

    def test_missing_entry_identified(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = [f"{n},{r},20.0" for n in range(2) for r in range(3) if not (n == 1 and r == 2)]
        write_trace(path, rows)
        with pytest.raises(DataError, match=r"node 1, round 2"):
            load_temperature_trace(str(path))

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, ["0,0,60.0"])
        with pytest.raises(DataError, match="60"):
            load_temperature_trace(str(path))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, ["0,0,20.0", "0,not_a_round,21.0"])
        with pytest.raises(DataError, match="row 3"):
            load_temperature_trace(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, ["0,0,20.0"], header="node,round,kelvin")
        with pytest.raises(DataError, match="header"):
            load_temperature_trace(str(path))

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, ["0,0,20.0", "0,0,21.0"])
        with pytest.raises(DataError, match="duplicate"):
            load_temperature_trace(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_temperature_trace(str(tmp_path / "nope.csv"))

    def test_row_order_does_not_matter(self, tmp_path):
        cells = [(n, r, 20.0 + n + 0.25 * r) for n in range(3) for r in range(4)]
        orders = {
            "node_major": cells,
            "round_major": sorted(cells, key=lambda c: (c[1], c[0])),
            "shuffled": random.Random(7).sample(cells, len(cells)),
        }
        loaded = {}
        for name, order in orders.items():
            path = tmp_path / f"{name}.csv"
            write_trace(path, [f"{n},{r},{t}" for n, r, t in order])
            loaded[name] = load_temperature_trace(str(path))
        for name in ("round_major", "shuffled"):
            assert loaded[name].trace == loaded["node_major"].trace
            rows = loaded[name].trace.rows
            assert (len(rows[0]), len(rows)) == (3, 4)
        assert loaded["shuffled"].trace.rows[3][2] == 22.75

    @pytest.mark.parametrize(
        "rows, named",
        [
            (["0,0,20.0", "0,0,21.0", "0,1,20.0", "0,2,60.0"], r"row 3: duplicate entry for \(0, 0\)"),
            # round 9 leaves too few rows for a dense table, so a set finds the duplicate
            (["0,0,20.0", "0,9,20.0", "0,9,21.0", "0,1,60.0"], r"row 4: duplicate entry for \(0, 9\)"),
            # a negative index in one field alone is rejected too; read as
            # an index, node -3 would land in node 0's cell of its round
            (["2,0,20", "-3,0,21", "1,0,22"], "row 3: negative node or round index"),
            (["0,2,20", "0,-3,21", "0,1,22"], "row 3: negative node or round index"),
        ],
        ids=["dense", "sparse", "negative_node_only", "negative_round_only"],
    )
    def test_first_bad_row_in_file_order_is_named(self, tmp_path, rows, named):
        path = tmp_path / "trace.csv"
        write_trace(path, rows)
        with pytest.raises(DataError, match=named):
            load_temperature_trace(str(path))

    @pytest.mark.parametrize(
        "missing, named",
        [({(2, 0), (1, 3)}, "node 1, round 3"), ({(2, 0)}, "node 2, round 0")],
    )
    def test_shuffled_missing_cells_name_first_in_node_major_order(self, tmp_path, missing, named):
        path = tmp_path / "trace.csv"
        rows = [f"{n},{r},20.0" for n in range(3) for r in range(4) if (n, r) not in missing]
        write_trace(path, random.Random(3).sample(rows, len(rows)))
        with pytest.raises(DataError, match=f"missing entry for {named}$"):
            load_temperature_trace(str(path))

    @pytest.mark.parametrize(
        "rows, named",
        [
            (["0,0,20.0", "0,1,20.0", f"0,{10**6},20.0"], "node 0, round 2"),
            (["0,0,20.0", "1,0,20.0", f"{10**7},0,20.0"], "node 2, round 0"),
            ([f"{i},{i},20.0" for i in range(3000)], "node 0, round 1"),
        ],
        ids=["huge_round", "huge_node", "diagonal"],
    )
    def test_sparse_indices_do_not_grow_the_table(self, tmp_path, rows, named):
        # Growing dense rows for these would take 64, 80 and 36 MB.
        path = tmp_path / "trace.csv"
        write_trace(path, rows)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"missing entry for {named}$"):
                load_temperature_trace(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_larger_trace_runs_as_cropped_trace(self, tmp_path):
        rng = random.Random(11)
        temps = {(n, r): round(rng.uniform(-10.0, 53.0), 2) for n in range(6) for r in range(8)}
        full, cropped = tmp_path / "full.csv", tmp_path / "cropped.csv"
        write_trace(full, [f"{n},{r},{t}" for (n, r), t in temps.items()])
        write_trace(cropped, [f"{n},{r},{t}" for (n, r), t in temps.items() if n < 4 and r < 5])
        records = []
        for path in (full, cropped):
            cfg = SimConfig(node_count=4, rounds=5, seed=9)
            cfg = cfg._replace(temperature=load_temperature_trace(str(path)))
            records.append([record_as_dict(rec) for rec in run_simulation(cfg).records])
        assert len(records[0]) == len(records[1]) == 5
        assert all(records_equal(a, b) for a, b in zip(*records))

    @pytest.mark.parametrize(
        "n_nodes, n_rounds, perturbation, line, error",
        [
            pytest.param(3, 4, None, 0, None, id="canonical"),
            pytest.param(1, 5, None, 0, None, id="one_node"),
            pytest.param(5, 1, None, 0, None, id="one_round"),
            *(
                pytest.param(3, 4, name, line, error, id=name)
                for name, line, error in [
                    ("crlf", 0, None),
                    ("blank_line", 6, None),
                    ("two_trailing_newlines", 0, None),
                    ("plus_index", 0, None),
                    ("zero_padded_index", 0, None),
                    ("space_before_index", 0, None),
                    ("nan", 11, "row 13: temperature nan outside declared range [-10.0, 53.0]"),
                    ("inf", 11, "row 13: temperature inf outside declared range [-10.0, 53.0]"),
                    ("overflow", 11, "row 13: temperature inf outside declared range [-10.0, 53.0]"),
                    ("out_of_range", 11, "row 13: temperature 60.0 outside declared range [-10.0, 53.0]"),
                    ("line_dropped", 11, "missing entry for node 2, round 3"),
                    ("line_duplicated", 11, "row 14: duplicate entry for (2, 3)"),
                    ("lines_swapped", 5, None),
                    ("round_major", 0, None),
                    ("vertical_tab_in_value", 5, "row 8: expected 3 fields, got 1"),
                    ("file_separator_in_value", 5, "row 8: expected 3 fields, got 1"),
                    ("no_trailing_newline", 0, None),
                ]
            ),
        ],
    )
    def test_bulk_path_declines_all_but_canonical_files(
        self, tmp_path, n_nodes, n_rounds, perturbation, line, error
    ):
        """Each variant of a node-major file loads the table of its grid, or
        fails with exactly the message given. (The name is kept from when
        these cases checked a node-major fast path, so the case ids stay
        comparable across versions.)"""
        lines = node_major_lines(n_nodes, n_rounds)
        if perturbation is None:
            text = trace_text(lines)
        else:
            text = PERTURBATIONS[perturbation](lines, line)
        expected = grid_table(n_nodes, n_rounds) if error is None else error
        assert load_text(tmp_path / "trace.csv", text) == expected

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(perturbed_node_major_traces())
    def test_drawn_node_major_grids_load_as_drawn(self, tmp_path_factory, drawn):
        text, rows = drawn
        loaded = load_text(tmp_path_factory.mktemp("trace") / "trace.csv", text)
        if rows is not None:
            assert loaded == trace_table(rows)
        else:  # perturbed or out of range: a table or a named error, nothing else
            assert isinstance(loaded, (TraceTable, str))

    def test_two_loads_compare_equal(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [f"{n},{r},{20.0 + n * r}" for n in range(3) for r in range(2)])
        assert load_temperature_trace(str(path)) == load_temperature_trace(str(path))

    def test_lookup_via_temperature_at(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, ["0,0,20.0", "0,1,21.5"])
        cfg = SimConfig(node_count=1, rounds=2, seed=3)
        cfg = cfg._replace(temperature=load_temperature_trace(str(path)))
        assert [rec.temps_c for rec in run_simulation(cfg).records] == [[20.0], [21.5]]
        cfg = cfg._replace(rounds=3)
        with pytest.raises(ConfigError, match="trace covers 1 nodes x 2 rounds"):
            run_simulation(cfg)


# A 3 x 4 grid with a negative zero and both default bounds among its values.
CACHE_CELLS = {
    (n, r): t
    for (n, r), t in zip(
        product(range(3), range(4)),
        [-0.0, 21.5, -10.0, 53.0, 0.0, 0.25, 52.75, -9.5, 1e-300, 20.0, 30.125, 45.0],
    )
}


def write_cells(path, node_major=True):
    order = sorted(CACHE_CELLS, key=None if node_major else lambda cell: cell[::-1])
    path.write_text(trace_text([f"{n},{r},{CACHE_CELLS[n, r]!r}" for n, r in order]))
    return str(path)


@pytest.fixture
def parses(monkeypatch):
    """How many times a trace's text was parsed."""
    calls = []
    real = topology._load_per_line

    def load(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(topology, "_load_per_line", load)
    return calls


def cache_name(sha256):
    """The cache file name of the trace with this sha256, for this source."""
    return f"{sha256}-{topology._source_digest().hex()}"


def reseal(blob):
    """A cache file's bytes with its crc32 made to match the rest again."""
    return blob[:-4] + topology._CACHE_CHECKSUM.pack(binascii.crc32(blob[:-4]))


def with_byte(blob, offset, value):
    return blob[:offset] + bytes([value]) + blob[offset + 1 :]


def with_doubled_node_count(blob):
    """A cache file's bytes with the N of its header doubled."""
    fields = list(topology._CACHE_HEADER.unpack_from(blob))
    fields[2] *= 2
    return topology._CACHE_HEADER.pack(*fields) + blob[topology._CACHE_HEADER.size :]


def with_zero_dimension(blob, field):
    """A cache file's header with its N (field 2) or R (field 3) set to 0,
    followed by the empty payload that header implies and a checksum."""
    fields = list(topology._CACHE_HEADER.unpack_from(blob))
    fields[field] = 0
    return reseal(topology._CACHE_HEADER.pack(*fields) + blob[-4:])


MAGIC = topology._CACHE_MAGIC
# Damaged cache files: each maps the bytes of a valid one to a file that
# must be a miss. The version and byte-order cases carry a valid checksum,
# so only the field they change can make them a miss.
DAMAGED_CACHE = {
    "truncated": lambda blob: blob[:-1],
    "payload_byte_flipped": lambda blob: with_byte(
        blob, topology._CACHE_HEADER.size, blob[topology._CACHE_HEADER.size] ^ 0x01
    ),
    # the magic's last digit, its version's, turned into another digit
    "other_format_version": lambda blob: reseal(
        with_byte(blob, len(MAGIC) - 2, blob[len(MAGIC) - 2] ^ 0x01)
    ),
    "other_byte_order": lambda blob: reseal(
        with_byte(blob, len(MAGIC), ord(">" if topology._BYTE_ORDER == "<" else "<"))
    ),
    "short_header": lambda blob: blob[: topology._CACHE_HEADER.size - 1],
    "trailing_bytes": lambda blob: blob + b"\x00",
    # 6 x 4 cells claimed for 3 x 4 held: small, so that no reader, even one
    # that skips the length check, allocates much for what a header claims.
    "header_claims_more_cells": lambda blob: reseal(with_doubled_node_count(blob)),
    # one zero dimension, with the length and checksum such a header implies
    "header_claims_no_nodes": lambda blob: with_zero_dimension(blob, 2),
    "header_claims_no_rounds": lambda blob: with_zero_dimension(blob, 3),
}

# Appended to a copy of topology.py: a loader change that shifts every value.
SHIFTED_LOADER = """

_unshifted_load_per_line = _load_per_line


def _load_per_line(path, text, t_min_c, t_max_c):
    from array import array

    table = _unshifted_load_per_line(path, text, t_min_c, t_max_c)
    return TraceTable(tuple(array("d", [temp + 1.0 for temp in row]) for row in table.rows))
"""


class TestTraceCache:
    @pytest.mark.parametrize("node_major", [True, False], ids=["node_major", "round_major"])
    def test_warm_load_equals_cold_load(self, tmp_path, cache_dirs, parses, node_major):
        path = write_cells(tmp_path / "trace.csv", node_major)
        cold = load_temperature_trace(path)
        assert len(parses) == 1
        assert os.listdir(cache_dirs.traces) == [cache_name(cold.trace_sha256)]
        warm = load_temperature_trace(path)
        assert len(parses) == 1  # nothing parsed: a hit
        assert warm == cold
        assert repr(warm.trace.rows) == repr(cold.trace.rows)  # -0.0 stays -0.0
        for loaded in (cold, warm):
            assert all(type(row) is array and row.typecode == "d" for row in loaded.trace.rows)
        assert [warm.trace.rows[r][n] for n, r in CACHE_CELLS] == list(CACHE_CELLS.values())

    def test_warm_load_retains_eight_bytes_a_cell(self, tmp_path, parses):
        # 200 x 100 doubles, 8 B a cell plus each row's header (8.5 B); boxed
        # floats in tuples took 32, and rows over-allocated by fromfile 9.1
        path = tmp_path / "trace.csv"
        write_trace(path, node_major_lines(200, 100))
        load_temperature_trace(str(path), t_max_c=250.0)
        tracemalloc.start()
        try:
            warm = load_temperature_trace(str(path), t_max_c=250.0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(parses) == 1
        assert retained <= 8.75 * len(warm.trace), f"{retained / len(warm.trace):.2f} B per cell"

    def test_cold_and_warm_load_peaks_per_cell(self, tmp_path, parses):
        # 200 x 100 cells. A cold load holds the text, its lines and the rows
        # being filled (98 B a cell; 135 B when list rows were copied into
        # arrays at the end, 111 B with the file's bytes kept through the
        # parse). A warm load holds the rows, having hashed the file one
        # 64 KB chunk at a time (9 B; 21 B when the file was read whole to
        # hash it, 38 B when the cache file was also read whole, copied and
        # sliced).
        path = tmp_path / "trace.csv"
        write_trace(path, node_major_lines(200, 100))
        topology._source_digest()  # cached before the first measurement
        peaks = []
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                trace = load_temperature_trace(str(path), t_max_c=250.0).trace
                peaks.append(tracemalloc.get_traced_memory()[1] / len(trace))
            finally:
                tracemalloc.stop()
        assert len(parses) == 1
        cold, warm = peaks
        assert cold <= 110, f"cold load peaks at {cold:.1f} B per cell"
        assert warm <= 14, f"warm load peaks at {warm:.1f} B per cell"

    def test_narrower_range_names_first_bad_row_on_warm_cache(self, tmp_path, monkeypatch, parses):
        path = write_cells(tmp_path / "trace.csv")
        load_temperature_trace(path)
        with pytest.raises(DataError) as warm:
            load_temperature_trace(path, t_max_c=50.0)
        assert len(parses) == 2  # the narrower range missed and parsed again
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty-cache"))
        with pytest.raises(DataError) as cold:
            load_temperature_trace(path, t_max_c=50.0)
        assert str(warm.value) == str(cold.value)
        assert "row 5: temperature 53.0 outside declared range [-10.0, 50.0]" in str(warm.value)

    def test_failed_load_writes_no_cache_file(self, tmp_path, cache_dirs):
        path = tmp_path / "trace.csv"
        write_trace(path, ["0,0,20.0", "0,0,21.0"])
        with pytest.raises(DataError, match="duplicate"):
            load_temperature_trace(str(path))
        assert not cache_dirs.traces.exists()

    @pytest.mark.parametrize("damage", DAMAGED_CACHE)
    def test_damaged_cache_file_is_a_miss_and_rewritten(self, tmp_path, cache_dirs, parses, damage):
        path = write_cells(tmp_path / "trace.csv")
        cold = load_temperature_trace(path)
        cache_file = cache_dirs.traces / cache_name(cold.trace_sha256)
        valid = cache_file.read_bytes()
        cache_file.write_bytes(DAMAGED_CACHE[damage](valid))
        assert load_temperature_trace(path) == cold
        assert len(parses) == 2
        assert cache_file.read_bytes() == valid
        assert os.listdir(cache_dirs.traces) == [cache_name(cold.trace_sha256)]  # no temporary file left

    def test_changed_package_source_misses_cache(self, tmp_path, cache_dirs, parses):
        package = tmp_path / "copy" / "eastsim"
        shutil.copytree(
            os.path.dirname(topology.__file__), package, ignore=shutil.ignore_patterns("__pycache__")
        )
        trace = tmp_path / "trace.csv"
        write_trace(trace, node_major_lines(2, 3))
        script = (
            "import sys\nfrom eastsim.topology import load_temperature_trace\n"
            "print(load_temperature_trace(sys.argv[1]).trace.rows)\n"
        )

        def load_with_copy():
            env = dict(os.environ, PYTHONPATH=str(package.parent))
            done = subprocess.run(
                [sys.executable, "-c", script, str(trace)],
                env=env, capture_output=True, text=True, check=True,
            )
            return done.stdout.strip()

        rows = load_temperature_trace(str(trace)).trace.rows
        assert load_with_copy() == repr(rows)  # the same source: a hit
        with open(package / "topology.py", "a", encoding="utf-8") as fh:
            fh.write(SHIFTED_LOADER)
        shifted = trace_table([temp + 1.0 for temp in row] for row in rows).rows
        assert load_with_copy() == repr(shifted)  # the edited loader ran
        assert load_temperature_trace(str(trace)).trace.rows == rows
        assert len(parses) == 1  # the edited copy wrote a file of its own
        assert len(os.listdir(cache_dirs.traces)) == 2

    def test_two_sources_sharing_a_directory_keep_their_own_files(
        self, tmp_path, cache_dirs, monkeypatch, parses
    ):
        path = write_cells(tmp_path / "trace.csv")
        sources = [b"\x01" * 32, b"\x02" * 32]
        for source in sources + sources:
            monkeypatch.setattr(topology, "_source_digest", lambda source=source: source)
            sha256 = load_temperature_trace(path).trace_sha256
        assert len(parses) == 2  # each source parsed once; both later loads were hits
        assert sorted(os.listdir(cache_dirs.traces)) == [f"{sha256}-{source.hex()}" for source in sources]

    def test_write_keeps_only_the_most_recently_written_files(self, tmp_path, cache_dirs):
        cache_dirs.traces.mkdir(parents=True)
        older = []
        for i in range(topology._CACHE_FILES):
            cache_file = cache_dirs.traces / f"older-{i}"
            cache_file.write_bytes(b"")
            os.utime(cache_file, ns=(i * 10**9, i * 10**9))
            older.append(cache_file.name)
        sha256 = load_temperature_trace(write_cells(tmp_path / "trace.csv")).trace_sha256
        assert sorted(os.listdir(cache_dirs.traces)) == sorted(older[1:] + [cache_name(sha256)])

    def test_cache_home_on_a_regular_file_only_disables_caching(self, tmp_path, monkeypatch, parses):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        path = write_cells(tmp_path / "trace.csv")
        assert load_temperature_trace(path) == load_temperature_trace(path)
        assert len(parses) == 2
        assert blocker.read_text() == "not a directory\n"

    def test_relative_cache_home_falls_back_to_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        sha256 = load_temperature_trace(write_cells(tmp_path / "trace.csv")).trace_sha256
        assert os.listdir(tmp_path / "home" / ".cache" / "eastsim" / "traces") == [cache_name(sha256)]
        assert not (tmp_path / "relative").exists()

    def test_relative_home_disables_caching(self, tmp_path, monkeypatch, parses):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", "relative-home")
        monkeypatch.chdir(tmp_path)
        path = write_cells(tmp_path / "trace.csv")
        assert topology._trace_cache_path("0" * 64) is None
        assert load_temperature_trace(path) == load_temperature_trace(path)
        assert len(parses) == 2
        assert sorted(os.listdir(tmp_path)) == ["trace.csv"]

    def test_unreadable_package_source_disables_caching(
        self, tmp_path, cache_dirs, monkeypatch, parses
    ):
        package = os.path.dirname(os.path.abspath(topology.__file__))

        def open_outside_package(file, *args, **kwargs):
            if str(file).startswith(package):
                raise PermissionError(f"cannot read {file}")
            return open(file, *args, **kwargs)

        monkeypatch.setattr(topology, "open", open_outside_package, raising=False)
        path = write_cells(tmp_path / "trace.csv")
        topology._source_digest.cache_clear()
        try:
            assert topology._source_digest() is None
            assert topology._trace_cache_path("0" * 64) is None
            assert load_temperature_trace(path) == load_temperature_trace(path)
        finally:
            topology._source_digest.cache_clear()
        assert len(parses) == 2
        assert not cache_dirs.traces.exists()

    def test_failed_cache_write_removes_its_temporary_file(
        self, tmp_path, cache_dirs, monkeypatch, parses
    ):
        def fail_replace(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", fail_replace)
        path = write_cells(tmp_path / "trace.csv")
        loaded = load_temperature_trace(path)
        assert [loaded.trace.rows[r][n] for n, r in CACHE_CELLS] == list(CACHE_CELLS.values())
        assert load_temperature_trace(path) == loaded
        assert len(parses) == 2  # nothing was cached
        assert os.listdir(cache_dirs.traces) == []

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_cli_writes_identical_files_on_warm_cache(self, tmp_path, cache_dirs, parses, command):
        trace = write_cells(tmp_path / "trace.csv")
        argv = [command, "--set", "nodes=3", "--set", "rounds=4",
                "--set", f"temperature.trace_path={trace}"]
        for name in ("cold", "warm"):
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert len(parses) == 1
        assert len(os.listdir(cache_dirs.traces)) == 1
        files = {}
        for name in ("cold", "warm"):
            root = tmp_path / name
            files[name] = {
                str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
            }
        assert files["cold"] == files["warm"] and files["cold"]


# The walks of the walk-cache tests: 3 nodes x 4 rounds under the default
# bounds, a negative zero and both bounds among the values.
WALK_ROWS = [[-0.0, 21.5, -10.0], [53.0, 0.0, 0.25], [52.75, -9.5, 1e-300], [20.0, 30.125, 45.0]]
WALK_PROC = TemperatureProcess()


def walk_cache_rows(started, seed=1, rows=WALK_ROWS, proc=WALK_PROC):
    """``walk_rows`` over ``rows``, recording in ``started`` each time the
    stand-in walk starts, which is each miss."""

    def steps():
        started.append(seed)
        yield from rows

    return walk_rows(seed, len(rows[0]), len(rows), proc, steps())


def read_walk(started, **kwargs):
    rows = walk_cache_rows(started, **kwargs)
    try:
        return [list(row) for row in rows]
    finally:
        rows.close()


def walk_file(cache_dirs):
    """The one file of the walk cache directory."""
    (name,) = os.listdir(cache_dirs.walks)
    return cache_dirs.walks / name


def with_walk_header(blob, field, value):
    """A walk cache file's bytes with one header field set, resealed."""
    fields = list(topology._CACHE_HEADER.unpack_from(blob))
    fields[field] = value
    return reseal(topology._CACHE_HEADER.pack(*fields) + blob[topology._CACHE_HEADER.size :])


# Damaged walk cache files: each maps the bytes of a valid one to a file
# that must be a miss. Every case past the first three carries a valid
# checksum, so only the field it changes can make it a miss.
DAMAGED_WALK = {
    "truncated": lambda blob: blob[:-1],
    "short_header": lambda blob: blob[: topology._CACHE_HEADER.size - 1],
    "payload_byte_flipped": lambda blob: with_byte(
        blob, topology._CACHE_HEADER.size, blob[topology._CACHE_HEADER.size] ^ 0x01
    ),
    "trailing_bytes": lambda blob: reseal(blob[:-4] + b"\x00" * 8 + blob[-4:]),
    "other_format_version": lambda blob: reseal(
        with_byte(blob, len(MAGIC) - 2, blob[len(MAGIC) - 2] ^ 0x01)
    ),
    "other_byte_order": lambda blob: with_walk_header(
        blob, 1, b">" if topology._BYTE_ORDER == "<" else b"<"
    ),
    # 4 nodes x 3 rounds: the same 12 cells, so the length passes too
    "other_shape": lambda blob: with_walk_header(with_walk_header(blob, 2, 4), 3, 3),
    "below_t_min_c": lambda blob: with_walk_header(blob, 4, WALK_PROC.t_min_c - 1.0),
    "above_t_max_c": lambda blob: with_walk_header(blob, 5, WALK_PROC.t_max_c + 1.0),
}


class TestWalkCache:
    def test_warm_rows_equal_cold_rows(self, cache_dirs):
        started = []
        cold = read_walk(started)
        assert started == [1]
        assert cold == WALK_ROWS
        blob = walk_file(cache_dirs).read_bytes()
        assert len(blob) == topology._CACHE_HEADER.size + 8 * 3 * 4 + 4  # 8 B a node-round
        warm = read_walk(started)
        assert started == [1]  # a hit: the walk never started
        assert repr(warm) == repr(cold)  # -0.0 stays -0.0
        assert walk_file(cache_dirs).read_bytes() == blob

    def test_each_input_names_its_own_file(self, cache_dirs):
        started = []
        variants = [
            {}, {"seed": 2}, {"rows": [row[:2] for row in WALK_ROWS]}, {"rows": WALK_ROWS[:3]},
            *({"proc": WALK_PROC._replace(**{field: value})}
              for field, value in (("t_min_c", -11.0), ("t_max_c", 54.0), ("walk_sigma_c", 0.25))),
        ]
        for variant in variants + variants:
            read_walk(started, **variant)
        assert len(started) == len(variants)  # each variant missed once, then hit
        assert len(os.listdir(cache_dirs.walks)) == len(variants)

    def test_interpreter_and_platform_name_their_own_files(self, cache_dirs, monkeypatch):
        # libm's cos, sin and log drew the walk: another build's walk is a miss
        started = []
        read_walk(started)
        monkeypatch.setattr(sys.implementation, "cache_tag", "other-interpreter")
        read_walk(started)
        monkeypatch.setattr(sys, "platform", "other-platform")
        read_walk(started)
        read_walk(started)
        assert len(started) == 3
        assert len(os.listdir(cache_dirs.walks)) == 3

    def test_walk_above_the_size_bound_is_drawn_and_writes_nothing(self, cache_dirs, monkeypatch):
        # 1000 nodes x 2097 rounds is the largest walk of 1000 nodes cached
        assert topology._walk_cache_path(1, 1000, 2097, WALK_PROC) is not None
        assert topology._walk_cache_path(1, 1000, 2098, WALK_PROC) is None
        monkeypatch.setattr(topology, "_WALK_CACHE_BYTES", 8 * 3 * 4 - 1)
        started = []
        assert read_walk(started) == read_walk(started) == WALK_ROWS
        assert len(started) == 2  # drawn both times
        assert not cache_dirs.walks.exists()  # no file, and no temporary file
        monkeypatch.setattr(topology, "_WALK_CACHE_BYTES", 8 * 3 * 4)
        read_walk(started)
        assert len(os.listdir(cache_dirs.walks)) == 1

    @pytest.mark.parametrize("damage", DAMAGED_WALK)
    def test_damaged_file_is_a_miss_and_rewritten(self, cache_dirs, damage):
        started = []
        read_walk(started)
        cache_file = walk_file(cache_dirs)
        valid = cache_file.read_bytes()
        cache_file.write_bytes(DAMAGED_WALK[damage](valid))
        assert read_walk(started) == WALK_ROWS
        assert len(started) == 2
        assert cache_file.read_bytes() == valid
        assert os.listdir(cache_dirs.walks) == [cache_file.name]  # no temporary file left

    @pytest.mark.parametrize("rows_read", [0, 1, 3])
    def test_stop_before_the_last_row_leaves_no_file(self, cache_dirs, rows_read):
        started = []
        rows = walk_cache_rows(started)
        for _ in range(rows_read):
            next(rows)
        rows.close()
        assert started == ([1] if rows_read else [])
        assert not cache_dirs.walks.exists() or os.listdir(cache_dirs.walks) == []

    def test_file_cut_short_while_read_is_an_error(self, cache_dirs):
        # rows wider than the reader's buffer, so each is read from the file
        wide = [[float(r)] * 2000 for r in range(4)]
        read_walk([], rows=wide)
        rows = walk_cache_rows([], rows=wide)
        assert next(rows) == wide[0]  # the file passed its checks
        os.truncate(walk_file(cache_dirs), topology._CACHE_HEADER.size + 8 * 2000 * 2 - 8)
        with pytest.raises(DataError, match="walk cache file cut short while it was read"):
            next(rows)

    def test_stream_holds_one_row(self):
        # 200 nodes x 2000 rounds, 3.2 MB of walk: each way a row at a time
        nodes, rounds = 200, 2000
        proc = TemperatureProcess(t_min_c=-1.0, t_max_c=1.0)
        topology._source_digest()  # cached before the first measurement

        def steps():
            row = [0.5] * nodes
            for _ in range(rounds):
                yield row

        peaks = []
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                rows = walk_rows(1, nodes, rounds, proc, steps())
                for row in rows:
                    assert len(row) == nodes
                rows.close()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # two 64 KB chunks of the check and a few rows: a tenth of the walk
        assert all(peak < nodes * rounds * 8 / 10 for peak in peaks), peaks

    def test_walks_and_traces_evict_only_their_own_files(self, tmp_path, cache_dirs):
        for directory in cache_dirs:
            directory.mkdir(parents=True)
            for i in range(topology._CACHE_FILES):
                older = directory / f"older-{i}"
                older.write_bytes(b"")
                os.utime(older, ns=(i * 10**9, i * 10**9))
        read_walk([])
        assert len(os.listdir(cache_dirs.traces)) == topology._CACHE_FILES
        assert "older-0" not in os.listdir(cache_dirs.walks)
        load_temperature_trace(write_cells(tmp_path / "trace.csv"))
        assert len(os.listdir(cache_dirs.walks)) == topology._CACHE_FILES
        assert "older-0" not in os.listdir(cache_dirs.traces)
        assert "older-1" in os.listdir(cache_dirs.walks)

    def test_unwritable_location_caches_nothing(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        started = []
        assert read_walk(started) == read_walk(started) == WALK_ROWS
        assert len(started) == 2
        assert blocker.read_text() == "not a directory\n"

    def test_failed_commit_removes_its_temporary_file(self, cache_dirs, monkeypatch):
        def fail_replace(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", fail_replace)
        started = []
        assert read_walk(started) == read_walk(started) == WALK_ROWS
        assert len(started) == 2
        assert os.listdir(cache_dirs.walks) == []
