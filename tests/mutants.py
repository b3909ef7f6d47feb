"""Mutation check: the tier-1 suite must fail on each one-line mutant below.

Run from anywhere, with pytest installed:

    python tests/mutants.py                          # the listed mutants (MUTANTS)
    python tests/mutants.py --operators              # the operator sweep, both families
    python tests/mutants.py --operators comparisons  # one family of it
    python tests/mutants.py --operators arithmetic

The repository is copied once, at the start, to a base directory in a
temporary directory, and every mutant is made from that base, so edits made
to the repository while a run goes on reach none of them. Each mutant is
applied on its own to a fresh copy of the base (no ``__pycache__``, so no
stale bytecode runs), which is deleted after its run; its anchor text must
occur exactly once in its file, and only files under ``src/`` are mutated,
so the suite's own reference (``tests/oracle.py``) and its comparison
against it stay intact. The suite runs on each copy with ``-x`` under the
``no-shrink`` Hypothesis profile (see ``tests/conftest.py``), without
``tests/test_mutants.py``, after one run on an unmutated copy that must
pass. Exits 1 unless every mutant is killed. pytest does not collect this
file: its name does not start with ``test_``.

The operator sweep mutates one site of ``src/eastsim`` at a time, in two
families. The comparisons family swaps each comparison or boolean operator
for its partner: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
``and`` and ``or``, found with ``tokenize``. It also replaces the condition
of each guard, an ``if`` or ``elif`` whose body starts with ``raise``, with
``False``, found with ``ast``. The arithmetic family swaps ``+`` and ``-``,
``*`` and ``/``, ``+=`` and ``-=``, turns ``//`` into ``/`` and ``%`` into
``//``, and drops each unary ``-``, found with ``ast``. The operator sites
in EXEMPT and the guards in GUARD_EXEMPT are skipped: mutating them changes
no observable behaviour. Each family runs about 130 mutants, some 12 minutes
on two cores, so each runs in CI, outside tier-1.
"""

import ast
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, anchor, replacement)
MUTANTS = [
    ("exchange leaves the region's neighbor count stale", "src/eastsim/engine.py",
     "n_current[k] = len(members[k])", "pass"),
    ("tx-cost cache filled once, never refreshed", "src/eastsim/engine.py",
     "power = base_dbm[i] + level", "power = base_dbm[i] + level; continue"),
    ("the controller never runs", "src/eastsim/engine.py",
     "if is_east and n_current[k] < n_desired[k]:", "if False:"),
    ("the controller runs in every region", "src/eastsim/engine.py",
     "if is_east and n_current[k] < n_desired[k]:", "if is_east:"),
    ("the baseline follows the cadence", "src/eastsim/engine.py",
     "not is_east or needs_closed_loop(", "needs_closed_loop("),
    ("the baseline's levels move in a short region", "src/eastsim/engine.py",
     "is_east and ", ""),
    ("the baseline's level is a region threshold", "src/eastsim/engine.py",
     "[classical_assign(config.temperature.t_max_c)] * 3",
     "[config.regions.threshold_level_dbm(r) for r in REGIONS]"),
    ("a region's last-exchange losses alias the shared list", "src/eastsim/engine.py",
     "estimated[k] = losses[:]", "estimated[k] = losses"),
    ("an exchange refreshes every region's snapshot", "src/eastsim/engine.py",
     "estimated[k] = losses[:]", "estimated[:] = [losses[:]] * 3"),
    ("kept pt omits the level", "src/eastsim/engine.py",
     "pt_dbm=[base + level for base, level in zip(base_dbm, levels)]", "pt_dbm=list(base_dbm)"),
    ("followers score their own PRR", "src/eastsim/engine.py",
     "if not follows:", "if True:"),
    ("east_assign: >= becomes > at the threshold loss", "src/eastsim/protocol.py",
     "if loss_dbm >= threshold_loss_dbm:", "if loss_dbm > threshold_loss_dbm:"),
    ("needs_closed_loop: > becomes >= at the drift bound", "src/eastsim/protocol.py",
     "last_estimated_loss_dbm[i]) > drift", "last_estimated_loss_dbm[i]) >= drift"),
    ("walk spare never cleared", "src/eastsim/engine.py",
     "normals, spare = spare, None", "normals = spare"),
    ("every node draws a fresh pair every round", "src/eastsim/engine.py",
     "if spare is None:", "if True:"),
    ("bound check: > becomes >=", "src/eastsim/config.py",
     "value > int(limit)", "value >= int(limit)"),
    ("bound check: >= becomes >", "src/eastsim/config.py",
     "value >= int(limit)", "value > int(limit)"),
    ("table: area_side_m > 0 becomes >= 0", "src/eastsim/config.py",
     '"area_side_m", "> 0"', '"area_side_m", ">= 0"'),
    ("table: cadence.drift_dbm >= 0 becomes > 0", "src/eastsim/config.py",
     '"cadence.drift_dbm", ">= 0"', '"cadence.drift_dbm", "> 0"'),
    ("table: link_budget.margin_m >= 1 becomes > 1", "src/eastsim/config.py",
     '"link_budget.margin_m", ">= 1"', '"link_budget.margin_m", "> 1"'),
    ("region-threshold setter always writes Region.A", "src/eastsim/config.py",
     "Region(name): value", "Region.A: value"),
    ("the setter drops a top-level key", "src/eastsim/config.py",
     "return config._replace(**{name: value})", "return config"),
    ("parse_config discards the loaded trace", "src/eastsim/config.py",
     "config = config._replace(temperature=load_temperature_trace(",
     "config._replace(temperature=load_temperature_trace("),
    ("run ignores the resolved seed", "src/eastsim/cli.py",
     "config = _resolve_seed(parse_config(args.config, args.set), args.seed)\n    _check_figure_round",
     "config = parse_config(args.config, args.set)\n    _resolve_seed(config, args.seed)\n"
     "    _check_figure_round"),
    ("cadence: >= becomes > at the period", "src/eastsim/protocol.py",
     ">= cadence.period_rounds", "> cadence.period_rounds"),
    ("partition: > becomes >= at the high boundary", "src/eastsim/protocol.py",
     "loss > cfg.boundary_high_dbm", "loss >= cfg.boundary_high_dbm"),
    ("partition: > becomes >= at the low boundary", "src/eastsim/protocol.py",
     "loss > cfg.boundary_low_dbm", "loss >= cfg.boundary_low_dbm"),
    ("death: <= becomes < at an empty battery", "src/eastsim/engine.py",
     "if battery <= 0.0:", "if battery < 0.0:"),
    ("PRR draws made only when the first member samples", "src/eastsim/engine.py",
     "if any(config.prr_sampled for config in configs):", "if configs[0].prr_sampled:"),
    ("walk never clamped", "src/eastsim/engine.py",
     "t_min if t_min > t else (t_max if t_max < t else t) for t in stepped", "t for t in stepped"),
    ("desired neighbor counts read in the wrong region order", "src/eastsim/engine.py",
     "n_desired = [desired[r] for r in REGIONS]", "n_desired = [desired[r] for r in reversed(REGIONS)]"),
    ("rule (ii) starts one death late", "src/eastsim/engine.py",
     "n_desired = [desired[r] for r in REGIONS]", "n_desired = [desired[r] - 1 for r in REGIONS]"),
    ("desired neighbor count floored at 0, not 1", "src/eastsim/protocol.py",
     "DESIRED_NEIGHBOR_DEFICIT, 1)", "DESIRED_NEIGHBOR_DEFICIT, 0)"),
    ("east: a beacon every round", "src/eastsim/engine.py",
     "beacons_this = 1 if any(exchanging) else 0", "beacons_this = 1"),
    ("traffic omits round 0's beacon", "src/eastsim/engine.py",
     "sum(r.beacons for r in self.records)", "sum(r.beacons for r in self.records[1:])"),
    ("control packets omit the ACKs", "src/eastsim/engine.py",
     "sum(r.beacons + r.acks for r in self.records)", "sum(r.beacons for r in self.records)"),
    ("mean PRR multiplies by the round count", "src/eastsim/engine.py",
     "sum(r.prr_mean for r in self.records) / len(self.records)",
     "sum(r.prr_mean for r in self.records) * len(self.records)"),
    ("total energy omits rx", "src/eastsim/engine.py",
     " + sum(r.rx_energy_j for r in self.records)", ""),
    ("a run with any node dead counts as extinct", "src/eastsim/engine.py",
     "any(final.alive)", "all(final.alive)"),
    ("a dead node's kept values are not frozen", "src/eastsim/engine.py",
     "frozen[i] = temps[i]", "pass"),
    ("a dead node's kept loss follows the shared list", "src/eastsim/engine.py",
     "kept_losses = loss_row(kept_temps)", "kept_losses = losses[:]"),
    ("a batch runs all its members as one group", "src/eastsim/engine.py",
     "if _shared_inputs(group[0]) == _shared_inputs(member):", "if True:"),
    ("sweep runs two values that make the same config", "src/eastsim/cli.py",
     "if digest in seen:", "if False:"),
    ("trace load: <= becomes < at t_max_c", "src/eastsim/topology.py",
     "if not (t_min_c <= temp <= t_max_c):", "if not (t_min_c <= temp < t_max_c):"),
    ("trace load: dense rows never detect a duplicate", "src/eastsim/topology.py",
     "if math.isnan(row[node_id]):", "if True:"),
    ("trace load: sparse indices keep growing the dense rows", "src/eastsim/topology.py",
     "if seen is None and n_nodes * n_rounds > limit:", "if False:"),
    ("trace cache hit skips the range check", "src/eastsim/topology.py",
     "and t_min_c <= lo and hi <= t_max_c", "and True"),
    ("trace cache checksum never compared", "src/eastsim/topology.py",
     "if fh.read(_CACHE_CHECKSUM.size) == _CACHE_CHECKSUM.pack(crc):", "if True:"),
    ("trace cache ignores the file's length", "src/eastsim/topology.py",
     "and os.fstat(fh.fileno()).st_size == len(header) + size + _CACHE_CHECKSUM.size",
     "and True"),
    ("trace cache lets a short header's struct.error escape", "src/eastsim/topology.py",
     "with contextlib.suppress(OSError, struct.error):",
     "with contextlib.suppress(OSError):"),
    ("topology imports hashlib, and so OpenSSL, at module level", "src/eastsim/topology.py",
     "import contextlib", "import contextlib\nimport hashlib"),
    ("topology imports array at module level", "src/eastsim/topology.py",
     "import contextlib", "import contextlib\nfrom array import array"),
    ("trace cache never evicts", "src/eastsim/topology.py",
     "for entry in files[_CACHE_FILES:]:", "for entry in files[:0]:"),
    ("run outputs keep an earlier run's manifest", "src/eastsim/cli.py",
     "os.remove(manifest_path)", "pass"),
    ("sweep keeps an earlier sweep's summary", "src/eastsim/cli.py",
     "os.remove(summary_path)", "pass"),
    ("a member that has lost a node still follows", "src/eastsim/engine.py",
     "follows = pristine and scored[0] == round_idx", "follows = scored[0] == round_idx"),
    ("a member that has lost a node still writes the scoring cell", "src/eastsim/engine.py",
     "if pristine:", "if True:"),
    ("a member follows a stale round's scoring", "src/eastsim/engine.py",
     "scored[0] == round_idx", "scored[0] is not None"),
    ("the twin key omits prr", "src/eastsim/engine.py",
     "config.regions, config.prr,", "config.regions,"),
    ("the walk cache key omits walk_sigma_c", "src/eastsim/topology.py",
     ":{proc.walk_sigma_c!r}", ""),
    ("the walk cache key omits the interpreter", "src/eastsim/topology.py",
     "{sys.implementation.cache_tag}:", ""),
    ("a walk above the size bound is cached", "src/eastsim/topology.py",
     " or 8 * n_nodes * n_rounds > _WALK_CACHE_BYTES", ""),
    ("a walk that stops early commits its partial cache file", "src/eastsim/topology.py",
     "if written == n_rounds:", "if True:"),
    ("a walk that stops early leaves its temporary file", "src/eastsim/topology.py",
     "out.discard()", "pass"),
    ("trace cache file named without the source digest", "src/eastsim/topology.py",
     'f"{sha256}-{source.hex()}"', "sha256"),
    ("an unreadable package file still yields a source digest", "src/eastsim/topology.py",
     "        return None\n    return digest.digest()", "        pass\n    return digest.digest()"),
    ("a trace cache path is named without a source digest", "src/eastsim/topology.py",
     'if source is None:\n        return None\n    return _cache_path("traces"',
     'if False:\n        return None\n    return _cache_path("traces"'),
    ("a relative home still names a trace cache directory", "src/eastsim/topology.py",
     "if not os.path.isabs(home):", "if False:"),
    ("a failed cache write leaves its temporary file", "src/eastsim/topology.py",
     "os.unlink(self.tmp)", "pass"),
    ("report rejects a 1-round run", "src/eastsim/cli.py",
     "len(round_lines) < 2", "len(round_lines) <= 2"),
    ("east_dominates at a tie in control packets", "src/eastsim/report.py",
     "self.control_packets_delta < 0", "self.control_packets_delta <= 0"),
    ("east_dominates at a tie in energy", "src/eastsim/report.py",
     "self.energy_delta_j < 0", "self.energy_delta_j <= 0"),
    ("summarize: a loss at the threshold counts as below", "src/eastsim/report.py",
     "final.losses_dbm[i] >= threshold_loss", "final.losses_dbm[i] > threshold_loss"),
    ("the shared pass writes into a trace row", "src/eastsim/engine.py",
     "(row[:n] for row in proc.trace.rows[:n_rounds])",
     "(row.__setitem__(0, row[0] + 0.5) or row[:n] for row in proc.trace.rows[:n_rounds])"),
    ("the shared pass copies the whole trace row", "src/eastsim/engine.py",
     "(row[:n] for row in", "(row for row in"),
    ("rounds.csv prints PRR with %.5f", "src/eastsim/cli.py",
     '"%d,%s,%d,%d,%.6f,%.6f,%d,%d,%d,%d,%.6f,%.6f,%.6f"',
     '"%d,%s,%d,%d,%.6f,%.6f,%d,%d,%d,%d,%.5f,%.5f,%.5f"'),
    ("nodes.csv prints alive with %s", "src/eastsim/cli.py",
     '"%d,%.6f,%.6f,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d"',
     '"%d,%.6f,%.6f,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%s"'),
    ("summary.csv prints the threshold level with %s", "src/eastsim/cli.py",
     '"%s,%d,%d,%d,%.6f,%d,%d,%.6f,%.6f,%.6f"', '"%s,%d,%d,%d,%s,%d,%d,%.6f,%.6f,%.6f"'),
    ("per-node figures print values with %.7f", "src/eastsim/cli.py",
     'PER_NODE_ROW = "%d,%.6f"', 'PER_NODE_ROW = "%d,%.7f"'),
    ("per-region figures print levels with %g", "src/eastsim/cli.py",
     'PER_REGION_ROW = "%s,%.6f"', 'PER_REGION_ROW = "%s,%g"'),
    ("compare.csv prints energy with %.5f", "src/eastsim/cli.py",
     '"energy_j,%.6f,%.6f,%.6f"', '"energy_j,%.5f,%.5f,%.5f"'),
    ("sweep_summary.csv prints the mean PRR with %.5f", "src/eastsim/cli.py",
     'SWEEP_ROW = "%s,%s,%d,%d,%d,%.6f,%d,%.6f"', 'SWEEP_ROW = "%s,%s,%d,%d,%d,%.6f,%d,%.5f"'),
    ("validate accepts t_min_c == t_max_c", "src/eastsim/config.py",
     "if not (temp.t_min_c < temp.t_max_c):", "if not (temp.t_min_c <= temp.t_max_c):"),
    ("validate accepts equal region boundaries", "src/eastsim/config.py",
     "if not (regions.boundary_low_dbm < regions.boundary_high_dbm):",
     "if not (regions.boundary_low_dbm <= regions.boundary_high_dbm):"),
    # validate asks radio's domain check about a threshold loss and the loss
    # at t_min_c; these two skip each question at exactly -40 dB, the last
    # mutant loosens the check itself
    ("validate accepts a threshold loss of exactly -40 dB", "src/eastsim/config.py",
     "level = regions.threshold_level_dbm(region)",
     "level = regions.threshold_level_dbm(region) if loss != -40.0 else 0.0"),
    ("validate accepts a loss of exactly -40 dB at t_min_c", "src/eastsim/config.py",
     "power_level_for_rssi_loss(min_loss)",
     "power_level_for_rssi_loss(min_loss) if min_loss != -40.0 else None"),
    ("the compensation curve accepts a loss of exactly -40 dB", "src/eastsim/radio.py",
     "if loss_dbm <= -LEVEL_CURVE_OFFSET_DB:", "if loss_dbm < -LEVEL_CURVE_OFFSET_DB:"),
    ("validate's farthest point lies twice as far", "src/eastsim/config.py",
     "config.area_side_m / 2.0", "config.area_side_m * 2.0"),
    ("validate's farthest-point power subtracts the level", "src/eastsim/config.py",
     "+ min(top_level, cap)", "- min(top_level, cap)"),
    ("validate rejects an integer equal to the largest float", "src/eastsim/config.py",
     "abs(value) > sys.float_info.max", "abs(value) >= sys.float_info.max"),
    ("loss_row distributes the slope", "src/eastsim/radio.py",
     "TEMP_LOSS_SLOPE_DB_PER_C * (t - TEMP_REFERENCE_C)",
     "TEMP_LOSS_SLOPE_DB_PER_C * t - TEMP_LOSS_SLOPE_DB_PER_C * TEMP_REFERENCE_C"),
    ("level_row multiplies by the scale's reciprocal", "src/eastsim/radio.py",
     "(loss + LEVEL_CURVE_OFFSET_DB) / LEVEL_CURVE_SCALE_DB",
     "(loss + LEVEL_CURVE_OFFSET_DB) * (1.0 / LEVEL_CURVE_SCALE_DB)"),
    ("trace load: a row is rejected only when both indices are negative", "src/eastsim/topology.py",
     "if node_id < 0 or round_idx < 0:", "if node_id < 0 and round_idx < 0:"),
    ("trace cache accepts a header with one zero dimension", "src/eastsim/topology.py",
     "and n_nodes and n_rounds", "and (n_nodes or n_rounds)"),
    ("--figure-round equal to rounds passes the up-front check", "src/eastsim/cli.py",
     "0 <= figure_round < config.rounds", "0 <= figure_round <= config.rounds"),
    # input guards that no other test reaches, each replaced by ``if False:``
    ("an override without '=' is split anyway", "src/eastsim/config.py",
     'if "=" not in item:', "if False:"),
    ("a config-file line without '=' is split anyway", "src/eastsim/config.py",
     'if "=" not in stripped:', "if False:"),
    ("an empty trace file is parsed anyway", "src/eastsim/topology.py",
     "if not lines:", "if False:"),
    ("a trace with no rows is tabled anyway", "src/eastsim/topology.py",
     "if not count:", "if False:"),
    ("sweep runs with no values", "src/eastsim/cli.py",
     "if not values:", "if False:"),
    ("report reads a summary under a wrong header", "src/eastsim/cli.py",
     "if lines[:1] != [SUMMARY_HEADER]:", "if False:"),
    ("emit_figure_data reads a round the run did not keep", "src/eastsim/report.py",
     "if snapshot.temps_c is None:", "if False:"),
    ("emit_figure_data reads a run with no records", "src/eastsim/report.py",
     'if not result.records:\n        raise DataError("cannot emit',
     'if False:\n        raise DataError("cannot emit'),
    ("power_level_for_rssi_loss passes a non-finite loss", "src/eastsim/radio.py",
     "if not math.isfinite(loss_dbm):", "if False:"),
    ("dbm_to_watts passes a non-finite power", "src/eastsim/radio.py",
     "if not math.isfinite(power_dbm):", "if False:"),
    ("prr_from_margin passes a non-finite margin", "src/eastsim/radio.py",
     "if not math.isfinite(margin_db):", "if False:"),
]

SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "and": "or", "or": "and"}

# The arithmetic family: (operator, replacement) of each ast operator that
# it swaps, in a binary operation and in an augmented assignment (-= for
# +=); it also drops each unary -.
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
              ast.Div: ("/", "*"), ast.FloorDiv: ("//", "/"), ast.Mod: ("%", "//")}

FAMILIES = ("comparisons", "arithmetic")

# (file, anchor, why): operator sites of either family that the sweep
# skips. Each anchor occurs once in its file and spans exactly one site.
EXEMPT = [
    ("src/eastsim/engine.py", "t_min if t_min > t",
     "the walk's clamp: at t == t_min both branches give t_min"),
    ("src/eastsim/engine.py", "t_max if t_max < t",
     "the walk's clamp: at t == t_max both branches give t_max"),
    ("src/eastsim/engine.py", "level = cap if cap < level",
     "the cap: at level == cap both branches give cap"),
    ("src/eastsim/engine.py", "prr = 1.0 if sampled[i] < prr",
     "a uniform draw exactly equal to a PRR below 1 does not occur in any test's runs"),
    ("src/eastsim/engine.py", "spend = beacon_rx_j\n                if battery < spend",
     "a debit capped at the battery: at battery == spend both take the battery"),
    ("src/eastsim/engine.py", "spend = ack_tx_j[i]\n                if battery < spend",
     "a debit capped at the battery: at battery == spend both take the battery"),
    ("src/eastsim/engine.py", "spend = data_tx_j[i]\n            if battery < spend",
     "a debit capped at the battery: at battery == spend both take the battery"),
    ("src/eastsim/radio.py", "if not (distance_m > 0.0)",
     "no distance of 0 reaches it: deploy_random rejects a node on the reference point"),
    ("src/eastsim/topology.py", "if not (area_side_m > 0.0)",
     "validate rejects a side of 0 before any deployment"),
    ("src/eastsim/topology.py", 'sys.byteorder == "little"',
     "a cache file is written and read under the same byte-order tag on one host"),
    ("src/eastsim/topology.py", "if node_id > width",
     "node_id == width is taken by the branch just above"),
    ("src/eastsim/engine.py", "hypot(x - ref_x",
     "deploy_random always puts the reference at x = 0.0"),
    ("src/eastsim/topology.py", "limit = len(lines) - 1",
     "on either side of that bound the loader returns the same table and raises the same "
     "errors; the bound only picks the dense rows or the set of cells for a sparse file"),
]

# (file, anchor, why): guards the sweep skips. Each anchor occurs once in
# its file and spans exactly one guard's condition.
GUARD_EXEMPT = [
    ("src/eastsim/radio.py", "if not (distance_m > 0.0)",
     "no distance of 0 reaches it: deploy_random rejects a node on the reference point"),
    ("src/eastsim/topology.py", "if not (area_side_m > 0.0)",
     "validate rejects a side of 0 before any deployment"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")


def run_suite(copy: str) -> bool:
    """Whether the tier-1 suite passes on the repository copy at ``copy``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(copy, "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # tests/test_mutants.py checks this list's anchors against src/, which
    # every mutant changes; it would kill each mutant whatever the behaviour.
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile", "no-shrink", "--ignore", "tests/test_mutants.py", "tests"]
    done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def read_source(root: str, path: str) -> str:
    if not path.startswith("src/"):
        raise ValueError(f"{path}: only files under src/ may be mutated")
    with open(os.path.join(root, path), encoding="utf-8") as fh:
        return fh.read()


def anchored(path: str, text: str, anchor: str) -> int:
    """The offset of ``anchor`` in ``text``, which must hold it exactly once."""
    count = text.count(anchor)
    if count != 1:
        raise ValueError(f"{path}: anchor {anchor!r} occurs {count} times, not once")
    return text.index(anchor)


def listed_mutants(root: str = ROOT) -> list[tuple[str, str, str]]:
    """(name, path, mutated text) of each entry of MUTANTS, applied to the
    repository at ``root``."""
    mutants = []
    for name, path, anchor, replacement in MUTANTS:
        text = read_source(root, path)
        anchored(path, text, anchor)
        mutants.append((name, path, text.replace(anchor, replacement)))
    return mutants


def line_starts(text: str) -> list[int]:
    """The offset in ``text`` of each line's first character."""
    starts = [0]
    for line in io.StringIO(text).readlines():
        starts.append(starts[-1] + len(line))
    return starts


def operator_sites(text: str) -> list[tuple[int, int, str]]:
    """(start, end, operator) of each swappable operator token in ``text``,
    as offsets into it."""
    starts = line_starts(text)
    return [
        (starts[tok.start[0] - 1] + tok.start[1], starts[tok.end[0] - 1] + tok.end[1], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type in (tokenize.OP, tokenize.NAME) and tok.string in SWAPS
    ]


def ast_offsets(text: str):
    """A function from an ast node's (line, column) to an offset in ``text``."""
    starts = line_starts(text)
    lines = io.StringIO(text).readlines()

    def offset(line_no: int, col: int) -> int:
        # ast columns count UTF-8 bytes
        return starts[line_no - 1] + len(lines[line_no - 1].encode("utf-8")[:col].decode("utf-8"))

    return offset


def guard_sites(text: str) -> list[tuple[int, int, str]]:
    """(start, end, condition) of each ``if`` or ``elif`` condition in
    ``text`` whose body starts with ``raise``, as offsets into it."""
    offset = ast_offsets(text)
    sites = [
        (offset(node.test.lineno, node.test.col_offset),
         offset(node.test.end_lineno, node.test.end_col_offset))
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise)
    ]
    return [(start, end, text[start:end]) for start, end in sorted(sites)]


def arithmetic_sites(text: str) -> list[tuple[int, int, str]]:
    """(start, end, replacement) of each arithmetic operator in ``text`` that
    ARITHMETIC names, and of each unary ``-`` (replaced by nothing), as
    offsets into it."""
    offset = ast_offsets(text)
    sites = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
            symbol, swapped = ARITHMETIC[type(node.op)]
            if isinstance(node, ast.AugAssign):
                before, after, symbol, swapped = node.target, node.value, symbol + "=", swapped + "="
            else:
                before, after = node.left, node.right
            # between the operands lie the operator, parentheses, blanks and
            # comments; the comments are blanked out, offsets kept
            lo = offset(before.end_lineno, before.end_col_offset)
            gap = re.sub(r"#.*", lambda comment: " " * len(comment.group()),
                         text[lo:offset(after.lineno, after.col_offset)])
            if re.sub(r"[\s()\\]", "", gap) != symbol:
                raise ValueError(f"no lone {symbol!r} between the operands in {gap!r}")
            start = lo + gap.index(symbol)
            sites.append((start, start + len(symbol), swapped))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            start = offset(node.lineno, node.col_offset)
            sites.append((start, start + 1, ""))
    return sorted(sites)


def exempted(path: str, text: str, sites: list[tuple[int, int, str]],
             entries: list[tuple[str, str, str]]) -> set[tuple[int, int]]:
    """(start, end) of each site of ``sites`` that an entry of ``entries``
    names in ``path``. Raises ValueError on an entry whose anchor is not
    once in ``text`` or does not span exactly one site."""
    named = set()
    for exempt_path, anchor, _ in entries:
        if exempt_path != path:
            continue
        lo = anchored(path, text, anchor)
        covered = [(start, end) for start, end, _ in sites if lo <= start and end <= lo + len(anchor)]
        if len(covered) != 1:
            raise ValueError(f"{path}: anchor {anchor!r} spans {len(covered)} sites, not one")
        named.add(covered[0])
    return named


def operator_mutants(root: str = ROOT, families=FAMILIES) -> list[tuple[str, str, str]]:
    """(name, path, mutated text) of each site of ``families`` under
    src/eastsim of the repository at ``root`` that EXEMPT and GUARD_EXEMPT do
    not name: comparison and boolean operators and guards ("comparisons"),
    arithmetic operators ("arithmetic"). Raises ValueError on a stale entry."""
    package = os.path.join(root, "src", "eastsim")
    mutants = []
    for file_name in sorted(os.listdir(package)):
        if not file_name.endswith(".py"):
            continue
        path = f"src/eastsim/{file_name}"
        text = read_source(root, path)
        lines = text.split("\n")
        operators = operator_sites(text)
        guards = guard_sites(text)
        arithmetic = arithmetic_sites(text)
        skipped = (exempted(path, text, operators + arithmetic, EXEMPT)
                   | exempted(path, text, guards, GUARD_EXEMPT))
        sites = []
        if "comparisons" in families:
            sites += [(start, end, SWAPS[op]) for start, end, op in operators]
            sites += [(start, end, "False") for start, end, _ in guards]
        if "arithmetic" in families:
            sites += arithmetic
        for start, end, replacement in sorted(sites):
            if (start, end) in skipped:
                continue
            line_no = text.count("\n", 0, start) + 1
            name = (f"{path}:{line_no} {text[start:end]} -> {replacement or 'nothing'}: "
                    f"{lines[line_no - 1].strip()}")
            mutants.append((name, path, text[:start] + replacement + text[end:]))
    return mutants


def suite_passes_on_copy(base: str, copy: str, path: str = "", text: str = "") -> bool:
    """Whether the tier-1 suite passes on a fresh copy of ``base`` made at
    ``copy``, with ``text`` written to its file ``path`` if one is given.
    The copy is deleted after the run."""
    shutil.copytree(base, copy, ignore=IGNORE)
    try:
        if path:
            with open(os.path.join(copy, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        return run_suite(copy)
    finally:
        shutil.rmtree(copy)


def main(argv: list[str]) -> int:
    if not (argv == [] or argv[:1] == ["--operators"] and set(argv[1:]) <= set(FAMILIES)):
        print(f"usage: python tests/mutants.py [--operators [{' | '.join(FAMILIES)}]]")
        return 2
    with tempfile.TemporaryDirectory(prefix="eastsim-mutants-") as tmp:
        base = os.path.join(tmp, "base")
        shutil.copytree(ROOT, base, ignore=IGNORE)
        mutants = operator_mutants(base, argv[1:] or FAMILIES) if argv else listed_mutants(base)
        start = time.perf_counter()
        if not suite_passes_on_copy(base, os.path.join(tmp, "unmutated")):
            print("the suite fails on the unmutated copy; nothing to check")
            return 1
        print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)")
        survivors = []
        for index, (name, path, text) in enumerate(mutants):
            start = time.perf_counter()
            killed = not suite_passes_on_copy(base, os.path.join(tmp, str(index)), path, text)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(mutants) - len(survivors)}/{len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
