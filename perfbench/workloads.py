"""Workload definitions, the input generator and the output checks.

Every input a workload hands to eastsim -- its config file and, for
``compare-trace-drain``, its dense temperature trace -- is generated here
from the workload seed, so one seed always gives the same inputs. The
README next to this file says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Optional

# The seed whose full-size artifacts must match ``expected_digest``.
DEFAULT_SEED = 1

# Temperature bounds of the generated trace; they are the config defaults.
T_MIN_C = -10.0
T_MAX_C = 53.0


@dataclass(frozen=True)
class Workload:
    name: str
    # eastsim subcommand and its own flags; --config and --out are added.
    argv: tuple[str, ...]
    # Extra overrides of each simulation the command runs, in its order.
    variants: tuple[tuple[str, ...], ...]
    nodes: int
    rounds: int
    # Fixed config lines besides nodes, rounds, seed and the trace path.
    settings: tuple[str, ...] = ()
    # When set, a generated dense trace with this Gaussian step replaces
    # the synthetic walk.
    trace_step_c: Optional[float] = None
    # When set, the battery is this many joules per configured round, so
    # shrunk runs still see nodes die all through the run.
    battery_j_per_round: Optional[float] = None
    # sha256 of the deterministic CSVs at DEFAULT_SEED and full size.
    expected_digest: Optional[str] = None


SWEEP_KEY = "cadence.period_rounds"
SWEEP_VALUES = ("1", "5", "10", "20")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-east",
            argv=("run",),
            variants=((),),
            nodes=1000,
            rounds=300,
            settings=("controller = east",),
            expected_digest="65b0da3d2e6b3af32c400ce4f6a507cb2e6bfbb6aa4131697e2f688e9d81ba25",
        ),
        Workload(
            name="sweep-cadence",
            argv=("sweep", "--key", SWEEP_KEY, "--values", ",".join(SWEEP_VALUES)),
            variants=tuple((f"{SWEEP_KEY}={v}",) for v in SWEEP_VALUES),
            nodes=200,
            rounds=400,
            settings=("controller = east",),
            expected_digest="1fd4792d16757efa7196aaab29012f6083bc8df4ffb1896968299fee4b6aeea8",
        ),
        Workload(
            name="compare-trace-drain",
            argv=("compare",),
            variants=(("controller=east",), ("controller=classical",)),
            nodes=400,
            rounds=500,
            settings=("prr.sampled = true",),
            trace_step_c=1.5,
            battery_j_per_round=1e-4,
            expected_digest="0cb551cad72016dfa000d65faa8e183d5d0334127ff5bd048a5e504a38392675",
        ),
    )
}


def write_inputs(w: Workload, seed: int, nodes: int, rounds: int, work_dir: str) -> str:
    """Generate the config (and trace) for one workload; returns the config path."""
    os.makedirs(work_dir, exist_ok=True)
    lines = [f"nodes = {nodes}", f"rounds = {rounds}", f"seed = {seed}", *w.settings]
    if w.battery_j_per_round is not None:
        lines.append(f"energy.initial_battery_j = {w.battery_j_per_round * rounds!r}")
    if w.trace_step_c is not None:
        trace_path = os.path.join(work_dir, "trace.csv")
        write_trace(trace_path, seed, nodes, rounds, w.trace_step_c)
        lines.append(f"temperature.trace_path = {trace_path}")
    config_path = os.path.join(work_dir, "bench.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return config_path


def write_trace(path: str, seed: int, nodes: int, rounds: int, step_c: float) -> None:
    """Dense ``node,round,temp_c`` table: per node a clamped Gaussian random
    walk from a uniform start, two decimals."""
    rng = random.Random(f"perfbench-trace:{seed}")
    lines = ["node,round,temp_c"]
    for node in range(nodes):
        temp = rng.uniform(T_MIN_C, T_MAX_C)
        for rnd in range(rounds):
            if rnd:
                temp = min(max(temp + rng.gauss(0.0, step_c), T_MIN_C), T_MAX_C)
            lines.append(f"{node},{rnd},{temp:.2f}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_files(out_dir: str) -> list[str]:
    """Relative paths of every CSV a command wrote, sorted.

    ``manifest.json`` is left out on purpose: it embeds the trace path and
    the tool version, and its fingerprint definition is expected to change.
    """
    found = []
    for dirpath, _, filenames in os.walk(out_dir):
        for name in filenames:
            if name.endswith(".csv"):
                rel = os.path.relpath(os.path.join(dirpath, name), out_dir)
                found.append(rel.replace(os.sep, "/"))
    return sorted(found)


def artifact_digest(out_dir: str) -> str:
    """sha256 over the deterministic CSVs a command wrote, names included."""
    h = hashlib.sha256()
    files = csv_files(out_dir)
    if not files:
        raise ValueError(f"no CSV output in {out_dir}")
    for rel in files:
        h.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, rel), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def node_rounds(w: Workload, nodes: int, rounds: int, out_dir: str) -> int:
    """Simulated node-rounds of one command: over every simulation it ran,
    ``nodes`` times the rounds executed."""
    if w.argv[0] == "compare":
        # compare.csv does not say how many rounds ran; a run that went
        # extinct stopped early, so only a run with survivors counts all.
        with open(os.path.join(out_dir, "compare.csv"), encoding="utf-8") as fh:
            rows = {line.split(",")[0]: line.split(",") for line in fh.read().splitlines()}
        if "0" in rows["survivors"][1:3]:
            raise ValueError("a controller went extinct; rounds executed are unknown")
        return len(w.variants) * nodes * rounds
    total = 0
    for rel in csv_files(out_dir):
        if rel.rsplit("/", 1)[-1] == "rounds.csv":
            with open(os.path.join(out_dir, rel), encoding="utf-8") as fh:
                total += nodes * (sum(1 for line in fh if line.strip()) - 1)
    if total == 0:
        raise ValueError(f"no rounds.csv output in {out_dir}")
    return total
