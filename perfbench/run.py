"""eastsim benchmark: CLI time, set-up time, memory and an outside-in layer trace.

Usage, from the root of an eastsim checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

One single-threaded process drives the CLI in a closed loop: it starts one
``python -m eastsim.cli`` child at a time and starts the next only after the
previous one has exited. Inputs are generated from ``--seed`` into
``perfbench/.work/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads
from tracer import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", ".work")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

MIN_SAMPLES = 3
# Seconds of set-up probes run before each timed command (at least one).
SETUP_SLICE_S = 0.25
CHILD_TIMEOUT_S = 150
# Oracle cases are shrunk to at most this size.
ORACLE_NODES = 12
ORACLE_ROUNDS = 40
# Self-check size.
TINY_NODES = 40
TINY_ROUNDS = 20

# Set-up as the user pays it: interpreter start, importing the CLI and its
# layers, and parsing the config including any trace load.
SETUP_PROBE = "import sys\nfrom eastsim import cli\ncli.parse_config(sys.argv[1])\n"

END_TO_END = {
    "wall_s": "s",
    "us_per_node_round": "us",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in LAYERS for field, unit in (("calls", "count"), ("s", "s"))},
    "config.trace_rows": "count",
    "engine.self_s": "s",
    "engine.retained_mb": "MB",
    "protocol.beacons": "count",
    "protocol.acks": "count",
    "protocol.data_packets": "count",
    "protocol.control_per_data": "ratio",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EAST_SEED", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], log_path: str) -> Sample:
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS from its rusage."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        exit_code=proc.returncode,
    )


class Tally:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def cli_argv(w: Workload, config_path: str, out_dir: str) -> list[str]:
    return [*w.argv, "--config", config_path, "--out", out_dir]


def check_oracle(w: Workload, seed: int, tally: Tally) -> None:
    """Every simulation of the workload, shrunk, against tests/oracle.py."""
    from eastsim import cli
    import oracle

    config_path = workloads.write_inputs(
        w, seed, ORACLE_NODES, ORACLE_ROUNDS, os.path.join(WORK, w.name, "oracle")
    )
    for variant in w.variants:
        config = cli.parse_config(config_path, list(variant))
        engine_records = [oracle.record_as_dict(r) for r in cli.run_simulation(config).records]
        reference = oracle.reference_run(config)
        same = len(engine_records) == len(reference) and all(
            oracle.records_equal(a, b) for a, b in zip(engine_records, reference)
        )
        tally.record(same, f"{w.name} {' '.join(variant)}: engine differs from oracle")


def check_outputs(out_dir: str, exit_code: int, want: str | None) -> tuple[str | None, str]:
    """The digest of a command's outputs, and the reason they are wrong or ''.

    ``want`` is the recorded digest, or the first one of this run, or None.
    """
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        digest = workloads.artifact_digest(out_dir)
    except (OSError, ValueError) as exc:
        return None, str(exc)
    if want is not None and digest != want:
        return digest, f"digest {digest} differs from {want}"
    return digest, ""


def measure(w: Workload, seed: int, seconds: float, trace: bool, nodes: int, rounds: int) -> dict:
    work_dir = os.path.join(WORK, w.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    tally = Tally()
    check_oracle(w, seed, tally)
    config_path = workloads.write_inputs(w, seed, nodes, rounds, work_dir)
    # Every command of a run must match the recorded digest at the default
    # seed and size, and the run's first digest otherwise.
    want = w.expected_digest if (seed, nodes, rounds) == (DEFAULT_SEED, w.nodes, w.rounds) else None
    probe = [sys.executable, "-c", SETUP_PROBE, config_path]
    probe_log = os.path.join(work_dir, "setup.log")
    # Untimed warm-up; it also writes the .pyc files.
    tally.record(spawn(probe, probe_log).exit_code == 0, "set-up warm-up probe")

    out_dir = os.path.join(work_dir, "out")
    argv = [sys.executable, "-m", "eastsim.cli", *cli_argv(w, config_path, out_dir)]
    setup: list[float] = []
    samples: list[Sample] = []
    per_node_round: list[float] = []
    commands = 0
    start = time.perf_counter()
    while commands < MIN_SAMPLES or time.perf_counter() - start < seconds:
        commands += 1
        # Set-up probes take turns with the commands, so that both sample
        # the same stretch of the host's wandering speed.
        spent = 0.0
        while spent < SETUP_SLICE_S:
            sample = spawn(probe, probe_log)
            spent += sample.wall_s
            if tally.record(sample.exit_code == 0, "set-up probe"):
                setup.append(sample.wall_s)
        shutil.rmtree(out_dir, ignore_errors=True)
        sample = spawn(argv, os.path.join(work_dir, "cli.log"))
        digest, problem = check_outputs(out_dir, sample.exit_code, want)
        if want is None and digest is not None:
            print(f"{w.name}: artifact digest {digest}", file=sys.stderr)
            want = digest
        if sample.exit_code == 0:
            # A command with wrong outputs is still timed; it counts as failed.
            try:
                work = workloads.node_rounds(w, nodes, rounds, out_dir)
                samples.append(sample)
                per_node_round.append(sample.wall_s * 1e6 / work)
            except (OSError, ValueError) as exc:
                problem = problem or str(exc)
        tally.record(not problem, f"{w.name} command: {problem}")
    if not samples or not setup:
        raise RuntimeError(f"{w.name}: no command completed to measure")

    wall = statistics.median(s.wall_s for s in samples)
    print(
        f"{w.name}: {len(samples)} timed commands, wall_s "
        f"{sorted(round(s.wall_s, 3) for s in samples)}, {len(setup)} set-up probes",
        file=sys.stderr,
    )
    if not trace:
        values = {
            "wall_s": wall,
            "us_per_node_round": statistics.median(per_node_round),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        }
        units = END_TO_END
    else:
        values = traced_run(w, config_path, work_dir, want, wall, tally)
        units = PER_LAYER
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def traced_run(
    w: Workload, config_path: str, work_dir: str, want: str | None, untraced_wall_s: float,
    tally: Tally,
) -> dict:
    """Run the command once more under tracer.py; per-layer metrics."""
    out_dir = os.path.join(work_dir, "traced")
    trace_path = os.path.join(work_dir, "trace.json")
    argv = [sys.executable, TRACER, trace_path, *cli_argv(w, config_path, out_dir)]
    sample = spawn(argv, os.path.join(work_dir, "traced.log"))
    # Wrapping must change no result: the traced artifacts carry the
    # untraced digest.
    _, problem = check_outputs(out_dir, sample.exit_code, want)
    tally.record(not problem, f"{w.name} traced command: {problem}")
    if sample.exit_code != 0:
        raise RuntimeError(f"{w.name}: traced command failed: {problem}")
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    layers = trace["layers"]
    results = trace["results"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = layers[layer]["calls"]
        values[f"{layer}.s"] = layers[layer]["s"]
    control = sum(r["beacons"] + r["acks"] for r in results)
    data = sum(r["data_packets"] for r in results)
    values.update(
        {
            "config.trace_rows": trace["trace_rows"],
            "engine.self_s": layers["engine.run_simulation"]["self_s"],
            "engine.retained_mb": max(r["retained_bytes"] for r in results) / 1e6,
            "protocol.beacons": sum(r["beacons"] for r in results),
            "protocol.acks": sum(r["acks"] for r in results),
            "protocol.data_packets": data,
            "protocol.control_per_data": control / data,
            "cli.bytes_written": sum(
                os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out_dir) for f in fs
            ),
            "trace.wall_s": sample.wall_s,
            "trace.overhead_s": sample.wall_s - untraced_wall_s,
            "trace.spans": len(trace["spans"]),
        }
    )
    return values


def self_check() -> int:
    """Every workload at a tiny size, both modes; every metric of
    BENCHMARK.json must be present with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in declared[key]}
        for name in names:
            result = measure(WORKLOADS[name], DEFAULT_SEED, 0.0, trace, TINY_NODES, TINY_ROUNDS)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != declared {wanted}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    for required in ("src/eastsim/cli.py", "tests/oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            print(f"error: {required} not found; run from an eastsim checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload]
    result = measure(w, args.seed, args.seconds, bool(args.trace), w.nodes, w.rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
