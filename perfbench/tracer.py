"""Outside-in layer trace of one eastsim CLI command.

Usage: ``python perfbench/tracer.py TRACE.json <eastsim cli arguments>``,
with eastsim importable. It wraps each layer's public functions at the
module attributes their callers resolve, runs the command through
``eastsim.cli.main`` in this process, writes counters and spans to
TRACE.json and exits with the command's exit code.

Coarse calls get a span each (name, start, end, parent). Calls made once per
node and round only add to a call count and an accumulated time, which
keeps the trace affordable at 10^5-10^6 calls per command. A layer's self
time is its accumulated time minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import enum
import importlib
import json
import sys
import time

# (module, attribute) -> layer metric name.
SPANNED = {
    ("eastsim.cli", "parse_config"): "config.parse_config",
    ("eastsim.cli", "run_simulation"): "engine.run_simulation",
    ("eastsim.cli", "write_run_outputs"): "cli.write_run_outputs",
    ("eastsim.cli", "summarize"): "report.summarize",
    ("eastsim.cli", "emit_figure_data"): "report.emit_figure_data",
    ("eastsim.cli", "compare_runs"): "report.compare_runs",
    ("eastsim.engine", "deploy_random"): "topology.deploy_random",
    ("eastsim.engine", "partition_regions"): "protocol.partition_regions",
}
COUNTED = {
    ("eastsim.engine", "walk_stream"): "topology.walk_stream",
    ("eastsim.engine", "substream"): "topology.substream",
    ("eastsim.topology", "substream"): "topology.substream",
    ("eastsim.engine", "needs_closed_loop"): "protocol.needs_closed_loop",
    ("eastsim.engine", "east_assign"): "protocol.east_assign",
    ("eastsim.engine", "rssi_loss_from_temperature"): "radio.rssi_loss_from_temperature",
    ("eastsim.engine", "power_level_for_rssi_loss"): "radio.power_level_for_rssi_loss",
    ("eastsim.engine", "prr_from_margin"): "radio.prr_from_margin",
    ("eastsim.engine", "tx_energy"): "radio.tx_energy",
    ("eastsim.engine", "rx_energy"): "radio.rx_energy",
}
LAYERS = tuple(dict.fromkeys([*SPANNED.values(), *COUNTED.values()]))


class Tracer:
    """Counters and spans for one traced command, kept in memory."""

    def __init__(self) -> None:
        # name -> [calls, seconds, seconds spent in wrapped children]
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}
        # One [child seconds] cell per active wrapped call.
        self.stack: list[list[float]] = []
        self.span_stack: list[int] = []
        self.spans: list[dict] = []
        self.results: list[dict] = []
        self.trace_rows = 0
        self.epoch = time.perf_counter()

    def counted(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += cell[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def spanned(self, name, fn):
        timed = self.counted(name, fn)

        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self.span_stack[-1] if self.span_stack else None,
                "name": name,
                "start": time.perf_counter() - self.epoch,
            }
            self.spans.append(span)
            self.span_stack.append(span["id"])
            try:
                out = timed(*args, **kwargs)
            finally:
                self.span_stack.pop()
                span["end"] = time.perf_counter() - self.epoch
            self.observe(name, out)
            return out

        return wrapper

    def observe(self, name: str, out) -> None:
        """Read layer counts off a returned object, outside the timed span."""
        if name == "config.parse_config":
            if out.temperature.mode == "trace":
                self.trace_rows += len(out.temperature.trace)
        elif name == "engine.run_simulation":
            records = out.records
            alive_before = [out.config.node_count] + [sum(r.alive) for r in records[:-1]]
            self.results.append(
                {
                    "beacons": out.traffic.beacons_sent,
                    "acks": out.traffic.acks_sent,
                    "data_packets": sum(alive_before),
                    "node_rounds": out.config.node_count * len(records),
                    "retained_bytes": retained_bytes(out),
                }
            )

    def install(self) -> None:
        for table, wrap in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for (module_name, attr), name in table.items():
                module = importlib.import_module(module_name)
                setattr(module, attr, wrap(name, getattr(module, attr)))

    def dump(self, path: str, exit_code: int) -> None:
        layers = {
            name: {"calls": calls, "s": total, "self_s": total - children}
            for name, (calls, total, children) in self.stats.items()
        }
        payload = {
            "exit_code": exit_code,
            "trace_id": f"{time.time_ns():x}",
            "layers": layers,
            "spans": self.spans,
            "results": self.results,
            "trace_rows": self.trace_rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)


def retained_bytes(result) -> int:
    """Bytes held by a SimResult, leaving out the config the caller passed in.

    Objects are counted once. Floats are not gc-tracked and are too many to
    remember by id, so a float in a list is counted unless the list that
    came before it in the same field holds that very object at the same
    index; that is how the engine carries an unchanged per-node value from
    one round's record to the next.
    """
    seen: set[int] = set()
    previous: dict[str, list] = {}
    total = 0
    todo = [(value, name) for name, value in vars(result).items() if name != "config"]
    while todo:
        obj, field = todo.pop()
        if isinstance(obj, (bool, type(None), enum.Enum)) or obj is result.config:
            continue
        if isinstance(obj, float):
            total += sys.getsizeof(obj)
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, list):
            prev = previous.get(field)
            previous[field] = obj
            for i, item in enumerate(obj):
                if isinstance(item, float):
                    if prev is None or i >= len(prev) or prev[i] is not item:
                        total += sys.getsizeof(item)
                else:
                    todo.append((item, field))
        elif isinstance(obj, dict):
            for key, value in obj.items():
                todo.append((key, field))
                todo.append((value, field))
        elif isinstance(obj, (tuple, set, frozenset)):
            todo.extend((item, field) for item in obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            total += sys.getsizeof(vars(obj))
            todo.extend((value, name) for name, value in vars(obj).items())
    return total


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from eastsim import cli

    exit_code = cli.main(cli_args)
    tracer.dump(trace_path, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
