"""Node deployment and the per-round temperature process.

One root seed drives everything; independent substreams are derived by
hashing a purpose label (and node id) so that, for example, re-rolling
temperatures never perturbs node placement.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import random
import struct
import sys
import tempfile
from typing import NamedTuple, Optional

from .errors import ConfigError, DataError

# sha256 for short strings (substream keys, config fingerprints) from the
# interpreter's builtin module, as CPython's random.py takes its sha512: the
# same digests, without the OpenSSL that ``import hashlib`` maps. Only the
# functions that hash file contents import hashlib, whose OpenSSL sha256 is
# several times faster on megabytes.
try:
    from _sha2 import sha256 as lean_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as lean_sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as lean_sha256

TRACE_HEADER = ["node", "round", "temp_c"]


def substream(seed: int, *labels: object) -> random.Random:
    """Independent RNG stream for (seed, purpose label, ...)."""
    key = ":".join([str(seed), *(str(label) for label in labels)])
    digest = lean_sha256(key.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class TraceTable:
    """A dense temperature trace held as per-round rows: ``rows[round][node]``.

    Each row is an ``array('d')``, whether the table was parsed or read from
    the trace cache, and every row has the same width; only the functions
    that build rows import ``array``. Tables compare equal elementwise
    and are unhashable, and nothing writes a row. ``len(table)``
    counts the (node, round) cells, as many as the file has data rows, which
    is why this is no named tuple: ``_make`` and ``_replace`` check ``len()``.
    """

    def __init__(self, rows: tuple[array, ...]) -> None:
        self.rows = rows

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceTable) and self.rows == other.rows

    def __len__(self) -> int:
        return len(self.rows) * len(self.rows[0])


class TemperatureProcess(NamedTuple):
    """Per-node per-round temperature source.

    Synthetic mode: a per-node Gaussian random walk started at the node's
    base temperature, clamped to [t_min_c, t_max_c] after every step.
    Trace mode, when ``trace`` is set: exact lookup in a dense per-round table.
    """

    t_min_c: float = -10.0
    t_max_c: float = 53.0
    walk_sigma_c: float = 0.5
    trace: Optional[TraceTable] = None
    # sha256 of the trace file's bytes; the config fingerprint hashes it.
    trace_sha256: Optional[str] = None

    @property
    def mode(self) -> str:
        return "synthetic" if self.trace is None else "trace"


class Deployment(NamedTuple):
    """The deployed nodes, one tuple per field: entry ``i`` is node ``i``'s
    position in meters and the base temperature its walk starts from (a
    node's id is its index). ``reference_m`` is the reference node's (x, y)."""

    x_m: tuple[float, ...]
    y_m: tuple[float, ...]
    base_temp_c: tuple[float, ...]
    reference_m: tuple[float, float]


def deploy_random(
    n: int,
    area_side_m: float,
    seed: int,
    t_min_c: float = -10.0,
    t_max_c: float = 53.0,
) -> Deployment:
    """Place ``n`` nodes uniformly in the square, reference at the left-edge midpoint.

    Node ``i`` draws its position from substream (seed, "deploy", i) and its
    base temperature uniformly in [t_min_c, t_max_c] from
    (seed, "base-temp", i), so placements are independent of node count.
    """
    if n < 1:
        raise ConfigError(f"node count must be >= 1, got {n}")
    if not (area_side_m > 0.0):
        raise ConfigError(f"area side must be positive, got {area_side_m}")
    reference = (0.0, area_side_m / 2.0)
    x_m, y_m, base_temp_c = [], [], []
    for i in range(n):
        rng = substream(seed, "deploy", i)
        x, y = rng.uniform(0.0, area_side_m), rng.uniform(0.0, area_side_m)
        if (x, y) == reference:
            # The link budget is undefined at distance 0; a side this small
            # rounds positions onto the reference.
            raise ConfigError(f"area_side_m: node {i} lies on the reference point, side {area_side_m}")
        x_m.append(x)
        y_m.append(y)
        base_temp_c.append(substream(seed, "base-temp", i).uniform(t_min_c, t_max_c))
    return Deployment(tuple(x_m), tuple(y_m), tuple(base_temp_c), reference)


def walk_stream(seed: int, node_id: int) -> random.Random:
    """The substream feeding a node's temperature random walk."""
    return substream(seed, "temp-walk", node_id)


def load_temperature_trace(
    path: str, t_min_c: float = -10.0, t_max_c: float = 53.0
) -> TemperatureProcess:
    """Load a dense per-node per-round temperature table.

    Format: header ``node,round,temp_c``, one row per (node, round) pair
    in any order, zero-based dense indices. Values must lie within
    [t_min_c, t_max_c]. The table is held as per-round rows.

    A loaded table is cached in a file named by the sha256 of the trace's
    bytes and of the package source (see ``_trace_cache_path``); a later
    load of the same bytes by the same package source reads that file
    instead of parsing, when every check on it passes. The file is hashed
    in 64 KB chunks and read whole only on a miss, whose bytes, hashed
    again, name the cache file and ``trace_sha256``: both name what was parsed.
    """
    import hashlib

    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
            cache_path = _trace_cache_path(digest.hexdigest())
            table = None if cache_path is None else _read_trace_cache(cache_path, t_min_c, t_max_c)
            if table is None:
                fh.seek(0)
                data = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"temperature trace not found: {path}") from None
    if table is None:
        digest = hashlib.sha256(data)
        cache_path = _trace_cache_path(digest.hexdigest())
        try:
            # A byte order mark is not part of the header.
            text = data.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        del data  # the parse reads only the text
        table = _load_per_line(path, text, t_min_c, t_max_c)
        if cache_path is not None:
            _write_trace_cache(cache_path, table)
    return TemperatureProcess(
        t_min_c=t_min_c,
        t_max_c=t_max_c,
        walk_sigma_c=0.0,
        trace=table,
        trace_sha256=digest.hexdigest(),
    )


# A trace cache file is this header (magic with the format version, byte
# order of the values, N, R, min and max of the values), the values as raw
# doubles in round-major order, then the sha256 of everything before it. The
# package source that wrote it is in the file's name only.
_CACHE_MAGIC = b"eastsim-trace-cache-v3\n"
_CACHE_HEADER = struct.Struct(f"<{len(_CACHE_MAGIC)}scQQdd")
_BYTE_ORDER = "<" if sys.byteorder == "little" else ">"
_CACHE_DIGEST_SIZE = 32  # a sha256 digest
# Writing a cache file deletes all but this many most recently written ones.
_CACHE_FILES = 8


@functools.lru_cache(maxsize=None)
def _source_digest() -> Optional[bytes]:
    """The sha256 of this package's source files, so that a cache file
    written by other loader code is a miss; None when they cannot be read."""
    import hashlib

    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    try:
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), "rb") as fh:
                    source = fh.read()
                digest.update(f"{name}\0{len(source)}\0".encode() + source)
    except OSError:
        return None
    return digest.digest()


def _trace_cache_path(sha256: str) -> Optional[str]:
    """The cache file of the trace with this sha256, or None where nothing is
    cached: under an absolute ``$XDG_CACHE_HOME``, else ``~/.cache``. The
    name holds the source digest too, so no load opens a file other source
    wrote, and checkouts that share the directory keep their own files."""
    source = _source_digest()
    if source is None:
        return None
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        root = os.path.join(home, ".cache")
    return os.path.join(root, "eastsim", "traces", f"{sha256}-{source.hex()}")


def _read_trace_cache(path: str, t_min_c: float, t_max_c: float) -> Optional[TraceTable]:
    """The table a cache file holds, or None unless it passes every check:
    header (a short one raises struct.error), length, value range and
    checksum. The rows are read one at a time, as written."""
    import hashlib
    from array import array

    with contextlib.suppress(OSError, struct.error), open(path, "rb") as fh:
        header = fh.read(_CACHE_HEADER.size)
        magic, byte_order, n_nodes, n_rounds, lo, hi = _CACHE_HEADER.unpack(header)
        if magic != _CACHE_MAGIC or byte_order != _BYTE_ORDER.encode() or not (n_nodes and n_rounds):
            return None
        # The length is checked before anything of the header's N and R is allocated.
        if os.fstat(fh.fileno()).st_size != len(header) + 8 * n_nodes * n_rounds + _CACHE_DIGEST_SIZE:
            return None
        if not (t_min_c <= lo and hi <= t_max_c):
            return None
        rows = tuple(array("d", [0.0]) * n_nodes for _ in range(n_rounds))
        checksum = hashlib.sha256(header)
        for row in rows:
            fh.readinto(row)  # a file cut short since the fstat fails the digest test
            checksum.update(row)
        if checksum.digest() == fh.read(_CACHE_DIGEST_SIZE):
            return TraceTable(rows)
    return None


def _write_trace_cache(path: str, table: TraceTable) -> None:
    """Writes the cache file of a loaded table through a temporary file, then
    deletes the oldest files beyond ``_CACHE_FILES``; a location that cannot
    be written only means nothing is cached."""
    import hashlib

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:  # checked first, so a location never writable costs no scan
        return
    rows = table.rows
    n_nodes = len(rows[0])
    lo, hi = min(map(min, rows)), max(map(max, rows))
    header = _CACHE_HEADER.pack(_CACHE_MAGIC, _BYTE_ORDER.encode(), n_nodes, len(rows), lo, hi)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with open(fd, "wb") as fh:
            checksum = hashlib.sha256(header)
            fh.write(header)
            for row in rows:  # each row's own bytes: native-order doubles
                checksum.update(row)
                fh.write(row)
            fh.write(checksum.digest())
        os.replace(tmp, path)
        tmp = None
        with os.scandir(directory) as entries:
            files = sorted(entries, key=lambda entry: entry.stat().st_mtime_ns, reverse=True)
        for entry in files[_CACHE_FILES:]:
            os.unlink(entry.path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _load_per_line(path: str, text: str, t_min_c: float, t_max_c: float) -> TraceTable:
    """The table of a trace's decoded text, read line by line in any row order.

    A ``DataError`` names the first bad row of the file.
    """
    from array import array

    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty trace file")
    header = [col.strip() for col in lines[0].split(",")]
    if header != TRACE_HEADER:
        raise DataError(f"{path}: expected header {','.join(TRACE_HEADER)!r}, got {lines[0]!r}")

    # One pass in file order, so the first bad row is the one named. A cell
    # not yet read holds NaN, which the range check keeps out of the values.
    # Indices spanning more cells than the file has lines cannot be dense:
    # then the rows stop growing and a set of the cells read checks duplicates.
    limit = len(lines) - 1
    rows: list[array] = []
    seen: Optional[set[tuple[int, int]]] = None
    n_nodes = n_rounds = count = 0
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            node_field, round_field, temp_field = line.split(",")
        except ValueError:
            if not line.strip():
                continue
            raise DataError(
                f"{path}: row {line_no}: expected 3 fields, got {len(line.split(','))}"
            ) from None
        try:
            node_id, round_idx, temp = int(node_field), int(round_field), float(temp_field)
        except ValueError:
            raise DataError(f"{path}: row {line_no}: malformed values {line!r}") from None
        if node_id < 0 or round_idx < 0:
            raise DataError(f"{path}: row {line_no}: negative node or round index")
        if not (t_min_c <= temp <= t_max_c):
            raise DataError(
                f"{path}: row {line_no}: temperature {temp} outside "
                f"declared range [{t_min_c}, {t_max_c}]"
            )
        count += 1
        if node_id >= n_nodes or round_idx >= n_rounds:
            n_nodes = max(n_nodes, node_id + 1)
            n_rounds = max(n_rounds, round_idx + 1)
            if seen is None and n_nodes * n_rounds > limit:
                seen = _cells_read(rows)
            if seen is None:
                rows.extend(array("d") for _ in range(n_rounds - len(rows)))
        if seen is not None:
            if (node_id, round_idx) not in seen:
                seen.add((node_id, round_idx))
                continue
        else:
            row = rows[round_idx]
            width = len(row)
            if node_id == width:  # the common case, in node- or round-major files
                row.append(temp)
                continue
            if node_id > width:
                row.extend([math.nan] * (node_id - width))
                row.append(temp)
                continue
            if math.isnan(row[node_id]):
                row[node_id] = temp
                continue
        raise DataError(f"{path}: row {line_no}: duplicate entry for ({node_id}, {round_idx})")

    if not count:
        raise DataError(f"{path}: trace contains no rows")
    if count != n_nodes * n_rounds:
        # At most count cells are present, so this ends within count + 1 probes.
        if seen is None:
            seen = _cells_read(rows)
        for node_id in range(n_nodes):
            for round_idx in range(n_rounds):
                if (node_id, round_idx) not in seen:
                    raise DataError(f"{path}: missing entry for node {node_id}, round {round_idx}")
    return TraceTable(tuple(rows))


def _cells_read(rows: list[array]) -> set[tuple[int, int]]:
    """The (node, round) cells of partly filled per-round rows that hold a value."""
    return {
        (node_id, round_idx)
        for round_idx, row in enumerate(rows)
        for node_id, temp in enumerate(row)
        if not math.isnan(temp)
    }
