"""Node deployment, the per-round temperature process and its caches.

One root seed drives everything; independent substreams are derived by
hashing a purpose label (and node id) so that, for example, re-rolling
temperatures never perturbs node placement.

A loaded trace and a synthetic walk are each cached as a file of per-round
rows under ``$XDG_CACHE_HOME/eastsim`` (``traces/`` and ``walks/``), so a
later command reads the rows instead of parsing or drawing them again.
"""

from __future__ import annotations

import binascii
import contextlib
import functools
import math
import os
import random
import struct
import sys
import tempfile
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ConfigError, DataError

# sha256 for short strings (substream keys, config fingerprints, cache keys)
# and the package source from the interpreter's builtin module, as CPython's
# random.py takes its sha512: the same digests, without the OpenSSL that
# ``import hashlib`` maps. Only the function that hashes a trace file imports
# hashlib, whose OpenSSL sha256 is several times faster on megabytes.
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
    """A dense temperature trace held as per-round rows: ``rows[round][node]``,
    and the sha256 of the bytes it was parsed from, if any.

    Each row is an ``array('d')``, whether the table was parsed or read from
    the trace cache, and every row has the same width; only the functions
    that build rows import ``array``. Tables compare equal elementwise, by
    their rows alone, and are unhashable, and nothing writes a row.
    ``len(table)`` counts the (node, round) cells, as many as the file has
    data rows, which is why this is no named tuple: ``_make`` and
    ``_replace`` check ``len()``.
    """

    def __init__(self, rows: tuple[array, ...], sha256: Optional[str] = None) -> None:
        self.rows = rows
        self.sha256 = sha256

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceTable) and self.rows == other.rows

    def __len__(self) -> int:
        return len(self.rows) * len(self.rows[0])


class TemperatureProcess(NamedTuple):
    """Per-node per-round temperature source.

    Synthetic mode: a per-node Gaussian random walk started at the node's
    base temperature, clamped to [t_min_c, t_max_c] after every step.
    Trace mode, when ``trace`` is set: exact lookup in a dense per-round table,
    which ``walk_sigma_c`` does not touch.
    """

    t_min_c: float = -10.0
    t_max_c: float = 53.0
    walk_sigma_c: float = 0.5
    trace: Optional[TraceTable] = None

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


def load_temperature_trace(path: str, t_min_c: float = -10.0, t_max_c: float = 53.0) -> TraceTable:
    """Load a dense per-node per-round temperature table.

    Format: header ``node,round,temp_c``, one row per (node, round) pair
    in any order, zero-based dense indices. Values must lie within
    [t_min_c, t_max_c]. The table is held as per-round rows.

    A loaded table is cached in a file whose key is the sha256 of the
    trace's bytes (see ``_cache_path``); a later load of the same bytes by
    the same package source reads that file instead of parsing, when every
    check on it passes. The file is hashed in 64 KB chunks and read whole
    only on a miss, whose bytes, hashed again, name the cache file and the
    table's ``sha256``: both name what was parsed.
    """
    import hashlib

    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
            cache_path = _cache_path("traces", digest.hexdigest())
            rows = None if cache_path is None else _read_cache(cache_path, t_min_c, t_max_c)
            if rows is None:
                fh.seek(0)
                data = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"temperature trace not found: {path}") from None
    if rows is None:
        digest = hashlib.sha256(data)
        cache_path = _cache_path("traces", digest.hexdigest())
        try:
            # A byte order mark is not part of the header.
            text = data.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        del data  # the parse reads only the text
        rows = _load_per_line(path, text, t_min_c, t_max_c)
        if cache_path is not None:
            lo, hi = min(map(min, rows)), max(map(max, rows))
            for _ in _write_cache(cache_path, len(rows[0]), len(rows), lo, hi, rows):
                pass
    return TraceTable(tuple(rows), digest.hexdigest())


# A cache file, trace or walk alike, is a header (magic with the format
# version, byte order of the values, N, R, and bounds of the values: a
# trace's min and max, a walk's t_min_c and t_max_c), the values as raw
# doubles in round-major order, then the crc32 of everything before it,
# which detects a damaged file and imports no hashlib. Its kind is its
# directory; its key and the package source that wrote it are in its name
# only.
_CACHE_MAGIC = b"eastsim-cache-v4\n"
_CACHE_HEADER = struct.Struct(f"<{len(_CACHE_MAGIC)}scQQdd")
_CACHE_CHECKSUM = struct.Struct("<I")
_BYTE_ORDER = "<" if sys.byteorder == "little" else ">"
# Writing a cache file deletes all but this many most recently written ones
# of its directory.
_CACHE_FILES = 8
# A walk of more bytes than this is drawn without being cached, so the
# walks directory never holds more than _CACHE_FILES times this.
_WALK_CACHE_BYTES = 16 << 20


@functools.lru_cache(maxsize=None)
def _source_digest() -> Optional[bytes]:
    """The sha256 of this package's source files, so that a cache file
    written by other code is a miss; None when they cannot be read."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = lean_sha256()
    try:
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), "rb") as fh:
                    source = fh.read()
                digest.update(f"{name}\0{len(source)}\0".encode() + source)
    except OSError:
        return None
    return digest.digest()


def _cache_path(kind: str, key: str) -> Optional[str]:
    """The cache file of ``key`` (a trace's sha256, a walk's inputs) in the
    cache ``kind`` ("traces" or "walks"), or None where nothing is cached:
    under an absolute ``$XDG_CACHE_HOME``, else ``~/.cache``. Its name is
    the sha256 of the key and of the package source, so no load opens a
    file other source wrote, and checkouts that share the directory keep
    their own files."""
    source = _source_digest()
    if source is None:
        return None
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        root = os.path.join(home, ".cache")
    return os.path.join(root, "eastsim", kind, lean_sha256(key.encode("ascii") + source).hexdigest())


def _read_cache(
    path: str, t_min_c: float, t_max_c: float, shape: Optional[tuple[int, int]] = None
) -> Optional[Iterator[Sequence[float]]]:
    """The rows of the cache file at ``path``, or None unless its magic,
    byte order, dimensions (N and R, equal to ``shape`` when given), length,
    value range and checksum pass, all before any row is read. The checksum
    is read in 64 KB chunks, so nothing of the size the header claims is
    allocated. Each row is then read on its own with ``readinto``: a walk's
    (``shape`` given) into one buffer and yielded as a list, a trace's into
    an ``array('d')`` of its size. A file cut short since its checks raises
    DataError. Close the iterator when done with it."""

    def rows() -> Iterator[Sequence[float]]:
        with fh:
            if shape is None:
                from array import array
            else:
                buffer = bytearray(8 * n_nodes)
                temps = memoryview(buffer).cast("d")
            for _ in range(n_rounds):
                row = array("d", [0.0]) * n_nodes if shape is None else buffer
                if fh.readinto(row) != 8 * n_nodes:
                    raise DataError(f"{path}: cache file cut short while it was read")
                yield row if shape is None else temps.tolist()

    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with contextlib.suppress(OSError, struct.error):
        header = fh.read(_CACHE_HEADER.size)
        magic, byte_order, n_nodes, n_rounds, lo, hi = _CACHE_HEADER.unpack(header)
        size = 8 * n_nodes * n_rounds
        if (
            magic == _CACHE_MAGIC
            and byte_order == _BYTE_ORDER.encode()
            and n_nodes and n_rounds
            and shape in (None, (n_nodes, n_rounds))
            and os.fstat(fh.fileno()).st_size == len(header) + size + _CACHE_CHECKSUM.size
            and t_min_c <= lo and hi <= t_max_c
        ):
            crc = binascii.crc32(header)
            while chunk := fh.read(min(size, 1 << 16)):
                crc = binascii.crc32(chunk, crc)
                size -= len(chunk)
            if fh.read(_CACHE_CHECKSUM.size) == _CACHE_CHECKSUM.pack(crc):
                fh.seek(len(header))
                return rows()
    fh.close()
    return None


def _write_cache(
    path: str, n_nodes: int, n_rounds: int, lo: float, hi: float, rows: Iterable[Sequence[float]]
) -> Iterator[Sequence[float]]:
    """The rows of ``rows``, each yielded once it is packed into a temporary
    file beside ``path``, the cache file of ``n_rounds`` rows of ``n_nodes``
    values within [lo, hi]. Once all ``n_rounds`` rows have passed, whether
    the generator is then exhausted or closed, the file gets its checksum,
    is renamed to ``path``, and all but the ``_CACHE_FILES`` most recently
    written files of its directory are deleted; if it stops before, the file
    is deleted. An OSError at any step only means that nothing is cached:
    the rows keep flowing."""
    pack = struct.Struct(f"{_BYTE_ORDER}{n_nodes}d").pack
    directory = os.path.dirname(path)
    fh = tmp = None
    written: Optional[int] = 0  # rows in the file; None once a step failed
    try:
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            fh = open(fd, "wb")
            data = _CACHE_HEADER.pack(_CACHE_MAGIC, _BYTE_ORDER.encode(), n_nodes, n_rounds, lo, hi)
            fh.write(data)
            crc = binascii.crc32(data)
        except OSError:
            written = None
        for row in rows:
            if written is not None:
                data = pack(*row)
                crc = binascii.crc32(data, crc)
                try:
                    fh.write(data)
                    written += 1
                except OSError:
                    written = None
            yield row
    finally:
        if written == n_rounds:
            with contextlib.suppress(OSError):
                fh.write(_CACHE_CHECKSUM.pack(crc))
                fh.close()
                os.replace(tmp, path)
                tmp = None
                with os.scandir(directory) as entries:
                    files = sorted(entries, key=lambda entry: entry.stat().st_mtime_ns, reverse=True)
                for entry in files[_CACHE_FILES:]:
                    os.unlink(entry.path)
        if fh is not None:
            with contextlib.suppress(OSError):
                fh.close()
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def walk_rows(
    seed: int, n_nodes: int, n_rounds: int, proc: TemperatureProcess, steps: Iterator[Sequence[float]]
) -> Iterator[Sequence[float]]:
    """The ``n_rounds`` per-round temperature rows of the synthetic walk of
    ``n_nodes`` nodes under ``seed`` and ``proc``, read from the walk cache,
    else taken from ``steps``, which must yield those rows and is not
    started on a hit.

    The cache file's key holds every input the walk depends on and the
    interpreter and platform, whose math library drew it (see
    ``_cache_path``). It is read only if every check of ``_read_cache``
    passes, its shape included; on a miss each row of ``steps`` passes
    through ``_write_cache``. A walk of more than ``_WALK_CACHE_BYTES`` is
    only drawn. Either way one row is held at a time. Close the generator
    when done with it.
    """
    key = (
        f"{sys.implementation.cache_tag}:{sys.platform}:"
        f"{seed}:{n_nodes}:{n_rounds}:{proc.t_min_c!r}:{proc.t_max_c!r}:{proc.walk_sigma_c!r}"
    )
    path = None if 8 * n_nodes * n_rounds > _WALK_CACHE_BYTES else _cache_path("walks", key)
    if path is None:
        yield from steps
        return
    rows = _read_cache(path, proc.t_min_c, proc.t_max_c, (n_nodes, n_rounds))
    if rows is None:
        rows = _write_cache(path, n_nodes, n_rounds, proc.t_min_c, proc.t_max_c, steps)
    yield from rows


def _load_per_line(path: str, text: str, t_min_c: float, t_max_c: float) -> tuple[array, ...]:
    """The per-round rows of a trace's decoded text, read line by line in any row order.

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
    return tuple(rows)


def _cells_read(rows: list[array]) -> set[tuple[int, int]]:
    """The (node, round) cells of partly filled per-round rows that hold a value."""
    return {
        (node_id, round_idx)
        for round_idx, row in enumerate(rows)
        for node_id, temp in enumerate(row)
        if not math.isnan(temp)
    }
