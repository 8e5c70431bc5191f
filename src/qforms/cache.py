"""Binary on-disk cache for class groups and weight tables.

One blob per discriminant, keyed by |q|, with a versioned little-endian
header and a trailing CRC-32 of everything before it; any format mismatch,
checksum failure, length mismatch or inconsistent group table surfaces as
CacheError so callers can rebuild.  A version bump invalidates all existing
blobs.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .arith import Discriminant, classify_discriminant
from .characters import WTable, build_w_table
from .forms import FormClassGroup, QuadForm, class_group

__all__ = ["CacheError", "cache_path", "save_entry", "load_entry", "load_usable", "load_or_build"]

_MAGIC = b"QFGC"
_VERSION = 2
_HEADER = struct.Struct("<4sIqII")  # magic, version, q, h, rank
_CRC = struct.Struct("<I")  # zlib.crc32 of header and payload, at the end


class CacheError(Exception):
    """Unreadable, stale or corrupt cache blob."""


def cache_path(cache_dir: str | Path, q: Discriminant) -> Path:
    return Path(cache_dir) / f"{q.abs_q}.qfgc"


def _pack_array(arr: np.ndarray, dtype: str) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.dtype(dtype)).tobytes()


def save_entry(path: str | Path, group: FormClassGroup, table: WTable | None = None) -> None:
    """Write one blob atomically (temp file + rename)."""
    path = Path(path)
    dec = group.cyclic_decomposition
    parts = [_HEADER.pack(_MAGIC, _VERSION, group.q.q, group.h, len(dec))]
    forms = np.array([(f.a, f.b, f.c) for f in group.classes], dtype=np.int64)
    parts.append(_pack_array(forms, "<i8"))
    parts.append(_pack_array(group.composition, "<i4"))
    parts.append(_pack_array(np.array(group.orders), "<i4"))
    parts.append(_pack_array(np.array(dec, dtype=np.int64).reshape(len(dec), 2), "<i4"))
    parts.append(_pack_array(group.coords, "<i4"))
    if table is None:
        parts.append(struct.pack("<q", 0))
    else:
        parts.append(struct.pack("<q", table.N))
        parts.append(_pack_array(table.w, "<i8"))
    body = b"".join(parts)
    # a unique temp file per writer, so concurrent saves of one blob never
    # write through the same file
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body + _CRC.pack(zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.blob):
            raise CacheError("truncated cache blob")
        out = self.blob[self.pos : self.pos + size]
        self.pos += size
        return out

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        dt = np.dtype(dtype)
        size = dt.itemsize * int(np.prod(shape)) if shape else dt.itemsize
        return np.frombuffer(self.take(size), dtype=dt).reshape(shape).copy()


def _check_latin_square(comp: np.ndarray) -> None:
    """A group table is a Latin square whose row 0 (the principal class) is
    the identity.  On one, every power sequence returns to the identity, so
    FormClassGroup.orders terminates when it checks the stored orders."""
    ident = np.arange(len(comp))
    if not (
        np.array_equal(comp[0], ident)
        and (np.sort(comp, axis=0) == ident[:, None]).all()
        and (np.sort(comp, axis=1) == ident).all()
    ):
        raise CacheError("composition table is not a group table")


def load_entry(path: str | Path) -> tuple[FormClassGroup, WTable | None]:
    """Load a blob; raises CacheError on any header, checksum or format problem."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(str(exc)) from exc
    if len(blob) < _HEADER.size + _CRC.size:
        raise CacheError("truncated cache blob")
    body = memoryview(blob)[: -_CRC.size]
    r = _Reader(body)
    magic, version, q_value, h, rank = _HEADER.unpack(r.take(_HEADER.size))
    if magic != _MAGIC:
        raise CacheError("bad magic")
    if version != _VERSION:
        raise CacheError(f"cache format version {version}, expected {_VERSION}")
    if _CRC.unpack(blob[-_CRC.size :])[0] != zlib.crc32(body):
        raise CacheError("checksum mismatch")
    if q_value >= 0 or h < 1:
        raise CacheError("implausible header")
    q = classify_discriminant(q_value)
    if not q.is_fundamental:
        raise CacheError("cached discriminant is not fundamental")
    forms_arr = r.array("<i8", (h, 3))
    comp = r.array("<i4", (h, h)).astype(np.int32)
    orders = r.array("<i4", (h,))
    dec = r.array("<i4", (rank, 2))
    coords = r.array("<i4", (h, rank)).astype(np.int64)
    (n_limit,) = struct.unpack("<q", r.take(8))
    w = r.array("<i8", (h, n_limit + 1)) if n_limit else None
    if r.pos != len(body):
        raise CacheError("cache blob length does not match its header")
    _check_latin_square(comp)
    classes = tuple(QuadForm(*map(int, row)) for row in forms_arr)
    if any(f.disc != q_value or not f.is_reduced for f in classes):
        raise CacheError("cached forms do not match the discriminant")
    group = FormClassGroup(q, classes)
    group.__dict__["composition"] = comp
    if group.orders != tuple(orders.tolist()):
        raise CacheError("stored orders disagree with the composition table")
    group.__dict__["cyclic_decomposition"] = tuple(
        (int(g), int(d)) for g, d in dec
    )
    group.__dict__["coords"] = coords
    table = WTable(q, int(n_limit), w.astype(np.int64)) if n_limit else None
    return group, table


def load_usable(
    path: Path, n_limit: int = 0, warn=None
) -> tuple[FormClassGroup, WTable | None] | None:
    """The blob at path if it loads and holds weights up to n_limit, else None.

    n_limit = 0 asks for the group only.  A blob that exists but fails to
    load is reported to `warn` (if given) as rebuilt, since every caller
    rebuilds what this returns None for.
    """
    if not path.exists():
        return None
    try:
        group, table = load_entry(path)
    except CacheError as exc:
        if warn:
            warn(f"cache entry {path.name} rebuilt ({exc})")
        return None
    if n_limit == 0 or (table is not None and table.N >= n_limit):
        return group, table
    return None


def load_or_build(
    q: Discriminant,
    cache_dir: str | Path | None,
    n_limit: int = 0,
    warn=None,
) -> tuple[FormClassGroup, WTable | None]:
    """Fetch (group, table) from cache if usable, else build them in memory.

    Nothing is written here: `qforms tabulate` is the cache's writer.  A
    corrupt or outdated blob is rebuilt; `warn` (if given) receives one
    message per corrupt blob.
    """
    if cache_dir is not None:
        entry = load_usable(cache_path(cache_dir, q), n_limit, warn)
        if entry is not None:
            return entry
    group = class_group(q)
    table = build_w_table(group, n_limit) if n_limit else None
    return group, table
