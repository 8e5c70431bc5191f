"""Binary on-disk cache for class groups and weight tables.

One blob per discriminant, keyed by |q|, little-endian throughout:

- header: magic ``QFGC``, format version (3), q, h;
- the h reduced forms (a, b, c) as ``<i8``, principal form first;
- N (0 when no weight table is stored) and a width code, the bytes per
  weight entry: 1, 2 or 4;
- w(C, n) for n = 0..N as an (h, N + 1) array of ``<u1``, ``<u2`` or
  ``<u4``, the narrowest that holds its maximum;
- a CRC-32 of everything before it.

Nothing derived from the forms is stored: the composition table, orders,
cyclic decomposition and coords of a loaded group are computed by
`FormClassGroup` when first asked for, exactly as for a group built from
scratch.  A bad magic, another format version, a checksum failure, a
length that does not match the header, an unknown width code, a form
that is not a reduced form of discriminant q, or forms that are not all
h(q) classes in ascending (a, |b|, b < 0) order surfaces as CacheError so
callers can rebuild.  A version bump invalidates all existing blobs.
"""

from __future__ import annotations

import itertools
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .arith import Discriminant, classify_discriminant
from .characters import WTable, build_w_table
from .forms import FormClassGroup, QuadForm, class_group, class_number

__all__ = ["CacheError", "cache_path", "save_entry", "load_entry", "load_usable", "load_or_build"]

_MAGIC = b"QFGC"
_VERSION = 3
_HEADER = struct.Struct("<4sIqI")  # magic, version, q, h
_TABLE = struct.Struct("<qI")  # N (0: no weight table), width code
_CRC = struct.Struct("<I")  # zlib.crc32 of header and payload, at the end
_WIDTHS = {1: "<u1", 2: "<u2", 4: "<u4"}  # width code -> stored dtype of w


class CacheError(Exception):
    """Unreadable, stale or corrupt cache blob."""


def cache_path(cache_dir: str | Path, q: Discriminant) -> Path:
    return Path(cache_dir) / f"{q.abs_q}.qfgc"


def _width_code(w: np.ndarray) -> int:
    """Bytes per entry of the narrowest unsigned dtype that holds w."""
    low, top = (int(w.min()), int(w.max())) if w.size else (0, 0)
    if low < 0 or top >= 1 << 32:
        raise ValueError("weight table entries must lie in [0, 2^32)")
    return next(code for code in _WIDTHS if top < 1 << (8 * code))


def save_entry(path: str | Path, group: FormClassGroup, table: WTable | None = None) -> None:
    """Write one blob atomically (temp file + rename).

    Raises ValueError for a weight below 0 or at least 2^32, which the
    widest stored dtype could not hold.
    """
    path = Path(path)
    forms = np.array([(f.a, f.b, f.c) for f in group.classes], dtype="<i8")
    parts = [_HEADER.pack(_MAGIC, _VERSION, group.q.q, group.h), forms.tobytes()]
    if table is None:
        parts.append(_TABLE.pack(0, 1))  # no w follows; any valid code
    else:
        code = _width_code(table.w)
        parts.append(_TABLE.pack(table.N, code))
        parts.append(table.w.astype(_WIDTHS[code]).tobytes())
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


def load_entry(path: str | Path) -> tuple[FormClassGroup, WTable | None]:
    """Load a blob; raises CacheError on any header, checksum or format problem.

    The group holds only its classes; its derived structure is computed on
    first use.  w is widened to int64.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(str(exc)) from exc
    if len(blob) < _HEADER.size + _CRC.size:
        raise CacheError("truncated cache blob")
    body = memoryview(blob)[: -_CRC.size]
    magic, version, q_value, h = _HEADER.unpack_from(body)
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
    table_at = _HEADER.size + 24 * h
    if table_at + _TABLE.size > len(body):
        raise CacheError("truncated cache blob")
    n_limit, code = _TABLE.unpack_from(body, table_at)
    if code not in _WIDTHS:
        raise CacheError(f"unknown weight width code {code}")
    if n_limit < 0:
        raise CacheError("implausible header")
    w_at = table_at + _TABLE.size
    if w_at + (h * (n_limit + 1) * code if n_limit else 0) != len(body):
        raise CacheError("cache blob length does not match its header")
    forms = np.frombuffer(body, dtype="<i8", count=3 * h, offset=_HEADER.size)
    classes = tuple(QuadForm(*row) for row in forms.reshape(h, 3).tolist())
    if any(f.disc != q_value or not f.is_reduced for f in classes):
        raise CacheError("cached forms do not match the discriminant")
    # distinct reduced forms, h(q) of them: every class, once, in the order
    # class_group sorts them, which puts the principal form first
    keys = [(f.a, abs(f.b), f.b < 0) for f in classes]
    if h != class_number(q.abs_q) or any(k0 >= k1 for k0, k1 in itertools.pairwise(keys)):
        raise CacheError("cached forms are not the classes of the discriminant in order")
    table = None
    if n_limit:
        w = np.frombuffer(body, dtype=_WIDTHS[code], count=h * (n_limit + 1), offset=w_at)
        table = WTable(q, n_limit, w.reshape(h, n_limit + 1).astype(np.int64))
    return FormClassGroup(q, classes), table


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
