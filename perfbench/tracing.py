"""Outside-in tracing of the qforms layers.

The benchmark wraps, from outside the package, the public functions each
layer calls in the layer below.  A wrapper replaces every binding of the
original function object in every loaded ``qforms`` module (``from .x import
f`` copies a binding, so patching only the defining module would miss calls),
and ``Tracer.uninstall`` puts the originals back.

Three kinds of wrapper keep the overhead small:

- a span (name, start, end, self time, info) for calls that do real work;
  spans live in memory and are summarised when the traced iteration ends;
- a bare call counter for the hot scalar helpers ``kronecker`` and
  ``divisors`` (about a million calls per identities iteration);
- a counter with accumulated time, but no span, for ``compose_forms``; its
  time therefore stays inside the self time of whichever span triggered it.

Self time is a span's duration minus the durations of its direct child spans
in the same thread.  Spans started in worker threads have no parent.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    self_s: float
    info: dict | None


# --- per-span hooks: before(args, kwargs) -> state;
#     after(state, args, kwargs, result, children) -> info


def _lattice_rows(_state, args, kwargs, _result, _children):
    # rows the lattice enumeration visits for f(x, y) <= limit: one per y in
    # [-ymax, ymax], ymax = isqrt(4 a limit / |D|).  Computed, not observed.
    f = args[0]
    limit = args[1] if len(args) > 1 else kwargs["limit"]
    return {"rows": 2 * math.isqrt(4 * f.a * limit // -f.disc) + 1}


def _file_bytes(_state, args, kwargs, _result, _children):
    # the whole blob is written or read in one call, so its size is the
    # byte count.  Computed from the file, not observed in the call.
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _cpu_start(_args, _kwargs):
    return time.process_time()


def _cpu_used(state, _args, _kwargs, _result, _children):
    return {"cpu_s": time.process_time() - state}


def _violations(_state, _args, _kwargs, result, _children):
    return {"violations": len(result)}


def _blob_present(args, kwargs):
    cache_dir = args[1] if len(args) > 1 else kwargs.get("cache_dir")
    if cache_dir is None:
        return False
    return sys.modules["qforms.cache"].cache_path(cache_dir, args[0]).exists()


def _cache_outcome(present, _args, _kwargs, _result, children):
    # load_or_build builds the group only when no usable blob was found
    if "forms.class_group" not in children:
        return {"hits": 1}
    return {"rebuilds": 1} if present else {"misses": 1}


# name -> (before, after)
SPANS = {
    "arith.build_sieve": (None, None),
    "arith.prime_power_table": (None, None),
    "forms.represented_mask": (None, _lattice_rows),
    "forms.value_counts": (None, _lattice_rows),
    "forms.class_group": (None, None),
    "characters.build_w_table": (None, None),
    "characters.characters": (None, None),
    "characters.lambda_table": (None, None),
    "characters.kronecker_factorize": (None, None),
    "stats.bv_statistic": (_cpu_start, _cpu_used),
    "stats.pi_repr_all": (None, None),
    "stats.discrepancy_E_k": (None, None),
    "sievelab.hecke_check": (None, _violations),
    "sievelab.convolution_check": (None, _violations),
    "sievelab.complex_character_lambdas": (None, None),
    "sievelab.run_sieve_experiment": (None, None),
    "cache.save_entry": (None, _file_bytes),
    "cache.load_entry": (None, _file_bytes),
    "cache.load_or_build": (_blob_present, _cache_outcome),
    "cli.main": (None, None),
}
COUNTED = ("arith.kronecker", "arith.divisors")
TIMED = ("forms.compose_forms",)


def _qforms_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "qforms" or n.startswith("qforms.")]


def _resolve(name):
    module, attr = name.split(".")
    return getattr(sys.modules["qforms." + module], attr)


class Tracer:
    """Records spans and counts while installed; one tracer per traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = {name: itertools.count() for name in COUNTED}
        self.timings: dict[str, list[float]] = {name: [] for name in TIMED}
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers; list.append and next(count) are atomic under the GIL, so
    #    worker threads of the scan need no lock

    def _span(self, name, fn, before, after):
        local = self._local
        record = self.spans.append

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            state = before(args, kwargs) if before else None
            frame = [0.0, []]  # child time, child names
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                    stack[-1][1].append(name)
            info = after(state, args, kwargs, result, frame[1]) if after else None
            record(Span(name, t0, t1, t1 - t0 - frame[0], info))
            return result

        return wrapper

    def _count(self, name, fn):
        tick = self.counters[name].__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        record = self.timings[name].append

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            record(perf_counter() - t0)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for name, (before, after) in SPANS.items():
            wrappers[name] = self._span(name, _resolve(name), before, after)
        for name in COUNTED:
            wrappers[name] = self._count(name, _resolve(name))
        for name in TIMED:
            wrappers[name] = self._timed(name, _resolve(name))
        by_id = {id(_resolve(name)): (_resolve(name), w) for name, w in wrappers.items()}
        for module in _qforms_modules():
            for attr, value in list(vars(module).items()):
                original, wrapper = by_id.get(id(value), (None, None))
                if original is not None and original is value:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summary

    def summary(self) -> dict:
        """Per-name totals: calls, total_s, self_s, durations and summed info.

        Reads the call counters, so call it once, after uninstall.
        """
        out: dict[str, dict] = {}
        for s in self.spans:
            entry = out.setdefault(
                s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "info": {}}
            )
            entry["calls"] += 1
            entry["total_s"] += s.end - s.start
            entry["self_s"] += s.self_s
            entry["durations"].append(s.end - s.start)
            for key, value in (s.info or {}).items():
                entry["info"][key] = entry["info"].get(key, 0) + value
        for name, durations in self.timings.items():
            out[name] = {
                "calls": len(durations),
                "total_s": math.fsum(durations),
                "self_s": math.fsum(durations),
                "durations": durations,
                "info": {},
            }
        for name, counter in self.counters.items():
            out[name] = {"calls": next(counter), "total_s": 0.0, "self_s": 0.0,
                         "durations": [], "info": {}}
        return out
