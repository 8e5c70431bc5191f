"""The three benchmark workloads.

Each workload drives the library's public functions in the order the CLI
command it stands for calls them.  A run calls, per iteration:

- ``prepare(i)`` -> context (untimed),
- ``run(context)`` -> result (timed; the closed loop starts the next
  iteration only after this returns); each CLI command or top-level call
  inside it is a step, timed on its own with ``step(name)`` into ``laps``
  together with the host's speed during it (hostspeed.py),
- ``check(i, context, result)`` (untimed): cheap checks of every operation,
  and keeps what ``finish`` needs,

and ``finish()`` once at the end (untimed) for the expensive one-off
oracles.  An operation is one discriminant's result in one step (for
sieve-ratio, whose output is per trial, one trial's ratio); ``attempted``
counts them and ``failed`` holds the keys of the wrong ones.

Why these three (see NOTES.md): ``scan`` loads the lattice kernel of
``forms`` and the per-q loop of ``stats``; ``identities`` loads scalar
``arith``, ``characters`` and ``sievelab``; ``tables`` is the only user of
``cache`` and of E_k.  ``x2ny2``, ``least-prime`` and ``classgroup`` are left
out: each finishes in at most 0.6 s, most of it interpreter start.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import re
import shutil
import time
from pathlib import Path

import numpy as np

from qforms import arith, cache, characters, cli, forms, sievelab, stats

import hostspeed
import oracles


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    THREADS = 1

    def __init__(self, seed: int, inject: str | None, work_dir: Path):
        self.seed = seed
        self.inject = inject
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed: set = set()
        # step -> (seconds, reference seconds during it), of the last run()
        self.laps: dict[str, tuple[float, float]] = {}
        # False in traced iterations: probes would run inside the spans
        self.probing = True

    @contextlib.contextmanager
    def step(self, name: str):
        if not self.probing:
            t0 = time.perf_counter()
            yield
            self.laps[name] = time.perf_counter() - t0, hostspeed.REFERENCE_S
        elif self.THREADS == 1:
            with hostspeed.Probe() as probe:
                yield
            self.laps[name] = probe.seconds, probe.reference
        else:
            # probes in the main thread would contend with the workers for
            # the GIL: time the reference on every CPU before and after
            before = hostspeed.sample(every_cpu=True)
            t0 = time.perf_counter()
            yield
            seconds = time.perf_counter() - t0
            self.laps[name] = seconds, (before + hostspeed.sample(every_cpu=True)) / 2

    def sieve_limit(self) -> int:
        """Sieve size built during set-up (0: nothing beyond the import)."""
        return 0

    def setup(self) -> None:
        pass

    def prepare(self, i: int):
        return None

    def _op(self, key, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.add(key)

    def finish(self) -> None:
        pass


class Scan(Workload):
    """``qforms scan-bv -Q 200 -X ~1e6 --threads 2 --format json``."""

    name = "scan"
    Q = 200
    THREADS = 2
    SAMPLED = 2

    def __init__(self, seed, inject, work_dir):
        super().__init__(seed, inject, work_dir)
        self.X = 1_000_000 + seed % 1000
        self.family = arith.fundamental_discriminants(self.Q)
        self.h = {q.q: forms.class_number(q.abs_q) for q in self.family}
        self.sampled = self.rng.sample([q for q in self.family if self.h[q.q] > 1], self.SAMPLED)
        self.perturbed = self.rng.randrange(len(self.family))
        self.first_rows = None
        self.sampled_rows: list = []  # (iteration, q, row)

    def sieve_limit(self):
        return self.X

    def setup(self):
        self.sieve = arith.build_sieve(self.X)

    def run(self, _context):
        with self.step("scan-bv"):
            report = stats.bv_statistic(self.Q, self.X, self.sieve, threads=self.THREADS)
            if self.inject == "scan-row":
                row = report.rows[self.perturbed]
                report.rows[self.perturbed] = dataclasses.replace(row, value=row.value + 0.25)
            return report.to_json()

    def check(self, i, _context, text):
        cfg = stats.StatConfig()
        li_x = stats.li(float(self.X), cfg.li_tol)
        doc = json.loads(text)
        rows = doc["rows"]
        for idx, q in enumerate(self.family):
            r = rows[idx] if idx < len(rows) else None
            ok = r is not None and r["q"] == q.q and r["h"] == self.h[q.q]
            if ok:
                # bv value = |pi - li(X)/(e h)| with pi a count: one sign gives an integer
                target = li_x / (r["e_max"] * r["h"])
                ok = any(
                    c > -1e-6 and abs(c - round(c)) < 1e-6
                    for c in (target + r["value"], target - r["value"])
                )
                ok = ok and r["exceptional"] == (
                    math.sqrt(q.abs_q) / math.log(q.abs_q) > cfg.c3 * r["h"]
                )
            if self.first_rows is not None:
                ok = ok and idx < len(self.first_rows) and r == self.first_rows[idx]
            self._op((i, q.q), ok)
            if q in self.sampled:
                self.sampled_rows.append((i, q.q, r))
        values = [r["value"] for r in rows]
        aggregate = math.fsum(values)
        normalized = aggregate / (math.sqrt(self.Q) * self.X * math.log(self.X) ** (-cfg.A))
        self._op(
            (i, "aggregate"),
            doc["aggregate"] == aggregate and math.isclose(doc["normalized"], normalized),
        )
        if self.first_rows is None:
            self.first_rows = rows

    def finish(self):
        cfg = stats.StatConfig()
        li_x = stats.li(float(self.X), cfg.li_tol)
        primes = self.sieve.primes.tolist()
        expected = {}
        for q in self.sampled:
            classes = forms.class_group(q).classes
            h = len(classes)
            pis = oracles.pi_by_reduction(q.q, classes, self.X, primes)
            e = [2 if oracles.is_ambiguous(f) else 1 for f in classes]
            devs = [abs(float(pis[c]) - li_x / (e[c] * h)) for c in range(h)]
            best = max(range(h), key=lambda c: devs[c])
            expected[q.q] = {
                "q": q.q,
                "h": h,
                "e_max": e[best],
                "value": devs[best],
                "exceptional": math.sqrt(q.abs_q) / math.log(q.abs_q) > cfg.c3 * h,
            }
        for i, q, row in self.sampled_rows:
            if row != expected[q]:
                self.failed.add((i, q))


class Identities(Workload):
    """``qforms check-identities -Q 100 --mn-limit 2000 -N 8000``, then
    ``qforms sieve-ratio -Q 300 -N 10000 --trials 100 --seed <seed>``."""

    name = "identities"
    CHECK_Q, MN_LIMIT, CHECK_N = 100, 2000, 8000
    RATIO_Q, RATIO_N, TRIALS, EPS = 300, 10_000, 100, 0.1

    def __init__(self, seed, inject, work_dir):
        super().__init__(seed, inject, work_dir)
        self.ratio_seed = seed % 2**31
        self.family = arith.fundamental_discriminants(self.CHECK_Q)
        self.trial = self.rng.randrange(self.TRIALS)
        self.first = None
        self.sampled_ratios: list = []  # (iteration, ratio)

    def run(self, _context):
        with self.step("check-identities"):
            check = _cli(
                ["check-identities", "-Q", str(self.CHECK_Q), "--mn-limit", str(self.MN_LIMIT),
                 "-N", str(self.CHECK_N)]
            )
        with self.step("sieve-ratio"):
            ratio = _cli(
                ["sieve-ratio", "-Q", str(self.RATIO_Q), "-N", str(self.RATIO_N),
                 "--trials", str(self.TRIALS), "--seed", str(self.ratio_seed)]
            )
        return check, ratio

    def check(self, i, _context, result):
        (code, text), (ratio_code, ratio_text) = result
        counts = [int(m) for m in re.findall(r"violations=(\d+)", text)]
        clean = code == 0 and counts == [0, 0]
        named = {int(m) for m in re.findall(r" q=(-\d+)", text)}
        for q in self.family:
            ok = clean or (bool(named) and q.q not in named)
            if self.first is not None:
                ok = ok and text == self.first[0]
            self._op((i, q.q), ok)

        try:
            doc = json.loads(ratio_text) if ratio_code == 0 else {}
        except json.JSONDecodeError:
            doc = {}
        ratios = doc.get("ratios", [])
        meta_ok = doc.get("meta", {}).get("seed") == self.ratio_seed
        meta_ok = meta_ok and doc.get("max_ratio") == max(ratios, default=None)
        for t in range(self.TRIALS):
            r = ratios[t] if t < len(ratios) else None
            ok = meta_ok and r is not None and math.isfinite(r) and r > 0
            if self.first is not None:
                ok = ok and r == self.first[1][t]
            self._op((i, "trial", t), ok)
        self.sampled_ratios.append((i, ratios[self.trial] if self.trial < len(ratios) else None))
        if self.first is None:
            self.first = (text, ratios)

    def finish(self):
        rng = np.random.default_rng(self.ratio_seed)
        for _ in range(self.trial + 1):
            a = np.zeros(self.RATIO_N + 1)
            a[1:] = rng.integers(0, 2, size=self.RATIO_N) * 2 - 1
        lhs = sievelab.sieve_lhs(self.RATIO_Q, self.RATIO_N, a)
        expected = lhs / sievelab.ratio_denominator(
            self.RATIO_Q, self.RATIO_N, self.EPS, float(a[1:] @ a[1:])
        )
        for i, ratio in self.sampled_ratios:
            if ratio is None or not math.isclose(ratio, expected, rel_tol=1e-9):
                self.failed.add((i, "trial", self.trial))


class Tables(Workload):
    """``qforms tabulate -Q 1000 -N 3000 --cache DIR`` into an empty DIR, the
    same again (every blob reused), then for every q ``cache.load_or_build``
    and ``stats.discrepancy_E_k`` for k = 0 and k = 1."""

    name = "tables"
    Q, N = 1000, 3000
    SAMPLED = 3

    def __init__(self, seed, inject, work_dir):
        super().__init__(seed, inject, work_dir)
        self.family = arith.fundamental_discriminants(self.Q)
        self.h = {q.q: forms.class_number(q.abs_q) for q in self.family}
        self.sampled = self.rng.sample([q for q in self.family if self.h[q.q] > 1], self.SAMPLED)
        self.faulty = self.rng.randrange(len(self.family))
        self.ideal_counts = oracles.IdealCounts(self.N)
        self.expected_counts: dict = {}
        self.first: dict | None = None
        self.references: dict = {}  # q -> fresh group, multiplicative table, E_0, E_1

    def prepare(self, i):
        path = self.work_dir / f"tables-{i}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run(self, cache_dir):
        argv = ["tabulate", "-Q", str(self.Q), "-N", str(self.N), "--cache", str(cache_dir)]
        with self.step("tabulate-write"):
            written = _cli(argv)
        if self.inject == "cache-blob":
            self._flip_w_entry(cache_dir)
        with self.step("tabulate-reuse"):
            reused = _cli(argv)
        values = []
        with self.step("load-E_k"):
            for q in arith.fundamental_discriminants(self.Q):
                group, table = cache.load_or_build(q, cache_dir, n_limit=self.N)
                values.append(
                    [q.q] + [stats.discrepancy_E_k(self.N, group, k, table) for k in (0, 1)]
                )
        if self.inject == "ek":
            values[self.faulty][1] += 1.0
        return written, reused, values

    def _flip_w_entry(self, cache_dir):
        path = cache.cache_path(cache_dir, self.family[self.faulty])
        group, table = cache.load_entry(path)
        table.w[0, self.N] ^= 1
        cache.save_entry(path, group, table)

    def _blob_ok(self, q, group, table) -> bool:
        h = self.h[q.q]
        if group.h != h or table is None or table.N != self.N:
            return False
        comp = group.composition
        latin = (comp[0] == np.arange(h)).all() and (
            np.sort(comp, axis=1) == np.arange(h)
        ).all()
        if q.q not in self.expected_counts:
            self.expected_counts[q.q] = self.ideal_counts(q.q)
        w = table.w
        return bool(
            latin
            and (w >= 0).all()
            and (w[:, 0] == 0).all()
            and (w.sum(axis=0) == self.expected_counts[q.q]).all()
        )

    def check(self, i, cache_dir, result):
        (code_w, text_w), (code_r, text_r), values = result
        n = len(self.family)
        wrote = code_w == 0 and text_w == f"tabulated {n} blob(s), reused 0\n"
        reused = code_r == 0 and text_r == f"tabulated 0 blob(s), reused {n}\n"
        for idx, q in enumerate(self.family):
            try:
                group, table = cache.load_entry(cache.cache_path(cache_dir, q))
                blob_ok = self._blob_ok(q, group, table)
            except cache.CacheError:
                group = table = None
                blob_ok = False
            self._op((i, q.q, "write"), wrote and blob_ok)
            self._op((i, q.q, "reuse"), reused)
            row = values[idx] if idx < len(values) else [None, None, None]
            for k in (0, 1):
                e = row[1 + k]
                ok = blob_ok and row[0] == q.q and e is not None
                ok = ok and math.isclose(
                    e, oracles.discrepancy_by_prefix_sums(table.w, self.N, k),
                    rel_tol=1e-9, abs_tol=1e-9,
                )
                if self.first is not None:
                    ok = ok and e == self.first[q.q][k]
                self._op((i, q.q, f"E{k}"), ok)
            if q in self.sampled and not self._matches_reference(q, group, table, row[1:]):
                self.failed.update({(i, q.q, "write"), (i, q.q, "E0"), (i, q.q, "E1")})
        if self.first is None:
            self.first = {row[0]: row[1:] for row in values}
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _matches_reference(self, q, group, table, values) -> bool:
        """The blob and its E_k against a fresh group and multiplicative table."""
        if q.q not in self.references:
            ref_group = forms.class_group(q)
            ref_table = characters.build_w_table(ref_group, self.N, method="multiplicative")
            ref_e = [stats.discrepancy_E_k(self.N, ref_group, k, ref_table) for k in (0, 1)]
            self.references[q.q] = ref_group, ref_table, ref_e
        ref_group, ref_table, ref_e = self.references[q.q]
        return (
            group is not None
            and group.classes == ref_group.classes
            and (group.composition == ref_group.composition).all()
            and group.orders == ref_group.orders
            and np.array_equal(table.w, ref_table.w)
            and list(values) == ref_e
        )


WORKLOADS = {w.name: w for w in (Scan, Identities, Tables)}
