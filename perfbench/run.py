#!/usr/bin/env python3
"""Benchmark of the qforms library, run from the root of a source checkout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One run builds nothing: it imports ``qforms`` from ``src/`` of the checkout.
It times set-up in fresh interpreters, then runs the workload in a closed loop
(one process, each iteration starting when the previous one returns) for
about ``--seconds``, checks every result (see workloads.py), and prints a
readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); ``failed_share`` is printed in the report and is
failed / attempted of the JSON line.  The two times are normalized to a
fixed host speed (hostspeed.py); the report prints them raw as well.  With ``--trace 1`` traced and untraced
iterations alternate, and the metrics are the per-layer ones (tracing.py).
``--workload all`` runs the three workloads one after another, each in its own
process, and prints one table.  ``--inject`` plants a fault the checks must
catch (selftest.py).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan", "identities", "tables")
INJECTIONS = {"scan-row": "scan", "cache-blob": "tables", "ek": "tables"}
# set-up is timed in fresh interpreters: a few times at the start and again
# between iterations, so that one burst of load on the machine moves few samples
SETUP_AT_START, SETUP_PER_ITERATION = 3, 1
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qforms; "
    "n = int(sys.argv[2]); n and qforms.build_sieve(n)"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "arith.build_sieve_s": "s",
    "arith.kronecker_calls": "count",
    "arith.divisors_calls": "count",
    "arith.prime_power_table_calls": "count",
    "arith.prime_power_table_s": "s",
    "forms.represented_mask_calls": "count",
    "forms.represented_mask_s": "s",
    "forms.value_counts_calls": "count",
    "forms.value_counts_s": "s",
    "forms.lattice_rows": "count",
    "forms.class_group_calls": "count",
    "forms.class_group_s": "s",
    "forms.compose_forms_calls": "count",
    "forms.compose_forms_s": "s",
    "characters.build_w_table_calls": "count",
    "characters.build_w_table_s": "s",
    "characters.characters_s": "s",
    "characters.lambda_table_s": "s",
    "characters.kronecker_factorize_s": "s",
    "stats.bv_statistic_s": "s",
    "stats.pi_repr_all_ms_p50": "ms",
    "stats.pi_repr_all_ms_p80": "ms",
    "stats.scan_cpu_util": "cpu_s/s",
    "stats.discrepancy_E_k_calls": "count",
    "stats.discrepancy_E_k_s": "s",
    "sievelab.hecke_check_s": "s",
    "sievelab.convolution_check_s": "s",
    "sievelab.complex_character_lambdas_s": "s",
    "sievelab.run_sieve_experiment_s": "s",
    "sievelab.violations": "count",
    "cache.save_entry_calls": "count",
    "cache.save_entry_s": "s",
    "cache.bytes_written": "B",
    "cache.load_entry_calls": "count",
    "cache.load_entry_s": "s",
    "cache.bytes_read": "B",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.rebuilds": "count",
    "cli.main_s": "s",
    "bench.trace_overhead_s": "s",
}
# counts derived from call arguments or file sizes rather than observed work
COMPUTED = {"forms.lattice_rows", "cache.bytes_written", "cache.bytes_read"}
SELF_TIME = {
    "characters.build_w_table_s", "sievelab.hecke_check_s", "sievelab.convolution_check_s",
    "sievelab.complex_character_lambdas_s", "sievelab.run_sieve_experiment_s", "cli.main_s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=sorted(INJECTIONS))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.inject and INJECTIONS[args.inject] != args.workload:
        p.error(f"--inject {args.inject} applies to workload {INJECTIONS[args.inject]}")
    return args


# ---------------------------------------------------------------------------
# environment


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return fn()
    return None


def _environment(seed: int, threads: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "python_threads": threads,
        "git_rev": _git_rev(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def _setup_seconds(sieve_limit: int, repeats: int) -> list[tuple[float, float]]:
    """Interpreter start to qforms imported and set-up done, in fresh processes.

    Returns (seconds, reference seconds around it) per process.  The
    wait blocks in waitpid: ``subprocess.run(timeout=...)`` polls with sleeps
    of up to 50 ms, which would round every sample up to a 50 ms step.
    """
    samples = []
    for _ in range(repeats):
        before = hostspeed.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(sieve_limit)],
            stdout=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        samples.append((seconds, (before + hostspeed.sample()) / 2))
    return samples


def _normalized_median(samples: list[tuple[float, float]]) -> float:
    return statistics.median(hostspeed.normalize(s, ref) for s, ref in samples)


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def _counts(summary: dict) -> dict:
    """Everything in a traced iteration that must repeat exactly."""
    out = {}
    for name, entry in summary.items():
        out[name + ".calls"] = entry["calls"]
        for key, value in entry["info"].items():
            if key != "cpu_s":
                out[f"{name}.{key}"] = value
    return out


def _layer_metrics(summaries, sieve_times, walls) -> dict:
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "info": {}}

    def entries(name):
        return [s.get(name, empty) for s in summaries]

    def count(name):
        return entries(name)[0]["calls"]

    def info(name, key):
        return entries(name)[0]["info"].get(key, 0)

    def total(name):
        return statistics.median(e["total_s"] for e in entries(name))

    def self_time(name):
        return statistics.median(e["self_s"] for e in entries(name))

    pi_ms = [d * 1e3 for e in entries("stats.pi_repr_all") for d in e["durations"]]
    # p80: the highest percentile with at least 10 of 51 discriminants beyond it
    pi_p80 = statistics.quantiles(pi_ms, n=5)[3] if len(pi_ms) > 1 else 0.0
    utils = [
        e["info"]["cpu_s"] / e["total_s"] for e in entries("stats.bv_statistic") if e["calls"]
    ]
    m = {
        "arith.build_sieve_s": statistics.median(sieve_times) if sieve_times else 0.0,
        "arith.kronecker_calls": count("arith.kronecker"),
        "arith.divisors_calls": count("arith.divisors"),
        "arith.prime_power_table_calls": count("arith.prime_power_table"),
        "arith.prime_power_table_s": total("arith.prime_power_table"),
        "forms.represented_mask_calls": count("forms.represented_mask"),
        "forms.represented_mask_s": total("forms.represented_mask"),
        "forms.value_counts_calls": count("forms.value_counts"),
        "forms.value_counts_s": total("forms.value_counts"),
        "forms.lattice_rows": info("forms.represented_mask", "rows")
        + info("forms.value_counts", "rows"),
        "forms.class_group_calls": count("forms.class_group"),
        "forms.class_group_s": total("forms.class_group"),
        "forms.compose_forms_calls": count("forms.compose_forms"),
        "forms.compose_forms_s": total("forms.compose_forms"),
        "characters.build_w_table_calls": count("characters.build_w_table"),
        "characters.build_w_table_s": self_time("characters.build_w_table"),
        "characters.characters_s": total("characters.characters"),
        "characters.lambda_table_s": total("characters.lambda_table"),
        "characters.kronecker_factorize_s": total("characters.kronecker_factorize"),
        "stats.bv_statistic_s": total("stats.bv_statistic"),
        "stats.pi_repr_all_ms_p50": statistics.median(pi_ms) if pi_ms else 0.0,
        "stats.pi_repr_all_ms_p80": pi_p80,
        "stats.scan_cpu_util": statistics.median(utils) if utils else 0.0,
        "stats.discrepancy_E_k_calls": count("stats.discrepancy_E_k"),
        "stats.discrepancy_E_k_s": total("stats.discrepancy_E_k"),
        "sievelab.hecke_check_s": self_time("sievelab.hecke_check"),
        "sievelab.convolution_check_s": self_time("sievelab.convolution_check"),
        "sievelab.complex_character_lambdas_s": self_time("sievelab.complex_character_lambdas"),
        "sievelab.run_sieve_experiment_s": self_time("sievelab.run_sieve_experiment"),
        "sievelab.violations": info("sievelab.hecke_check", "violations")
        + info("sievelab.convolution_check", "violations"),
        "cache.save_entry_calls": count("cache.save_entry"),
        "cache.save_entry_s": total("cache.save_entry"),
        "cache.bytes_written": info("cache.save_entry", "bytes"),
        "cache.load_entry_calls": count("cache.load_entry"),
        "cache.load_entry_s": total("cache.load_entry"),
        "cache.bytes_read": info("cache.load_entry", "bytes"),
        "cache.hits": info("cache.load_or_build", "hits"),
        "cache.misses": info("cache.load_or_build", "misses"),
        "cache.rebuilds": info("cache.load_or_build", "rebuilds"),
        "cli.main_s": self_time("cli.main"),
        "bench.trace_overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
    }
    if m.keys() != PER_LAYER.keys():
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return m


def _run_workload(args, workload_class, work_dir: Path) -> dict:
    wl = workload_class(args.seed, args.inject, work_dir)
    setup_times = _setup_seconds(wl.sieve_limit(), SETUP_AT_START)
    sieve_times = []
    if args.trace:
        for _ in range(3):
            with tracing.Tracer() as tracer:
                wl.setup()
            sieve_times += tracer.summary().get("arith.build_sieve", {"durations": []})["durations"]
    else:
        wl.setup()

    walls = {False: [], True: []}  # sum of the steps' seconds, per iteration
    laps: dict[str, list[tuple[float, float]]] = {}  # step -> its untraced samples
    cycles = []  # one iteration with its checks and set-up samples
    summaries = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        cycle_start = time.perf_counter()
        traced = bool(args.trace) and i % 2 == 0
        context = wl.prepare(i)
        wl.laps = {}
        wl.probing = not traced
        with tracing.Tracer() if traced else contextlib.nullcontext() as tracer:
            result = wl.run(context)
        walls[traced].append(math.fsum(seconds for seconds, _ in wl.laps.values()))
        if not traced:
            for name, sample in wl.laps.items():
                laps.setdefault(name, []).append(sample)
        if i == 0:
            # one iteration is one CLI run: its peak is the one a user sees
            peak_mb = _peak_rss_mb()
        if tracer:
            summaries.append(tracer.summary())
        wl.check(i, context, result)
        setup_times += _setup_seconds(wl.sieve_limit(), SETUP_PER_ITERATION)
        i += 1
        cycles.append(time.perf_counter() - cycle_start)
        done = len(summaries) >= 2 and walls[False] if args.trace else walls[False]
        if done and time.perf_counter() + statistics.median(cycles) > deadline:
            break

    wl.finish()

    counts_repeat = all(_counts(s) == _counts(summaries[0]) for s in summaries)
    failed = len(wl.failed)
    report = {
        "walls": walls,
        "laps": laps,
        "setup_times": setup_times,
        "attempted": wl.attempted,
        "failed": failed,
        "counts_repeat": counts_repeat,
    }
    if args.trace:
        report["metrics"] = _layer_metrics(summaries, sieve_times, walls)
        report["units"] = PER_LAYER
    else:
        report["metrics"] = {
            "wall_s": math.fsum(_normalized_median(samples) for samples in laps.values()),
            "setup_s": _normalized_median(setup_times),
            "peak_rss_mb": peak_mb,
        }
        report["units"] = END_TO_END
    return report


def _print_report(args, env, report) -> None:
    walls = report["walls"]
    print(f"# qforms benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (f" inject={args.inject}" if args.inject else ""))
    print("# env: " + json.dumps(env, sort_keys=True))
    for traced, label in ((False, "untraced"), (True, "traced")):
        if walls[traced]:
            print(f"# {label} iterations: {len(walls[traced])}, wall s: "
                  + " ".join(f"{w:.4f}" for w in walls[traced]))
    for name, samples in [*report["laps"].items(), ("set-up", report["setup_times"])]:
        print(f"# {name} s: " + " ".join(f"{s:.4f}" for s, _ in samples))
        print(f"# {name} s, normalized: "
              + " ".join(f"{hostspeed.normalize(s, ref):.4f}" for s, ref in samples))
    for name, value in report["metrics"].items():
        notes = []
        if name in COMPUTED:
            notes.append("computed")
        if name in SELF_TIME:
            notes.append("self time")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        print(f"{name:40s} {value:>16.6g} {report['units'][name]}{suffix}")
    share = report["failed"] / report["attempted"]
    print(f"{'failed_share':40s} {share:>16.6g} 1  "
          f"({report['failed']} of {report['attempted']} operations)")
    if args.trace:
        print(f"# counts identical in every traced iteration: {report['counts_repeat']}")


def _result_line(report) -> str:
    correct = report["failed"] == 0 and report["counts_repeat"]
    return json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": report["units"][name]}
            for name, value in report["metrics"].items()
        },
    })


def _run_all(args) -> int:
    """Each workload in its own process; one table of its metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    names = list(results["scan"]["metrics"])
    print(f"\n{'workload':12s}" + "".join(f"{n:>24s}" for n in names) + f"{'failed_share':>16s}")
    for wname, res in results.items():
        cells = "".join(
            f"{res['metrics'][n]['value']:>18.6g} {res['metrics'][n]['unit']:<5s}" for n in names
        )
        print(f"{wname:12s}{cells}{res['failed'] / res['attempted']:>14.6g} 1")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{n}": v for w, r in results.items() for n, v in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qforms" / "__init__.py").is_file():
        print(f"error: no qforms sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import qforms

    if Path(qforms.__file__).resolve().parent != SRC / "qforms":
        print(f"error: imported qforms from {qforms.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = _environment(args.seed, WORKLOADS[args.workload].THREADS)
    work_dir = HERE / "_work" / str(os.getpid())
    try:
        report = _run_workload(args, WORKLOADS[args.workload], work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    _print_report(args, env, report)
    print(_result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
