"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 cap-exceeded/unresolved search,
3 internal identity violation.  Errors print one machine-parseable line
`error: <category>: <message>` on stderr.

Only `tabulate` touches the cache: it writes the weight tables into
`--cache` (default `QFORMS_CACHE`) and reuses the blobs that already hold
them.  Every other command builds its class groups from scratch.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import arith, cache, sievelab, stats
from .arith import classify_discriminant, fundamental_discriminants
from .characters import IdentityViolation, build_w_table
from .forms import class_group
from .serialize import canonical_json, format_float
from .stats import StatConfig

MAX_X = 100_000_000
MAX_Q = 1_000_000
MAX_TABLE_N = 10_000_000
MAX_THREADS = 64  # the scan starts up to this many OS threads


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated per-invocation parameters; all bounds checked up front."""

    args: argparse.Namespace

    def __post_init__(self):
        a = self.args
        for name, cap in (("X", MAX_X), ("Q", MAX_Q), ("N", MAX_TABLE_N)):
            value = getattr(a, name, None)
            if value is None:
                continue
            if value <= 0:
                raise UsageError(f"{name} must be positive")
            if value > cap:
                raise UsageError(f"{name}={value} exceeds cap {cap}")
        if getattr(a, "q", None) is not None and abs(a.q) > MAX_Q:
            raise UsageError(f"|q|={abs(a.q)} exceeds cap {MAX_Q}")
        if getattr(a, "X", None) is not None and a.X < 2:
            raise UsageError("X must be at least 2")
        for name in ("trials", "max_n", "n", "cap", "threads", "mn_limit"):
            value = getattr(a, name, None)
            if value is not None and value <= 0:
                raise UsageError(f"{name.replace('_', '-')} must be positive")
        if getattr(a, "cap", None) is not None and a.cap > MAX_X:
            raise UsageError(f"cap exceeds {MAX_X}")
        if getattr(a, "threads", None) is not None and a.threads > MAX_THREADS:
            raise UsageError(f"threads={a.threads} exceeds cap {MAX_THREADS}")
        if getattr(a, "c3", None) is not None and a.c3 <= 0:
            raise UsageError("c3 must be positive")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qforms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="class group of one discriminant")
    p.add_argument("-q", type=int, required=True, help="negative fundamental discriminant")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    for name, help_text in (
        ("scan-bv", "max-deviation scan over the discriminant family"),
        ("scan-bdh", "mean-square deviation scan over the family"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-Q", type=float, required=True)
        p.add_argument("-X", type=float, required=True)
        p.add_argument("--c3", type=float, default=20.0)
        p.add_argument("-A", type=float, default=2.0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)

    p = sub.add_parser("least-prime", help="least represented prime per class")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--class-index", type=int, default=None)
    p.add_argument("--cap", type=int, default=stats.DEFAULT_SEARCH_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("x2ny2", help="least primes of the shape x^2 + n y^2")
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--cap", type=int, default=stats.DEFAULT_SEARCH_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sieve-ratio", help="mean-square character sum ratio experiment")
    p.add_argument("-Q", type=float, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--coeffs", choices=("rademacher", "ones", "zeros", "delta"), default="rademacher"
    )
    p.add_argument("--delta-n", dest="delta_n", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check-identities", help="Hecke and convolution identity scans")
    p.add_argument("-Q", type=float, required=True)
    p.add_argument("--mn-limit", dest="mn_limit", type=int, default=2500)
    p.add_argument("-N", type=int, default=1000)
    p.add_argument("--out", default=None)

    p = sub.add_parser("tabulate", help="persist weight tables up to N")
    p.add_argument("-Q", type=float, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--cache", default=None)
    return parser


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _group(q_value: int):
    q = classify_discriminant(q_value)
    if not q.is_fundamental:
        raise UsageError(f"{q_value} is not a fundamental discriminant")
    return class_group(q)


def _cmd_classgroup(args) -> int:
    group = _group(args.q)
    dec = group.cyclic_decomposition
    if args.format == "json":
        payload = {
            "q": group.q.q,
            "kind": group.q.kind.value,
            "h": group.h,
            "cyclic_orders": [d for _, d in dec],
            "classes": [
                {
                    "a": f.a,
                    "b": f.b,
                    "c": f.c,
                    "order": group.orders[i],
                    "e": group.e[i],
                }
                for i, f in enumerate(group.classes)
            ],
        }
        _emit(args, canonical_json(payload) + "\n")
        return 0
    lines = [
        f"q = {group.q.q}  ({group.q.kind.value})",
        f"h = {group.h}",
        "cyclic structure: "
        + (" x ".join(f"C{d}" for _, d in dec) if dec else "trivial"),
    ]
    for i, f in enumerate(group.classes):
        tag = "  principal" if i == group.principal_index else ""
        lines.append(
            f"  [{i}] ({f.a}, {f.b}, {f.c})  order {group.orders[i]}  e {group.e[i]}{tag}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_scan(args, statistic: str) -> int:
    cfg = StatConfig(c3=args.c3, A=args.A)
    sieve = arith.build_sieve(max(2, int(args.X)))
    fn = stats.bv_statistic if statistic == "bv" else stats.bdh_statistic
    report = fn(args.Q, args.X, sieve, cfg, threads=args.threads)
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _emit(args, text)
    return 0


def _cmd_least_prime(args) -> int:
    group = _group(args.q)
    indices = (
        [args.class_index]
        if args.class_index is not None
        else list(range(group.h))
    )
    for i in indices:
        if not 0 <= i < group.h:
            raise UsageError(f"class index {i} outside 0..{group.h - 1}")
    results = stats.least_primes(group, indices, cap=args.cap)
    if args.format == "json":
        payload = {
            "q": group.q.q,
            "results": [
                {
                    "class_index": r.class_index,
                    "form": list(group.classes[r.class_index]),
                    "prime": r.prime,
                    "status": r.status,
                }
                for r in results
            ],
        }
        _emit(args, canonical_json(payload) + "\n")
    else:
        lines = []
        for r in results:
            f = group.classes[r.class_index]
            shown = r.prime if r.status == "found" else "unresolved"
            lines.append(f"[{r.class_index}] ({f.a}, {f.b}, {f.c})  least prime {shown}")
        _emit(args, "\n".join(lines) + "\n")
    if any(r.status != "found" for r in results):
        print("error: unresolved: least-prime search hit its cap", file=sys.stderr)
        return 2
    return 0


def _cmd_x2ny2(args) -> int:
    if (args.max_n is None) == (args.n is None):
        raise UsageError("give exactly one of --max-n or --n")
    if args.n is not None:
        res = stats.least_prime_x2ny2(args.n, cap=args.cap)
        if res.status != "found":
            print("error: unresolved: search hit its cap", file=sys.stderr)
            return 2
        if args.format == "json":
            payload = {"n": res.n, "prime": res.prime, "x": res.x, "y_min": res.y_min}
            _emit(args, canonical_json(payload) + "\n")
        else:
            _emit(
                args,
                f"n={res.n}: least prime {res.prime} = {res.x}^2 + {res.n}*{res.y_min}^2"
                f" (y_min={res.y_min})\n",
            )
        return 0
    try:
        rows = stats.scan_exceptional_x2ny2(args.max_n, cap=args.cap)
    except stats.UnresolvedSearch as exc:
        print(f"error: unresolved: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "max_n": args.max_n,
            "exceptional": [{"n": n, "prime": p, "y_min": y} for n, p, y in rows],
        }
        _emit(args, canonical_json(payload) + "\n")
    else:
        lines = [f"n with y_min >= 2 up to {args.max_n}: {len(rows)}"]
        lines += [f"  n={n}: least prime {p}, y_min={y}" for n, p, y in rows]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sieve_ratio(args) -> int:
    cfg = sievelab.SieveExperimentConfig(
        Q=int(args.Q),
        N=args.N,
        trials=args.trials,
        coeff_source=args.coeffs,
        delta_n=args.delta_n,
        seed=args.seed,
        eps=args.eps,
    )
    result = sievelab.run_sieve_experiment(cfg)
    _emit(args, result.to_json() + "\n")
    return 0


def _cmd_check_identities(args) -> int:
    hecke = sievelab.hecke_check(args.Q, args.mn_limit)
    conv = sievelab.convolution_check(args.Q, args.N)
    lines = [
        f"hecke relation: Q={format_float(args.Q)} mn_limit={args.mn_limit}"
        f" violations={len(hecke)}",
        f"kronecker convolution: Q={format_float(args.Q)} N={args.N}"
        f" violations={len(conv)}",
    ]
    for v in hecke[:50]:
        lines.append(f"  hecke q={v.q} chi={v.character} m={v.m} n={v.n} err={v.error}")
    for v in conv[:50]:
        lines.append(
            f"  convolution q={v.q} chi={v.character} n={v.n} lambda={v.lam} conv={v.conv}"
        )
    _emit(args, "\n".join(lines) + "\n")
    if hecke or conv:
        print("error: identity-violation: see report", file=sys.stderr)
        return 3
    return 0


def _cmd_tabulate(args) -> int:
    cache_dir = args.cache or os.environ.get("QFORMS_CACHE")
    if not cache_dir:
        raise UsageError("tabulate needs --cache or QFORMS_CACHE")
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    written = skipped = 0
    for q in fundamental_discriminants(args.Q):
        path = cache.cache_path(cache_dir, q)
        if cache.load_usable(path, args.N, _warn) is not None:
            skipped += 1
            continue
        group = class_group(q)
        cache.save_entry(path, group, build_w_table(group, args.N))
        written += 1
    _emit(args, f"tabulated {written} blob(s), reused {skipped}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        RunConfig(args)
        command = args.command
        if command == "classgroup":
            return _cmd_classgroup(args)
        if command == "scan-bv":
            return _cmd_scan(args, "bv")
        if command == "scan-bdh":
            return _cmd_scan(args, "bdh")
        if command == "least-prime":
            return _cmd_least_prime(args)
        if command == "x2ny2":
            return _cmd_x2ny2(args)
        if command == "sieve-ratio":
            return _cmd_sieve_ratio(args)
        if command == "check-identities":
            return _cmd_check_identities(args)
        if command == "tabulate":
            return _cmd_tabulate(args)
        raise UsageError(f"unknown command {command!r}")
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 1
    except IdentityViolation as exc:
        print(f"error: identity-violation: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
