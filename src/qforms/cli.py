"""Command-line front end.

Each numeric option is checked as it is parsed, before any work starts.
NaN, infinity, a value not above 0 (below 2 for X, below 1 for the -Q of
sieve-ratio, below 0 for --seed) and a value above its cap are usage
errors, and so is a `--delta-n` above N.  The caps:

    -Q, |q|           1e6  MAX_Q (-q must also be a negative fundamental
                           discriminant)
    -X, --cap, --n    1e8  MAX_X (the least prime x^2 + n y^2 is above n,
                           and the search never passes --cap)
    -N, --mn-limit    1e7  MAX_TABLE_N
    --threads         64   MAX_THREADS
    --max-n           1e6  MAX_X2NY2_N
    --trials          1e6  MAX_TRIALS

Exit codes: 0 success, 1 usage error, an OS error writing `--out` or
`--cache`, or a run out of memory within the caps, 2 a least-prime search
that hit its cap unresolved, 3 internal identity violation.  Errors print
one machine-parseable line `error: <category>: <message>` on stderr; the
categories are usage, invalid-input, io, memory (exit 1), unresolved
(exit 2) and identity-violation (exit 3).

`check-identities` runs both checks in one pass, one class group and one
weight table up to max(mn_limit, N) per q.  It prints one count line per
check, then up to 50 lines per check for its violations, each a class of q
where the Hecke relation fails at the pair (m, n), or a split q = d1 d2
whose real character's lambda(n) differs from (d1/.) * (d2/.) at n:

    hecke q=<q> class=<index> m=<m> n=<n> lhs=<int> rhs=<int>
    convolution q=<q> d1=<d1> d2=<d2> n=<n> lambda=<int> conv=<int>

Only `tabulate` touches the cache: it writes the weight tables into
`--cache` (default `QFORMS_CACHE`) and reuses the blobs that already hold
them.  Every other command builds its class groups from scratch.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from . import arith, cache, sievelab, stats
from .arith import Discriminant, classify_discriminant, fundamental_discriminants
from .characters import IdentityViolation, build_w_table
from .forms import class_group
from .serialize import canonical_json, format_float
from .stats import StatConfig

MAX_X = 100_000_000
MAX_Q = 1_000_000
MAX_TABLE_N = 10_000_000
MAX_THREADS = 64  # the scan starts up to this many OS threads
MAX_X2NY2_N = 1_000_000
MAX_TRIALS = 1_000_000


class UsageError(Exception):
    pass


class WriteError(Exception):
    """An OS error writing --out or --cache."""


@contextlib.contextmanager
def _writing(option: str, path) -> Iterator[None]:
    try:
        yield
    except OSError as exc:
        raise WriteError(f"cannot write {option} {path}: {exc.strerror or exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(kind, name: str, low: float | None = None, cap: float | None = None):
    """An argparse type for a finite `kind` value that is at least `low`
    (above 0 if `low` is None) and at most `cap`."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name}={value} is not finite")
        if not (value > 0 if low is None else value >= low):
            floor = "positive" if low is None else f"at least {low}"
            raise argparse.ArgumentTypeError(f"{name} must be {floor}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"{name}={value} exceeds cap {cap}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _discriminant(text: str) -> Discriminant:
    """An argparse type for -q: a negative fundamental discriminant, |q| <= MAX_Q."""
    q = int(text)
    if abs(q) > MAX_Q:
        raise argparse.ArgumentTypeError(f"|q|={abs(q)} exceeds cap {MAX_Q}")
    if q >= 0:
        raise argparse.ArgumentTypeError(f"q={q} must be negative")
    d = classify_discriminant(q)
    if not d.is_fundamental:
        raise argparse.ArgumentTypeError(f"{q} is not a fundamental discriminant")
    return d


_discriminant.__name__ = "int"  # as in _number

# the types of options that several subcommands share
_Q = _number(float, "Q", cap=MAX_Q)
_N = _number(int, "N", cap=MAX_TABLE_N)
_CAP = _number(int, "cap", cap=MAX_X)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qforms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="class group of one discriminant")
    p.set_defaults(run=_cmd_classgroup)
    p.add_argument(
        "-q", type=_discriminant, required=True, help="negative fundamental discriminant"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    for name, help_text in (
        ("scan-bv", "max-deviation scan over the discriminant family"),
        ("scan-bdh", "mean-square deviation scan over the family"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_cmd_scan)
        p.add_argument("-Q", type=_Q, required=True)
        p.add_argument("-X", type=_number(float, "X", low=2, cap=MAX_X), required=True)
        p.add_argument("--c3", type=_number(float, "c3"), default=20.0)
        p.add_argument("-A", type=_number(float, "A"), default=2.0)
        p.add_argument(
            "--threads",
            type=_number(int, "threads", cap=MAX_THREADS),
            default=1,
            help="threads over blocks of consecutive q; on 2 cores, -Q 200 -X 1e6 "
            "took 73 ms with 2 and 67 ms with 1",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)

    p = sub.add_parser("least-prime", help="least represented prime per class")
    p.set_defaults(run=_cmd_least_prime)
    p.add_argument("-q", type=_discriminant, required=True)
    p.add_argument("--class-index", type=int, default=None)
    p.add_argument("--cap", type=_CAP, default=stats.DEFAULT_SEARCH_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("x2ny2", help="least primes of the shape x^2 + n y^2")
    p.set_defaults(run=_cmd_x2ny2)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max-n", type=_number(int, "max-n", cap=MAX_X2NY2_N))
    mode.add_argument("--n", type=_number(int, "n", cap=MAX_X))
    p.add_argument("--cap", type=_CAP, default=stats.DEFAULT_SEARCH_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sieve-ratio", help="mean-square character sum ratio experiment")
    p.set_defaults(run=_cmd_sieve_ratio)
    # the experiment takes int(Q), and every w-table is built before the
    # generator sees the seed
    p.add_argument("-Q", type=_number(float, "Q", low=1, cap=MAX_Q), required=True)
    p.add_argument("-N", type=_N, required=True)
    p.add_argument("--trials", type=_number(int, "trials", cap=MAX_TRIALS), default=1)
    p.add_argument("--seed", type=_number(int, "seed", low=0), default=1)
    p.add_argument(
        "--coeffs", choices=("rademacher", "ones", "zeros", "delta"), default="rademacher"
    )
    p.add_argument("--delta-n", dest="delta_n", type=_number(int, "delta-n"), default=1)
    p.add_argument("--eps", type=_number(float, "eps"), default=0.1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check-identities", help="Hecke and convolution identity scans")
    p.set_defaults(run=_cmd_check_identities)
    p.add_argument("-Q", type=_Q, required=True)
    p.add_argument("--mn-limit", type=_number(int, "mn-limit", cap=MAX_TABLE_N), default=2500)
    p.add_argument("-N", type=_N, default=1000)
    p.add_argument("--out", default=None)

    p = sub.add_parser("tabulate", help="persist weight tables up to N")
    p.set_defaults(run=_cmd_tabulate)
    p.add_argument("-Q", type=_Q, required=True)
    p.add_argument("-N", type=_N, required=True)
    p.add_argument("--cache", default=None)
    return parser


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with _writing("--out", out):
            Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _cmd_classgroup(args) -> int:
    group = class_group(args.q)
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


def _cmd_scan(args) -> int:
    cfg = StatConfig(c3=args.c3, A=args.A)
    sieve = arith.build_sieve(int(args.X))
    fn = stats.bv_statistic if args.command == "scan-bv" else stats.bdh_statistic
    report = fn(args.Q, args.X, sieve, cfg, threads=args.threads)
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _emit(args, text)
    return 0


def _cmd_least_prime(args) -> int:
    group = class_group(args.q)
    if args.class_index is None:
        indices = list(range(group.h))
    elif 0 <= args.class_index < group.h:
        indices = [args.class_index]
    else:
        raise UsageError(f"class index {args.class_index} outside 0..{group.h - 1}")
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
    if args.delta_n > args.N:
        raise UsageError(f"argument --delta-n: delta-n={args.delta_n} exceeds N={args.N}")
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
    hecke, conv = sievelab.check_identities(args.Q, args.mn_limit, args.N)
    lines = [
        f"hecke relation: Q={format_float(args.Q)} mn_limit={args.mn_limit}"
        f" violations={len(hecke)}",
        f"kronecker convolution: Q={format_float(args.Q)} N={args.N}"
        f" violations={len(conv)}",
    ]
    for v in hecke[:50]:
        lines.append(
            f"  hecke q={v.q} class={v.class_index} m={v.m} n={v.n} lhs={v.lhs} rhs={v.rhs}"
        )
    for v in conv[:50]:
        lines.append(
            f"  convolution q={v.q} d1={v.d1} d2={v.d2} n={v.n} lambda={v.lam} conv={v.conv}"
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
    with _writing("--cache", cache_dir):
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
    written = skipped = 0
    for q in fundamental_discriminants(args.Q):
        if cache.load_usable(q, cache_dir, args.N, _warn) is not None:
            skipped += 1
            continue
        group = class_group(q)
        with _writing("--cache", cache_dir):
            cache.save_entry(cache.cache_path(cache_dir, q), group, build_w_table(group, args.N))
        written += 1
    _emit(args, f"tabulated {written} blob(s), reused {skipped}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 1
    except WriteError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except IdentityViolation as exc:
        print(f"error: identity-violation: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
