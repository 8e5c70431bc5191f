"""Prime-distribution statistics over discriminant families.

Implements the per-class prime counts pi(X; q, C), the per-discriminant
discrepancy E_k of the smoothed Chebyshev sums psi_k, the family-averaged
max-deviation (scan_bv) and mean-square (scan_bdh) statistics with their
normalizations, exceptional-discriminant flags, least represented primes,
the x^2 + n y^2 least-prime search, and the singular series for primes of
the shape x^2 + n.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import arith
from .arith import Discriminant, IdentityViolation, SieveTables, kronecker
from .characters import WTable, w_units
from .forms import (
    FormClassGroup,
    QuadForm,
    _fixed_line_values,
    _half_lattice_values,
    _row_count,
    class_group,
    representation_count,
)
from .serialize import canonical_json, format_float

__all__ = [
    "StatConfig",
    "li",
    "pi_repr_all",
    "discrepancy_E_k",
    "QRecord",
    "DiscrepancyReport",
    "bv_statistic",
    "bdh_statistic",
    "is_exceptional",
    "average_identity_gap",
    "LeastPrimeResult",
    "least_primes",
    "X2NY2Result",
    "least_prime_x2ny2",
    "scan_exceptional_x2ny2",
    "singular_series",
    "UnresolvedSearch",
]

DEFAULT_SEARCH_CAP = 100_000_000


class UnresolvedSearch(RuntimeError):
    """A least-prime search hit its cap without an answer."""


@dataclass(frozen=True)
class StatConfig:
    """Analysis parameters for the scan statistics.

    c3 controls the exceptional-discriminant inequality
    sqrt(|q|)/log|q| <= c3 * h(q); li_tol is the quadrature tolerance of
    li(X); A is a reporting parameter that only enters the normalization of
    aggregates.
    """

    c3: float = 20.0
    li_tol: float = 1e-10
    A: float = 2.0

    def __post_init__(self):
        if not (self.c3 > 0 and self.li_tol > 0 and self.A > 0):
            raise ValueError("invalid StatConfig")


# ---------------------------------------------------------------------------
# logarithmic integral


def _adaptive_simpson(f, a, fa, m, fm, b, fb, whole, tol, depth=0):
    lm = (a + m) / 2
    rm = (m + b) / 2
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    # depth cap: at 2^-50 of the range the rule is exact to machine precision
    if abs(left + right - whole) <= 15 * tol or depth >= 50:
        return left + right + (left + right - whole) / 15
    return _adaptive_simpson(
        f, a, fa, lm, flm, m, fm, left, tol / 2, depth + 1
    ) + _adaptive_simpson(f, m, fm, rm, frm, b, fb, right, tol / 2, depth + 1)


@lru_cache(maxsize=4096)
def li(x: float, tol: float = 1e-10) -> float:
    """Integral of 1/log t from 2 to x by adaptive Simpson quadrature."""
    if x < 2:
        raise ValueError("li requires x >= 2")
    if x == 2:
        return 0.0

    def f(t):
        return 1.0 / math.log(t)

    a, b = 2.0, float(x)
    m = (a + b) / 2
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return _adaptive_simpson(f, a, fa, m, fm, b, fb, whole, tol)


# ---------------------------------------------------------------------------
# per-class prime counts and smoothed sums


# primes below 5 are counted one by one: the kernel visits only the lattice
# points whose value is prime to their product
_SMALL_PRIMES = (2, 3)
_MODULUS = math.prod(_SMALL_PRIMES)


def _small_primes_represented(f: QuadForm, limit: int) -> list[int]:
    return [p for p in _SMALL_PRIMES if p <= limit and representation_count(f, p) > 0]


def pi_repr_all(X: float, group: FormClassGroup, sieve: SieveTables) -> np.ndarray:
    """pi(X; q, C) for every class C: primes p <= X represented by C.

    The one-group case of _pi_repr_block, which counts the groups of a block
    of discriminants in one pass of the lattice kernel.  One class of each
    pair {C, C^-1} (FormClassGroup.pairs) is counted for both.  Primes
    p >= 5 are counted by gathering sieve.flags, read-only and shared by
    every call, at the form's values on the points of its half lattice with
    gcd(f(x, y), 6) = 1 (no value is even or a multiple of 3).  A prime p
    lies on w(q)/2 = u half-lattice points per ideal of norm p in C: one
    ideal if p ramifies; for a split p, one in a non-ambiguous class but two
    in an ambiguous one.  An ambiguous class walks only its wedge
    (forms._wedge_rows): its half lattice holds 2 hits + F points, F the
    primes 5 <= p <= X among its two fixed-line values, which must be the
    ramified primes ram_C it represents (IdentityViolation otherwise).  So
    2 hits + ram_C = u (2 s + ram_C) for its s split primes, and as u = 1 or
    ram_C = 0, hits = u s.  One rule thus counts every class:
    primes, rem = divmod(hits, u), plus ram_C for an ambiguous class, and a
    remainder raises IdentityViolation.  For q = -3, -4 (u = 3, 2)
    F = ram_C = 0: the fixed values are (1, 3) and (1, 1), and no ramified
    prime is >= 5.  The primes 2 and 3 are checked by representation_count.
    """
    return _pi_repr_block(X, [group], sieve)[0]


def _prime_hits(batch: list[QuadForm], limit: int, flags: np.ndarray) -> np.ndarray:
    """Points of each form's half lattice, or of its wedge if it is ambiguous,
    whose value is a prime p >= 5 up to limit: all forms in one kernel pass.

    A chunk of one form adds its hits to that form by count_nonzero; a chunk
    of several sums its hits per sub-row (np.add.reduceat over the sub-row
    starts; a sub-row holds fewer than 2^26 points under the kernel's 2^52
    guard, so uint32 is exact), then per form.
    """
    hits = np.zeros(len(batch), dtype=np.int64)
    for vals, k, cnt in _half_lattice_values(
        [tuple(f) for f in batch], limit, _MODULUS, wedge=[f.is_ambiguous for f in batch]
    ):
        hit = flags[vals]
        if k[0] == k[-1]:
            hits[k[0]] += np.count_nonzero(hit)
        else:
            np.add.at(hits, k, np.add.reduceat(hit, np.cumsum(cnt) - cnt, dtype=np.uint32))
    return hits


def _pi_repr_block(
    X: float, groups: list[FormClassGroup], sieve: SieveTables
) -> list[np.ndarray]:
    """pi_repr_all of each group, the pair forms of all of them in one kernel
    pass (_prime_hits); the checks stay per form."""
    if X > sieve.limit:
        raise ValueError("X beyond sieve limit")
    limit = int(X)
    if limit < 2:
        return [np.zeros(g.h, dtype=np.int64) for g in groups]
    per_group = [[g.classes[i] for i in g.pairs[0]] for g in groups]
    hits = _prime_hits([f for fs in per_group for f in fs], limit, sieve.flags)
    form_hits = iter(hits.tolist())
    out = []
    for group, fs in zip(groups, per_group):
        u = w_units(group.q) // 2
        ramified = [p for p, _ in arith.factorize(group.q.abs_q) if 5 <= p <= limit]
        counts = []
        for f in fs:
            primes, rem = divmod(next(form_hits), u)
            if rem:
                raise IdentityViolation(
                    f"prime count of {tuple(f)} is not a whole number of ideals"
                )
            if f.is_ambiguous:
                ram = sum(1 for p in ramified if representation_count(f, p) > 0)
                fixed = [p for p in _fixed_line_values(*f) if 5 <= p <= limit and sieve.flags[p]]
                if len(fixed) != ram:
                    raise IdentityViolation(
                        f"fixed-line primes of {tuple(f)} are not its ramified primes"
                    )
                primes += ram
            counts.append(primes + len(_small_primes_represented(f, limit)))
        out.append(np.array(counts, dtype=np.int64)[group.pairs[1]])
    return out


# grid columns per chunk of discrepancy_E_k for k >= 1: P * columns stays
# near 2^18 terms, so a chunk's two float64 arrays and its mask take about
# 4.5 MB and memory is O(h P + 2^18) at any X
_GRID_CHUNK_TERMS = 1 << 18
# points of the uniform Y grid of discrepancy_E_k for k >= 1
_Y_GRID_COUNT = 64


def discrepancy_E_k(X: float, group: FormClassGroup, k: int, table: WTable) -> float:
    """max over classes and over Y <= X of |psi_k(Y;q,C) - class average|.

    For k = 0 the summand is a step function that jumps only at prime
    powers, so the maximum is exact: one prefix sum over the jumps up to X.
    For k >= 1 the Y maximum runs over the fixed grid Y = X j / 64,
    j = 1..64 (_Y_GRID_COUNT), evaluated in chunks of grid
    columns, each one (h x P) @ (P x columns) product of the masked terms
    log p * log(Y/n)^k * [n <= Y] over the prime powers n with w(C, n) > 0
    for some class.  Identically zero when h(q) = 1.
    """
    if X > table.N:
        raise ValueError("X beyond table limit")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if group.h == 1:
        return 0.0
    ns, logs = arith.prime_power_table(int(X))
    if ns.size == 0:
        return 0.0
    if k == 0:
        s = table.w[:, ns] * logs
        np.cumsum(s, axis=1, out=s)
        s -= s.mean(axis=0)
        return float(np.abs(s, out=s).max())
    w = table.w[:, ns]
    # a prime power that no class represents adds zero to every row
    keep = w.any(axis=0)
    wsub = w[:, keep].astype(np.float64)
    grid = X * np.arange(1, _Y_GRID_COUNT + 1) / _Y_GRID_COUNT
    kfact = math.factorial(k)
    step = max(1, _GRID_CHUNK_TERMS // ns.size)
    best = 0.0
    for lo in range(0, grid.size, step):
        ys = grid[lo : lo + step]
        # terms with n > Y are masked: rows past the chunk's last Y are
        # skipped, and a column with Y < 2 stays zero
        m = int(np.searchsorted(ns, ys[-1], side="right"))
        rows = keep[:m]
        n_col = ns[:m][rows, None]
        log_ratio = ys / n_col
        np.log(log_ratio, out=log_ratio)
        # repeated products: np.power calls libm pow per term, several times slower
        t = logs[:m][rows, None] * log_ratio
        for _ in range(k - 1):
            t *= log_ratio
        t *= n_col <= ys
        vals = wsub[:, : n_col.shape[0]] @ t / kfact
        vals -= vals.mean(axis=0)
        best = max(best, float(np.abs(vals, out=vals).max()))
    return best


# ---------------------------------------------------------------------------
# family scans


@dataclass(frozen=True)
class QRecord:
    q: int
    h: int
    e_max: int
    value: float
    exceptional: bool


@dataclass(eq=False)
class DiscrepancyReport:
    """Per-discriminant deviations plus the normalized aggregate.

    For statistic="bv" the per-q value is max over classes of
    |pi(X;q,C) - li(X)/(e(C) h(q))| and the aggregate is normalized by
    sqrt(Q) X (log X)^-A; for statistic="bdh" the per-q value is the sum of
    squared deviations and the normalization uses X^2 instead of X.
    """

    statistic: str
    Q: float
    X: float
    c3: float
    A: float
    rows: list[QRecord] = field(default_factory=list)
    aggregate: float = 0.0
    normalized: float = 0.0

    def to_json(self) -> str:
        return canonical_json(
            {
                "meta": {
                    "statistic": self.statistic,
                    "Q": self.Q,
                    "X": self.X,
                    # the scans evaluate no psi_k; k stays in the meta as
                    # null so that existing JSON output keeps its bytes
                    "k": None,
                    "c3": self.c3,
                    "A": self.A,
                },
                "rows": [vars(r) for r in self.rows],
                "aggregate": self.aggregate,
                "normalized": self.normalized,
            }
        )

    def to_csv(self) -> str:
        lines = ["q,h,e_max,value,exceptional"]
        for r in self.rows:
            lines.append(
                f"{r.q},{r.h},{r.e_max},{format_float(r.value)},"
                f"{'true' if r.exceptional else 'false'}"
            )
        return "\n".join(lines) + "\n"


def is_exceptional(group: FormClassGroup, cfg: StatConfig = StatConfig()) -> bool:
    """Whether sqrt(|q|)/log|q| > c3 h(q), the surrogate for a Siegel zero."""
    q = group.q.abs_q
    return math.sqrt(q) / math.log(q) > cfg.c3 * group.h


# lattice rows per kernel pass: a scan's block of consecutive q (about four
# of the Q = 200 family at X = 1e6), or a least-prime search's run of forms;
# a block's row arrays take O(_BLOCK_ROWS M) memory beside the kernel's chunks
_BLOCK_ROWS = 1 << 12


def _blocks(qs: list[Discriminant], limit: int):
    """The groups of qs in runs (arith.runs) of consecutive q whose pair
    forms' half-lattice rows up to limit (forms._row_count, known before
    the kernel builds them) fit _BLOCK_ROWS; a q past it is a block alone."""

    def rows(g: FormClassGroup) -> int:
        return sum(_row_count(*g.classes[i], limit) for i in g.pairs[0])

    return arith.runs(map(class_group, qs), rows, _BLOCK_ROWS)


def _scan(
    statistic: str,
    Q: float,
    X: float,
    sieve: SieveTables,
    cfg: StatConfig,
    threads: int,
) -> DiscrepancyReport:
    if X < 2:
        raise ValueError("X must be at least 2")
    if X > sieve.limit:
        raise ValueError("X beyond sieve limit")
    qs = arith.fundamental_discriminants(Q)
    li_x = li(float(X), cfg.li_tol)

    def record(group: FormClassGroup, pis: np.ndarray) -> QRecord:
        devs = [
            abs(float(pis[i]) - li_x / (group.e[i] * group.h))
            for i in range(group.h)
        ]
        exc = is_exceptional(group, cfg)
        if statistic == "bv":
            best = max(range(group.h), key=lambda i: devs[i])
            return QRecord(group.q.q, group.h, group.e[best], devs[best], exc)
        value = math.fsum(d * d for d in devs)
        return QRecord(group.q.q, group.h, max(group.e), value, exc)

    def work(block: list[FormClassGroup]) -> list[QRecord]:
        return list(map(record, block, _pi_repr_block(X, block, sieve)))

    blocks = _blocks(qs, int(X))
    if threads > 1 and len(qs) > 1:
        rows = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # a few blocks queued per thread: submitting every block at once
            # would hold the groups of the whole family
            pending = deque()
            for block in blocks:
                pending.append(pool.submit(work, block))
                if len(pending) > 2 * threads:
                    rows += pending.popleft().result()
            for done in pending:
                rows += done.result()
    else:
        rows = [r for block in blocks for r in work(block)]
    # rows arrive in ascending |q|; compensated summation keeps parallel
    # runs bit-identical
    aggregate = math.fsum(r.value for r in rows)
    scale = float(X) if statistic == "bv" else float(X) ** 2
    normalized = aggregate / (math.sqrt(Q) * scale * math.log(X) ** (-cfg.A)) if Q >= 1 else 0.0
    return DiscrepancyReport(
        statistic=statistic,
        Q=float(Q),
        X=float(X),
        c3=cfg.c3,
        A=cfg.A,
        rows=rows,
        aggregate=aggregate,
        normalized=normalized,
    )


def bv_statistic(
    Q: float,
    X: float,
    sieve: SieveTables,
    cfg: StatConfig = StatConfig(),
    threads: int = 1,
) -> DiscrepancyReport:
    """Family sum of max-over-class deviations |pi(X;q,C) - li(X)/(e(C)h(q))|."""
    return _scan("bv", Q, X, sieve, cfg, threads)


def bdh_statistic(
    Q: float,
    X: float,
    sieve: SieveTables,
    cfg: StatConfig = StatConfig(),
    threads: int = 1,
) -> DiscrepancyReport:
    """Family sum over classes of squared deviations, mean-square analogue."""
    return _scan("bdh", Q, X, sieve, cfg, threads)


def average_identity_gap(
    group: FormClassGroup, X: float, sieve: SieveTables
) -> tuple[int, int]:
    """Both sides of the exact identity
    sum_C e(C) pi(X;q,C) - #{p <= X : p | q} = sum_{p <= X} (1 + (q/p))."""
    pis = pi_repr_all(X, group, sieve)
    q = int(group.q)
    lhs = int(sum(e * int(p) for e, p in zip(group.e, pis)))
    lhs -= sum(1 for p, _ in arith.factorize(-q) if p <= X)
    ps = sieve.primes
    ps = ps[: np.searchsorted(ps, int(X), side="right")]
    chi_q = arith.kronecker_table(q, -q - 1)  # (q/p) has period |q|
    rhs = ps.size + int(chi_q[ps % -q].sum())
    return lhs, rhs


# ---------------------------------------------------------------------------
# least primes


@dataclass(frozen=True)
class LeastPrimeResult:
    class_index: int
    prime: int | None
    status: str  # "found" | "unresolved"


def _least_values(abc: np.ndarray, limit: int, flags: np.ndarray, wedge: bool) -> np.ndarray:
    """The least prime up to limit on the half lattice, or wedge, of each form
    of the (F, 3) batch abc, 0 if none: a kernel pass (M = 1) per run of
    _BLOCK_ROWS rows, and per chunk one np.minimum.reduceat from each form's
    first value (its sub-rows are consecutive)."""
    none = limit + 1
    least = np.full(len(abc), none, dtype=np.int64)
    start = 0
    for run in arith.runs(abc.tolist(), lambda f: _row_count(*f, limit), _BLOCK_ROWS):
        part, start = least[start : start + len(run)], start + len(run)
        for vals, k, cnt in _half_lattice_values(run, limit, wedge=[wedge] * len(run)):
            first = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
            at = (np.cumsum(cnt) - cnt)[first]
            mins = np.minimum.reduceat(np.where(flags[vals], vals, none), at)
            part[k[first]] = np.minimum(part[k[first]], mins)
    least[least == none] = 0
    return least


def _search(abc: np.ndarray, first: int, cap: int, wedge: bool) -> np.ndarray:
    """_least_values of each reduced form of abc, 0 where its search hit cap.
    The bounds are first, 8 first, ... up to cap; at each, one prime flag
    table and one _least_values pass serve every pending form that can
    reach it (its values are at least a, and at least c on a wedge)."""
    floor = abc[:, 2 if wedge else 0]
    least = np.zeros(len(abc), dtype=np.int64)
    pending, bound = np.arange(len(abc)), first
    while pending.size:
        bound = min(bound, cap)
        ready = pending[floor[pending] <= bound]
        if ready.size:
            least[ready] = _least_values(abc[ready], bound, arith.prime_flags(bound), wedge)
        pending = pending[least[pending] == 0] if bound < cap else pending[:0]
        bound <<= 3
    return least


def least_primes(
    group: FormClassGroup, indices: list[int], cap: int = DEFAULT_SEARCH_CAP
) -> list[LeastPrimeResult]:
    """Smallest prime represented by each class in indices, by ascending scan.

    One class of each pair {C, C^-1} (FormClassGroup.pairs) is searched, and
    its answer serves both: one _search over their half lattices from the
    bound 2^10.  The scan never passes cap; an unsuccessful search reports
    prime None and status "unresolved" rather than a wrong answer.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    reps, pair = group.pairs
    searched = list(dict.fromkeys(pair[c] for c in indices))
    abc = np.array([tuple(group.classes[reps[k]]) for k in searched], dtype=np.int64)
    least = _search(abc.reshape(-1, 3), 1 << 10, cap, wedge=False)
    found = {
        k: (p or None, "found" if p else "unresolved") for k, p in zip(searched, least.tolist())
    }
    return [LeastPrimeResult(c, *found[pair[c]]) for c in indices]


@dataclass(frozen=True)
class X2NY2Result:
    n: int
    prime: int | None
    x: int | None
    y_min: int | None
    status: str  # "found" | "unresolved"


def least_prime_x2ny2(n: int, cap: int = DEFAULT_SEARCH_CAP) -> X2NY2Result:
    """Least prime p = x^2 + n y^2 with x >= 1 and y >= 1.

    y_min is the least y among the representations of that p (x >= 1 always);
    allowing x = 0 would misclassify e.g. n = 5, whose least prime 29 needs
    y = 2 under this convention.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p, x, y = (int(v[0]) for v in _least_primes_x2ny2(np.array([n]), cap))
    return X2NY2Result(n, *((p, x, y, "found") if p else (None, None, None, "unresolved")))


def _least_primes_x2ny2(ns: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, x, y_min) of least_prime_x2ny2 for each n of the array ns, 0 where
    the search hit cap.  x, y >= 1 is exactly the wedge of (1, 0, n): p comes
    from one _search over these forms from the bound 64, then y_min, the
    least y with p - n y^2 a square (> 0 as y < y_min, and the root of a
    square < 2^52 is exact), for every n at once, y = 1, 2, ... in turn."""
    abc = np.stack([np.ones_like(ns), np.zeros_like(ns), ns], axis=1)
    p = _search(abc, 64, cap, wedge=True)
    y_min = np.zeros_like(ns)
    todo, y = np.flatnonzero(p), 1
    while todo.size:
        r = p[todo] - ns[todo] * y * y
        hit = np.sqrt(r).astype(np.int64) ** 2 == r
        y_min[todo[hit]] = y
        todo, y = todo[~hit], y + 1
    return p, np.sqrt(p - ns * y_min * y_min).astype(np.int64), y_min


def scan_exceptional_x2ny2(
    max_n: int, cap: int = DEFAULT_SEARCH_CAP
) -> list[tuple[int, int, int]]:
    """All n <= max_n whose least x^2 + n y^2 prime needs y >= 2, ascending.

    Returns triples (n, least prime, y_min).  A search hitting the cap
    raises UnresolvedSearch since the scan result would be indeterminate.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    ns = np.arange(1, max_n + 1, dtype=np.int64)
    p, _, y_min = _least_primes_x2ny2(ns, cap)
    if not p.all():
        raise UnresolvedSearch(f"least prime search for n={ns[p == 0][0]} hit cap {cap}")
    return list(zip(*(v[y_min >= 2].tolist() for v in (ns, p, y_min))))


def singular_series(n: int, prime_cutoff: int) -> float:
    """Truncated Euler product over odd p <= cutoff of (1 - (-n/p)/(p-1)).

    Predicts the density of primes of the shape x^2 + n; requires n
    squarefree, and is strictly positive.
    """
    if n < 1 or not arith.is_squarefree(n):
        raise ValueError("singular_series requires squarefree n >= 1")
    if prime_cutoff < 2:
        raise ValueError("prime cutoff must be at least 2")
    flags = arith.prime_flags(prime_cutoff)
    prod = 1.0
    for p in np.flatnonzero(flags).tolist():
        if p == 2:
            continue
        prod *= 1.0 - kronecker(-n, p) / (p - 1)
    return prod
