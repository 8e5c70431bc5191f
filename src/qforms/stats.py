"""Prime-distribution statistics over discriminant families.

Implements the per-class prime counts pi(X; q, C), the smoothed Chebyshev
sums psi_k, the per-discriminant discrepancy E_k, the family-averaged
max-deviation (scan_bv) and mean-square (scan_bdh) statistics with their
normalizations, exceptional-discriminant flags, least represented primes,
the x^2 + n y^2 least-prime search, and the singular series for primes of
the shape x^2 + n.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import arith
from .arith import Discriminant, IdentityViolation, SieveTables, kronecker
from .characters import ClassCharacter, WTable, lambda_table, w_units
from .forms import (
    FormClassGroup,
    QuadForm,
    _fixed_line_values,
    _half_lattice_values,
    class_group,
    representation_count,
)
from .serialize import canonical_json, format_float

__all__ = [
    "StatConfig",
    "li",
    "pi_repr_all",
    "psi_k",
    "psi_k_chi",
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
    sqrt(|q|)/log|q| <= c3 * h(q); A is a reporting parameter that only
    enters the normalization of aggregates.  y_grid_count is the number of
    Y grid points of discrepancy_E_k for k >= 1; the scans do not read it.
    """

    c3: float = 20.0
    y_grid_count: int = 64
    li_tol: float = 1e-10
    A: float = 2.0

    def __post_init__(self):
        if not (self.c3 > 0 and self.y_grid_count >= 1 and self.li_tol > 0 and self.A > 0):
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


def _fixed_primes(f: QuadForm, limit: int, flags: np.ndarray) -> list[int]:
    """The primes 5 <= p <= limit among an ambiguous form's fixed-line values."""
    return [p for p in _fixed_line_values(*f) if 5 <= p <= limit and flags[p]]


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
                if len(_fixed_primes(f, limit, sieve.flags)) != ram:
                    raise IdentityViolation(
                        f"fixed-line primes of {tuple(f)} are not its ramified primes"
                    )
                primes += ram
            counts.append(primes + len(_small_primes_represented(f, limit)))
        out.append(np.array(counts, dtype=np.int64)[group.pairs[1]])
    return out


def psi_k(Y: float, group: FormClassGroup, c: int, k: int, table: WTable) -> float:
    """(1/k!) sum over n <= Y of Lambda(n) (log Y/n)^k w(C, n)."""
    if Y > table.N:
        raise ValueError("Y beyond table limit")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if Y < 2:
        return 0.0
    ns, logs = arith.prime_power_table(int(Y))
    wrow = table.w[c, ns]
    terms = logs * wrow * np.log(Y / ns) ** k
    return float(terms.sum()) / math.factorial(k)


def psi_k_chi(Y: float, chi: ClassCharacter, k: int, table: WTable) -> complex:
    """Character-twisted psi: (1/k!) sum of Lambda(n) lambda_chi(n) (log Y/n)^k."""
    if Y > table.N:
        raise ValueError("Y beyond table limit")
    if Y < 2:
        return 0.0 + 0.0j
    ns, logs = arith.prime_power_table(int(Y))
    lam = lambda_table(chi, table)[ns]
    terms = logs * lam * np.log(Y / ns) ** k
    return complex(terms.sum()) / math.factorial(k)


# grid columns per chunk of discrepancy_E_k for k >= 1: P * columns stays
# near 2^18 terms, so a chunk's two float64 arrays and its mask take about
# 4.5 MB and memory is O(h P + 2^18) at any X
_GRID_CHUNK_TERMS = 1 << 18


def discrepancy_E_k(
    X: float,
    group: FormClassGroup,
    k: int,
    table: WTable,
    cfg: StatConfig = StatConfig(),
) -> float:
    """max over classes and over Y <= X of |psi_k(Y;q,C) - class average|.

    For k = 0 the summand is a step function that jumps only at prime
    powers, so the maximum is exact: one prefix sum over the jumps up to X,
    and cfg.y_grid_count plays no part.  For k >= 1 the Y maximum runs over
    a uniform grid of y_grid_count points, evaluated in chunks of grid
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
    grid = X * np.arange(1, cfg.y_grid_count + 1) / cfg.y_grid_count
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
                "rows": [
                    {
                        "q": r.q,
                        "h": r.h,
                        "e_max": r.e_max,
                        "value": r.value,
                        "exceptional": r.exceptional,
                    }
                    for r in self.rows
                ],
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


def is_exceptional(
    q: Discriminant, group: FormClassGroup, cfg: StatConfig = StatConfig()
) -> bool:
    """Whether sqrt(|q|)/log|q| > c3 h(q), the surrogate for a Siegel zero."""
    return math.sqrt(q.abs_q) / math.log(q.abs_q) > cfg.c3 * group.h


# lattice rows per block of consecutive discriminants that a scan counts in
# one kernel pass (about four q of the Q = 200 family at X = 1e6); a block's
# row arrays take O(_BLOCK_ROWS M) memory beside the kernel's chunks
_BLOCK_ROWS = 1 << 12


def _blocks(qs: list[Discriminant], limit: int):
    """The groups of qs in blocks of consecutive q, cut before the q whose
    half-lattice rows up to limit would take a block past _BLOCK_ROWS; a q
    with more rows than that is a block of its own."""
    block, rows = [], 0
    for q in qs:
        group = class_group(q)
        reps, _ = group.pairs
        # the rows of forms._half_rows, known before the kernel builds them
        more = sum(math.isqrt(4 * group.classes[i].a * limit // q.abs_q) + 1 for i in reps)
        if block and rows + more > _BLOCK_ROWS:
            yield block
            block, rows = [], 0
        block.append(group)
        rows += more
    if block:
        yield block


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
        exc = is_exceptional(group.q, group, cfg)
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
    searched_to: int


def least_primes(
    group: FormClassGroup, indices: list[int], cap: int = DEFAULT_SEARCH_CAP
) -> list[LeastPrimeResult]:
    """Smallest prime represented by each class in indices, by ascending scan.

    One class of each pair {C, C^-1} (FormClassGroup.pairs) is searched, and
    its answer serves both.  Every search steps through the same bounds, so
    one prime flag table per bound serves all the classes still unresolved
    there.  Within a bound, 2 and 3 are checked one by one and the primes
    p >= 5 gathered as in pi_repr_all: an ambiguous class (the principal one
    among them) on its wedge plus its fixed-line primes.  The scan never
    passes cap; an unsuccessful search reports status "unresolved" rather
    than a wrong answer.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    reps, pair = group.pairs
    results: dict[int, LeastPrimeResult] = {}
    pending = list(dict.fromkeys(reps[pair[c]] for c in indices))
    bound = 1 << 10
    while pending:
        bound = min(bound, cap)
        flags = None
        unresolved = []
        for c in pending:
            f = group.classes[c]
            small = _small_primes_represented(f, bound)
            if small:
                results[c] = LeastPrimeResult(c, small[0], "found", bound)
                continue
            if flags is None:
                flags = arith.prime_flags(bound)
            ambiguous = f.is_ambiguous
            lattice = _half_lattice_values([tuple(f)], bound, _MODULUS, wedge=[ambiguous])
            chunks = (vals[flags[vals]] for vals, _, _ in lattice)
            least = [int(hits.min()) for hits in chunks if hits.size]
            if ambiguous:
                least += _fixed_primes(f, bound, flags)
            if least:
                results[c] = LeastPrimeResult(c, min(least), "found", bound)
            elif bound >= cap:
                results[c] = LeastPrimeResult(c, None, "unresolved", bound)
            else:
                unresolved.append(c)
        pending = unresolved
        bound <<= 3
    return [replace(results[reps[pair[c]]], class_index=c) for c in indices]


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
    return _least_primes_x2ny2([n], cap)[0]


def _least_primes_x2ny2(ns: list[int], cap: int) -> list[X2NY2Result]:
    """least_prime_x2ny2 for every n in ns, one prime flag table per bound.

    Every search steps through the same bounds 64, 512, ... (at most cap), as
    least_primes does, so one table serves all the n still open there; an n
    >= bound has no value x^2 + n y^2 <= bound and waits for a larger one.
    The least prime, and the least y of its representations, do not depend
    on the bound at which they are found.
    """
    results: dict[int, X2NY2Result] = {}
    pending = list(ns)
    bound = 64
    while pending:
        bound = min(bound, cap)
        flags = None
        unresolved = []
        for n in pending:
            best = None
            if n < bound:
                if flags is None:
                    flags = arith.prime_flags(bound)
                y = 1
                while n * y * y < bound:
                    base = n * y * y
                    xs = np.arange(1, math.isqrt(bound - base) + 1, dtype=np.int64)
                    vals = xs * xs + base
                    hits = vals[flags[vals]]
                    # rows ascend in y, so the first row that attains the
                    # least prime holds its representation with the least y
                    if hits.size and (best is None or hits[0] < best):
                        best = int(hits[0])
                        x_at, y_min = math.isqrt(best - base), y
                    y += 1
            if best is not None:
                results[n] = X2NY2Result(n, best, x_at, y_min, "found")
            elif bound >= cap:
                results[n] = X2NY2Result(n, None, None, None, "unresolved")
            else:
                unresolved.append(n)
        pending = unresolved
        bound <<= 3
    return [results[n] for n in ns]


def scan_exceptional_x2ny2(
    max_n: int, cap: int = DEFAULT_SEARCH_CAP
) -> list[tuple[int, int, int]]:
    """All n <= max_n whose least x^2 + n y^2 prime needs y >= 2, ascending.

    Returns triples (n, least prime, y_min).  A search hitting the cap
    raises UnresolvedSearch since the scan result would be indeterminate.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    out = []
    for res in _least_primes_x2ny2(list(range(1, max_n + 1)), cap):
        if res.status != "found":
            raise UnresolvedSearch(f"least prime search for n={res.n} hit cap {cap}")
        if res.y_min >= 2:
            out.append((res.n, res.prime, res.y_min))
    return out


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
