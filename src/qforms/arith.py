"""Integer arithmetic primitives shared by the whole package.

Kronecker symbols, trial-division factorisation, classification and
enumeration of negative fundamental discriminants, one sieve of
Eratosthenes (a byte per entry, read-only once built and shared by the
scans), the prime-power support of the von Mangoldt function, the Dirichlet
convolution of the identity checks and the block cutter runs.  All of it
works on plain Python integers or numpy arrays, which fit in signed 64-bit
integers at the scales this package targets (|q| <= 1e6, n <= 1e8).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "IdentityViolation",
    "kronecker",
    "is_squarefree",
    "factorize",
    "divisors",
    "prime_discriminants",
    "kronecker_table",
    "dirichlet_convolve",
    "is_fundamental_discriminant",
    "DiscriminantKind",
    "Discriminant",
    "classify_discriminant",
    "fundamental_discriminants",
    "SieveTables",
    "build_sieve",
    "prime_flags",
    "prime_power_table",
    "runs",
]


class IdentityViolation(ArithmeticError):
    """A mathematical identity that must hold internally failed to verify."""


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n).

    Fully extended: n = 0 returns 1 iff |d| = 1 (else 0), n = 2 uses the
    mod-8 rule, and negative arguments are accepted.  For a fundamental
    discriminant d this is the real primitive character mod |d|.
    """
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -1
    if n % 2 == 0:
        if d % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if d % 8 in (3, 5):
                result = -result
    # Jacobi symbol (d/n) for odd n > 0, by reciprocity.
    d %= n
    while d:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def prime_discriminants(d: int) -> list[int]:
    """The prime discriminants whose product is the fundamental discriminant d
    (either sign; none for d = 1): p* = (-1)^((p-1)/2) p for each odd p | d,
    and -4, 8 or -8 for the 2-part."""
    odd = [p if p % 4 == 1 else -p for p, _ in factorize(abs(d)) if p > 2]
    two = d // math.prod(odd)
    return odd + [two] if two != 1 else odd


# (p*/n) for n mod 8 at the even prime discriminants p* = -4, 8, -8
_TWO_PARTS = {
    -4: np.array([0, 1, 0, -1, 0, 1, 0, -1], dtype=np.int64),
    8: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int64),
    -8: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int64),
}


def kronecker_table(d: int, N: int) -> np.ndarray:
    """(d/n) for n = 0..N as an int64 array, d a fundamental discriminant.

    For fundamental d (either sign, d = 1 included) n -> (d/n) is a character
    of period |d|, the product of the characters of its prime discriminants:
    (p*/n) = (n/p), the Legendre symbol, for odd p, read from the squares
    mod p, and a fixed table mod 8 for the 2-part.  One period is built from
    these tables and tiled; the scalar kronecker is the tests' oracle.
    """
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    if N < 0:
        raise ValueError("N must be nonnegative")
    n = np.arange(min(abs(d), N + 1))
    period = np.ones(n.size, dtype=np.int64)
    for p in prime_discriminants(d):
        if p in _TWO_PARTS:
            period *= _TWO_PARTS[p][n % 8]
        else:
            p = abs(p)
            legendre = np.full(p, -1, dtype=np.int64)
            legendre[0] = 0
            legendre[np.arange(1, p) ** 2 % p] = 1
            period *= legendre[n % p]
    return period[np.arange(N + 1) % period.size]


def is_squarefree(m: int) -> bool:
    """Squarefree test by trial factorisation; independent of any sieve limit."""
    if m <= 0:
        raise ValueError("is_squarefree expects a positive integer")
    if m % 4 == 0:
        return False
    p = 3 if m % 2 == 0 else 2
    if p == 3:
        m //= 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += 1 if p == 2 else 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 by trial division, ascending primes."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


# ---------------------------------------------------------------------------
# Dirichlet convolution


def dirichlet_convolve(t1: np.ndarray, t2: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Dirichlet convolution sum_{k j = n} t1[k] t2[j] for n = 0..L (entry 0 is 0).

    t1 and t2 are integer arrays indexed by n = 0..L on axis 0, either one
    sequence or one column per sequence (shape (L + 1, columns)), and column
    c of the result convolves column c of t1 with column c of t2.  Every
    pair k j = n <= L has min(k, j) <= isqrt(L) (the hyperbola method), so
    row m adds the pairs (m, j >= m) and (k > m, m) as two strided slices,
    for all columns at once.  Each slice touches each n at most once, so the
    in-place sums are exact while the inputs' dtype holds every product and
    dtype (of the result) every partial sum; memory is O(L) per column.
    """
    L = t1.shape[0] - 1
    out = np.zeros(t1.shape, dtype=dtype)
    for m in range(1, math.isqrt(L) + 1):
        hi = L // m
        out[m * m : m * hi + 1 : m] += t1[m] * t2[m : hi + 1]
        out[m * (m + 1) : m * hi + 1 : m] += t2[m] * t1[m + 1 : hi + 1]
    return out


def is_fundamental_discriminant(d: int) -> bool:
    """Whether d (of either sign) is a fundamental discriminant.

    The convention includes the trivial discriminant d = 1.
    """
    if d == 0:
        return False
    if d == 1:
        return True
    if d % 4 == 1:
        return is_squarefree(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


class DiscriminantKind(enum.Enum):
    # fundamental and not divisible by 8: member of the scan family
    FUNDAMENTAL = "fundamental"
    # fundamental but divisible by 8: valid for class groups, excluded from scans
    FUNDAMENTAL_MOD8 = "fundamental_mod8"
    NOT_FUNDAMENTAL = "not_fundamental"


@dataclass(frozen=True)
class Discriminant:
    """A validated negative discriminant with its classification."""

    q: int
    kind: DiscriminantKind

    @property
    def abs_q(self) -> int:
        return -self.q

    @property
    def is_fundamental(self) -> bool:
        return self.kind is not DiscriminantKind.NOT_FUNDAMENTAL

    def __int__(self) -> int:
        return self.q


def classify_discriminant(d: int) -> Discriminant:
    """Classify a negative integer d as a discriminant.

    A fundamental d is in the scan family unless 8 | d; those are flagged
    separately (valid for class groups, excluded from scans).
    """
    if d >= 0:
        raise ValueError("classify_discriminant expects a negative integer")
    if not is_fundamental_discriminant(d):
        kind = DiscriminantKind.NOT_FUNDAMENTAL
    elif d % 8 == 0:
        kind = DiscriminantKind.FUNDAMENTAL_MOD8
    else:
        kind = DiscriminantKind.FUNDAMENTAL
    return Discriminant(d, kind)


def _squarefree_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in _small_primes(math.isqrt(limit)):
        flags[p * p :: p * p] = False
    return flags


def fundamental_discriminants(limit: float) -> list[Discriminant]:
    """All scan-family discriminants q with |q| <= limit, ascending in |q|.

    Empty for limit < 3 (the family starts at q = -3).
    """
    top = int(math.floor(limit))
    if top < 3:
        return []
    sq = _squarefree_flags(top)
    odd = np.arange(3, top + 1, 4)  # |q| = 3 mod 4, i.e. q = 1 mod 4
    odd = odd[sq[odd]]
    four = np.arange(4, top + 1, 4)
    m = four // 4
    four = four[(m % 4 == 1) & sq[m]]  # q/4 = 3 mod 4 squarefree
    absq = np.sort(np.concatenate([odd, four]))
    return [Discriminant(-int(a), DiscriminantKind.FUNDAMENTAL) for a in absq]


# ---------------------------------------------------------------------------
# sieve


def prime_flags(limit: int) -> np.ndarray:
    """Boolean primality table for 0..limit, by a dense sieve of Eratosthenes."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    flags = np.ones(limit + 1, dtype=bool)
    flags[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _small_primes(limit: int) -> np.ndarray:
    """Primes up to limit as an int64 array; empty for any limit < 2."""
    return np.flatnonzero(prime_flags(max(limit, 0))).astype(np.int64)


@lru_cache(maxsize=8)
def prime_power_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Prime powers n = p^e <= limit with log p, both sorted by n.

    This is the support of the von Mangoldt function, so
    sum-over-prime-powers loops can run over these arrays directly.
    Memoised per limit: every caller shares one read-only pair of arrays.
    """
    ps = _small_primes(limit)
    ns: list[int] = []
    logs: list[float] = []
    for p in ps.tolist():
        lp = math.log(p)
        n = p
        while n <= limit:
            ns.append(n)
            logs.append(lp)
            n *= p
    n_arr = np.asarray(ns, dtype=np.int64)
    l_arr = np.asarray(logs, dtype=np.float64)
    order = np.argsort(n_arr, kind="stable")
    n_arr, l_arr = n_arr[order], l_arr[order]
    n_arr.flags.writeable = False
    l_arr.flags.writeable = False
    return n_arr, l_arr


@dataclass(frozen=True, eq=False)
class SieveTables:
    """Read-only primality flags for 0..limit, shared by every scan thread.

    flags[n] is True iff n is prime; the scans gather it at lattice values
    without a copy.  The sorted primes are derived on first use.
    """

    flags: np.ndarray

    @property
    def limit(self) -> int:
        return self.flags.size - 1

    @cached_property
    def primes(self) -> np.ndarray:
        """Every prime <= limit, ascending, as a read-only int64 array."""
        ps = np.flatnonzero(self.flags).astype(np.int64, copy=False)
        ps.flags.writeable = False
        return ps


def build_sieve(limit: int) -> SieveTables:
    """The prime_flags table for 0..limit, frozen read-only; one byte per entry."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    flags = prime_flags(limit)
    flags.flags.writeable = False
    return SieveTables(flags)


# ---------------------------------------------------------------------------
# runs


def runs(items: Iterable, cost: Callable[..., int], budget: int) -> Iterator[list]:
    """items in runs of consecutive items, each cut before the item whose
    cost would take the run's total past budget; an item that costs more
    than budget is a run of its own."""
    run, total = [], 0
    for item in items:
        more = cost(item)
        if run and total + more > budget:
            yield run
            run, total = [], 0
        run.append(item)
        total += more
    if run:
        yield run
