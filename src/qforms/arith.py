"""Integer arithmetic primitives shared by the whole package.

Kronecker symbols, trial-division factorisation, classification and
enumeration of negative fundamental discriminants, one sieve of
Eratosthenes (a byte per entry, read-only once built and shared by the
scans), the prime-power support of the von Mangoldt function, and the
Dirichlet pair index of the identity checks.  Everything operates on
plain Python integers or numpy arrays; all quantities fit in signed 64-bit
integers at the scales this package targets (|q| <= 1e6, n <= 1e8).
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "IdentityViolation",
    "kronecker",
    "is_squarefree",
    "factorize",
    "divisors",
    "kronecker_table",
    "PairBlock",
    "DirichletPairs",
    "is_fundamental_discriminant",
    "DiscriminantKind",
    "Discriminant",
    "classify_discriminant",
    "fundamental_discriminants",
    "SieveTables",
    "build_sieve",
    "prime_flags",
    "prime_power_table",
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


def kronecker_table(d: int, N: int) -> np.ndarray:
    """(d/n) for n = 0..N as an int64 array, d a fundamental discriminant.

    For fundamental d (either sign, d = 1 included) n -> (d/n) is a character
    of period |d|, so one period of scalar symbols is computed and tiled.
    """
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    if N < 0:
        raise ValueError("N must be nonnegative")
    period = np.array([kronecker(d, n) for n in range(min(abs(d), N + 1))], dtype=np.int64)
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
# Dirichlet pair index

_PAIR_BLOCK = 1 << 16  # pairs per block of the Dirichlet pair index


def _pair_rows(L: int, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (k, j) with k0 <= k < k1 and k j <= L, ascending in k then j."""
    ks = np.arange(k0, k1, dtype=np.int64)
    counts = L // ks
    ends = np.cumsum(counts)
    k = np.repeat(ks, counts)
    j = np.arange(1, ends[-1] + 1, dtype=np.int64) - np.repeat(ends - counts, counts)
    return k, j


@dataclass(eq=False)
class PairBlock:
    """Whole k-rows of a DirichletPairs index: pair i is (k[i], j[i]), n = k j."""

    index: DirichletPairs = field(repr=False)
    k: np.ndarray
    j: np.ndarray

    @cached_property
    def n(self) -> np.ndarray:
        return self.k * self.j

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, d, n / d^2) over every pair and every divisor d of gcd(k, j).

        The triples of pair i are starts[i] onwards, ascending in d; every
        pair has d = 1, so starts suits np.add.reduceat.
        """
        first, tau, flat = self.index.gcd_divisors
        g = np.gcd(self.k, self.j)
        cnt = tau[g]
        starts = np.cumsum(cnt) - cnt
        rank = np.arange(int(starts[-1] + cnt[-1]), dtype=np.int64) - np.repeat(starts, cnt)
        d = flat[np.repeat(first[g], cnt) + rank]
        return starts, d, np.repeat(self.n, cnt) // (d * d)


class DirichletPairs:
    """The pairs (k, j) of positive integers with k j <= L, ascending in k then j.

    There are about L log L pairs, so the index is produced in blocks of
    whole k-rows of about _PAIR_BLOCK pairs, as the forms lattice kernel
    does; memory stays O(L + block).  An index that fits in one block is
    built once and shared by every pass over it, larger ones are rebuilt
    block by block on each pass.
    """

    def __init__(self, L: int, block: int = _PAIR_BLOCK):
        if L < 1:
            raise ValueError("L must be positive")
        self.L = L
        ends = np.cumsum(L // np.arange(1, L + 1, dtype=np.int64))
        cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], block), side="right"))
        # block b holds the rows k = cuts[b] + 1 .. cuts[b + 1]
        self._cuts = cuts.tolist() + [L]
        self._kept = self._block(0, L) if len(self._cuts) == 2 else None

    def _block(self, r0: int, r1: int) -> PairBlock:
        return PairBlock(self, *_pair_rows(self.L, r0 + 1, r1 + 1))

    def blocks(self) -> Iterator[PairBlock]:
        if self._kept is not None:
            return iter((self._kept,))
        return (self._block(r0, r1) for r0, r1 in itertools.pairwise(self._cuts))

    @cached_property
    def gcd_divisors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first, tau, flat): the divisors of g are flat[first[g] : first[g] + tau[g]],
        ascending, for every g <= isqrt(L), which bounds gcd(k, j) when k j <= L."""
        top = math.isqrt(self.L)
        k, j = _pair_rows(top, 1, top + 1)
        n = k * j
        tau = np.bincount(n, minlength=top + 1)
        return np.cumsum(tau) - tau, tau, k[np.lexsort((k, n))]

    def convolve(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """Dirichlet convolution sum_{k j = n} t1[k] t2[j] for n = 0..L (entry 0 is 0).

        t1 and t2 are integer arrays indexed by n = 0..L; the accumulation
        is in int64, so the result is exact.  A per-block np.add.at costs
        O(block), where a bincount would cost O(L) for every block.
        """
        out = np.zeros(self.L + 1, dtype=np.int64)
        for blk in self.blocks():
            np.add.at(out, blk.n, t1[blk.k] * t2[blk.j])
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
