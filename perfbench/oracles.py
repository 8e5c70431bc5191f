"""Reference computations that share no code with the paths they check.

- ``pi_by_reduction``: pi(X; q, C) from the reduced form of (p, b, (b^2-q)/4p)
  for every split or ramified prime p <= X, instead of lattice masks.
- ``discrepancy_by_prefix_sums``: E_0 and E_1 from cumulative sums over prime
  powers (from a sieve of this file's own), instead of one matrix product per
  grid point.
- ``IdealCounts``: sum over classes of w(C, n) must equal the number of ideals
  of norm n, sum_{d | n} (q/d), for every n <= N.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from qforms import arith, forms


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s, t = 0, p - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, x, b = s, pow(z, t, p), pow(a, (t + 1) // 2, p), pow(a, t, p)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2, i = b2 * b2 % p, i + 1
        g = pow(c, 1 << (m - i - 1), p)
        m, c, x, b = i, g * g % p, x * g % p, b * g * g % p
    return x


def _middle_coefficient(q: int, p: int) -> int | None:
    """b with b = q (mod 2) and b^2 = q (mod 4p), or None when p is inert."""
    if p == 2:
        return next((b for b in range(4) if (b * b - q) % 8 == 0), None)
    r = q % p
    if r and pow(r, (p - 1) // 2, p) != 1:
        return None
    b = sqrt_mod(r, p)
    return b if (b - q) % 2 == 0 else p - b


def pi_by_reduction(q: int, classes: tuple, X: int, primes) -> list[int]:
    """pi(X; q, C) for each class in ``classes`` (reduced forms, in order).

    A prime p is represented by C exactly when C or its inverse holds a form
    (p, b, c); both are counted.  The inverse of a reduced (a, b, c) is
    (a, -b, c), which is its own class when it is not itself reduced.
    """
    index = {(f.a, f.b, f.c): i for i, f in enumerate(classes)}
    counts = [0] * len(classes)
    for p in primes:
        if p > X:
            break
        b = _middle_coefficient(q, p)
        if b is None:
            continue
        f, _ = forms.reduce_form(forms.QuadForm(p, b, (b * b - q) // (4 * p)))
        i = index[(f.a, f.b, f.c)]
        for j in {i, index.get((f.a, -f.b, f.c), i)}:
            counts[j] += 1
    return counts


def is_ambiguous(f) -> bool:
    """A reduced form whose class has order at most 2 (so e(C) = 2)."""
    return f.b == 0 or f.b == f.a or f.a == f.c


@lru_cache(maxsize=None)
def _prime_powers(limit: int) -> tuple[np.ndarray, np.ndarray]:
    flags = [True] * (limit + 1)
    pairs = []
    for p in range(2, limit + 1):
        if not flags[p]:
            continue
        for m in range(p * p, limit + 1, p):
            flags[m] = False
        n = p
        while n <= limit:
            pairs.append((n, math.log(p)))
            n *= p
    pairs.sort()
    return np.array([n for n, _ in pairs]), np.array([lp for _, lp in pairs])


def discrepancy_by_prefix_sums(w: np.ndarray, X: int, k: int, grid_count: int = 64) -> float:
    """E_k(X) for k in (0, 1) from a weight table w (classes x 0..N)."""
    if w.shape[0] == 1:
        return 0.0
    ns, logs = _prime_powers(X)
    terms = w[:, ns].astype(np.float64) * logs
    s0 = np.cumsum(terms, axis=1)
    if k == 0:
        # psi_0 only jumps at prime powers, so its maximum sits on a jump
        return float(np.abs(s0 - s0.mean(axis=0)).max())
    if k != 1:
        raise ValueError("only k = 0 and k = 1 have a prefix-sum oracle")
    s1 = np.cumsum(terms * np.log(ns), axis=1)
    best = 0.0
    for y in X * np.arange(1, grid_count + 1) / grid_count:
        m = int(np.searchsorted(ns, y, side="right"))
        if y < 2 or m == 0:
            continue
        vals = math.log(y) * s0[:, m - 1] - s1[:, m - 1]
        best = max(best, float(np.abs(vals - vals.mean()).max()))
    return best


class IdealCounts:
    """Number of ideals of each norm n <= N in the maximal order of discriminant q."""

    def __init__(self, N: int):
        self.N = N
        pairs = [(d, n) for d in range(1, N + 1) for n in range(d, N + 1, d)]
        self._d = np.array([d for d, _ in pairs])
        self._n = np.array([n for _, n in pairs])

    def __call__(self, q: int) -> np.ndarray:
        period = np.array([arith.kronecker(q, r) for r in range(abs(q))], dtype=np.int64)
        chi = period[np.arange(self.N + 1) % abs(q)]
        return np.bincount(self._n, weights=chi[self._d], minlength=self.N + 1).astype(np.int64)
