"""Class group characters and representation-weight tables.

Characters of the form class group are stored as exponent vectors against
the cyclic decomposition and evaluated from exact rational exponents.
The weight w(C, n) counts ideals of norm n in the class C, computed either
by lattice enumeration (representations divided by the unit count) or by an
independent multiplicative construction from the prime-power case table;
lambda coefficients and the Kronecker factorization of real characters are
derived from these tables.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .arith import Discriminant, IdentityViolation, kronecker, kronecker_table
from .forms import FormClassGroup, classes_representing, value_counts

__all__ = [
    "IdentityViolation",
    "w_units",
    "ClassCharacter",
    "characters",
    "WTable",
    "build_w_table",
    "lambda_chi",
    "lambda_table",
    "lambda_table_int",
    "kronecker_factorize",
    "kronecker_convolution",
]


def w_units(q: Discriminant | int) -> int:
    """Number of unit representations per ideal: 6 for q=-3, 4 for q=-4, else 2."""
    qq = int(q)
    if qq == -3:
        return 6
    if qq == -4:
        return 4
    return 2


def _root_of_unity(num: int, den: int) -> complex:
    """exp(2 pi i num/den) with exact values at quarter turns."""
    num %= den
    if num == 0:
        return complex(1.0, 0.0)
    if 2 * num == den:
        return complex(-1.0, 0.0)
    if 4 * num == den:
        return complex(0.0, 1.0)
    if 4 * num == 3 * den:
        return complex(0.0, -1.0)
    return cmath.exp(2j * cmath.pi * num / den)


@dataclass(eq=False)
class ClassCharacter:
    """A character of the class group, given by exponents against the generators.

    values[i] is the character at class i, a root of unity of order dividing
    the group exponent; real characters (square equal to the trivial one)
    take values exactly +-1.
    """

    q: Discriminant
    exponents: tuple[int, ...]
    orders: tuple[int, ...]
    values: np.ndarray = field(repr=False)
    is_trivial: bool
    is_real: bool

    def value(self, class_index: int) -> complex:
        return complex(self.values[class_index])


def characters(group: FormClassGroup) -> list[ClassCharacter]:
    """All h characters of the class group; the trivial character comes first."""
    dec = group.cyclic_decomposition
    orders = tuple(d for _, d in dec)
    coords = group.coords
    lcm = math.lcm(*orders) if orders else 1
    out = []
    for exps in itertools.product(*(range(d) for d in orders)):
        weights = np.array(
            [e * (lcm // d) for e, d in zip(exps, orders)], dtype=np.int64
        )
        nums = (coords @ weights) % lcm if orders else np.zeros(group.h, np.int64)
        values = np.array([_root_of_unity(int(k), lcm) for k in nums])
        out.append(
            ClassCharacter(
                q=group.q,
                exponents=exps,
                orders=orders,
                values=values,
                is_trivial=all(e == 0 for e in exps),
                is_real=all((2 * e) % d == 0 for e, d in zip(exps, orders)),
            )
        )
    return out


@dataclass(eq=False)
class WTable:
    """w[C, n] = number of ideals of norm n in class C, for n <= N."""

    q: Discriminant
    N: int
    w: np.ndarray


def build_w_table(
    group: FormClassGroup, N: int, method: str = "lattice"
) -> WTable:
    """Tabulate w(C, n) for all classes and n <= N.

    method="lattice" counts lattice representations and divides by the unit
    count; method="multiplicative" is an independent construction that
    factors n, locates the classes of each prime by representability, and
    combines prime-power weight vectors through the group law.  The two
    agree entrywise; tests rely on that as a dual oracle.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if method == "lattice":
        units = w_units(group.q)
        # (a, b, c) and (a, -b, c) have the same counts (x -> -x), so one
        # row serves each pair of inverse classes
        mat = np.zeros((group.h, N + 1), dtype=np.int64)
        for i, f in enumerate(group.classes):
            inv = group.inverse(i)
            if inv >= i:
                mat[i] = mat[inv] = value_counts(f, N)
        if (mat % units).any():
            raise IdentityViolation("representation counts not divisible by unit count")
        return WTable(group.q, N, mat // units)
    if method == "multiplicative":
        return _build_w_multiplicative(group, N)
    raise ValueError(f"unknown method {method!r}")


def _prime_power_weights(group: FormClassGroup, p: int, e: int) -> np.ndarray:
    """Weight vector over classes for n = p^e, from the split/ramified/inert cases."""
    h = group.h
    vec = np.zeros(h, dtype=np.int64)
    kr = kronecker(int(group.q), p)
    if kr == -1:
        if e % 2 == 0:
            vec[group.principal_index] = 1
        return vec
    reps = classes_representing(group, p)
    if not reps:
        raise IdentityViolation(f"prime {p} unexpectedly unrepresented for q={int(group.q)}")
    a = min(reps)
    if kr == 0:
        vec[group.power(a, e)] = 1
        return vec
    # split prime: ideals P^j conj(P)^(e-j), classes A^(2j-e); the vector is
    # the same whichever of the two inverse classes is taken for A
    for j in range(e + 1):
        vec[group.power(a, 2 * j - e)] += 1
    return vec


def _build_w_multiplicative(group: FormClassGroup, N: int) -> WTable:
    h = group.h
    table = group.composition
    w = np.zeros((h, N + 1), dtype=np.int64)
    w[group.principal_index, 1] = 1
    cache: dict[tuple[int, int], np.ndarray] = {}
    for n in range(2, N + 1):
        vec = None
        for p, e in arith.factorize(n):
            pv = cache.get((p, e))
            if pv is None:
                pv = _prime_power_weights(group, p, e)
                cache[(p, e)] = pv
            vec = pv if vec is None else _group_convolve(table, vec, pv)
        w[:, n] = vec
    return WTable(group.q, N, w)


def _group_convolve(table: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v1)
    for i in np.flatnonzero(v1):
        for j in np.flatnonzero(v2):
            out[table[i, j]] += v1[i] * v2[j]
    return out


def lambda_chi(chi: ClassCharacter, table: WTable, n: int) -> complex:
    """lambda_chi(n) = sum over classes of chi(C) * w(C, n)."""
    if not 1 <= n <= table.N:
        raise ValueError(f"n={n} outside table range 1..{table.N}")
    return complex(np.dot(chi.values, table.w[:, n]))


def lambda_table(chi: ClassCharacter, table: WTable) -> np.ndarray:
    """lambda_chi(n) for all n = 0..N as a complex array (entry 0 is 0)."""
    return chi.values @ table.w.astype(np.complex128)


def lambda_table_int(chi: ClassCharacter, table: WTable) -> np.ndarray:
    """Exact integer lambda values of a real character."""
    if not chi.is_real:
        raise ValueError("integer lambda table requires a real character")
    vals = np.real(chi.values).astype(np.int64)  # exactly +-1 by construction
    return vals @ table.w


def kronecker_factorize(
    chi: ClassCharacter, table: WTable, check_limit: int | None = None
) -> tuple[int, int]:
    """Split a real character's lambda into a convolution of Kronecker symbols.

    Returns fundamental discriminants (d1, d2), |d1| <= |d2|, with
    d1 * d2 = q and lambda_chi = (d1/.) * (d2/.) as a Dirichlet convolution,
    verified exactly for n up to check_limit (default min(N, 1000)).  The
    trivial character factors as (1, q).  A real character for which no
    factorization verifies indicates an upstream bug and raises
    IdentityViolation.
    """
    if not chi.is_real:
        raise ValueError("kronecker_factorize requires a real character")
    q = int(chi.q)
    if chi.is_trivial:
        return (1, q)
    limit = min(table.N, 1000) if check_limit is None else min(check_limit, table.N)
    lam = lambda_table_int(chi, table)[: limit + 1]
    pairs = arith.DirichletPairs(limit)
    for a in arith.divisors(-q):
        if a == 1 or a == -q:
            continue
        for d1 in (a, -a):
            d2 = q // d1
            if not arith.is_fundamental_discriminant(d1):
                continue
            if not arith.is_fundamental_discriminant(d2):
                continue
            conv = kronecker_convolution(d1, d2, pairs)
            if np.array_equal(conv[1:], lam[1:]):
                return (d1, d2) if abs(d1) <= abs(d2) else (d2, d1)
    raise IdentityViolation(
        f"no Kronecker factorization matches the real character {chi.exponents} of q={q}"
    )


def kronecker_convolution(d1: int, d2: int, pairs: arith.DirichletPairs) -> np.ndarray:
    """(d1/.) * (d2/.) Dirichlet convolution for n = 0..pairs.L, exact integers."""
    return pairs.convolve(kronecker_table(d1, pairs.L), kronecker_table(d2, pairs.L))
