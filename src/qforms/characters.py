"""Class group characters and representation-weight tables.

Characters of the form class group are stored as exponent vectors against
the cyclic decomposition, in lexicographic order.  One integer product of
the exponent grid with the class coords gives every value as a power of
one root of unity of order the group exponent, read from one table.
The weight w(C, n) counts ideals of norm n in the class C, computed either
by lattice enumeration (one kernel pass over a form of every inverse pair of
classes, the half-lattice points divided by the points per ideal) or by an
independent multiplicative construction from the prime-power case table;
lambda coefficients and the Kronecker factorization of real characters are
derived from these tables.

The identity checks and the sieve experiment need only the real characters,
and genus theory (Cox, Primes of the Form x^2 + ny^2, section 3) gives those
from the forms alone: for each split q = d1 d2 into fundamental
discriminants, C -> (d1/m_C) with m_C a value of C's form prime to q
(genus_characters).  The complex character table (characters) is the
slow path the tests and the benchmark check them against.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .arith import (
    Discriminant,
    IdentityViolation,
    kronecker,
    kronecker_table,
    prime_discriminants,
)
from .forms import FormClassGroup, QuadForm, _half_lattice_values, classes_representing

__all__ = [
    "IdentityViolation",
    "w_units",
    "ClassCharacter",
    "characters",
    "WTable",
    "build_w_table",
    "lambda_table",
    "lambda_table_int",
    "kronecker_factorize",
    "genus_characters",
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


def characters(group: FormClassGroup) -> list[ClassCharacter]:
    """All h characters of the class group; the trivial character comes first.

    Character (e_1, .., e_r) takes the class with coords x to the root of
    order lcm raised to sum e_i x_i lcm/d_i, for all characters in one product.
    """
    orders = tuple(d for _, d in group.cyclic_decomposition)
    d = np.array(orders, dtype=np.int64)
    lcm = math.lcm(*orders)
    roots = np.array([_root_of_unity(k, lcm) for k in range(lcm)])
    exps = np.indices(orders).reshape(d.size, group.h).T
    nums = exps * (lcm // d) @ group.coords.T % lcm
    real = (2 * exps % d == 0).all(axis=1)
    return [
        ClassCharacter(
            q=group.q,
            exponents=tuple(row),
            orders=orders,
            values=values,
            is_trivial=not any(row),
            is_real=bool(is_real),
        )
        for row, values, is_real in zip(exps.tolist(), roots[nums], real)
    ]


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

    method="lattice" counts the half-lattice points of one form per inverse
    pair, every such form of the group in one pass of the lattice kernel,
    and divides by the points per ideal; method="multiplicative" is an
    independent construction that factors n, locates the classes of each
    prime by representability, and combines prime-power weight vectors
    through the group law.  The two agree entrywise; tests rely on that as
    a dual oracle.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if method == "lattice":
        # one form serves each pair of inverse classes; the values of form k
        # land in row k of one flat count table through the offset k (N + 1)
        reps, pair = group.pairs
        counts = np.zeros(len(reps) * (N + 1), dtype=np.int64)
        offsets = np.arange(len(reps), dtype=np.int64) * (N + 1)
        abc = [tuple(group.classes[i]) for i in reps]
        for vals, _, _ in _half_lattice_values(abc, N, offsets=offsets):
            np.add.at(counts, vals, 1)
        counts = counts.reshape(len(reps), N + 1)
        # an ideal of norm n puts units/2 points on the half lattice: one
        # for |q| > 4, three for q = -3 and two for q = -4
        per_ideal = w_units(group.q) // 2
        if per_ideal > 1:
            if (counts % per_ideal).any():
                raise IdentityViolation("representation counts not divisible by unit count")
            counts //= per_ideal
        return WTable(group.q, N, counts[pair])
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


def lambda_table(chi: ClassCharacter, table: WTable) -> np.ndarray:
    """lambda_chi(n) for all n = 0..N as a complex array (entry 0 is 0)."""
    return chi.values @ table.w.astype(np.complex128)


def lambda_table_int(chi: ClassCharacter, table: WTable) -> np.ndarray:
    """Exact integer lambda values of a real character."""
    if not chi.is_real:
        raise ValueError("integer lambda table requires a real character")
    vals = np.real(chi.values).astype(np.int64)  # exactly +-1 by construction
    return vals @ table.w


def kronecker_factorize(chi: ClassCharacter, table: WTable) -> tuple[int, int]:
    """Split a real character's lambda into a convolution of Kronecker symbols.

    Returns fundamental discriminants (d1, d2), |d1| <= |d2|, with
    d1 * d2 = q and lambda_chi = (d1/.) * (d2/.) as a Dirichlet convolution,
    verified exactly for n up to min(N, 1000).  The trivial character
    factors as (1, q).  A real character for which no factorization
    verifies indicates an upstream bug and raises IdentityViolation.
    """
    if not chi.is_real:
        raise ValueError("kronecker_factorize requires a real character")
    q = int(chi.q)
    if chi.is_trivial:
        return (1, q)
    limit = min(table.N, 1000)
    lam = lambda_table_int(chi, table)[: limit + 1]
    for a in arith.divisors(-q):
        if a == 1 or a == -q:
            continue
        for d1 in (a, -a):
            d2 = q // d1
            if not arith.is_fundamental_discriminant(d1):
                continue
            if not arith.is_fundamental_discriminant(d2):
                continue
            conv = arith.dirichlet_convolve(kronecker_table(d1, limit), kronecker_table(d2, limit))
            if np.array_equal(conv[1:], lam[1:]):
                return (d1, d2) if abs(d1) <= abs(d2) else (d2, d1)
    raise IdentityViolation(
        f"no Kronecker factorization matches the real character {chi.exponents} of q={q}"
    )


def _value_prime_to(f: QuadForm, n: int) -> int:
    """A value m = f(x, y) > 0 with gcd(m, n) = 1: the first in the box
    |x|, |y| <= r, for r = 1, 2, 4, ...  A primitive form has one, and the
    box r = 1 nearly always holds it."""
    r = 1
    while True:
        for x, y in itertools.product(range(-r, r + 1), repeat=2):
            m = f.value(x, y)
            if m > 0 and math.gcd(m, n) == 1:
                return m
        r *= 2


def genus_characters(group: FormClassGroup) -> list[tuple[int, int, np.ndarray]]:
    """Every real character of the class group, from genus theory.

    Returns (d1, d2, values) for each split q = d1 d2 into fundamental
    discriminants, |d1| < |d2|, ordered by (|d1|, d1), so the trivial
    character (1, q) comes first; values[C] = (d1/m_C) = +-1 (int64) with
    m_C a value of C's form prime to q (Cox, section 3).  The splits {d1, d2}
    and the real characters correspond one to one, and the real character
    of (d1, d2) has lambda = (d1/.) * (d2/.), a Dirichlet convolution.

    The genera (the classes with equal values on every row) are the cosets
    of the squares, so with t prime discriminants dividing q the 2^(t-1) rows
    are distinct, each genus holds h / 2^(t-1) classes and exactly 2^(t-1)
    classes are ambiguous.  IdentityViolation if any of these fails, as it
    does when a class is dropped from or doubled in the enumeration, or if
    a d1 or d2 is not a fundamental discriminant (a wrong sign).
    """
    q = group.q.q
    primes = prime_discriminants(q)
    m_c = [_value_prime_to(f, -q) for f in group.classes]
    splits = []
    # each split and its swap are one character: keep the last prime
    # discriminant in d2, then put the smaller of the two first
    for keep in itertools.product((False, True), repeat=len(primes) - 1):
        d1 = math.prod(p for p, k in zip(primes, keep) if k)
        splits.append(min((d1, q // d1), (q // d1, d1), key=lambda s: abs(s[0])))
    splits.sort(key=lambda s: (abs(s[0]), s[0]))
    if not all(arith.is_fundamental_discriminant(d) for split in splits for d in split):
        raise IdentityViolation(f"q={q}: a split {splits} is not into fundamental discriminants")
    rows = [[kronecker(d1, m) for m in m_c] for d1, _ in splits]
    genera = Counter(zip(*rows))  # a class's genus: its values on every row
    g = len(splits)
    equal = len(genera) == g and all(g * size == group.h for size in genera.values())
    if len(set(map(tuple, rows))) != g or not equal:
        raise IdentityViolation(f"q={q}: the classes do not split into {g} equal genera")
    if group.e.count(2) != g:
        raise IdentityViolation(f"q={q}: {group.e.count(2)} ambiguous classes, not {g}")
    return [(d1, d2, np.array(row, dtype=np.int64)) for (d1, d2), row in zip(splits, rows)]
