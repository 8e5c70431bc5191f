"""Binary quadratic form arithmetic.

Reduction with an SL(2,Z) witness, Dirichlet composition via the united-forms
congruence system, class group construction by exhaustive reduced-triple
enumeration, and exact representation counting by lattice enumeration.
Forms are integral, primitive and positive definite throughout; class groups
are built for fundamental discriminants only (maximal orders).

The lattice kernel behind value_counts and represented_mask uses
f(x, y) = f(-x, -y): it enumerates only the half lattice (y > 0 with every
x, y = 0 with x >= 1), taking every row's exact x-range from one vectorised
integer square root, and emits the values in numpy chunks of about _CHUNK
points, so memory stays bounded at any limit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import Discriminant, classify_discriminant

__all__ = [
    "QuadForm",
    "Matrix",
    "reduce_form",
    "transform_form",
    "compose_forms",
    "FormClassGroup",
    "class_group",
    "class_number",
    "representation_count",
    "classes_representing",
    "value_counts",
    "represented_mask",
]

Matrix = tuple[tuple[int, int], tuple[int, int]]

_CHUNK = 1 << 14  # lattice points per chunk of the representation kernel

_IDENTITY: Matrix = ((1, 0), (0, 1))
_SWAP: Matrix = ((0, -1), (1, 0))


@dataclass(frozen=True)
class QuadForm:
    """The form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    @property
    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.disc < 0

    @property
    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def __iter__(self):
        yield self.a
        yield self.b
        yield self.c


def _matmul(m1: Matrix, m2: Matrix) -> Matrix:
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def transform_form(f: QuadForm, m: Matrix) -> QuadForm:
    """The form (x, y) -> f(px + qy, rx + sy) for m = ((p, q), (r, s))."""
    (p, q), (r, s) = m
    a = f.value(p, r)
    c = f.value(q, s)
    b = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
    return QuadForm(a, b, c)


def reduce_form(f: QuadForm) -> tuple[QuadForm, Matrix]:
    """Reduce f, returning the canonical representative and a witness.

    The witness w has determinant 1 and transform_form(f, w) equals the
    output; reduction is idempotent on already reduced forms.
    """
    if not f.is_positive_definite:
        raise ValueError(f"form {f} is not positive definite")
    if not f.is_primitive:
        raise ValueError(f"form {f} is not primitive")
    a, b, c = f.a, f.b, f.c
    w = _IDENTITY
    while True:
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            w = _matmul(w, _SWAP)
            continue
        if b <= -a or b > a:
            r = (a - b) // (2 * a)  # shifts b into (-a, a]
            c = a * r * r + b * r + c
            b = b + 2 * r * a
            w = _matmul(w, ((1, r), (0, 1)))
            continue
        break
    return QuadForm(a, b, c), w


def _solve_linear_congruence(alpha: int, gamma: int, mod: int) -> tuple[int, int]:
    """Solutions x of alpha*x = gamma (mod mod) as a progression (r, m)."""
    g = math.gcd(alpha, mod)
    if gamma % g:
        raise ArithmeticError("inconsistent congruence in composition")
    m = mod // g
    if m == 1:
        return 0, 1
    r = (gamma // g) * pow(alpha // g, -1, m) % m
    return r, m


def _merge_progressions(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    g = math.gcd(m1, m2)
    if (r2 - r1) % g:
        raise ArithmeticError("inconsistent congruence system in composition")
    lcm = m1 // g * m2
    t = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g) if m2 > g else 0
    return (r1 + m1 * t) % lcm, lcm


def compose_forms(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Dirichlet composition of two forms of equal discriminant, reduced.

    Uses the united-forms construction: with n = gcd(a1, a2, (b1+b2)/2) the
    composed form is (a1*a2/n^2, B, *) where B solves
        B = b1 (mod 2 a1/n),  B = b2 (mod 2 a2/n),
        (b1+b2)/2 * B = (b1 b2 + D)/2 (mod 2 a1 a2 / n).
    """
    D = f1.disc
    if D != f2.disc:
        raise ValueError("composition requires equal discriminants")
    a1, b1 = f1.a, f1.b
    a2, b2 = f2.a, f2.b
    beta = (b1 + b2) // 2
    n = math.gcd(math.gcd(a1, a2), beta)
    big_a = (a1 // n) * (a2 // n)
    r, m = b1 % (2 * a1 // n), 2 * a1 // n
    r, m = _merge_progressions(r, m, b2 % (2 * a2 // n), 2 * a2 // n)
    r3, m3 = _solve_linear_congruence(beta, (b1 * b2 + D) // 2, 2 * a1 * a2 // n)
    big_b, _ = _merge_progressions(r, m, r3, m3)
    quarter = big_b * big_b - D
    if quarter % (4 * big_a):
        raise ArithmeticError("composition produced a non-integral form")
    reduced, _ = reduce_form(QuadForm(big_a, big_b, quarter // (4 * big_a)))
    return reduced


def _reduced_triples(abs_q: int) -> Iterator[tuple[int, int, int]]:
    """(a, b, c) of every reduced primitive form of discriminant -abs_q, by (a, b) scan."""
    for a in range(1, math.isqrt(abs_q // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + abs_q) % (4 * a):
                continue
            c = (b * b + abs_q) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                yield a, b, c


def class_number(abs_q: int) -> int:
    """h(-abs_q) by reduced-form counting, without building the group."""
    return sum(1 for _ in _reduced_triples(abs_q))


_NOT_A_GROUP = "composition table is not a group table"


class FormClassGroup:
    """The class group of a fundamental negative discriminant.

    Holds the reduced class representatives (principal class first) and
    derives the composition table, element orders, e(C) and a cyclic
    decomposition with divisibility chain d_1 | d_2 | ... | d_r on demand.
    Immutable once the derived tables are materialised.
    """

    def __init__(self, q: Discriminant, classes: tuple[QuadForm, ...]):
        self.q = q
        self.classes = classes
        self._index = {(f.a, f.b, f.c): i for i, f in enumerate(classes)}

    @property
    def h(self) -> int:
        return len(self.classes)

    @property
    def principal_index(self) -> int:
        return 0

    def class_index(self, f: QuadForm) -> int:
        key = (f.a, f.b, f.c)
        if key not in self._index:
            g, _ = reduce_form(f)
            key = (g.a, g.b, g.c)
        return self._index[key]

    @cached_property
    def composition(self) -> np.ndarray:
        h = self.h
        table = np.zeros((h, h), dtype=np.int32)
        for i in range(h):
            for j in range(i, h):
                k = self.class_index(compose_forms(self.classes[i], self.classes[j]))
                table[i, j] = table[j, i] = k
        return table

    def compose(self, i: int, j: int) -> int:
        return int(self.composition[i, j])

    def inverse(self, i: int) -> int:
        f = self.classes[i]
        return self.class_index(QuadForm(f.a, -f.b, f.c))

    def power(self, i: int, k: int) -> int:
        if k < 0:
            i, k = self.inverse(i), -k
        acc = self.principal_index
        base = i
        table = self.composition
        while k:
            if k & 1:
                acc = int(table[acc, base])
            base = int(table[base, base])
            k >>= 1
        return acc

    @cached_property
    def orders(self) -> tuple[int, ...]:
        table = self.composition
        h = self.h
        out = []
        for i in range(h):
            k, o = i, 1
            while k != 0:
                if o == h:
                    raise ArithmeticError(_NOT_A_GROUP)
                k = int(table[k, i])
                o += 1
            out.append(o)
        return tuple(out)

    @cached_property
    def e(self) -> tuple[int, ...]:
        return tuple(2 if o <= 2 else 1 for o in self.orders)

    @cached_property
    def cyclic_decomposition(self) -> tuple[tuple[int, int], ...]:
        """Pairs (generator index, order), orders ascending with d_i | d_{i+1}."""
        if self.h == 1:
            return ()
        table = self.composition
        chain = _abelian_decomposition(
            list(range(self.h)), lambda x, y: int(table[x, y]), 0
        )
        return tuple(reversed(chain))

    @cached_property
    def coords(self) -> np.ndarray:
        """Exponent vector of every class against the cyclic generators."""
        dec = self.cyclic_decomposition
        out = np.zeros((self.h, len(dec)), dtype=np.int64)
        seen = set()
        gen_pows = [
            [self.power(g, e) for e in range(d)] for g, d in dec
        ]
        for exps in itertools.product(*(range(d) for _, d in dec)):
            k = 0
            for pows, e in zip(gen_pows, exps):
                k = self.compose(k, pows[e])
            if k in seen:
                raise ArithmeticError("cyclic decomposition is not direct")
            seen.add(k)
            out[k] = exps
        if len(seen) != self.h:
            raise ArithmeticError("cyclic decomposition does not span the group")
        return out


def _abelian_decomposition(elems, mul, ident):
    """Generators (element, order) of a finite abelian group, orders descending.

    Picks a maximal-order element (its cyclic span is a direct factor),
    quotients by it, recurses, and lifts quotient generators to coset
    members with matching exact order.
    """
    if len(elems) == 1:
        return []
    # a table that is not a group table raises instead of looping: orders
    # are bounded by the group order, and the quotient must shrink by dmax
    n = len(elems)
    if any(mul(ident, x) != x or mul(x, ident) != x for x in elems):
        raise ArithmeticError(_NOT_A_GROUP)

    def order_of(x):
        k, o = x, 1
        while k != ident:
            if o == n:
                raise ArithmeticError(_NOT_A_GROUP)
            k = mul(k, x)
            o += 1
        return o

    orders = {x: order_of(x) for x in elems}
    dmax = max(orders.values())
    g = min(x for x in elems if orders[x] == dmax)
    pows = [ident]
    k = mul(ident, g)
    while k != ident:
        pows.append(k)
        k = mul(k, g)
    rep: dict = {}
    for x in elems:
        if x in rep:
            continue
        coset = [mul(x, p) for p in pows]
        r = min(coset)
        for y in coset:
            rep[y] = r
    qelems = sorted(set(rep.values()))
    if len(qelems) * dmax != n:
        raise ArithmeticError(_NOT_A_GROUP)
    sub = _abelian_decomposition(qelems, lambda x, y: rep[mul(x, y)], rep[ident])
    lifted = []
    for qg, qd in sub:
        cands = [x for x in elems if rep[x] == qg and orders[x] == qd]
        if not cands:
            raise ArithmeticError("no exact-order lift in abelian decomposition")
        lifted.append((min(cands), qd))
    return [(g, dmax)] + lifted


def class_group(q: Discriminant | int) -> FormClassGroup:
    """Build the form class group for a fundamental negative discriminant."""
    if isinstance(q, int):
        q = classify_discriminant(q)
    if not q.is_fundamental:
        raise ValueError(f"{q.q} is not a fundamental discriminant")
    forms = sorted(_reduced_triples(q.abs_q), key=lambda t: (t[0], abs(t[1]), t[1] < 0))
    group = FormClassGroup(q, tuple(QuadForm(*t) for t in forms))
    principal = (
        QuadForm(1, 0, q.abs_q // 4) if q.q % 4 == 0 else QuadForm(1, 1, (1 + q.abs_q) // 4)
    )
    if group.classes[0] != principal:
        raise ArithmeticError("principal form missing from enumeration")
    return group


# ---------------------------------------------------------------------------
# representation counting


def representation_count(f: QuadForm, n: int) -> int:
    """Exact number of integer pairs (x, y) with f(x, y) = n.

    Counts all pairs, including those with x = 0 or y = 0 and imprimitive
    ones; callers wanting restricted counts filter themselves.
    """
    if n < 1:
        return 0
    a, b = f.a, f.b
    abs_d = -f.disc
    count = 0
    two_a = 2 * a
    ymax = math.isqrt(4 * a * n // abs_d)
    for y in range(-ymax, ymax + 1):
        disc_y = 4 * a * n - abs_d * y * y
        s = math.isqrt(disc_y)
        if s * s != disc_y:
            continue
        for t in (s, -s) if s else (0,):
            if (t - b * y) % two_a == 0:
                count += 1
    return count


def classes_representing(group: FormClassGroup, n: int) -> frozenset[int]:
    """Indices of the classes whose forms represent n."""
    return frozenset(
        i for i, f in enumerate(group.classes) if representation_count(f, n) > 0
    )


def _half_rows(f: QuadForm, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (y, lo, hi) of the half lattice with f(x, y) <= limit.

    The half lattice is y > 0 with every x plus y = 0 with x >= 1: one point
    of each pair +-(x, y) != (0, 0).  With s = isqrt(4a limit - |D| y^2),
    f(x, y) <= limit iff |2ax + by| <= s, so lo = -floor((by + s) / 2a) and
    hi = floor((s - by) / 2a) are exact; a row with no integer point has
    lo > hi.
    """
    a, b = f.a, f.b
    abs_d = -f.disc
    top = 4 * a * limit
    if top >= 1 << 52:
        raise ValueError("limit too large for the exact lattice kernel")
    y = np.arange(math.isqrt(top // abs_d) + 1, dtype=np.int64)
    t = top - abs_d * y * y
    s = np.sqrt(t).astype(np.int64)  # within one of isqrt(t) below 2^52
    s -= s * s > t
    s += (s + 1) * (s + 1) <= t
    lo = -((b * y + s) // (2 * a))
    hi = (s - b * y) // (2 * a)
    lo[0] = 1
    return y, lo, hi


def _half_lattice_values(f: QuadForm, limit: int):
    """f(x, y) over the half lattice up to limit, in chunks of about _CHUNK values.

    Whole rows are grouped into a chunk, so its size is at most _CHUNK plus
    one row, and memory stays O(_CHUNK + sqrt(limit)) at any limit.
    """
    y, lo, hi = _half_rows(f, limit)
    n = hi - lo + 1
    keep = n > 0
    y, lo, n = y[keep], lo[keep], n[keep]
    if not n.size:
        return
    ends = np.cumsum(n)
    starts = ends - n
    cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], _CHUNK), side="right"))
    a, b, c = f.a, f.b, f.c
    for r0, r1 in zip(cuts.tolist(), cuts[1:].tolist() + [n.size]):
        cnt = n[r0:r1]
        ys = np.repeat(y[r0:r1], cnt)
        xs = np.arange(starts[r0], ends[r1 - 1]) - np.repeat(starts[r0:r1] - lo[r0:r1], cnt)
        yield xs * (a * xs + b * ys) + c * ys * ys


def value_counts(f: QuadForm, limit: int) -> np.ndarray:
    """counts[n] = #{(x, y) : f(x, y) = n} for 0 <= n <= limit (counts[0] = 0)."""
    if limit < 1:
        raise ValueError("limit must be positive")
    counts = np.zeros(limit + 1, dtype=np.int64)
    for vals in _half_lattice_values(f, limit):
        np.add.at(counts, vals, 2)  # (x, y) and (-x, -y)
    return counts


def represented_mask(f: QuadForm, limit: int) -> np.ndarray:
    """mask[n] iff f represents n, for 0 <= n <= limit (mask[0] = False)."""
    if limit < 1:
        raise ValueError("limit must be positive")
    mask = np.zeros(limit + 1, dtype=bool)
    for vals in _half_lattice_values(f, limit):
        mask[vals] = True
    return mask
