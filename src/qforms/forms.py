"""Binary quadratic form arithmetic.

Reduction with an SL(2,Z) witness, composition by Shanks' algorithm (Cohen's
Alg. 5.4.7) with a reduced result, class groups from exhaustive reduced-triple
enumeration with their structure from one polycyclic presentation and a Smith
normal form (Cohen, A Course in Computational Algebraic Number Theory, 2.4
and 5.4), and exact representation counting by lattice enumeration.  Every
per-pair loop (w-tables, prime counts, one least-prime search per pair,
class sums) takes the inverse pairs {C, C^-1} from FormClassGroup.pairs.
Forms are integral, primitive and positive definite throughout; class groups
are built for fundamental discriminants only (maximal orders).

The lattice kernel uses f(x, y) = f(-x, -y): it enumerates only the half
lattice (y > 0 with every x, y = 0 with x >= 1).  It takes a batch of forms
and walks all of their rows in one pass, every row's exact x-range from one
vectorised integer square root, and emits the values in numpy chunks of
about _CHUNK points, so memory stays bounded at any limit.  Each chunk is
one quadratic in its point index: x = j - S on a sub-row with j = 0, M,
2M, ... read from one index array per pass, so its values are
(a j + B) j + C with one B and C per sub-row (_row_terms).  Each chunk says
which form each of its sub-rows belongs to; where the values alone must
tell, an offset per form keeps them apart.  A weight table is one such pass
over a form of every inverse pair of a class group, the prime counts of
stats one pass over those of a block of discriminants, and a least-prime
search one pass per bound and run of its pending forms; value_counts and
represented_mask pass one form.  Given a modulus M the
kernel visits only the points whose value is prime to M: f(x, y) mod M
depends on x and y mod M alone, so each row splits into sub-rows of stride
M, one for each residue of x mod M with gcd(f(x, y), M) = 1.  M = 1 is the
whole half lattice; the prime counts of stats use M = 6, which keeps about
a quarter of the points and every prime p >= 5.  An ambiguous form (b = 0,
b = a or a = c) has an improper automorphism that pairs the points of its
half lattice; asked for its wedge, form by form, the kernel walks one point
of each pair and leaves the fixed points out (_wedge_rows,
_fixed_line_values).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import Discriminant, IdentityViolation, classify_discriminant

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

    @property
    def is_ambiguous(self) -> bool:
        """For a reduced form: whether its class C equals C^-1, i.e. has order <= 2.

        A reduced form is ambiguous iff b = 0, |b| = a or a = c (Cox, Primes
        of the Form x^2 + ny^2, ch. 1): exactly the reduced forms that
        reduction maps (a, -b, c) back to.
        """
        return self.b == 0 or abs(self.b) == self.a or self.a == self.c

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


def compose_forms(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """The reduced composite of two forms of equal discriminant.

    Shanks' composition (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 5.4.7): with a1 <= a2, s = (b1 + b2)/2, n = b2 - s,
    d = gcd(a1, a2) = u a2 + v a1 and d1 = gcd(s, d) = x2 s + y2 d, the
    composite is (v1 v2, b2 + 2 v2 r, *) with v1 = a1/d1, v2 = a2/d1 and
    r = -(u y2 n + x2 c2) mod v1.  The first extended gcd is skipped when
    a1 | a2 (u = 0), the second when d | s (x2 = 0, y2 = 1).  Any primitive
    positive definite forms may come in; the composite is checked integral.
    """
    D = f1.disc
    if D != f2.disc:
        raise ValueError("composition requires equal discriminants")
    if f1.a > f2.a:
        f1, f2 = f2, f1
    (a1, b1, _), (a2, b2, c2) = f1, f2
    s = (b1 + b2) // 2
    n = b2 - s
    d = math.gcd(a1, a2)
    u = pow(a2 // d, -1, a1 // d) if a2 % a1 else 0
    d1 = math.gcd(s, d)
    x2 = pow(s // d1, -1, d // d1) if s % d else 0
    y2 = (d1 - x2 * s) // d
    v1, v2 = a1 // d1, a2 // d1
    r = -(u * y2 * n + x2 * c2) % v1
    a3, b3 = v1 * v2, b2 + 2 * v2 * r
    if (b3 * b3 - D) % (4 * a3):
        raise IdentityViolation("composition produced a non-integral form")
    reduced, _ = reduce_form(QuadForm(a3, b3, (b3 * b3 - D) // (4 * a3)))
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


class FormClassGroup:
    """The class group of a fundamental negative discriminant.

    Holds the reduced class representatives (principal class first).  On
    first use, one polycyclic presentation and the Smith normal form of its
    relations give every class's coords over cyclic generators of orders
    d_1 | d_2 | ... | d_r; the composition table, orders, cyclic
    decomposition and powers are read off them, e(C) off the reduced forms.
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
        """The index of f, which must be one of the reduced classes: no form
        is reduced here, so IdentityViolation for any other form."""
        i = self._index.get((f.a, f.b, f.c))
        if i is None:
            raise IdentityViolation(f"form {tuple(f)} is not a reduced class of q={self.q.q}")
        return i

    def _product(self, i: int, j: int) -> int:
        return self.class_index(compose_forms(self.classes[i], self.classes[j]))

    def inverse(self, i: int) -> int:
        f = self.classes[i]
        # (a, -b, c) is not reduced when b = a or a = c, and reduces back to f
        g, _ = reduce_form(QuadForm(f.a, -f.b, f.c))
        return self.class_index(g)

    @cached_property
    def pairs(self) -> tuple[list[int], list[int]]:
        """(reps, pair): reps[k] is the first class of the k-th pair {C, C^-1},
        and pair[i] the pair of class i.  The reduced inverse of (a, b, c) is
        (a, -b, c) (Cox, ch. 1), so in class order the reps are the forms
        with b >= 0 and each b < 0 form comes right after its (a, -b, c);
        IdentityViolation if it does not."""
        reps, pair = [], []
        for i, f in enumerate(self.classes):
            if f.b >= 0:
                reps.append(i)
            elif i == 0 or self.classes[i - 1] != QuadForm(f.a, -f.b, f.c):
                raise IdentityViolation(f"class {tuple(f)} does not follow its inverse")
            pair.append(len(reps) - 1)
        return reps, pair

    def _presentation(self) -> tuple[np.ndarray, list[list[int]]]:
        """Every class's exponents over the adjoined classes x_i, and their relations.

        Each class x not yet reached joins the subgroup H reached so far: its
        powers are walked until x^m lies in H (raising once m |H| would pass
        h), and each new class x^k c (0 < k < m, c in H) costs one
        composition, h - 1 in all.  Relation i is m_i e_i minus the
        exponents of x_i^{m_i}.
        """
        h = self.h
        exps = np.zeros((h, h.bit_length()), dtype=np.int64)  # every m_i >= 2
        reached = np.arange(h) == 0
        relations: list[list[int]] = []
        for x in range(1, h):
            if reached[x]:
                continue
            H = np.flatnonzero(reached).tolist()
            pows = [x]
            while not reached[y := self._product(pows[-1], x)]:
                if (len(pows) + 2) * len(H) > h:
                    raise IdentityViolation("compositions do not form a group")
                pows.append(y)
            s = len(relations)
            relations.append([-int(v) for v in exps[y, :s]] + [len(pows) + 1])
            for k, p in enumerate(pows, 1):
                for c in H:
                    z = self._product(p, c) if c else p
                    reached[z] = True
                    exps[z] = exps[c]
                    exps[z, s] = k
        n = len(relations)
        return exps[:, :n], [row + [0] * (n - len(row)) for row in relations]

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """(d, coords, at): the invariant factors d_i > 1, every class's coords
        in prod [0, d_i), and at(c), the classes at coords c taken mod d."""
        exps, relations = self._presentation()
        diag, V = _smith_normal_form(relations)
        keep = [j for j, dj in enumerate(diag) if dj != 1]
        d = np.array([diag[j] for j in keep], dtype=np.int64)
        V = np.array([[row[j] % diag[j] for j in keep] for row in V], dtype=np.int64)
        coords = exps @ V.reshape(len(diag), d.size) % d
        radix = np.cumprod(np.r_[1, d])[:-1]
        lookup = np.full(self.h, -1)
        if math.prod(diag) == self.h:
            lookup[coords @ radix] = np.arange(self.h)
        # a class reached twice makes the m_i, hence the d_i, multiply past h
        if (lookup < 0).any():
            raise IdentityViolation("compositions do not form a group")

        def at(c: np.ndarray) -> np.ndarray:
            return lookup[c % d @ radix]

        # each generator's products with every class: when these are right,
        # so is every product read off the coords
        steps = np.eye(d.size, dtype=np.int64)
        for g, step in zip(at(steps), steps):
            moved = at(coords + step)
            if any(self._product(g, j) != moved[j] for j in range(1, self.h)):
                raise IdentityViolation(f"class {g} does not compose as its coords say")
        return d, coords, at

    @property
    def coords(self) -> np.ndarray:
        """Exponent vector of every class against the cyclic generators."""
        return self._basis[1]

    @cached_property
    def composition(self) -> np.ndarray:
        _, c, at = self._basis
        return at(c[:, None] + c[None, :]).astype(np.int32)

    def power(self, i: int, k: int) -> int:
        _, c, at = self._basis
        return int(at(k * c[i]))

    @cached_property
    def orders(self) -> tuple[int, ...]:
        d, c, _ = self._basis
        return tuple(np.lcm.reduce(d // np.gcd(c, d), axis=1, initial=1).tolist())

    @cached_property
    def e(self) -> tuple[int, ...]:
        """e(C) = 2 for a class of order <= 2, else 1; read off the reduced forms."""
        return tuple(2 if f.is_ambiguous else 1 for f in self.classes)

    @cached_property
    def cyclic_decomposition(self) -> tuple[tuple[int, int], ...]:
        """Pairs (generator index, order), orders ascending with d_i | d_{i+1}."""
        d, _, at = self._basis
        return tuple(zip(at(np.eye(d.size, dtype=np.int64)).tolist(), d.tolist()))


def _smith_normal_form(R: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form of a square integer matrix, keeping the column transform.

    Returns d and a unimodular V with U R V = diag(d) for some unimodular U,
    d_i >= 0 and d_1 | d_2 | ... | d_n.
    """
    A = [list(row) for row in R]
    n = len(A)
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        sub = range(t, n)
        while entries := [(abs(A[i][j]), i, j) for i in sub for j in sub if A[i][j]]:
            _, i, j = min(entries)
            A[t], A[i] = A[i], A[t]
            for row in A + V:
                row[t], row[j] = row[j], row[t]
            p = A[t][t]
            for i in range(t + 1, n):
                k = A[i][t] // p
                A[i] = [a - k * b for a, b in zip(A[i], A[t])]
            for j in range(t + 1, n):
                k = A[t][j] // p
                for row in A + V:
                    row[j] -= k * row[t]
            if any(A[t][t + 1:]) or any(row[t] for row in A[t + 1:]):
                continue  # a remainder below |p| is the next pivot
            rest = [row for row in A[t + 1:] if any(a % p for a in row)]
            if not rest:
                break
            A[t] = [a + b for a, b in zip(A[t], rest[0])]
    return [abs(A[t][t]) for t in range(n)], V  # a row sign is part of U


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
        raise IdentityViolation("principal form missing from enumeration")
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


def _row_count(a: int, b: int, c: int, limit: int) -> int:
    """Rows y = 0, 1, ... of the half lattice of (a, b, c) up to limit (_half_rows)."""
    return math.isqrt(4 * a * limit // (4 * a * c - b * b)) + 1


def _half_rows(
    abc: np.ndarray, limit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows (form, y, lo, hi) of the half lattice of each form with f(x, y) <= limit.

    abc is an (F, 3) batch of forms; rows come form by form, y ascending.
    The half lattice is y > 0 with every x plus y = 0 with x >= 1: one point
    of each pair +-(x, y) != (0, 0).  With s = isqrt(4a limit - |D| y^2),
    f(x, y) <= limit iff |2ax + by| <= s, so lo = -floor((by + s) / 2a) and
    hi = floor((s - by) / 2a) are exact; a row with no integer point has
    lo > hi.  Each form's constants are exact integers, and one vectorised
    square root serves every row of the batch, exact while 4 a limit < 2^52.
    """
    forms = abc.tolist()
    if 4 * max(f[0] for f in forms) * limit >= 1 << 52:
        raise ValueError("limit too large for the exact lattice kernel")
    consts = []
    total = 0
    for k, (a, b, c) in enumerate(forms):
        top = 4 * a * limit
        abs_d = min(4 * a * c - b * b, top + 1)  # past top only y = 0 is left
        rows = _row_count(a, b, c, limit)
        consts.append((k, total, top, abs_d, b, 2 * a, rows))
        total += rows
    cols = np.array(consts, dtype=np.int64)
    form, first, top, abs_d, b, two_a = np.repeat(cols[:, :6].T, cols[:, 6], axis=1)
    y = np.arange(total, dtype=np.int64) - first
    t = top - abs_d * y * y
    # t < 2^52 is an exact double, and the correctly rounded, monotone
    # square root of t >= k^2 is at least k: the truncated root is never
    # too small and at most one too large
    s = np.sqrt(t).astype(np.int64)
    s -= s * s > t
    by = b * y
    lo = -((by + s) // two_a)
    hi = (s - by) // two_a
    lo[cols[:, 1]] = 1
    return form, y, lo, hi


@lru_cache(maxsize=1024)
def _residue_table(a: int, b: int, c: int, M: int) -> np.ndarray:
    r = np.arange(M, dtype=np.int64)
    x, y = r[None, :], r[:, None]
    return np.gcd(a * x * x + b * x * y + c * y * y, M) == 1


def _coprime_residues(abc: np.ndarray, M: int) -> np.ndarray:
    """allowed[k, y % M, x % M] iff gcd(f_k(x, y), M) = 1, an (F, M, M) table.

    f(x, y) mod M depends on (a, b, c) mod M alone, so the (M, M) table of
    each residue triple is built once.
    """
    return np.array([_residue_table(a % M, b % M, c % M, M) for a, b, c in abc.tolist()])


def _wedge_rows(
    abc: np.ndarray, form: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of _half_rows clipped to the wedge of each ambiguous form.

    A form with b = 0, b = a or a = c has an improper automorphism sigma
    (x -> -x; x -> -x - y; x <-> y), and sigma or -sigma maps the half
    lattice onto itself, pairing its points.  The wedge holds one point of
    each pair that is not a fixed point: x >= 1 for b = 0, x > -y/2 for
    b = a, |x| < y for a = c, and never the y = 0 row.  A form of two kinds
    (q = -3, -4) takes the first.  The half lattice is thus twice the wedge
    plus the fixed points, whose only prime values are those of
    _fixed_line_values.
    """
    a, b, c = abc.T
    b0 = b == 0
    ba = (b == a) & ~b0
    ac = (a == c) & ~b0 & ~ba
    if not (b0 | ba | ac).all():
        raise ValueError("the wedge needs forms with b = 0, b = a or a = c")
    keep = y > 0
    form, y, lo, hi = form[keep], y[keep], lo[keep], hi[keep]
    on_ba, on_ac = ba[form], ac[form]
    floor = np.where(on_ba, -((y - 1) // 2), 1)
    floor[on_ac] = 1 - y[on_ac]
    return form, y, np.maximum(lo, floor), np.where(on_ac, np.minimum(hi, y - 1), hi)


def _fixed_line_values(a: int, b: int, c: int) -> tuple[int, int]:
    """The values at the first half-lattice point of each line the wedge leaves out.

    For b = 0 the y = 0 row and the line x = 0, at (1, 0) and (0, 1); for
    b = a the y = 0 row and y = -2x, at (1, 0) and (-1, 2); for a = c the
    lines x = y and x = -y, at (1, 1) and (-1, 1).  The t-th point of each
    line has t^2 times that value, so no other fixed point is prime.
    """
    if b == 0:
        return a, c
    if b == a:
        return a, 4 * c - a
    return 2 * a + b, 2 * a - b


def _sub_rows(
    abc: np.ndarray, limit: int, M: int, wedge: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(form, y, first, count) of every nonempty sub-row of _half_lattice_values.

    The rows of _half_rows, those of the forms flagged in wedge clipped by
    _wedge_rows and put after the others, split into sub-rows x = first,
    first + M, ... with gcd(f(x, y), M) = 1.  The sub-rows of each form stay
    consecutive, y ascending.
    """
    form, y, lo, hi = _half_rows(abc, limit)
    if wedge.any():
        on = wedge[form]
        flagged = np.flatnonzero(wedge)
        local = np.cumsum(wedge) - 1  # a flagged form's index among the flagged
        f2, y2, lo2, hi2 = _wedge_rows(abc[flagged], local[form[on]], y[on], lo[on], hi[on])
        form, y, lo, hi = (
            np.concatenate((col[~on], clipped))
            for col, clipped in zip((form, y, lo, hi), (flagged[f2], y2, lo2, hi2))
        )
    if M > 1:
        rows, rx = np.nonzero(_coprime_residues(abc, M)[form, y % M])
        lo = lo[rows]
        form, y, lo, hi = form[rows], y[rows], lo + (rx - lo) % M, hi[rows]
    n = (hi - lo) // M + 1
    keep = n > 0
    return form[keep], y[keep], lo[keep], n[keep]


def _row_terms(
    a, b, c, y: np.ndarray, S: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(B, C) of sub-rows whose points are x = j - S on rows y of (a, b, c).

    j runs over multiples of M, so f(j - S, y) = (a j + B) j + C with
    B = b y - 2 a S and C = a S^2 - b y S + c y^2.  a, b and c are ints, or
    arrays beside y and S.
    """
    aS = a * S
    B = b * y - aS  # b y - a S until the last step
    C = c * y * y
    C -= B * S
    B -= aS
    return B, C


def _half_lattice_values(
    abc,
    limit: int,
    M: int = 1,
    offsets: np.ndarray | None = None,
    wedge: list[bool] | None = None,
):
    """Values of a batch of forms on their half lattices up to limit, in chunks.

    abc is an (F, 3) batch of forms (a, b, c), all of their rows walked in
    one pass; offsets[k], if given, is added to every value of form k, so
    disjoint offsets tell the forms apart.  wedge, if given, is one flag per
    form: each flagged form must be ambiguous (b = 0, b = a or a = c), and
    only its wedge is walked (_wedge_rows).  With M > 1 only
    the points with gcd(f(x, y), M) = 1 are visited, as sub-rows x = first,
    first + M, ... of each row.  Whole sub-rows are grouped into chunks of
    about _CHUNK values, so a chunk's size is at most _CHUNK plus one row,
    and memory stays O(_CHUNK + F M sqrt(limit)) at any limit.  Each chunk
    is (vals, form, count): its values, then the form and the number of
    values of each of its sub-rows; a form's sub-rows are consecutive.

    Each chunk is one quadratic in its point index i = 0, 1, ...: a point
    of the sub-row that starts at point s of the chunk has x = j - S with
    j = M i and S = M s - first, so its value is (a j + B) j + C, with the
    sub-row's B and C from _row_terms (plus the form's offset in C).  One
    read-only index j = 0, M, 2M, ... of the longest chunk's length serves
    every chunk, and the values take six chunk-sized numpy passes (seven
    when the chunk holds several forms).

    Exactness: every step is an int64 +, - or *, exact modulo 2^64, and
    each value f(x, y) + offset lies in [-2^63, 2^63), so it comes out exact
    even where a term such as a j^2 or C passes 2^63 (a = 2^30 with j near
    6 * 2^14, deep in a chunk).  A batch past either bound is refused with
    ValueError: 4 a limit < 2^52 for the square root of _half_rows, and
    limit + offset < 2^63.
    """
    abc = np.asarray(abc, dtype=np.int64)
    wedge = np.zeros(len(abc), dtype=bool) if wedge is None else np.asarray(wedge, dtype=bool)
    if offsets is not None and max(offsets.tolist(), default=0) >= (1 << 63) - limit:
        raise ValueError("offsets too large for the exact lattice kernel")
    form, y, first, n = _sub_rows(abc, limit, M, wedge)
    if not n.size:
        return
    ends = n.cumsum()
    begin = ends - n
    total = int(ends[-1])
    # x = M (point - s) + first = M point - shift for the sub-row that starts
    # at point s; within a chunk that starts at point p, S = shift - M p
    shift = M * begin - first
    del first
    # the sub-row of each chunk's first point; sorted, so a repeat is adjacent
    cuts = ends.searchsorted(np.arange(0, total, _CHUNK), side="right")
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    starts = begin[cuts].tolist()
    stops = starts[1:] + [total]
    # the longest chunk: its first sub-row and fewer than _CHUNK points more
    index = np.arange(0, M * max(p1 - p0 for p0, p1 in zip(starts, stops)), M)
    index.flags.writeable = False
    coefs = abc.tolist()
    for r0, r1, p0, p1 in zip(cuts.tolist(), cuts[1:].tolist() + [n.size], starts, stops):
        cnt = n[r0:r1]
        k = form[r0:r1]
        j = index[: p1 - p0]
        # the chunk's coefficients: Python ints when it holds one form, else
        # one per row; B and C are repeated per point and the values computed
        # in place, so two chunk-sized arrays live at once beside the index
        one_form = k[0] == k[-1]
        a, b, c = coefs[k[0]] if one_form else abc[k].T
        B, C = _row_terms(a, b, c, y[r0:r1], shift[r0:r1] - M * p0)
        if offsets is not None:
            C += offsets[k]
        if one_form:
            vals = a * j
        else:
            vals = a.repeat(cnt)
            vals *= j
        vals += B.repeat(cnt)
        vals *= j
        vals += C.repeat(cnt)
        yield vals, k, cnt


def value_counts(f: QuadForm, limit: int) -> np.ndarray:
    """counts[n] = #{(x, y) : f(x, y) = n} for 0 <= n <= limit (counts[0] = 0)."""
    if limit < 1:
        raise ValueError("limit must be positive")
    counts = np.zeros(limit + 1, dtype=np.int64)
    for vals, _, _ in _half_lattice_values([tuple(f)], limit):
        np.add.at(counts, vals, 2)  # (x, y) and (-x, -y)
    return counts


def represented_mask(f: QuadForm, limit: int) -> np.ndarray:
    """mask[n] iff f represents n, for 0 <= n <= limit (mask[0] = False)."""
    if limit < 1:
        raise ValueError("limit must be positive")
    mask = np.zeros(limit + 1, dtype=bool)
    for vals, _, _ in _half_lattice_values([tuple(f)], limit):
        mask[vals] = True
    return mask
