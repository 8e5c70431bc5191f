import contextlib
import itertools
import math
import random
import signal
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qforms import arith, forms
from qforms.arith import fundamental_discriminants, kronecker
from qforms.forms import (
    QuadForm,
    class_group,
    class_number,
    classes_representing,
    compose_forms,
    reduce_form,
    representation_count,
    represented_mask,
    transform_form,
    value_counts,
)


def w_units(q: int) -> int:
    return 6 if q == -3 else 4 if q == -4 else 2


# ---------------------------------------------------------------------------
# reduction


def test_reduce_examples():
    f = QuadForm(1, 1, 6)
    g, w = reduce_form(f)
    assert g == f and w == ((1, 0), (0, 1))
    g, w = reduce_form(QuadForm(6, 1, 1))
    assert g == QuadForm(1, 1, 6)
    assert w[0][0] * w[1][1] - w[0][1] * w[1][0] == 1
    assert transform_form(QuadForm(6, 1, 1), w) == g
    g, _ = reduce_form(QuadForm(2, -1, 3))
    assert g == QuadForm(2, -1, 3)


def test_reduce_rejects_bad_forms():
    with pytest.raises(ValueError):
        reduce_form(QuadForm(1, 0, -1))  # indefinite
    with pytest.raises(ValueError):
        reduce_form(QuadForm(-1, 0, -1))  # negative definite
    with pytest.raises(ValueError):
        reduce_form(QuadForm(2, 0, 2))  # imprimitive


def _bfs_equivalents(f: QuadForm, height: int, coeff_cap: int) -> set:
    """Orbit of f under the S/T generator moves with bounded coefficients."""
    s = ((0, -1), (1, 0))
    t = ((1, 1), (0, 1))
    tinv = ((1, -1), (0, 1))
    seen = {(f.a, f.b, f.c)}
    frontier = deque([(f, 0)])
    while frontier:
        g, depth = frontier.popleft()
        if depth == height:
            continue
        for m in (s, t, tinv):
            h = transform_form(g, m)
            key = (h.a, h.b, h.c)
            if key not in seen and max(abs(h.a), abs(h.b), abs(h.c)) <= coeff_cap:
                seen.add(key)
                frontier.append((h, depth + 1))
    return seen


def test_reduce_agrees_with_bfs_orbit():
    # every orbit member at small height reduces to the same canonical form
    f = QuadForm(1, 1, 6)
    orbit = _bfs_equivalents(f, height=6, coeff_cap=200)
    assert (6, 1, 1) in orbit
    for a, b, c in orbit:
        g, _ = reduce_form(QuadForm(a, b, c))
        assert g == f


@st.composite
def _sl2_twists(draw):
    q = draw(st.sampled_from([d.q for d in fundamental_discriminants(400)]))
    group = class_group(arith.classify_discriminant(q))
    f = draw(st.sampled_from(list(group.classes)))
    word = draw(
        st.lists(st.sampled_from(["s", "t", "T"]), min_size=0, max_size=10)
    )
    m = ((1, 0), (0, 1))
    steps = {"s": ((0, -1), (1, 0)), "t": ((1, 1), (0, 1)), "T": ((1, -1), (0, 1))}
    g = f
    for c in word:
        g = transform_form(g, steps[c])
    return f, g


@given(_sl2_twists())
def test_reduction_canonical_under_twists(pair):
    f, g = pair
    reduced, witness = reduce_form(g)
    assert reduced == f
    assert witness[0][0] * witness[1][1] - witness[0][1] * witness[1][0] == 1
    assert transform_form(g, witness) == reduced


# ---------------------------------------------------------------------------
# class groups


def test_class_group_examples():
    g3 = class_group(-3)
    assert g3.h == 1 and g3.classes == (QuadForm(1, 1, 1),)
    g23 = class_group(-23)
    assert g23.h == 3
    assert set(map(tuple, g23.classes)) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert g23.cyclic_decomposition == ((g23.class_index(QuadForm(2, 1, 3)), 3),)
    g15 = class_group(-15)
    assert g15.h == 2
    assert set(map(tuple, g15.classes)) == {(1, 1, 4), (2, 1, 2)}
    assert [d for _, d in g15.cyclic_decomposition] == [2]


def test_class_group_rejects_non_fundamental():
    with pytest.raises(ValueError):
        class_group(-12)


def test_class_group_accepts_mod8_fundamentals():
    # excluded from family scans but valid for oracle use
    g8 = class_group(-8)
    assert g8.h == 1 and g8.classes == (QuadForm(1, 0, 2),)
    g40 = class_group(-40)
    assert g40.h == 2 and g40.orders == (1, 2)


def test_known_class_numbers():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
             -31: 3, -39: 4, -47: 5, -71: 7, -95: 8, -163: 1}
    for q, h in known.items():
        assert class_number(-q) == h, q


def test_class_number_counts_the_group_classes():
    # mod-8 discriminants included: they are fundamental but outside the scan family
    qs = [d for d in range(-3000, 0) if arith.is_fundamental_discriminant(d)]
    assert any(q % 8 == 0 for q in qs)
    for q in qs:
        assert class_number(-q) == len(class_group(q).classes), q


def test_e_from_ambiguous_forms_matches_orders():
    # e(C) is read off the reduced form; the composition table's orders and
    # the inverse by reduction of (a, -b, c) are the references
    qs = [d for d in range(-3000, 0) if arith.is_fundamental_discriminant(d)]
    # q = 1 (mod 4), q = 8 (mod 16) and q = 12 (mod 16)
    assert {q % 16 for q in qs} >= {1, 5, 9, 13, 8, 12}
    for q in qs:
        g = class_group(q)
        assert g.e == tuple(2 if o <= 2 else 1 for o in g.orders), q
        for i, f in enumerate(g.classes):
            assert f.is_ambiguous == (g.inverse(i) == i), (q, tuple(f))


def test_two_by_two_group():
    g = class_group(-84)
    assert g.h == 4
    assert [d for _, d in g.cyclic_decomposition] == [2, 2]
    assert all(o <= 2 for o in g.orders)
    assert g.e == (2, 2, 2, 2)


def test_composition_laws_examples():
    g = class_group(-23)
    i_pos = g.class_index(QuadForm(2, 1, 3))
    i_neg = g.class_index(QuadForm(2, -1, 3))
    for j in range(g.h):
        assert g.composition[g.principal_index, j] == j
    assert g.composition[i_pos, i_neg] == g.principal_index
    assert g.composition[i_pos, i_pos] == i_neg
    assert g.power(i_pos, 2) == i_neg and g.power(i_pos, -1) == i_neg


def test_group_axioms_exhaustive():
    # abelian group law on every scan discriminant family member up to 500
    for q in fundamental_discriminants(500):
        g = class_group(q)
        comp = g.composition
        assert (comp == comp.T).all()
        assert (comp[0] == np.arange(g.h)).all()
        inv = np.array([g.inverse(i) for i in range(g.h)])
        assert (comp[np.arange(g.h), inv] == 0).all()
        # associativity: (i*j)*k == i*(j*k) for all triples
        left = comp[comp][:, :, :]  # left[i,j,k] = (i*j)*k
        right = comp[:, comp]  # right[i,j,k] = i*(j*k)
        assert (left == right).all(), q.q


def test_cyclic_decomposition_structure():
    for q in fundamental_discriminants(300):
        g = class_group(q)
        dec = g.cyclic_decomposition
        orders = [d for _, d in dec]
        assert math.prod(orders) == g.h
        assert all(orders[i] > 1 for i in range(len(orders)))
        assert all(orders[i + 1] % orders[i] == 0 for i in range(len(orders) - 1))
        coords = g.coords  # raises internally if exponent vectors collide
        assert coords.shape == (g.h, len(dec))


@contextlib.contextmanager
def _deadline(seconds):
    # a loop that never ends fails the test instead of hanging the suite
    def fire(_signum, _frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _reference_table(group):
    """The composition table by h(h+1)/2 compose_forms calls."""
    table = np.zeros((group.h, group.h), dtype=np.int64)
    for i in range(group.h):
        for j in range(i, group.h):
            k = group.class_index(compose_forms(group.classes[i], group.classes[j]))
            table[i, j] = table[j, i] = k
    return table


def _reference_orders(table):
    out = []
    for i in range(len(table)):
        k, o = i, 1
        while k != 0:
            k, o = table[k, i], o + 1
        out.append(o)
    return tuple(out)


def test_structure_matches_the_slow_path():
    # every fundamental |q| <= 3000, mod-8 kinds included, against the
    # composition table of h(h+1)/2 compose_forms calls
    qs = [d for d in range(-3000, 0) if arith.is_fundamental_discriminant(d)]
    assert any(q % 8 == 0 for q in qs)
    for q in qs:
        g = class_group(q)
        table = _reference_table(g)
        assert np.array_equal(g.composition, table), q
        orders = _reference_orders(table)
        assert g.orders == orders, q
        d = np.array([dj for _, dj in g.cyclic_decomposition], dtype=np.int64)
        assert (d > 1).all() and (d[1:] % d[:-1] == 0).all(), q
        # the invariant factors fix #{C : ord C | n} for every n | h
        for n in arith.divisors(g.h):
            assert sum(n % o == 0 for o in orders) == math.prod(math.gcd(n, int(dj)) for dj in d)
        coords = g.coords
        keys = {tuple(c) for c in coords.tolist()}
        assert len(keys) == g.h and all(((0 <= coords) & (coords < d)).all(axis=1)), q
        assert np.array_equal(coords[table], (coords[:, None] + coords[None, :]) % d), q
        for i, (gen, _) in enumerate(g.cyclic_decomposition):
            assert np.array_equal(coords[gen], np.eye(d.size, dtype=np.int64)[i]), q


def test_structure_checks_fire_on_planted_faults(monkeypatch):
    qs = [d for d in range(-3000, 0) if arith.is_fundamental_discriminant(d)]
    with monkeypatch.context() as patch:
        patch.setattr(forms, "compose_forms", lambda f1, f2: f1)
        for q in (-15, -23, -39, -84, -3299):
            with _deadline(10), pytest.raises(ArithmeticError):
                class_group(q).cyclic_decomposition
    # one off-diagonal relation entry off by one: a presentation of another
    # lattice, which the generator rows refute
    real = forms._smith_normal_form
    sizes = []

    def off_by_one(R):
        sizes.append(len(R))
        R = [row[:] for row in R]
        if len(R) > 1:
            R[-1][0] += 1
        return real(R)

    monkeypatch.setattr(forms, "_smith_normal_form", off_by_one)
    fired = 0
    for q in qs:
        try:
            with _deadline(10):
                class_group(q).cyclic_decomposition
        except ArithmeticError:
            fired += 1
            assert sizes[-1] > 1, q
        else:
            assert sizes[-1] <= 1, q
    assert fired > 300


def _det(M):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(n))
    return total


def test_smith_normal_form_matches_determinantal_divisors():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        R = [[rng.choice([0, 0, rng.randint(-12, 12)]) for _ in range(n)] for _ in range(n)]
        d, V = forms._smith_normal_form(R)
        assert all(dj >= 0 for dj in d), R
        assert all(d[i + 1] % d[i] == 0 if d[i] else d[i + 1] == 0 for i in range(n - 1)), R
        assert abs(_det(V)) == 1, R
        RV = [[sum(R[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert all(RV[i][j] % d[j] == 0 if d[j] else RV[i][j] == 0 for i in range(n) for j in range(n)), R
        # D_k, the gcd of the k x k minors, is d_1 ... d_k
        for k in range(1, n + 1):
            minors = [
                _det([[R[i][j] for j in cols] for i in rows])
                for rows in itertools.combinations(range(n), k)
                for cols in itertools.combinations(range(n), k)
            ]
            assert math.gcd(*minors) == math.prod(d[:k]), (R, k)


def test_structure_costs_about_h_compositions(monkeypatch):
    # h - 1 compositions build the presentation and r (h - 1) check the
    # generator rows; the h(h+1)/2 table took 816,003 calls at h = 1277
    real = compose_forms
    calls = []
    monkeypatch.setattr(forms, "compose_forms", lambda f1, f2: calls.append(1) or real(f1, f2))
    for q, invariants in ((-999959, [1277]), (-3299, [3, 9])):
        g = class_group(q)
        calls.clear()
        g.composition, g.orders, g.coords, g.power(1, -2)
        assert [dj for _, dj in g.cyclic_decomposition] == invariants
        assert len(calls) <= (len(invariants) + 1) * g.h, (q, len(calls))


def test_compose_forms_requires_matching_discriminant():
    with pytest.raises(ValueError):
        compose_forms(QuadForm(1, 1, 6), QuadForm(1, 1, 4))


# ---------------------------------------------------------------------------
# representation counting


def _representation_brute(f: QuadForm, n: int) -> int:
    bound = 1 + math.isqrt(4 * max(f.a, f.c) * n)
    count = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if f.value(x, y) == n:
                count += 1
    return count


def test_representation_count_examples():
    f = QuadForm(1, 0, 1)
    assert representation_count(f, 3) == 0
    assert representation_count(f, 5) == 8
    g = QuadForm(1, 1, 6)
    assert representation_count(g, 23) == _representation_brute(g, 23)


@given(
    q=st.sampled_from([d.q for d in fundamental_discriminants(200)]),
    n=st.integers(min_value=1, max_value=120),
)
def test_representation_count_matches_brute(q, n):
    group = class_group(arith.classify_discriminant(q))
    for f in group.classes:
        assert representation_count(f, n) == _representation_brute(f, n)


def test_classes_representing_examples():
    g = class_group(-23)
    two = {g.class_index(QuadForm(2, 1, 3)), g.class_index(QuadForm(2, -1, 3))}
    assert classes_representing(g, 2) == frozenset(two)
    assert classes_representing(g, 23) == frozenset({g.principal_index})
    assert classes_representing(g, 5) == frozenset()


def test_inverse_class_has_equal_counts():
    for q in (-23, -47, -71):
        g = class_group(q)
        counts = [value_counts(f, 200) for f in g.classes]
        for i in range(g.h):
            assert np.array_equal(counts[i], counts[g.inverse(i)])


def test_value_counts_consistent_with_representation_count():
    g = class_group(-31)
    for f in g.classes:
        counts = value_counts(f, 300)
        mask = represented_mask(f, 300)
        for n in range(1, 301):
            assert counts[n] == representation_count(f, n)
            assert mask[n] == (counts[n] > 0)


def test_value_counts_rows_without_integer_points():
    # (25, 25, 7) at small limits admits y-rows whose real x-interval
    # contains no integer; the enumeration must skip them, not spin
    f = QuadForm(25, 25, 7)
    for limit in range(1, 11):
        counts = value_counts(f, limit)
        for n in range(1, limit + 1):
            assert counts[n] == _representation_brute(f, n), (limit, n)
    assert value_counts(f, 2).sum() == 0
    assert value_counts(f, 3)[3] == 2  # (1, -2) and (-1, 2)


def test_value_counts_matches_brute_for_wide_forms():
    # reduced forms with larger leading coefficient stress the row bounds
    for q in (-84, -231, -255):
        g = class_group(q)
        for f in g.classes:
            counts = value_counts(f, 64)
            for n in range(1, 65):
                assert counts[n] == _representation_brute(f, n), (q, tuple(f), n)


def test_total_representations_equal_divisor_sums():
    # sum over classes of r(C, n) = units * sum_{d | n} (q/d) for n coprime to q
    for q in fundamental_discriminants(200):
        group = class_group(q)
        total = sum(value_counts(f, 500) for f in group.classes)
        divsum = np.zeros(501, dtype=np.int64)
        for d in range(1, 501):
            divsum[d::d] += kronecker(q.q, d)
        for n in range(1, 501):
            if math.gcd(n, q.abs_q) == 1:
                assert total[n] == w_units(q.q) * divsum[n], (q.q, n)


def test_class_number_formula_small():
    for q in fundamental_discriminants(300):
        a = q.abs_q
        s = sum(k * kronecker(q.q, k) for k in range(1, a))
        assert -w_units(q.q) * s == 2 * a * class_number(a), q.q


# ---------------------------------------------------------------------------
# lattice kernel against a brute-force oracle


def _lattice_brute(f: QuadForm, limit: int) -> np.ndarray:
    """counts[n] for 1 <= n <= limit by a full double loop over the box.

    For a reduced form f(x, y) <= limit forces x^2, y^2 <= 4 c limit / |D|.
    """
    r = math.isqrt(4 * f.c * limit // -f.disc) + 1
    x = np.arange(-r, r + 1, dtype=np.int64)[:, None]
    y = np.arange(-r, r + 1, dtype=np.int64)[None, :]
    vals = (f.a * x * x + f.b * x * y + f.c * y * y).ravel()
    return np.bincount(vals[(vals >= 1) & (vals <= limit)], minlength=limit + 1)


def _kernel_matches_brute(f: QuadForm, limit: int, M: int = 6) -> bool:
    """The whole kernel (M = 1) and its sub-rows prime to M, against the box."""
    counts = _lattice_brute(f, limit)
    coprime = np.zeros(limit + 1, dtype=np.int64)
    for vals in forms._half_lattice_values(f, limit, M):
        np.add.at(coprime, vals, 2)
    return (
        np.array_equal(value_counts(f, limit), counts)
        and np.array_equal(represented_mask(f, limit), counts > 0)
        and np.array_equal(coprime, counts * (np.gcd(np.arange(limit + 1), M) == 1))
    )


# q = -3 and -4, b = 0, |b| = a, a = c; reduced forms with a large leading
# coefficient have rows without integer points at small limits
_EDGE_FORMS = [
    QuadForm(1, 1, 1),
    QuadForm(1, 0, 1),
    QuadForm(2, 0, 3),
    QuadForm(2, 2, 3),
    QuadForm(3, 2, 3),
    QuadForm(5, 5, 7),
    QuadForm(7, 3, 7),
    QuadForm(11, -5, 13),
]


@st.composite
def reduced_primitive_forms(draw):
    a = draw(st.integers(min_value=1, max_value=40))
    b = draw(st.integers(min_value=-a + 1, max_value=a))
    c = draw(st.integers(min_value=a, max_value=3 * a + 20))
    f = QuadForm(a, b, c)
    assume(f.is_reduced and f.is_primitive)
    return f


@given(
    f=st.one_of(st.sampled_from(_EDGE_FORMS), reduced_primitive_forms()),
    limit=st.integers(min_value=1, max_value=3000),
    M=st.sampled_from([2, 3, 6, 10, 30]),
)
def test_lattice_kernel_matches_brute(f, limit, M):
    assert _kernel_matches_brute(f, limit, M), (tuple(f), limit, M)


def test_lattice_oracle_fires_on_planted_faults(monkeypatch):
    real = forms._half_rows

    def hi_short_by_one(f, limit):
        y, lo, hi = real(f, limit)
        return y, lo, hi - 1

    def y0_row_dropped(f, limit):
        y, lo, hi = real(f, limit)
        lo = lo.copy()
        lo[0] = hi[0] + 1
        return y, lo, hi

    real_residues = forms._coprime_residues

    def first_residue_dropped(f, M):
        allowed = real_residues(f, M)
        allowed[tuple(np.argwhere(allowed)[0])] = False
        return allowed

    cases = [(f, limit) for f in _EDGE_FORMS for limit in (1, 10, 300, 3000)]
    assert all(_kernel_matches_brute(f, limit) for f, limit in cases)
    for name, fault in (
        ("_half_rows", hi_short_by_one),
        ("_half_rows", y0_row_dropped),
        ("_coprime_residues", first_residue_dropped),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(forms, name, fault)
            assert not all(_kernel_matches_brute(f, limit) for f, limit in cases), fault


def test_lattice_kernel_refuses_inexact_sizes():
    # 4 a limit = 2^52: the float square root would no longer be exact
    with pytest.raises(ValueError):
        value_counts(QuadForm(1 << 40, 1, 1 << 40), 1 << 10)


def test_represented_mask_memory_is_chunked():
    # (1, 1, 1) has about 1.8e7 lattice points up to 1e7: an unchunked
    # kernel holds well over 100 MB of int64 values at once
    limit = 10**7
    tracemalloc.start()
    try:
        mask = represented_mask(QuadForm(1, 1, 1), limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.nbytes == limit + 1
    assert peak < mask.nbytes + 4 * 2**20, peak
