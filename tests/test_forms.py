import contextlib
import itertools
import math
import random
import signal
import tracemalloc
import unittest.mock
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qforms import arith, cache, forms
from qforms.arith import IdentityViolation, fundamental_discriminants, kronecker
from qforms.characters import build_w_table
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
from qforms.stats import least_primes


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


_SL2_STEPS = {"s": ((0, -1), (1, 0)), "t": ((1, 1), (0, 1)), "T": ((1, -1), (0, 1))}


def _draw_twist(draw, f: QuadForm) -> QuadForm:
    """f moved by a drawn word of up to 10 SL(2,Z) generators s, t, t^-1."""
    for c in draw(st.lists(st.sampled_from("stT"), max_size=10)):
        f = transform_form(f, _SL2_STEPS[c])
    return f


@st.composite
def _sl2_twists(draw):
    q = draw(st.sampled_from([d.q for d in fundamental_discriminants(400)]))
    group = class_group(arith.classify_discriminant(q))
    f = draw(st.sampled_from(list(group.classes)))
    return f, _draw_twist(draw, f)


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


def _pairs_by_inverse(g):
    """(reps, pair) from inverse(), the reduction of (a, -b, c): the reference."""
    reps = [i for i in range(g.h) if g.inverse(i) >= i]
    return reps, [reps.index(min(i, g.inverse(i))) for i in range(g.h)]


@pytest.mark.parametrize("source", ["built", "blob"])
def test_pairs_agree_with_inverse(tmp_path, source):
    qs = [d for d in range(-3, -3001, -1) if arith.is_fundamental_discriminant(d)]
    for q in qs:
        g = class_group(q)
        if source == "blob":
            path = cache.cache_path(tmp_path, g.q)
            cache.save_entry(path, g, build_w_table(g, 1))
            g, _ = cache.load_entry(path)
        assert g.pairs == _pairs_by_inverse(g), q


@pytest.mark.parametrize("q", [-23, -47, -260])
def test_pairs_refuse_a_swapped_pair(q):
    g = class_group(q)
    i = next(i for i, f in enumerate(g.classes) if f.b < 0)
    classes = list(g.classes)
    classes[i - 1], classes[i] = classes[i], classes[i - 1]
    swapped = forms.FormClassGroup(g.q, tuple(classes))
    with pytest.raises(IdentityViolation, match="does not follow its inverse"):
        swapped.pairs
    with pytest.raises(IdentityViolation):
        build_w_table(swapped, 10)


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


def _contract_failures(compose, qs) -> list[tuple[int, int, int]]:
    """(q, i, j) of each class pair whose composite is not a reduced form of
    discriminant q that represents p_i p_j, the least primes of the two
    classes: f1(x, y) f2(u, v) is a value of f1 f2.  A check by values, from
    stats.least_primes and representation_count, sharing no code with
    compose_forms."""
    bad = []
    for q in qs:
        g = class_group(q)
        p = [r.prime for r in least_primes(g, list(range(g.h)))]
        for i, j in itertools.combinations_with_replacement(range(g.h), 2):
            f = compose(g.classes[i], g.classes[j])
            if not (f.is_reduced and f.disc == q and representation_count(f, p[i] * p[j])):
                bad.append((q, i, j))
    return bad


_FUNDAMENTAL_3000 = [d for d in range(-3000, 0) if arith.is_fundamental_discriminant(d)]


def test_composition_contract_by_values():
    # every class pair of every fundamental |q| <= 1000, mod-8 kinds included
    qs = [q for q in _FUNDAMENTAL_3000 if q >= -1000]
    assert any(q % 8 == 0 for q in qs)
    assert _contract_failures(compose_forms, qs) == []


@st.composite
def _twisted_class_pairs(draw):
    """Two classes of a fundamental |q| < 3000 and an SL(2,Z) twist of each."""
    group = class_group(draw(st.sampled_from(_FUNDAMENTAL_3000)))
    f1 = draw(st.sampled_from(group.classes))
    f2 = draw(st.sampled_from(group.classes))
    return f1, f2, _draw_twist(draw, f1), _draw_twist(draw, f2)


@given(_twisted_class_pairs())
def test_composition_ignores_the_representatives(fs):
    f1, f2, g1, g2 = fs
    assert compose_forms(g1, g2) == compose_forms(f1, f2), fs


def _unreduced_composite(f1, f2):
    # the right class, one SL(2,Z) step past its reduced form
    return transform_form(compose_forms(f1, f2), ((1, 1), (0, 1)))


def _flipped_composite(f1, f2):
    # the wrong sign of B: the inverse class, which represents the same values
    a, b, c = compose_forms(f1, f2)
    return reduce_form(QuadForm(a, -b, c))[0]


def test_composition_faults_fire(monkeypatch):
    # an unreduced composite fails the contract, and the group build takes
    # only reduced classes; the inverse composite is no group law
    assert _contract_failures(_unreduced_composite, [-23, -3299])
    for fault in (_unreduced_composite, _flipped_composite):
        with monkeypatch.context() as patch:
            patch.setattr(forms, "compose_forms", fault)
            for q in (-23, -3299):
                with _deadline(10), pytest.raises(IdentityViolation):
                    class_group(q).cyclic_decomposition


def test_class_index_takes_reduced_classes_only():
    g = class_group(-23)
    assert [g.class_index(f) for f in g.classes] == [0, 1, 2]
    # (2, 1, 3) one step of t and of s away, and the reduced class of q = -15
    for f in (QuadForm(2, 5, 6), QuadForm(3, -1, 2), QuadForm(1, 1, 4)):
        with pytest.raises(IdentityViolation, match=r"is not a reduced class of q=-23"):
            g.class_index(f)


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
    for vals, _, _ in forms._half_lattice_values([tuple(f)], limit, M):
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

    def hi_short_by_one(abc, limit):
        form, y, lo, hi = real(abc, limit)
        return form, y, lo, hi - 1

    def y0_row_dropped(abc, limit):
        form, y, lo, hi = real(abc, limit)
        lo = lo.copy()
        lo[0] = hi[0] + 1
        return form, y, lo, hi

    real_residues = forms._coprime_residues

    def first_residue_dropped(abc, M):
        allowed = real_residues(abc, M)
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


def _half_counts_brute(f: QuadForm, limit: int, M: int) -> np.ndarray:
    """Half-lattice points per value n <= limit with gcd(n, M) = 1, from the box."""
    n = np.arange(limit + 1)
    return _lattice_brute(f, limit) // 2 * (np.gcd(n, M) == 1)


def _batch_counts(abc, limit: int, M: int = 1) -> np.ndarray:
    """(F, limit + 1) half-lattice counts of a batch, from one kernel pass."""
    width = limit + 1
    counts = np.zeros(len(abc) * width, dtype=np.int64)
    offsets = np.arange(len(abc), dtype=np.int64) * width
    for vals, _, _ in forms._half_lattice_values(abc, limit, M, offsets):
        np.add.at(counts, vals, 1)
    return counts.reshape(len(abc), width)


@given(
    fs=st.lists(
        st.one_of(st.sampled_from(_EDGE_FORMS), reduced_primitive_forms()),
        min_size=1,
        max_size=8,
    ),
    limit=st.integers(min_value=1, max_value=2000),
    M=st.sampled_from([1, 6]),
)
def test_batched_kernel_matches_brute_per_form(fs, limit, M):
    # forms of different discriminants and leading coefficients in one batch;
    # the offsets keep every form's values in its own row
    counts = _batch_counts([tuple(f) for f in fs], limit, M)
    for k, f in enumerate(fs):
        assert np.array_equal(counts[k], _half_counts_brute(f, limit, M)), (k, tuple(f))


def test_batched_kernel_guards_the_largest_coefficients():
    # 4 a limit = 2^52 for the second form only
    with pytest.raises(ValueError):
        _batch_counts([(1, 1, 1), (1 << 30, 1, 1 << 30)], 1 << 20)
    counts = _batch_counts([(1, 1, 1), ((1 << 30) - 1, 1, 1 << 30)], (1 << 20) - 1)
    assert counts[1].sum() == 0 and counts[0, 1] == 3
    # 4 a c - b^2 past int64 is no obstacle: only the y = 0 row is left
    counts = _batch_counts([(1, 1, 1), (1 << 20, 1, 1 << 50)], 1 << 22)
    assert counts[1, 1 << 20] == 1 and counts[1].sum() == 2  # (1, 0) and (2, 0)


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


# ---------------------------------------------------------------------------
# the wedge of an ambiguous form against the whole half lattice


def _sigma(f: QuadForm):
    """The improper automorphism of an ambiguous form, of the first kind it has."""
    if f.b == 0:
        return lambda x, y: (-x, y)
    if f.b == f.a:
        return lambda x, y: (-x - y, y)
    assert f.a == f.c
    return lambda x, y: (y, x)


def _fixed_counts_brute(f: QuadForm, limit: int, M: int) -> np.ndarray:
    """Half-lattice points fixed by sigma or -sigma, per value n <= limit with
    gcd(n, M) = 1, from the box of _lattice_brute."""
    r = math.isqrt(4 * f.c * limit // -f.disc) + 1
    sigma = _sigma(f)
    counts = np.zeros(limit + 1, dtype=np.int64)
    for x in range(-r, r + 1):
        for y in range(0, r + 1):
            if y == 0 and x < 1:
                continue
            n = f.value(x, y)
            sx, sy = sigma(x, y)
            if n <= limit and math.gcd(n, M) == 1 and (sx, sy) in ((x, y), (-x, -y)):
                counts[n] += 1
    return counts


def _wedge_counts(f: QuadForm, limit: int, M: int) -> np.ndarray:
    counts = np.zeros(limit + 1, dtype=np.int64)
    for vals, _, _ in forms._half_lattice_values([tuple(f)], limit, M, wedge=[True]):
        np.add.at(counts, vals, 1)
    return counts


def _wedge_splits_half_lattice(f: QuadForm, limit: int, M: int) -> bool:
    """Whether the half lattice's values are, as a multiset, twice the wedge's
    plus the fixed points', and every fixed value is t^2 times one of
    _fixed_line_values (so these are the only fixed values that can be prime)."""
    fixed = _fixed_counts_brute(f, limit, M)
    lines = forms._fixed_line_values(f.a, f.b, f.c)
    on_lines = all(
        any(n % v == 0 and math.isqrt(n // v) ** 2 == n // v for v in lines)
        for n in np.flatnonzero(fixed).tolist()
    )
    return on_lines and np.array_equal(
        _half_counts_brute(f, limit, M), 2 * _wedge_counts(f, limit, M) + fixed
    )


@st.composite
def reduced_ambiguous_forms(draw):
    a = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["b = 0", "b = a", "a = c"]))
    if kind == "a = c":
        f = QuadForm(a, draw(st.integers(min_value=0, max_value=a)), a)
    else:
        c = draw(st.integers(min_value=a, max_value=3 * a + 20))
        f = QuadForm(a, 0 if kind == "b = 0" else a, c)
    assume(f.is_primitive)
    return f


_AMBIGUOUS_EDGE_FORMS = [f for f in _EDGE_FORMS if f.is_ambiguous]


@given(
    f=st.one_of(st.sampled_from(_AMBIGUOUS_EDGE_FORMS), reduced_ambiguous_forms()),
    limit=st.integers(min_value=1, max_value=5000),
    M=st.sampled_from([1, 6]),
)
def test_wedge_is_half_of_the_half_lattice(f, limit, M):
    # q = -3 and -4 among the edge forms, each of the three kinds
    assert f.is_reduced and f.is_ambiguous
    assert _wedge_splits_half_lattice(f, limit, M), (tuple(f), limit, M)


def test_wedge_refuses_a_form_without_the_automorphism():
    with pytest.raises(ValueError, match="b = 0, b = a or a = c"):
        next(forms._half_lattice_values([(1, 1, 1), (2, 1, 3)], 100, wedge=[True, True]))


def test_wedge_fires_on_planted_faults(monkeypatch, wedge_faults):
    cases = [(f, limit, M) for f in _AMBIGUOUS_EDGE_FORMS for limit in (10, 300) for M in (1, 6)]
    assert all(_wedge_splits_half_lattice(*case) for case in cases)
    for fault in wedge_faults:
        with monkeypatch.context() as patch:
            patch.setattr(forms, "_wedge_rows", fault)
            assert not all(_wedge_splits_half_lattice(*case) for case in cases), fault


def _counts_by_chunk_form(abc, limit: int, M: int, wedge) -> np.ndarray:
    """(F, limit + 1) counts of a batch, each value put in the row of the form
    that its chunk gives for its sub-row."""
    counts = np.zeros((len(abc), limit + 1), dtype=np.int64)
    for vals, k, cnt in forms._half_lattice_values(abc, limit, M, wedge=wedge):
        np.add.at(counts, (np.repeat(k, cnt), vals), 1)
    return counts


@given(
    fs=st.lists(
        st.one_of(
            st.sampled_from(_EDGE_FORMS), reduced_primitive_forms(), reduced_ambiguous_forms()
        ),
        min_size=1,
        max_size=8,
    ),
    limit=st.integers(min_value=1, max_value=3000),
    M=st.sampled_from([1, 6]),
    chunk=st.sampled_from([64, forms._CHUNK]),
)
def test_batched_kernel_walks_the_wedge_of_each_flagged_form(fs, limit, M, chunk):
    # the ambiguous forms of a mixed batch on their wedges, the others on
    # their half lattices, every sub-row told apart by its chunk's form
    wedge = [f.is_ambiguous for f in fs]
    with unittest.mock.patch.object(forms, "_CHUNK", chunk):
        counts = _counts_by_chunk_form([tuple(f) for f in fs], limit, M, wedge)
    for k, f in enumerate(fs):
        half = _half_counts_brute(f, limit, M)
        if f.is_ambiguous:
            half = (half - _fixed_counts_brute(f, limit, M)) // 2
        assert np.array_equal(counts[k], half), (k, tuple(f), limit, M)


def test_wedge_is_asked_form_by_form():
    batch = [(1, 1, 1), (2, 1, 3)]
    with pytest.raises(ValueError, match="b = 0, b = a or a = c"):
        next(forms._half_lattice_values(batch, 100, wedge=[False, True]))
    # (2, 1, 3) unflagged: the full half lattice, (1, 1, 1) on its wedge
    counts = _counts_by_chunk_form(batch, 100, 1, [True, False])
    assert np.array_equal(counts[1], _half_counts_brute(QuadForm(2, 1, 3), 100, 1))
    f = QuadForm(1, 1, 1)
    wedge = (_half_counts_brute(f, 100, 1) - _fixed_counts_brute(f, 100, 1)) // 2
    assert np.array_equal(counts[0], wedge)
