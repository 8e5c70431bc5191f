import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qforms import arith, forms
from qforms import characters as characters_module
from qforms.arith import fundamental_discriminants, kronecker
from qforms.characters import (
    IdentityViolation,
    build_w_table,
    characters,
    genus_characters,
    kronecker_factorize,
    lambda_table,
    lambda_table_int,
    w_units,
)
from qforms.forms import class_group


def test_w_units():
    assert w_units(-3) == 6
    assert w_units(-4) == 4
    assert w_units(-23) == 2


def test_character_counts_and_flags():
    g3 = class_group(-3)
    (triv,) = characters(g3)
    assert triv.is_trivial and triv.is_real
    c23 = characters(class_group(-23))
    assert len(c23) == 3
    assert sum(c.is_trivial for c in c23) == 1
    assert sum(not c.is_real for c in c23) == 2
    c15 = characters(class_group(-15))
    assert len(c15) == 2 and all(c.is_real for c in c15)


def test_characters_closed_under_conjugation():
    for q in (-23, -47, -71, -95):
        group = class_group(q)
        vals = {tuple(np.round(c.values, 9)) for c in characters(group)}
        conj = {tuple(np.round(np.conj(c.values), 9)) for c in characters(group)}
        assert vals == conj


def test_orthogonality():
    # sum over chi of chi(C) conj(chi(C')) = h [C = C'] on the family to 300
    for q in fundamental_discriminants(300):
        group = class_group(q)
        mat = np.vstack([c.values for c in characters(group)])
        gram = mat.conj().T @ mat
        assert np.allclose(gram, group.h * np.eye(group.h), atol=1e-9), q.q


def test_real_character_values_are_exact_units():
    for q in (-15, -20, -84, -123):
        group = class_group(q)
        for c in characters(group):
            if c.is_real:
                assert set(np.unique(c.values)) <= {1.0 + 0j, -1.0 + 0j}


def test_w_table_examples():
    g4 = class_group(-4)
    table = build_w_table(g4, 20)
    assert table.w[0, 5] == 2  # split prime, order <= 2: exponent + 1
    assert table.w[0, 3] == 0  # inert prime at odd exponent
    assert table.w[0, 9] == 1  # inert prime at even exponent
    assert table.w[0, 2] == 1  # ramified
    assert table.w[0, 1] == 1


def test_w_first_column():
    for q in (-3, -4, -23, -47):
        group = class_group(q)
        table = build_w_table(group, 10)
        for i in range(group.h):
            assert table.w[i, 1] == (1 if i == group.principal_index else 0)


def test_w_prime_power_case_table():
    # lattice counts match the split/ramified/inert case analysis
    for q in (-23, -31, -84):
        group = class_group(q)
        table = build_w_table(group, 512)
        sieve = arith.build_sieve(512)
        for p in sieve.primes.tolist():
            kr = kronecker(q, p)
            n = p
            e = 1
            while n <= 512:
                col = table.w[:, n]
                if kr == -1:
                    expected_total = 1 if e % 2 == 0 else 0
                    assert col.sum() == expected_total
                    if e % 2 == 0:
                        assert col[group.principal_index] == 1
                elif kr == 0:
                    assert col.sum() == 1
                else:
                    assert col.sum() == e + 1
                    reps = np.flatnonzero(table.w[:, p])
                    if all(group.orders[i] <= 2 for i in reps):
                        assert col.max() == e + 1  # both prime ideals in one class
                n *= p
                e += 1


def _dual_oracle_mismatches(Q, N):
    """The q of the family up to Q whose lattice and multiplicative tables differ."""
    out = []
    for q in fundamental_discriminants(Q):
        group = class_group(q)
        lattice = build_w_table(group, N)
        mult = build_w_table(group, N, method="multiplicative")
        if not np.array_equal(lattice.w, mult.w):
            out.append(q.q)
    return out


def test_dual_oracle_w_tables():
    assert _dual_oracle_mismatches(60, 300) == []


def test_dual_oracle_fires_on_an_off_by_one_pair(monkeypatch, pair_off_by_one):
    monkeypatch.setattr(forms.FormClassGroup, "pairs", pair_off_by_one)
    # every group with h > 1 sends its last class's row to another pair
    assert _dual_oracle_mismatches(60, 300) == [
        q.q for q in fundamental_discriminants(60) if class_group(q).h > 1
    ]


_ALL_FUNDAMENTAL_3000 = [q for q in range(-3, -3001, -1) if arith.is_fundamental_discriminant(q)]
_ONE_PASS_LIMITS = (1, 2, 3, 50, 3000)


def _per_entry_values(group, chi):
    """A character's values with one _root_of_unity call per class."""
    orders = chi.orders
    lcm = math.lcm(*orders) if orders else 1
    weights = np.array([e * (lcm // d) for e, d in zip(chi.exponents, orders)], dtype=np.int64)
    nums = (group.coords @ weights) % lcm if orders else np.zeros(group.h, np.int64)
    return np.array([characters_module._root_of_unity(int(k), lcm) for k in nums])


def test_characters_from_the_root_table_match_per_entry_values():
    for q in _ALL_FUNDAMENTAL_3000:
        group = class_group(q)
        for chi in characters(group):
            assert chi.values.dtype == np.complex128
            assert np.array_equal(chi.values, _per_entry_values(group, chi)), (q, chi.exponents)


def test_characters_run_in_exponent_order_with_per_character_flags():
    # the Hecke violation reports are ordered by character index, so the
    # order is part of the output
    for q in _ALL_FUNDAMENTAL_3000:
        group = class_group(q)
        chars = characters(group)
        orders = tuple(d for _, d in group.cyclic_decomposition)
        assert [c.exponents for c in chars] == list(itertools.product(*map(range, orders))), q
        assert chars[0].is_trivial
        for c in chars:
            assert c.orders == orders
            trivial = all(e == 0 for e in c.exponents)
            real = all(2 * e % d == 0 for e, d in zip(c.exponents, orders))
            assert c.is_trivial is trivial and c.is_real is real, (q, c.exponents)


def test_lattice_w_table_is_one_kernel_call_per_group(monkeypatch):
    calls = []
    real = characters_module._half_lattice_values

    def recording(abc, *args, **kwargs):
        calls.append([tuple(f) for f in np.asarray(abc).tolist()])
        return real(abc, *args, **kwargs)

    monkeypatch.setattr(characters_module, "_half_lattice_values", recording)
    for q in (-23, -39, -84, -260):  # cyclic, and with ambiguous classes
        group = class_group(q)
        calls.clear()
        build_w_table(group, 50)
        pairs = {frozenset((i, group.inverse(i))) for i in range(group.h)}
        (batch,) = calls
        classes = [group.class_index(forms.QuadForm(*f)) for f in batch]
        assert len(batch) == len(pairs), q
        assert {frozenset((i, group.inverse(i))) for i in classes} == pairs, q


@pytest.fixture(scope="module")
def per_form_w_rows():
    """q -> (group, per-class value_counts rows at N = 3000 divided by the units)."""
    out = {}
    for q in _ALL_FUNDAMENTAL_3000:
        group = class_group(q)
        rows = np.array([forms.value_counts(f, max(_ONE_PASS_LIMITS)) for f in group.classes])
        out[q] = group, rows // w_units(q)
    return out


def _one_pass_mismatches(per_form_w_rows, qs, limits=_ONE_PASS_LIMITS):
    """(q, N) whose one-pass table differs from the per-form rows or raises."""
    out = []
    for q in qs:
        group, rows = per_form_w_rows[q]
        for N in limits:
            try:
                same = np.array_equal(build_w_table(group, N).w, rows[:, : N + 1])
            except IdentityViolation:
                same = False
            if not same:
                out.append((q, N))
    return out


def test_one_pass_w_table_matches_per_form_counts(per_form_w_rows):
    assert -3 in per_form_w_rows and -4 in per_form_w_rows and -3000 not in per_form_w_rows
    assert _one_pass_mismatches(per_form_w_rows, _ALL_FUNDAMENTAL_3000) == []
    assert build_w_table(per_form_w_rows[-4][0], 50).w.dtype == np.int64


def test_one_pass_w_table_oracle_fires_on_planted_faults(per_form_w_rows, monkeypatch):
    qs = [q for q in _ALL_FUNDAMENTAL_3000 if q >= -400]
    real_values = characters_module._half_lattice_values
    real_rows = forms._half_rows

    def offset_short_at_a_boundary(abc, limit, M=1, offsets=None):
        return real_values(abc, limit, M, offsets - (np.arange(len(offsets)) > 0))

    def last_row_dropped(abc, limit):
        return tuple(col[:-1] for col in real_rows(abc, limit))

    for module, name, fault in (
        (characters_module, "_half_lattice_values", offset_short_at_a_boundary),
        (forms, "_half_rows", last_row_dropped),
        (characters_module, "w_units", lambda q: 2),  # skips the division for q = -3, -4
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            assert _one_pass_mismatches(per_form_w_rows, qs), name
    with monkeypatch.context() as patch:
        patch.setattr(characters_module, "w_units", lambda q: 2)
        assert _one_pass_mismatches(per_form_w_rows, [-4], [50]) == [(-4, 50)]

    def y1_row_twice(abc, limit):
        return tuple(np.r_[col, col[1:2]] for col in real_rows(abc, limit))

    with monkeypatch.context() as patch:
        patch.setattr(forms, "_half_rows", y1_row_twice)
        # the y = 1 row counted twice puts 5 half-lattice points on n = 1
        # for q = -3 and 3 for q = -4
        for q in (-3, -4):
            with pytest.raises(IdentityViolation, match="unit count"):
                build_w_table(class_group(q), 10)


def test_one_pass_w_table_memory_is_two_tables():
    group = class_group(-999959)
    N = 2000
    tracemalloc.start()
    try:
        table = build_w_table(group, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.w.shape == (group.h, N + 1) == (1277, N + 1)
    assert peak <= 2 * table.w.nbytes + 2 * 2**20, peak


def test_lambda_examples():
    g23 = class_group(-23)
    t23 = build_w_table(g23, 50)
    for c in characters(g23):
        assert lambda_table(c, t23)[1] == pytest.approx(1)
    cplx = [c for c in characters(g23) if not c.is_real][0]
    assert lambda_table(cplx, t23)[2] == pytest.approx(2 * math.cos(2 * math.pi / 3))
    g4 = class_group(-4)
    t4 = build_w_table(g4, 10)
    triv = characters(g4)[0]
    assert lambda_table(triv, t4)[5] == pytest.approx(sum(kronecker(-4, d) for d in (1, 5)))


def test_lambda_bounds_and_range_check():
    g = class_group(-47)
    table = build_w_table(g, 400)
    for c in characters(g):
        lam = lambda_table(c, table)
        for n in range(1, 401):
            assert abs(lam[n]) <= len(arith.divisors(n)) + 1e-9


def test_lambda_real_when_character_real():
    g = class_group(-84)
    table = build_w_table(g, 200)
    for c in characters(g):
        assert c.is_real
        lam = lambda_table(c, table)
        assert np.abs(lam.imag).max() == 0.0
        assert np.array_equal(lam.real.astype(np.int64), lambda_table_int(c, table))


def test_hecke_relation_spot():
    # lambda(2)^2 = lambda(4) + (q/2) lambda(1) for q = -23
    g = class_group(-23)
    table = build_w_table(g, 10)
    for c in characters(g):
        lam = lambda_table(c, table)
        lhs = lam[2] ** 2
        rhs = lam[4] + kronecker(-23, 2) * lam[1]
        assert cmath.isclose(lhs, rhs, abs_tol=1e-9)


def test_kronecker_factorize_examples():
    g15 = class_group(-15)
    t15 = build_w_table(g15, 1000)
    chars = characters(g15)
    triv = [c for c in chars if c.is_trivial][0]
    assert kronecker_factorize(triv, t15) == (1, -15)
    nontriv = [c for c in chars if not c.is_trivial][0]
    assert kronecker_factorize(nontriv, t15) == (-3, 5)


def test_kronecker_factorize_rejects_complex():
    g23 = class_group(-23)
    t23 = build_w_table(g23, 100)
    for c in characters(g23):
        if not c.is_real:
            with pytest.raises(ValueError):
                kronecker_factorize(c, t23)


def test_kronecker_factorize_verifies_convolution():
    # every real character of a richer group factors into fundamental parts
    g = class_group(-119)  # -119 = -7 * 17
    table = build_w_table(g, 1000)
    for c in characters(g):
        if not c.is_real:
            continue
        d1, d2 = kronecker_factorize(c, table)
        assert d1 * d2 == -119
        assert arith.is_fundamental_discriminant(d1)
        assert arith.is_fundamental_discriminant(d2)
        lam = lambda_table_int(c, table)
        for n in (1, 2, 6, 30, 119, 500):
            conv = sum(
                kronecker(d1, k) * kronecker(d2, n // k)
                for k in range(1, n + 1)
                if n % k == 0
            )
            assert conv == lam[n]


# ---------------------------------------------------------------------------
# genus characters against the character table


def _real_rows(group):
    return {tuple(chi.values.real.astype(int).tolist()) for chi in characters(group) if chi.is_real}


def test_genus_characters_are_the_real_characters():
    # every fundamental |q| <= 3000, those divisible by 8 included
    for q in range(-3, -3001, -1):
        if not arith.is_fundamental_discriminant(q):
            continue
        group = class_group(q)
        genus = genus_characters(group)
        assert {tuple(row.tolist()) for *_, row in genus} == _real_rows(group), q
        splits = [(d1, d2) for d1, d2, _ in genus]
        assert splits[0] == (1, q)
        assert splits == sorted(splits, key=lambda s: (abs(s[0]), s[0]))
        assert all(d1 * d2 == q and abs(d1) < abs(d2) for d1, d2 in splits), q


def test_genus_splits_are_the_kronecker_factorizations():
    for q in fundamental_discriminants(300):
        group = class_group(q)
        table = build_w_table(group, 1000)
        rows = {(d1, d2): tuple(row.tolist()) for d1, d2, row in genus_characters(group)}
        for chi in characters(group):
            if chi.is_real:
                split = kronecker_factorize(chi, table)
                assert rows[split] == tuple(chi.values.real.astype(int).tolist()), (q.q, split)


def test_genus_check_catches_planted_faults(monkeypatch):
    # q = -84: four ambiguous classes, (Z/2)^2; dropping (5, 4, 5) leaves
    # three classes for four genera
    triples = forms._reduced_triples
    with monkeypatch.context() as patch:
        patch.setattr(
            forms, "_reduced_triples", lambda d: (t for t in triples(d) if t != (5, 4, 5))
        )
        with pytest.raises(IdentityViolation, match="equal genera"):
            genus_characters(class_group(-84))
    # q = -39: (2, 1, 5) twice makes genera of 3 and 2 classes, though the
    # two genus rows stay distinct and two classes stay ambiguous
    with monkeypatch.context() as patch:
        patch.setattr(
            forms,
            "_reduced_triples",
            lambda d: itertools.chain(triples(d), [(2, 1, 5)] if d == 39 else []),
        )
        assert class_group(-39).h == 5
        with pytest.raises(IdentityViolation, match="equal genera"):
            genus_characters(class_group(-39))
    # a wrong sign of d1: p instead of p* = -p for p = 3 of q = -15
    primes = characters_module.prime_discriminants
    with monkeypatch.context() as patch:
        patch.setattr(
            characters_module, "prime_discriminants", lambda q: [-primes(q)[0], *primes(q)[1:]]
        )
        with pytest.raises(IdentityViolation, match="fundamental"):
            genus_characters(class_group(-15))


def test_genus_values_are_prime_to_q():
    for q in fundamental_discriminants(2000):
        group = class_group(q)
        for f in group.classes:
            m = characters_module._value_prime_to(f, q.abs_q)
            assert m > 0 and math.gcd(m, q.abs_q) == 1
            assert forms.representation_count(f, m) > 0


def test_build_w_table_bad_input():
    g = class_group(-23)
    with pytest.raises(ValueError):
        build_w_table(g, 0)
    with pytest.raises(ValueError):
        build_w_table(g, 10, method="nonsense")


def test_average_identity_small(sieve_10k):
    # sum_C e(C) pi(X;q,C) - #{p <= X: p | q} = sum_{p <= X} (1 + (q/p)), exactly
    from qforms.stats import average_identity_gap

    for q in fundamental_discriminants(100):
        group = class_group(q)
        lhs, rhs = average_identity_gap(group, 2000, sieve_10k)
        assert lhs == rhs, q.q
