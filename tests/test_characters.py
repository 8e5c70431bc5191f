import cmath
import math

import numpy as np
import pytest

from qforms import arith
from qforms.arith import fundamental_discriminants, kronecker
from qforms.characters import (
    IdentityViolation,
    build_w_table,
    characters,
    kronecker_factorize,
    lambda_chi,
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


def test_dual_oracle_w_tables():
    for q in fundamental_discriminants(60):
        group = class_group(q)
        lattice = build_w_table(group, 300)
        mult = build_w_table(group, 300, method="multiplicative")
        assert np.array_equal(lattice.w, mult.w), q.q


def test_lattice_w_table_counts_each_inverse_pair_once(monkeypatch):
    from qforms import characters as characters_module

    calls = []
    real = characters_module.value_counts

    def counting(f, limit):
        calls.append((f.a, f.b, f.c))
        return real(f, limit)

    monkeypatch.setattr(characters_module, "value_counts", counting)
    for q in (-23, -39, -84, -260):  # cyclic, and with ambiguous classes
        group = class_group(q)
        calls.clear()
        build_w_table(group, 50)
        pairs = {frozenset((i, group.inverse(i))) for i in range(group.h)}
        assert len(calls) == len(pairs) == len({(a, abs(b), c) for a, b, c in calls}), q


def test_lambda_examples():
    g23 = class_group(-23)
    t23 = build_w_table(g23, 50)
    for c in characters(g23):
        assert lambda_chi(c, t23, 1) == pytest.approx(1)
    cplx = [c for c in characters(g23) if not c.is_real][0]
    assert lambda_chi(cplx, t23, 2) == pytest.approx(2 * math.cos(2 * math.pi / 3))
    g4 = class_group(-4)
    t4 = build_w_table(g4, 10)
    triv = characters(g4)[0]
    assert lambda_chi(triv, t4, 5) == pytest.approx(sum(kronecker(-4, d) for d in (1, 5)))


def test_lambda_bounds_and_range_check():
    g = class_group(-47)
    table = build_w_table(g, 400)
    sieve = arith.build_sieve(400)
    for c in characters(g):
        lam = lambda_table(c, table)
        for n in range(1, 401):
            assert abs(lam[n]) <= sieve.tau(n) + 1e-9
        with pytest.raises(ValueError):
            lambda_chi(c, table, 401)


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
        lhs = lambda_chi(c, table, 2) ** 2
        rhs = lambda_chi(c, table, 4) + kronecker(-23, 2) * lambda_chi(c, table, 1)
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
