import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qforms import arith
from qforms.arith import (
    Discriminant,
    DiscriminantKind,
    build_sieve,
    classify_discriminant,
    fundamental_discriminants,
    is_fundamental_discriminant,
    kronecker,
    prime_power_table,
)

FUNDAMENTALS_1K = [d.q for d in fundamental_discriminants(1000)]


# ---------------------------------------------------------------------------
# kronecker


def test_kronecker_trivia():
    for d in (-3, -4, 1, 5, -1000003, 17):
        assert kronecker(d, 1) == 1
    assert kronecker(-3, 3) == 0
    assert kronecker(-4, 5) == 1


def test_kronecker_at_zero():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(-8, 0) == 0


def test_kronecker_at_two():
    # (d/2) = 0 for even d, +1 for d = +-1 mod 8, -1 for d = +-3 mod 8
    assert kronecker(-4, 2) == 0
    assert kronecker(-7, 2) == 1
    assert kronecker(-3, 2) == -1
    assert kronecker(17, 2) == 1


def test_kronecker_counts_square_roots():
    # 1 + (d/p) equals the number of solutions of m^2 = d (mod p) for odd p
    # not dividing d; exhaustive over p <= 1000, fundamental |d| <= 1000.
    # At p = 2 the symbol encodes the mod-8 splitting rule instead (see
    # test_kronecker_at_two), not a root count mod 2.
    primes = [int(p) for p in arith._small_primes(1000) if p > 2]
    sq_counts = {}
    for p in primes:
        sq_counts[p] = np.bincount((np.arange(p) ** 2) % p, minlength=p)
    for d in FUNDAMENTALS_1K:
        for p in primes:
            if d % p == 0:
                assert kronecker(d, p) == 0
            else:
                assert 1 + kronecker(d, p) == sq_counts[p][d % p]


@given(
    d=st.sampled_from(FUNDAMENTALS_1K),
    m=st.integers(min_value=1, max_value=10_000),
    n=st.integers(min_value=1, max_value=10_000),
)
def test_kronecker_completely_multiplicative(d, m, n):
    assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


@given(
    d=st.sampled_from(FUNDAMENTALS_1K),
    n=st.integers(min_value=1, max_value=10_000),
)
def test_kronecker_periodic_mod_abs_d(d, n):
    assert kronecker(d, n) == kronecker(d, n + abs(d))


def test_kronecker_periodicity_also_for_mod8_fundamentals():
    for d in (-8, -24, -40):
        assert classify_discriminant(d).kind is DiscriminantKind.FUNDAMENTAL_MOD8
        for n in range(1, 3 * abs(d)):
            assert kronecker(d, n) == kronecker(d, n + abs(d))


# fundamental discriminants of both signs, d = 1 included
SIGNED_FUNDAMENTALS = [d for d in range(-300, 301) if is_fundamental_discriminant(d)]


@given(d=st.sampled_from(SIGNED_FUNDAMENTALS), N=st.integers(min_value=0, max_value=700))
def test_kronecker_table_matches_scalar(d, N):
    table = arith.kronecker_table(d, N)
    assert table.dtype == np.int64
    assert table.tolist() == [kronecker(d, n) for n in range(N + 1)]


def test_kronecker_table_rejects_non_fundamental():
    for d in (0, -12, 2, 9, 20):
        with pytest.raises(ValueError):
            arith.kronecker_table(d, 10)


# ---------------------------------------------------------------------------
# Dirichlet pair index


@pytest.mark.parametrize("L", [1, 2, 12, 97, 360])
@pytest.mark.parametrize("block", [1, 50, 1 << 16])
def test_dirichlet_pairs_match_brute_force(L, block):
    pairs = arith.DirichletPairs(L, block)
    got_pairs, got_triples = [], []
    for blk in pairs.blocks():
        starts, d, v = blk.triples
        ends = starts[1:].tolist() + [d.size]
        for i, (k, j) in enumerate(zip(blk.k.tolist(), blk.j.tolist())):
            assert blk.n[i] == k * j
            got_pairs.append((k, j))
            got_triples.append((d[starts[i] : ends[i]].tolist(), v[starts[i] : ends[i]].tolist()))
    want = [(k, j) for k in range(1, L + 1) for j in range(1, L // k + 1)]
    assert got_pairs == want
    for (k, j), (ds, vs) in zip(want, got_triples):
        divs = [d for d in range(1, math.gcd(k, j) + 1) if k % d == 0 and j % d == 0]
        assert ds == divs
        assert vs == [k * j // (d * d) for d in divs]


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_dirichlet_convolution_matches_brute_force(block):
    L = 300
    rng = np.random.default_rng(5)
    t1, t2 = rng.integers(-3, 4, size=(2, L + 1))
    conv = arith.DirichletPairs(L, block).convolve(t1, t2)
    assert conv.dtype == np.int64
    want = [0] + [
        sum(int(t1[k]) * int(t2[n // k]) for k in range(1, n + 1) if n % k == 0)
        for n in range(1, L + 1)
    ]
    assert conv.tolist() == want


# ---------------------------------------------------------------------------
# discriminants


def test_classify_examples():
    assert classify_discriminant(-7).kind is DiscriminantKind.FUNDAMENTAL
    assert classify_discriminant(-8).kind is DiscriminantKind.FUNDAMENTAL_MOD8
    # -12/4 = -3 = 1 mod 4 fails the 3-mod-4 test
    assert classify_discriminant(-12).kind is DiscriminantKind.NOT_FUNDAMENTAL
    assert classify_discriminant(-4).kind is DiscriminantKind.FUNDAMENTAL
    with pytest.raises(ValueError):
        classify_discriminant(5)
    with pytest.raises(ValueError):
        classify_discriminant(0)


def _squarefree_brute(n: int) -> bool:
    return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


def test_classify_against_brute_filter():
    for a in range(1, 20001):
        d = -a
        got = classify_discriminant(d).kind
        in_family = (a % 4 == 3 and _squarefree_brute(a)) or (
            a % 4 == 0 and (a // 4) % 4 == 1 and _squarefree_brute(a // 4)
        )
        mod8 = a % 8 == 0 and a % 16 != 0 and _squarefree_brute(a // 4)
        if in_family:
            assert got is DiscriminantKind.FUNDAMENTAL, d
        elif mod8:
            assert got is DiscriminantKind.FUNDAMENTAL_MOD8, d
        else:
            assert got is DiscriminantKind.NOT_FUNDAMENTAL, d


def test_family_enumeration_examples():
    assert fundamental_discriminants(2) == []
    assert [d.q for d in fundamental_discriminants(10)] == [-3, -4, -7]


def test_family_enumeration_matches_brute_filter():
    brute = [
        -a
        for a in range(3, 101)
        if (a % 4 == 3 and _squarefree_brute(a))
        or (a % 4 == 0 and (a // 4) % 4 == 1 and _squarefree_brute(a // 4))
    ]
    got = [d.q for d in fundamental_discriminants(100)]
    assert got == sorted(brute, key=abs)
    assert all(abs(x.q) < abs(y.q) for x, y in zip(fundamental_discriminants(100), fundamental_discriminants(100)[1:]))


def test_is_fundamental_discriminant_both_signs():
    assert is_fundamental_discriminant(1)
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(12)
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(-8)
    assert not is_fundamental_discriminant(3)
    assert not is_fundamental_discriminant(-5)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(0)


# ---------------------------------------------------------------------------
# sieve


def _primes_trial(limit):
    def is_prime(n):
        return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

    return [n for n in range(2, limit + 1) if is_prime(n)]


def test_sieve_prime_count(sieve_10k):
    assert sieve_10k.prime_count(100) == 25
    assert sieve_10k.primes[:5].tolist() == [2, 3, 5, 7, 11]
    assert sieve_10k.primes.tolist() == _primes_trial(10_000)


def test_sieve_mangoldt(sieve_10k):
    assert sieve_10k.mangoldt_pair(6) is None
    assert sieve_10k.mangoldt(6) == 0.0
    assert sieve_10k.mangoldt_pair(8) == (2, 3)
    assert sieve_10k.mangoldt(8) == math.log(2)
    assert sieve_10k.mangoldt_pair(97) == (97, 1)
    assert sieve_10k.mangoldt_pair(1) is None


def test_sieve_factor_tau_mu(sieve_10k):
    for n in range(1, 2001):
        fac = sieve_10k.factor(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(p <= q for (p, _), (q, _) in zip(fac, fac[1:]))
        tau_brute = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert sieve_10k.tau(n) == tau_brute
        if any(e > 1 for _, e in fac):
            assert sieve_10k.mu(n) == 0
        else:
            assert sieve_10k.mu(n) == (-1) ** len(fac)


def test_sieve_rejects_bad_input():
    with pytest.raises(ValueError):
        build_sieve(1)
    s = build_sieve(100)
    with pytest.raises(ValueError):
        s.factor(101)


def test_segmentation_is_transparent(monkeypatch):
    a = build_sieve(100_000)
    monkeypatch.setattr(arith, "_SEGMENT", 1 << 12)
    b = build_sieve(100_000)
    assert np.array_equal(a.spf, b.spf)
    assert np.array_equal(a.primes, b.primes)


@pytest.mark.parametrize("segment", [16, 97, 1 << 10])
def test_sieve_primes_match_prime_flags_at_segment_boundaries(monkeypatch, segment):
    # the first segment starts at 2, so segment k ends just before 2 + k * segment
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    for k in (1, 2, 5):
        for n in (k * segment - 1, k * segment, k * segment + 1, k * segment + 2):
            s = build_sieve(n)
            assert s.primes.dtype == np.int64
            assert np.array_equal(s.primes, np.flatnonzero(arith.prime_flags(n))), n
            assert np.array_equal(s.spf[s.primes], s.primes)


def test_prime_power_table(sieve_10k):
    # reachable from discrepancy_E_k with int(X) < 2, negative X included
    for limit in (-5, -1, 0, 1):
        assert arith._small_primes(limit).size == 0
        ns, logs = prime_power_table(limit)
        assert ns.size == 0 and logs.size == 0
    assert prime_power_table(2)[0].tolist() == [2]
    ns, logs = prime_power_table(1000)
    assert ns.tolist() == sorted(
        n for n in range(2, 1001) if sieve_10k.mangoldt_pair(n) is not None
    )
    for n, lg in zip(ns.tolist(), logs.tolist()):
        p, _ = sieve_10k.mangoldt_pair(n)
        assert lg == pytest.approx(math.log(p), abs=0)


def test_prime_power_table_is_shared_and_read_only():
    ns, logs = prime_power_table(500)
    assert prime_power_table(500)[0] is ns
    for arr in (ns, logs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert ns[0] == 2 and logs[0] == math.log(2)


def test_divisors_and_factorize():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
