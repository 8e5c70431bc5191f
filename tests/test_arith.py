import math
import tracemalloc

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
from qforms.forms import class_group
from qforms.stats import pi_repr_all

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
SIGNED_FUNDAMENTALS = [d for d in range(-3000, 3001) if is_fundamental_discriminant(d)]


def test_kronecker_table_matches_scalar():
    # the table multiplies the characters of the prime discriminants; the
    # scalar symbol, by reciprocity, is the oracle over one period and the
    # start of the next, and a table shorter than the period is its prefix
    for d in SIGNED_FUNDAMENTALS:
        N = abs(d) + 8
        want = [kronecker(d, n) for n in range(N + 1)]
        table = arith.kronecker_table(d, N)
        assert table.dtype == np.int64 and table.tolist() == want, d
        assert arith.kronecker_table(d, abs(d) // 2).tolist() == want[: abs(d) // 2 + 1], d


def test_prime_discriminants_multiply_to_d():
    assert arith.prime_discriminants(1) == []
    assert arith.prime_discriminants(-4) == [-4]
    assert arith.prime_discriminants(-420) == [-3, 5, -7, -4]
    assert arith.prime_discriminants(-3 * 5 * 8) == [-3, 5, 8]
    for d in SIGNED_FUNDAMENTALS:
        primes = arith.prime_discriminants(d)
        assert math.prod(primes) == d, d
        assert all(is_fundamental_discriminant(p) and p != 1 for p in primes), d


def test_kronecker_table_rejects_non_fundamental():
    for d in (0, -12, 2, 9, 20):
        with pytest.raises(ValueError):
            arith.kronecker_table(d, 10)


# ---------------------------------------------------------------------------
# Dirichlet convolution


@pytest.mark.parametrize("L", [1, 2, 3, 4, 7, 12, 97, 300, 360, 1 << 16])
def test_dirichlet_convolution_matches_brute_force(L):
    # perfect squares (up to 2^16 = 256^2) and their neighbours sit on the
    # isqrt(L) row boundary
    rng = np.random.default_rng(L)
    t1, t2 = rng.integers(-3, 4, size=(2, L + 1))
    conv = arith.dirichlet_convolve(t1, t2)
    assert conv.dtype == np.int64
    # every pair k j <= L, with no hyperbola split
    a, b = t1.tolist(), t2.tolist()
    want = [0] * (L + 1)
    for k in range(1, L + 1):
        for j in range(1, L // k + 1):
            want[k * j] += a[k] * b[j]
    assert conv.tolist() == want
    # one column per sequence, and narrow dtypes that hold every value
    cols = arith.dirichlet_convolve(np.stack([t1, t2], axis=1), np.stack([t2, t1], axis=1))
    assert cols.dtype == np.int64 and cols.T.tolist() == [want, want]
    narrow = arith.dirichlet_convolve(t1.astype(np.int8), t2.astype(np.int8), dtype=np.int16)
    assert narrow.dtype == np.int16 and narrow.tolist() == want


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
    assert np.count_nonzero(sieve_10k.flags[:101]) == 25
    assert sieve_10k.primes[:5].tolist() == [2, 3, 5, 7, 11]
    assert sieve_10k.primes.tolist() == _primes_trial(10_000)


@pytest.mark.parametrize("limit", [2, 3, 4, 97, 1000, 1024, 1025])
def test_sieve_primes_match_trial_division(limit):
    s = build_sieve(limit)
    assert s.limit == limit and s.flags.size == limit + 1
    assert s.primes.dtype == np.int64
    assert s.primes.tolist() == _primes_trial(limit)
    assert np.flatnonzero(s.flags).tolist() == _primes_trial(limit)


def test_sieve_tables_are_read_only():
    s = build_sieve(100)
    for arr in (s.flags, s.primes):
        with pytest.raises(ValueError, match="read-only"):
            arr[4] = 1
    assert s.primes is s.primes  # derived once, on first use


def test_sieve_memory_is_one_byte_per_entry():
    X = 10**7
    tracemalloc.start()
    try:
        build_sieve(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X + 2**20, peak


def test_sieve_mangoldt():
    # the support of Lambda: 8 = 2^3 and 97 carry log p, 1 and 6 nothing
    ns, logs = prime_power_table(100)
    lam = dict(zip(ns.tolist(), logs.tolist()))
    assert 6 not in lam and 1 not in lam
    assert lam[8] == math.log(2)
    assert lam[97] == math.log(97)


PRIMES_2K = set(_primes_trial(2000))


def test_sieve_factor_tau_mu():
    for n in range(1, 2001):
        fac = arith.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(p < q for (p, _), (q, _) in zip(fac, fac[1:]))
        assert all(e >= 1 and p in PRIMES_2K for p, e in fac)
        tau_brute = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(arith.divisors(n)) == tau_brute


def test_sieve_rejects_bad_input():
    with pytest.raises(ValueError):
        build_sieve(1)
    s = build_sieve(100)
    with pytest.raises(ValueError, match="beyond sieve limit"):
        pi_repr_all(101, class_group(-23), s)


def test_prime_power_table():
    # reachable from discrepancy_E_k with int(X) < 2, negative X included
    for limit in (-5, -1, 0, 1):
        assert arith._small_primes(limit).size == 0
        ns, logs = prime_power_table(limit)
        assert ns.size == 0 and logs.size == 0
    assert prime_power_table(2)[0].tolist() == [2]
    ns, logs = prime_power_table(1000)
    assert ns.tolist() == [n for n in range(2, 1001) if len(arith.factorize(n)) == 1]
    for n, lg in zip(ns.tolist(), logs.tolist()):
        [(p, _)] = arith.factorize(n)
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


# ---------------------------------------------------------------------------
# runs


def test_runs_cut_before_the_item_that_passes_the_budget():
    cost = {"a": 3, "b": 4, "c": 9, "d": 2, "e": 6}.__getitem__
    # b fits exactly (3 + 4 = 7); c costs more than the budget and is a run
    # alone; d and e would pass it together
    assert list(arith.runs("abcde", cost, 7)) == [["a", "b"], ["c"], ["d"], ["e"]]
    assert list(arith.runs([], cost, 7)) == []
    assert list(arith.runs(iter(["c", "c"]), cost, 7)) == [["c"], ["c"]]


@given(st.lists(st.integers(0, 20)), st.integers(1, 30))
def test_runs_concatenate_back_to_the_input(costs, budget):
    items = list(enumerate(costs))
    got = list(arith.runs(iter(items), lambda item: item[1], budget))
    assert [item for run in got for item in run] == items
    for run in got:
        assert run and (len(run) == 1 or sum(c for _, c in run) <= budget)
