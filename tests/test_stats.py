import functools
import json
import math
import tracemalloc
import unittest.mock

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qforms import arith, stats
from qforms.arith import classify_discriminant, fundamental_discriminants, kronecker
from qforms.characters import build_w_table, characters
from qforms.forms import class_group, representation_count, represented_mask
from qforms.stats import (
    StatConfig,
    bdh_statistic,
    bv_statistic,
    discrepancy_E_k,
    divisor_frequency,
    is_exceptional,
    least_prime,
    least_prime_x2ny2,
    li,
    pi_repr,
    psi_k,
    psi_k_chi,
    scan_exceptional_x2ny2,
    singular_series,
)


# ---------------------------------------------------------------------------
# li


def test_li_edge_and_errors():
    assert li(2.0) == 0.0
    with pytest.raises(ValueError):
        li(1.5)


def test_li_against_independent_quadrature():
    for x in (10.0, 100.0, 12345.0):
        oracle = float(mpmath.li(x) - mpmath.li(2))
        assert li(x) == pytest.approx(oracle, abs=1e-8)


def test_li_sanity_gate_against_prime_count(sieve_1m):
    # |li(1e6) - pi(1e6)| stays within 3 sqrt(1e6)
    assert abs(li(1e6) - sieve_1m.prime_count(10**6)) <= 3 * math.sqrt(10**6)


@given(st.floats(min_value=2.0, max_value=1e5))
def test_li_monotone(x):
    assert li(x + 1.0) > li(x) >= 0.0


# ---------------------------------------------------------------------------
# pi_repr and psi


def test_pi_repr_examples(sieve_10k):
    g4 = class_group(-4)
    assert pi_repr(10, g4, 0, sieve_10k) == 2  # 2 and 5
    g23 = class_group(-23)
    assert pi_repr(23, g23, g23.principal_index, sieve_10k) == 1
    assert pi_repr(1, g23, 0, sieve_10k) == 0


def test_pi_repr_against_per_prime_recount(sieve_10k):
    for q in (-15, -23, -84):
        group = class_group(q)
        for c, f in enumerate(group.classes):
            slow = sum(
                1
                for p in sieve_10k.primes[sieve_10k.primes <= 500].tolist()
                if representation_count(f, p) > 0
            )
            assert pi_repr(500, group, c, sieve_10k) == slow


def test_pi_repr_all_equal_on_inverse_classes(sieve_1m):
    # pi_repr_all shares one mask per inverse pair; each class's own mask
    # must give the same count
    X = 200_000
    ps = sieve_1m.primes[sieve_1m.primes <= X]
    for q in arith.fundamental_discriminants(200):
        group = class_group(q)
        pis = stats.pi_repr_all(X, group, sieve_1m)
        for i, f in enumerate(group.classes):
            assert pis[i] == pis[group.inverse(i)], (q.q, i)
            assert pis[i] == np.count_nonzero(represented_mask(f, X)[ps]), (q.q, i)


def test_psi_trivial_cases():
    g = class_group(-23)
    table = build_w_table(g, 100)
    assert psi_k(1.5, g, 0, 0, table) == 0.0
    with pytest.raises(ValueError):
        psi_k(101, g, 0, 0, table)


def test_psi_example_minus4():
    g4 = class_group(-4)
    table = build_w_table(g4, 10)
    got = psi_k(5, g4, 0, 0, table)
    assert got == pytest.approx(2 * math.log(2) + 2 * math.log(5), abs=1e-12)


def test_psi_brute_force_oracle(sieve_10k):
    g3 = class_group(-3)
    table = build_w_table(g3, 100)
    got = psi_k(100, g3, 0, 2, table)
    brute = 0.0
    for n in range(2, 101):
        pe = sieve_10k.mangoldt_pair(n)
        if pe is None:
            continue
        brute += math.log(pe[0]) * math.log(100 / n) ** 2 * table.w[0, n]
    assert got == pytest.approx(brute / 2, rel=1e-12)


def test_psi_character_decomposition():
    # psi_k(Y;q,C) = (1/h) sum_chi conj(chi(C)) psi_k(Y;q,chi) across the
    # whole family to 100, k in {0, 2}, Y up to 1e4
    for q in fundamental_discriminants(100):
        group = class_group(q)
        table = build_w_table(group, 10_000)
        chars = characters(group)
        for k in (0, 2):
            for y in (50.0, 997.0, 9999.0):
                by_char = [psi_k_chi(y, c, k, table) for c in chars]
                for ci in range(group.h):
                    direct = psi_k(y, group, ci, k, table)
                    mixed = (
                        sum(
                            np.conj(c.values[ci]) * v
                            for c, v in zip(chars, by_char)
                        )
                        / group.h
                    )
                    assert abs(mixed.imag) < 1e-6 * max(1.0, abs(direct))
                    assert mixed.real == pytest.approx(
                        direct, rel=1e-6, abs=1e-6
                    )


# ---------------------------------------------------------------------------
# E_k


def test_discrepancy_zero_for_trivial_groups():
    for q in (-3, -4, -7, -11, -19, -43, -67, -163):
        group = class_group(q)
        table = build_w_table(group, 2000)
        for k in (0, 1, 2):
            assert discrepancy_E_k(2000, group, k, table) == 0.0


def test_discrepancy_dense_grid_oracle():
    group = class_group(-23)
    table = build_w_table(group, 2000)
    cfg = StatConfig(y_grid_count=2000)
    got = discrepancy_E_k(2000, group, 2, table, cfg)
    # independent direct summation on the same dense grid
    best = 0.0
    ns, logs = arith.prime_power_table(2000)
    for j in range(1, 2001):
        y = 2000 * j / 2000
        vals = []
        for ci in range(group.h):
            acc = 0.0
            for n, lg in zip(ns.tolist(), logs.tolist()):
                if n <= y:
                    acc += lg * math.log(y / n) ** 2 * table.w[ci, n]
            vals.append(acc / 2)
        mean = sum(vals) / len(vals)
        best = max(best, max(abs(v - mean) for v in vals))
    assert got == pytest.approx(best, rel=1e-12)


def test_discrepancy_k0_jump_points_dominate_grid():
    # with jump points included, refining the uniform grid changes nothing
    group = class_group(-47)
    table = build_w_table(group, 1500)
    coarse = discrepancy_E_k(1500, group, 0, table, StatConfig(y_grid_count=4))
    fine = discrepancy_E_k(1500, group, 0, table, StatConfig(y_grid_count=512))
    assert coarse == pytest.approx(fine, rel=1e-12)


def _E_k_per_y(X, group, k, table, cfg=StatConfig()):
    """Slow-path reference: the per-Y loop discrepancy_E_k replaced."""
    if X > table.N:
        raise ValueError("X beyond table limit")
    if group.h == 1:
        return 0.0
    ns, logs = arith.prime_power_table(int(min(X, table.N)))
    wsub = table.w[:, ns].astype(np.float64)
    grid = X * np.arange(1, cfg.y_grid_count + 1) / cfg.y_grid_count
    if k == 0:
        grid = np.union1d(grid, ns[ns <= X].astype(np.float64))
    kfact = math.factorial(k)
    best = 0.0
    for y in grid:
        if y < 2:
            continue
        m = int(np.searchsorted(ns, y, side="right"))
        t = logs[:m] * np.log(y / ns[:m]) ** k
        vals = wsub[:, :m] @ t / kfact
        best = max(best, float(np.abs(vals - vals.mean()).max()))
    return best


_E_K_N = 2000
_E_K_FAMILY = [
    q.q for q in fundamental_discriminants(300) if class_group(q).h > 1
]


@functools.lru_cache(maxsize=None)
def _group_and_table(q, N=_E_K_N):
    group = class_group(q)
    return group, build_w_table(group, N)


@given(
    st.sampled_from(_E_K_FAMILY),
    st.sampled_from((0, 1, 2, 3)),
    st.sampled_from((1, 4, 64, 2000)),
    st.floats(min_value=0.0, max_value=_E_K_N),
    st.sampled_from((None, 1, 2, 4)),
)
def test_discrepancy_matches_per_y_loop(q, k, grid_count, X, chunk_columns):
    group, table = _group_and_table(q)
    cfg = StatConfig(y_grid_count=grid_count)
    chunk_terms = stats._GRID_CHUNK_TERMS
    if chunk_columns is not None:
        # grid chunks of a few columns, so every chunk boundary is crossed
        chunk_terms = chunk_columns * arith.prime_power_table(int(X))[0].size
    with unittest.mock.patch.object(stats, "_GRID_CHUNK_TERMS", chunk_terms):
        got = discrepancy_E_k(X, group, k, table, cfg)
    assert got == pytest.approx(_E_k_per_y(X, group, k, table, cfg), rel=1e-12)


def test_discrepancy_edge_cases_match_per_y_loop():
    group, table = _group_and_table(-47)
    for X in (-1, 0, 1, 1.5):
        for k in (0, 1, 2):
            assert discrepancy_E_k(X, group, k, table) == 0.0
            assert _E_k_per_y(X, group, k, table) == 0.0
    for X in (1500.5, 2.0, 2.5, 1000, _E_K_N):
        for k in (0, 1, 3):
            want = _E_k_per_y(X, group, k, table)
            assert discrepancy_E_k(X, group, k, table) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        discrepancy_E_k(1000, group, -1, table)
    with pytest.raises(ValueError, match="table limit"):
        discrepancy_E_k(_E_K_N + 0.5, group, 0, table)


def test_discrepancy_k0_maximum_on_last_prime_power():
    # X is a prime power at which |psi_0 - class average| sets a strict
    # record, so a prefix sum that stops one jump early must fail
    group, table = _group_and_table(-71)
    ns, logs = arith.prime_power_table(_E_K_N)
    record, last_record = 0.0, None
    pairs = list(zip(ns.tolist(), logs.tolist()))
    for j in range(ns.size):
        vals = [
            math.fsum(lg * table.w[c, n] for n, lg in pairs[: j + 1])
            for c in range(group.h)
        ]
        mean = math.fsum(vals) / group.h
        dev = max(abs(v - mean) for v in vals)
        if dev > record * (1 + 1e-9):
            record, last_record = dev, int(ns[j])
    assert last_record is not None
    got = discrepancy_E_k(last_record, group, 0, table)
    assert got == pytest.approx(record, rel=1e-12)
    before = discrepancy_E_k(last_record - 0.5, group, 0, table)
    assert before < record * (1 - 1e-9)


def test_discrepancy_memory_is_chunked():
    group = class_group(-71)
    table = build_w_table(group, 200_000)
    P = arith.prime_power_table(200_000)[0].size
    tracemalloc.start()
    try:
        discrepancy_E_k(2e5, group, 1, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * group.h * P * 8 + 8 * 2**20


# ---------------------------------------------------------------------------
# family scans


def test_bv_empty_family(sieve_10k):
    report = bv_statistic(2, 1000, sieve_10k)
    assert report.rows == [] and report.aggregate == 0.0
    bdh = bdh_statistic(2, 1000, sieve_10k)
    assert bdh.rows == [] and bdh.aggregate == 0.0


def test_bv_single_discriminant(sieve_10k):
    report = bv_statistic(3, 10_000, sieve_10k)
    assert len(report.rows) == 1
    row = report.rows[0]
    g3 = class_group(-3)
    expected = abs(pi_repr(10_000, g3, 0, sieve_10k) - li(10_000.0) / 2)
    assert row.q == -3 and row.h == 1 and row.e_max == 2
    assert row.value == pytest.approx(expected, rel=1e-15)


def test_bdh_single_discriminant(sieve_10k):
    report = bdh_statistic(3, 10_000, sieve_10k)
    row = report.rows[0]
    g3 = class_group(-3)
    dev = pi_repr(10_000, g3, 0, sieve_10k) - li(10_000.0) / 2
    assert row.value == pytest.approx(dev * dev, rel=1e-15)
    assert report.aggregate >= max(r.value for r in report.rows)


def test_scan_against_slow_recount(sieve_10k):
    report = bv_statistic(50, 10_000, sieve_10k)
    li_x = li(10_000.0)
    for row in report.rows:
        group = class_group(classify_discriminant(row.q))
        slow = 0.0
        for ci, f in enumerate(group.classes):
            count = sum(
                1
                for p in sieve_10k.primes.tolist()
                if representation_count(f, p) > 0
            )
            slow = max(slow, abs(count - li_x / (group.e[ci] * group.h)))
        assert row.value == pytest.approx(slow, rel=1e-12)


def test_scans_monotone_in_Q(sieve_10k):
    x = 5000
    bv_values = [bv_statistic(q, x, sieve_10k).aggregate for q in (10, 30, 60, 100)]
    assert all(a <= b for a, b in zip(bv_values, bv_values[1:]))
    bdh_values = [bdh_statistic(q, x, sieve_10k).aggregate for q in (10, 30, 60, 100)]
    assert all(a <= b for a, b in zip(bdh_values, bdh_values[1:]))


def test_scan_threads_do_not_change_values(sieve_10k):
    a = bv_statistic(80, 5000, sieve_10k, threads=1)
    b = bv_statistic(80, 5000, sieve_10k, threads=4)
    assert a.to_json() == b.to_json()


def test_report_serialization_roundtrip(sieve_10k):
    report = bv_statistic(30, 5000, sieve_10k)
    parsed = json.loads(report.to_json())
    assert parsed["meta"]["Q"] == 30.0
    assert len(parsed["rows"]) == len(report.rows)
    csv = report.to_csv().splitlines()
    assert csv[0] == "q,h,e_max,value,exceptional"
    assert len(csv) == 1 + len(report.rows)
    # byte-identical rerun
    again = bv_statistic(30, 5000, sieve_10k)
    assert report.to_json() == again.to_json()


# ---------------------------------------------------------------------------
# exceptional flags and divisor frequency


def test_exceptional_examples():
    g4 = class_group(-4)
    assert not is_exceptional(g4.q, g4, StatConfig(c3=20.0))
    # raising c3 never turns non-exceptional into exceptional
    for q in (-4, -23, -163):
        group = class_group(q)
        flags = [
            is_exceptional(group.q, group, StatConfig(c3=c))
            for c in (0.5, 1.0, 5.0, 20.0)
        ]
        assert flags == sorted(flags, reverse=True)


def test_no_exceptional_discriminants_at_default_c3():
    from qforms.forms import class_number

    c3 = 20.0
    for q in fundamental_discriminants(10_000):
        h = class_number(q.abs_q)
        assert math.sqrt(q.abs_q) / math.log(q.abs_q) <= c3 * h, q.q


def test_divisor_frequency_trivia():
    assert divisor_frequency([], 100) == 0.0
    assert divisor_frequency([classify_discriminant(-23)], 100) == 0.0
    # negative prime discriminants share no nontrivial fundamental divisor
    primes_family = [
        d
        for d in fundamental_discriminants(200)
        if arith.factorize(d.abs_q) == [(d.abs_q, 1)]
    ]
    assert divisor_frequency(primes_family, 200) == 0.0


def test_divisor_frequency_full_family_against_brute():
    q_top = 200
    family = fundamental_discriminants(q_top)
    got = divisor_frequency(family, q_top)
    # independent recount: for every candidate fundamental q', count members
    # it divides by direct divisibility
    best = 0
    for cand in range(-q_top, q_top + 1):
        if cand in (0, 1, -1) or not arith.is_fundamental_discriminant(cand):
            continue
        count = sum(1 for d in family if d.q % cand == 0)
        best = max(best, count)
    expected = math.log(best) / math.log(q_top)
    assert 0.0 < got <= 1.0
    assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# least primes


def test_least_prime_examples():
    from qforms.forms import QuadForm

    g4 = class_group(-4)
    assert least_prime(g4, 0).prime == 2
    g23 = class_group(-23)
    assert least_prime(g23, g23.class_index(QuadForm(2, 1, 3))).prime == 2
    assert least_prime(g23, 0).prime == 23


def test_least_prime_attained(sieve_10k):
    for q in (-23, -47, -84, -163):
        group = class_group(q)
        for c in range(group.h):
            res = least_prime(group, c)
            assert res.status == "found"
            f = group.classes[c]
            assert representation_count(f, res.prime) > 0
            for p in sieve_10k.primes[sieve_10k.primes < res.prime].tolist():
                assert representation_count(f, p) == 0


def test_least_prime_cap():
    g23 = class_group(-23)
    res = least_prime(g23, 0, cap=3)
    assert res.status == "unresolved" and res.prime is None


def test_x2ny2_examples():
    r1 = least_prime_x2ny2(1)
    assert (r1.prime, r1.x, r1.y_min) == (2, 1, 1)
    r2 = least_prime_x2ny2(2)
    assert (r2.prime, r2.x, r2.y_min) == (3, 1, 1)
    r5 = least_prime_x2ny2(5)
    assert (r5.prime, r5.x, r5.y_min) == (29, 3, 2)
    with pytest.raises(ValueError):
        least_prime_x2ny2(0)


def test_x2ny2_scan_small():
    assert scan_exceptional_x2ny2(4) == []
    assert [n for n, _, _ in scan_exceptional_x2ny2(100)] == [5, 41, 59]


def test_singular_series():
    assert singular_series(7, 2) == 1.0
    assert singular_series(1, 3) == pytest.approx(1.5, abs=0)
    assert singular_series(1, 5) == pytest.approx(1.125, abs=0)
    with pytest.raises(ValueError):
        singular_series(12, 100)
    for n in (1, 2, 3, 5, 41):
        assert singular_series(n, 10_000) > 0.0


def test_singular_series_factor_oracle():
    # each factor uses (-n/p) = #{m^2 = -n mod p} - 1 for odd p not dividing n
    n, cutoff = 5, 100
    expected = 1.0
    for p in arith._small_primes(cutoff).tolist():
        if p == 2:
            continue
        if n % p == 0:
            sym = 0
        else:
            sym = sum(1 for m in range(p) if (m * m + n) % p == 0) - 1
        expected *= 1 - sym / (p - 1)
    assert singular_series(n, cutoff) == pytest.approx(expected, rel=1e-15)
