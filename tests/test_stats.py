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

from qforms import arith, forms, stats
from qforms.arith import classify_discriminant, fundamental_discriminants, kronecker
from qforms.characters import build_w_table, characters, w_units
from qforms.forms import class_group, representation_count, represented_mask
from qforms.stats import (
    LeastPrimeResult,
    StatConfig,
    bdh_statistic,
    bv_statistic,
    discrepancy_E_k,
    is_exceptional,
    least_prime_x2ny2,
    least_primes,
    li,
    pi_repr_all,
    scan_exceptional_x2ny2,
    singular_series,
)

from oracles import psi_k, psi_k_chi


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
    assert abs(li(1e6) - sieve_1m.primes.size) <= 3 * math.sqrt(10**6)


@given(st.floats(min_value=2.0, max_value=1e5))
def test_li_monotone(x):
    assert li(x + 1.0) > li(x) >= 0.0


# ---------------------------------------------------------------------------
# pi_repr_all and psi


def test_pi_repr_examples(sieve_10k):
    g4 = class_group(-4)
    assert pi_repr_all(10, g4, sieve_10k)[0] == 2  # 2 and 5
    g23 = class_group(-23)
    assert pi_repr_all(23, g23, sieve_10k)[g23.principal_index] == 1
    assert pi_repr_all(1, g23, sieve_10k)[0] == 0


def test_pi_repr_against_per_prime_recount(sieve_10k):
    for q in (-15, -23, -84):
        group = class_group(q)
        for c, f in enumerate(group.classes):
            slow = sum(
                1
                for p in sieve_10k.primes[sieve_10k.primes <= 500].tolist()
                if representation_count(f, p) > 0
            )
            assert pi_repr_all(500, group, sieve_10k)[c] == slow


def test_pi_repr_all_equal_on_inverse_classes(sieve_1m):
    # pi_repr_all counts once per inverse pair; each class's own mask must
    # give the same count
    X = 200_000
    ps = sieve_1m.primes[sieve_1m.primes <= X]
    for q in arith.fundamental_discriminants(200):
        group = class_group(q)
        pis = stats.pi_repr_all(X, group, sieve_1m)
        for i, f in enumerate(group.classes):
            assert pis[i] == pis[group.inverse(i)], (q.q, i)
            assert pis[i] == np.count_nonzero(represented_mask(f, X)[ps]), (q.q, i)


def _pi_by_mask(xs, group, sieve):
    """pi(X; q, C) for each X in xs by scattering each inverse pair's values
    into one mask up to max(xs) and gathering it at every prime: the slow
    path the coprime-to-6 gather replaced.  Row k holds the counts at xs[k]."""
    limit = int(max(xs))
    ps = sieve.primes[: np.searchsorted(sieve.primes, limit, side="right")]
    ends = np.searchsorted(ps, [int(X) for X in xs], side="right")
    rows = {}
    out = np.zeros((len(xs), group.h), dtype=np.int64)
    for i, f in enumerate(group.classes):
        key = (f.a, abs(f.b), f.c)
        if key not in rows:
            hits = np.cumsum(represented_mask(f, max(limit, 1))[ps])
            rows[key] = np.r_[0, hits][ends]
        out[:, i] = rows[key]
    return out


def _pi_matches_mask(groups, xs, sieve):
    """Whether pi_repr_all agrees with the mask path at every X in xs; an
    ArithmeticError from pi_repr_all's divisibility checks is a mismatch."""
    try:
        return all(
            np.array_equal([stats.pi_repr_all(X, g, sieve) for X in xs], _pi_by_mask(xs, g, sieve))
            for g in groups
        )
    except ArithmeticError:
        return False


_SMALL_XS = (2, 3, 4, 5, 6, 7, 8, 13, 30, 1000)


@functools.lru_cache(maxsize=1)
def _groups_3000():
    # every fundamental discriminant, mod 8 included: 3 | q and 4 | q, and
    # q = -3 and -4 with u = w/2 = 3 and 2 ideals' worth of points per prime
    qs = [d for d in range(-3, -3001, -1) if arith.is_fundamental_discriminant(d)]
    return [class_group(q) for q in qs]


def test_pi_repr_all_matches_mask_path(sieve_1m):
    groups = _groups_3000()
    assert {int(g.q) for g in groups[:2]} == {-3, -4}
    assert any(int(g.q) % 3 == 0 for g in groups) and any(int(g.q) % 8 == 0 for g in groups)
    assert _pi_matches_mask(groups, _SMALL_XS, sieve_1m)
    # at X = 1e5 the values of the smallest forms fill several chunks
    assert _pi_matches_mask(groups[:250], (100_000,), sieve_1m)


def test_pi_mask_oracle_fires_on_planted_faults(sieve_1m, monkeypatch, pair_off_by_one):
    groups = [g for g in _groups_3000() if abs(int(g.q)) <= 300]
    xs = (3, 30, 1000)
    assert _pi_matches_mask(groups, xs, sieve_1m)
    real_residues = forms._coprime_residues

    def first_residue_dropped(abc, M):
        allowed = real_residues(abc, M)
        allowed[tuple(np.argwhere(allowed)[0])] = False
        return allowed

    with monkeypatch.context() as patch:
        patch.setattr(forms, "_coprime_residues", first_residue_dropped)
        assert not _pi_matches_mask(groups, xs, sieve_1m)
    with monkeypatch.context() as patch:
        patch.setattr(stats, "_small_primes_represented", lambda f, limit: [])
        assert not _pi_matches_mask(groups, xs, sieve_1m)
    with monkeypatch.context() as patch:
        patch.setattr(forms.FormClassGroup, "pairs", pair_off_by_one)
        assert not _pi_matches_mask(groups, xs, sieve_1m)


def _identity_holds(groups, xs, sieve):
    """Whether average_identity_gap closes for every group at every X; an
    ArithmeticError from pi_repr_all's checks is a failure."""
    try:
        return all(
            lhs == rhs
            for g in groups
            for lhs, rhs in (stats.average_identity_gap(g, X, sieve) for X in xs)
        )
    except ArithmeticError:
        return False


def test_average_identity_over_the_wedge(sieve_1m):
    # every ambiguous class of |q| <= 3000 is counted on its wedge plus its
    # fixed-line primes
    assert _identity_holds(_groups_3000(), (10, 1000, 100_000), sieve_1m)


def test_average_identity_fires_on_planted_wedge_faults(sieve_1m, monkeypatch, wedge_faults):
    groups = [g for g in _groups_3000() if abs(int(g.q)) <= 300]
    xs = (1000,)
    assert _identity_holds(groups, xs, sieve_1m)
    for fault in wedge_faults:
        with monkeypatch.context() as patch:
            patch.setattr(forms, "_wedge_rows", fault)
            assert not _identity_holds(groups, xs, sieve_1m)
            assert not _pi_matches_mask(groups, xs, sieve_1m)


def _block_identity_holds(groups, xs, sieve, monkeypatch):
    """Whether average_identity_gap closes for every group at every X, with
    pi_repr_all reading each group's counts from one _pi_repr_block over all
    the groups; an ArithmeticError from its checks is a failure."""
    try:
        for X in xs:
            counts = dict(zip(map(id, groups), stats._pi_repr_block(X, groups, sieve)))
            with monkeypatch.context() as patch:
                patch.setattr(stats, "pi_repr_all", lambda X, group, sieve: counts[id(group)])
                gaps = [stats.average_identity_gap(g, X, sieve) for g in groups]
            if any(lhs != rhs for lhs, rhs in gaps):
                return False
        return True
    except ArithmeticError:
        return False


def test_oracles_fire_on_a_form_boundary_off_by_one(sieve_1m, monkeypatch):
    # one block of the 91 groups of |q| <= 300: its chunks hold forms of
    # several q, and each group's own chunk holds all of its forms
    groups = [g for g in _groups_3000() if abs(int(g.q)) <= 300]
    xs = (1000,)
    assert _pi_matches_mask(groups, xs, sieve_1m)
    assert _block_identity_holds(groups, xs, sieve_1m, monkeypatch)
    real = stats._half_lattice_values

    def boundary_off_by_one(*args, **kwargs):
        # in each chunk of several forms, the second form's first sub-row
        # starts one point late
        for vals, k, cnt in real(*args, **kwargs):
            if k[0] != k[-1]:
                cnt = cnt.copy()
                last = np.flatnonzero(k[1:] != k[:-1])[0]
                cnt[last] += 1
                cnt[last + 1] -= 1
            yield vals, k, cnt

    monkeypatch.setattr(stats, "_half_lattice_values", boundary_off_by_one)
    assert not _pi_matches_mask(groups, xs, sieve_1m)
    assert not _block_identity_holds(groups, xs, sieve_1m, monkeypatch)


@given(
    picks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0)),
        min_size=1,
        max_size=12,
    ),
    limit=st.integers(min_value=1, max_value=20_000),
    chunk=st.sampled_from([64, forms._CHUNK]),
)
def test_prime_hits_of_mixed_batches_match_masks(sieve_1m, picks, limit, chunk):
    # reduced forms of several discriminants, ambiguous (walked on the wedge)
    # and not, in one pass; a split prime p >= 5 that a form represents lies
    # on u = w(q)/2 points of its half lattice if the form is not ambiguous
    # and of its wedge if it is, and a ramified one on none
    groups = _groups_3000()
    picked = [(g := groups[i % len(groups)], g.classes[j % g.h]) for i, j in picks]
    assert all(f.is_reduced for _, f in picked)
    with unittest.mock.patch.object(forms, "_CHUNK", chunk):
        hits = stats._prime_hits([f for _, f in picked], limit, sieve_1m.flags)
    ps = sieve_1m.primes[(sieve_1m.primes >= 5) & (sieve_1m.primes <= limit)]
    for (g, f), got in zip(picked, hits.tolist()):
        split = represented_mask(f, max(limit, 1))[ps] & (int(g.q) % ps != 0)
        assert got == w_units(g.q) // 2 * np.count_nonzero(split), (int(g.q), tuple(f), limit)


def test_pi_repr_all_checks_fixed_line_primes_against_ramified(
    sieve_10k, monkeypatch, swapped_fixed_line_values
):
    # x^2 + 6 y^2 (q = -24): the fault counts 23 = 4 * 6 - 1, though no
    # prime p >= 5 divides 24
    g24 = class_group(-24)
    assert stats.pi_repr_all(1000, g24, sieve_10k).tolist() == [
        int(np.count_nonzero(represented_mask(f, 1000)[sieve_10k.primes[sieve_10k.primes <= 1000]]))
        for f in g24.classes
    ]
    monkeypatch.setattr(stats, "_fixed_line_values", swapped_fixed_line_values)
    with pytest.raises(ArithmeticError, match="fixed-line primes"):
        stats.pi_repr_all(1000, g24, sieve_10k)


def test_pi_repr_all_refuses_a_fractional_ideal_count(sieve_10k, monkeypatch):
    # a kernel that visits the y = 1 row twice puts 7 = 2^2 + 2 + 1 on 7
    # half-lattice points of x^2 + xy + y^2 instead of 6, which u = 3 does
    # not divide
    g3 = class_group(-3)
    real = forms._half_rows

    def y1_row_twice(abc, limit):
        return tuple(np.r_[col, col[1:2]] for col in real(abc, limit))

    monkeypatch.setattr(forms, "_half_rows", y1_row_twice)
    with pytest.raises(ArithmeticError, match="whole number of ideals"):
        stats.pi_repr_all(1000, g3, sieve_10k)


def test_psi_trivial_cases():
    g = class_group(-23)
    table = build_w_table(g, 100)
    assert psi_k(1.5, 0, 0, table) == 0.0
    with pytest.raises(ValueError):
        psi_k(101, 0, 0, table)


def test_psi_example_minus4():
    g4 = class_group(-4)
    table = build_w_table(g4, 10)
    got = psi_k(5, 0, 0, table)
    assert got == pytest.approx(2 * math.log(2) + 2 * math.log(5), abs=1e-12)


def test_psi_brute_force_oracle():
    g3 = class_group(-3)
    table = build_w_table(g3, 100)
    got = psi_k(100, 0, 2, table)
    brute = 0.0
    for n in range(2, 101):
        fac = arith.factorize(n)
        if len(fac) != 1:
            continue
        brute += math.log(fac[0][0]) * math.log(100 / n) ** 2 * table.w[0, n]
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
                    direct = psi_k(y, ci, k, table)
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
    with unittest.mock.patch.object(stats, "_Y_GRID_COUNT", 2000):
        got = discrepancy_E_k(2000, group, 2, table)
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
    with unittest.mock.patch.object(stats, "_Y_GRID_COUNT", 4):
        coarse = discrepancy_E_k(1500, group, 0, table)
    with unittest.mock.patch.object(stats, "_Y_GRID_COUNT", 512):
        fine = discrepancy_E_k(1500, group, 0, table)
    assert coarse == pytest.approx(fine, rel=1e-12)


def _E_k_per_y(X, group, k, table, grid_count=stats._Y_GRID_COUNT):
    """Slow-path reference: the per-Y loop discrepancy_E_k replaced."""
    if X > table.N:
        raise ValueError("X beyond table limit")
    if group.h == 1:
        return 0.0
    ns, logs = arith.prime_power_table(int(min(X, table.N)))
    wsub = table.w[:, ns].astype(np.float64)
    grid = X * np.arange(1, grid_count + 1) / grid_count
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
    chunk_terms = stats._GRID_CHUNK_TERMS
    if chunk_columns is not None:
        # grid chunks of a few columns, so every chunk boundary is crossed
        chunk_terms = chunk_columns * arith.prime_power_table(int(X))[0].size
    with (
        unittest.mock.patch.object(stats, "_GRID_CHUNK_TERMS", chunk_terms),
        unittest.mock.patch.object(stats, "_Y_GRID_COUNT", grid_count),
    ):
        got = discrepancy_E_k(X, group, k, table)
    assert got == pytest.approx(_E_k_per_y(X, group, k, table, grid_count), rel=1e-12)


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
    expected = abs(pi_repr_all(10_000, g3, sieve_10k)[0] - li(10_000.0) / 2)
    assert row.q == -3 and row.h == 1 and row.e_max == 2
    assert row.value == pytest.approx(expected, rel=1e-15)


def test_bdh_single_discriminant(sieve_10k):
    report = bdh_statistic(3, 10_000, sieve_10k)
    row = report.rows[0]
    g3 = class_group(-3)
    dev = pi_repr_all(10_000, g3, sieve_10k)[0] - li(10_000.0) / 2
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


def test_scan_memory_is_one_shared_flag_table():
    # two threads gather from the sieve's own read-only flags, built before
    # tracing starts; a copy of them (X bytes) or a mask per thread and per
    # pair of classes (about 11.3 MB here) does not fit the bound
    X = 4_000_000
    sieve = arith.build_sieve(X)
    tracemalloc.start()
    try:
        bv_statistic(30, X, sieve, threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20 < X, peak


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


@pytest.mark.parametrize("statistic", [bv_statistic, bdh_statistic])
def test_scan_rows_do_not_depend_on_blocks_chunks_or_threads(sieve_10k, monkeypatch, statistic):
    # blocks of one q and of the whole family, with chunks of 64 points that
    # hold several forms, against the default blocks and chunks
    Q, X = 300, 10_000
    qs = fundamental_discriminants(Q)
    expected = statistic(Q, X, sieve_10k).to_json()
    assert 1 < len(list(stats._blocks(qs, X))) < len(qs)
    monkeypatch.setattr(forms, "_CHUNK", 64)
    for rows, blocks in ((1, len(qs)), (1 << 62, 1)):
        monkeypatch.setattr(stats, "_BLOCK_ROWS", rows)
        assert len(list(stats._blocks(qs, X))) == blocks
        for threads in (1, 2):
            assert statistic(Q, X, sieve_10k, threads=threads).to_json() == expected, (rows, threads)


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
    assert not is_exceptional(g4, StatConfig(c3=20.0))
    # raising c3 never turns non-exceptional into exceptional
    for q in (-4, -23, -163):
        group = class_group(q)
        flags = [
            is_exceptional(group, StatConfig(c3=c))
            for c in (0.5, 1.0, 5.0, 20.0)
        ]
        assert flags == sorted(flags, reverse=True)


@pytest.mark.parametrize("field", ["c3", "li_tol", "A"])
def test_stat_config_refuses_nan(field):
    for value in (0.0, float("nan")):
        with pytest.raises(ValueError):
            StatConfig(**{field: value})


def test_no_exceptional_discriminants_at_default_c3():
    from qforms.forms import class_number

    c3 = 20.0
    for q in fundamental_discriminants(10_000):
        h = class_number(q.abs_q)
        assert math.sqrt(q.abs_q) / math.log(q.abs_q) <= c3 * h, q.q


# ---------------------------------------------------------------------------
# least primes


def test_least_prime_examples():
    from qforms.forms import QuadForm

    g4 = class_group(-4)
    assert least_primes(g4, [0])[0].prime == 2
    g23 = class_group(-23)
    assert least_primes(g23, [g23.class_index(QuadForm(2, 1, 3))])[0].prime == 2
    assert least_primes(g23, [0])[0].prime == 23


def test_least_prime_attained(sieve_10k, monkeypatch):
    # every class of every fundamental |q| <= 500, mod 8 included; with
    # chunks of 64 lattice points the least prime is a minimum over chunks
    qs = [d for d in range(-3, -501, -1) if arith.is_fundamental_discriminant(d)]
    assert {-3, -4, -84, -163} <= set(qs)
    groups = [class_group(q) for q in qs]
    for chunk in (forms._CHUNK, 64):
        monkeypatch.setattr(forms, "_CHUNK", chunk)
        for group in groups:
            for c, f in enumerate(group.classes):
                res = least_primes(group, [c])[0]
                assert res.class_index == c and res.status == "found"
                assert representation_count(f, res.prime) > 0
                below = sieve_10k.primes[sieve_10k.primes < res.prime]
                assert not represented_mask(f, res.prime)[below].any(), (group.q.q, c, chunk)


def _least_prime_reference(group, c, cap):
    """One class at a time, each bound with its own prime table, the least
    prime read off the full represented mask."""
    f = group.classes[c]
    bound = 1 << 10
    while True:
        bound = min(bound, cap)
        primes = np.flatnonzero(arith.prime_flags(bound))
        hits = primes[represented_mask(f, bound)[primes]]
        if hits.size:
            return LeastPrimeResult(c, int(hits[0]), "found")
        if bound >= cap:
            return LeastPrimeResult(c, None, "unresolved")
        bound <<= 3


@pytest.mark.parametrize("cap", [100, 5000, stats.DEFAULT_SEARCH_CAP])
def test_least_primes_match_per_class_reference(cap):
    qs = [d for d in range(-3, -501, -1) if arith.is_fundamental_discriminant(d)]
    for q in qs:
        group = class_group(q)
        expected = [_least_prime_reference(group, c, cap) for c in range(group.h)]
        assert least_primes(group, list(range(group.h)), cap) == expected, q
        # classes out of order (for h = 1, one class twice)
        assert least_primes(group, [2 % group.h, 0], cap) == [expected[2 % group.h], expected[0]]


def test_least_prime_cli_builds_flags_once_per_bound(capsys, monkeypatch):
    from qforms.cli import main

    calls = []
    real = arith.prime_flags

    def counted(limit):
        calls.append(limit)
        return real(limit)

    monkeypatch.setattr(arith, "prime_flags", counted)
    assert main(["least-prime", "-q", "-999995", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == class_group(-999995).h == 480
    # the principal form x^2 + xy + 250000 y^2 represents no prime below
    # 250001 > 2^16, so the scan runs to the bound 2^19
    assert calls == [1 << 10, 1 << 13, 1 << 16, 1 << 19]


def test_least_prime_cap():
    g23 = class_group(-23)
    res = least_primes(g23, [0], cap=3)[0]
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


def test_x2ny2_scan_builds_flags_once_per_bound(monkeypatch):
    calls = []
    real = arith.prime_flags

    def counted(limit):
        calls.append(limit)
        return real(limit)

    monkeypatch.setattr(arith, "prime_flags", counted)
    rows = scan_exceptional_x2ny2(3000)
    # every n is searched at the shared bounds 64, 512, ...; each n's search
    # on its own gives the same answer
    assert calls == [64, 512, 4096, 32768]
    calls.clear()
    singles = [least_prime_x2ny2(n) for n in range(1, 3001)]
    assert rows == [(r.n, r.prime, r.y_min) for r in singles if r.y_min >= 2]
    assert len(calls) >= 3000


def test_x2ny2_scan_reports_the_least_n_at_its_cap():
    # 24 + x^2 <= 60 takes 25, 28, 33, 40, 49 and 60: no prime
    with pytest.raises(stats.UnresolvedSearch, match="n=24 hit cap 60"):
        scan_exceptional_x2ny2(100, cap=60)
    assert least_prime_x2ny2(24, cap=60).status == "unresolved"
    assert least_prime_x2ny2(58, cap=60) == stats.X2NY2Result(58, 59, 1, 1, "found")


def _least_x2ny2_brute(n, primes):
    """(p, x, y_min) by a double loop: the primes in ascending order, and
    for each the y >= 1 in ascending order with p - n y^2 a positive square."""
    for p in primes:
        for y in range(1, math.isqrt(p // n) + 1):
            x = math.isqrt(p - n * y * y)
            if x >= 1 and x * x == p - n * y * y:
                return p, x, y
    raise AssertionError(f"no prime x^2 + {n} y^2 below {primes[-1]}")


def test_x2ny2_matches_a_brute_force_oracle():
    # every n <= 2000 on the path of the scan, against an oracle that walks
    # no lattice: a wedge that let x = 0 in would give n = 5 the prime
    # 5 = 0^2 + 5 1^2
    primes = np.flatnonzero(arith.prime_flags(20_000)).tolist()
    ns = np.arange(1, 2001)
    got = zip(*(v.tolist() for v in stats._least_primes_x2ny2(ns, stats.DEFAULT_SEARCH_CAP)))
    assert list(got) == [_least_x2ny2_brute(n, primes) for n in ns.tolist()]


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
