import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from qforms import cli, sievelab
from qforms.arith import divisors, fundamental_discriminants, kronecker
from qforms.characters import (
    build_w_table,
    characters,
    genus_characters,
    kronecker_factorize,
    lambda_table,
    lambda_table_int,
)
from qforms.forms import class_group, compose_forms
from qforms.sievelab import (
    SieveExperimentConfig,
    check_identities,
    complex_character_lambdas,
    ratio_denominator,
    run_sieve_experiment,
    sieve_lhs,
)

from oracles import PRESETS


def test_lhs_zero_coefficients():
    assert sieve_lhs(50, 64, np.zeros(65)) == 0.0


def test_lhs_empty_character_family():
    # h = 1 for every member of the family up to 10: no complex characters
    a = np.ones(65)
    assert sieve_lhs(10, 64, a) == 0.0
    assert complex_character_lambdas(10, 64).shape[0] == 0


def test_lhs_delta_counts_characters():
    coeffs = np.zeros(101)
    coeffs[1] = 1.0
    assert sieve_lhs(23, 100, coeffs) == pytest.approx(2.0, abs=1e-9)


def test_lhs_delta_bounded_by_tau():
    rows = complex_character_lambdas(100, 200)
    for n in (2, 12, 60, 144):
        coeffs = np.zeros(201)
        coeffs[n] = 1.0
        lhs = sieve_lhs(100, 200, coeffs)
        direct = float((np.abs(rows[:, n]) ** 2).sum())
        assert lhs == pytest.approx(direct, rel=1e-12)
        assert lhs <= len(divisors(n)) ** 2 * rows.shape[0] + 1e-9


def test_lhs_memory_holds_the_lambda_rows_once():
    # the 280 complex lambda rows of 10001 entries at Q = 300 take 42.7 MiB;
    # collected in a list and stacked they were held twice (86 MiB peak)
    a = np.zeros(10_001)
    a[1:] = np.random.default_rng(1).integers(0, 2, size=10_000) * 2 - 1
    tracemalloc.start()
    try:
        sieve_lhs(300, 10_000, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 280 * 10_001 * 16 + 8 * 2**20, peak


def test_lhs_validates_length():
    with pytest.raises(ValueError):
        sieve_lhs(23, 100, np.zeros(100))


def test_experiment_determinism():
    cfg = SieveExperimentConfig(Q=60, N=500, trials=5, seed=42)
    a = run_sieve_experiment(cfg)
    b = run_sieve_experiment(cfg)
    assert a.to_json() == b.to_json()
    c = run_sieve_experiment(SieveExperimentConfig(Q=60, N=500, trials=5, seed=43))
    assert a.to_json() != c.to_json()


def test_experiment_zero_and_empty_presets():
    assert run_sieve_experiment(PRESETS["zeros"]).max_ratio == 0.0
    assert run_sieve_experiment(PRESETS["empty-family"]).max_ratio == 0.0


def test_experiment_json_fields():
    exp = run_sieve_experiment(SieveExperimentConfig(Q=30, N=200, trials=3, seed=9))
    payload = json.loads(exp.to_json())
    assert payload["meta"]["seed"] == 9
    assert len(payload["ratios"]) == 3
    assert payload["max_ratio"] == max(payload["ratios"])


def test_ratio_denominator_monotone():
    assert ratio_denominator(100, 10_000, 0.1, 1.0) > ratio_denominator(
        10, 10_000, 0.1, 1.0
    )
    assert ratio_denominator(100, 10_000, 0.1, 2.0) == pytest.approx(
        2 * ratio_denominator(100, 10_000, 0.1, 1.0)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SieveExperimentConfig(Q=0, N=10)
    with pytest.raises(ValueError):
        SieveExperimentConfig(Q=10, N=10, coeff_source="bogus")
    with pytest.raises(ValueError):
        SieveExperimentConfig(Q=10, N=10, delta_n=11, coeff_source="delta")
    for eps in (0.0, float("nan")):
        with pytest.raises(ValueError):
            SieveExperimentConfig(Q=10, N=10, eps=eps)
    with pytest.raises(ValueError):
        SieveExperimentConfig(Q=10, N=10, seed=-1)


# ---------------------------------------------------------------------------
# the experiment from class sums against the lambda-row path it replaced


def _lhs_from_rows(rows, coeffs):
    """The slow path: one complex lambda row per complex character."""
    if rows.shape[0] == 0:
        return 0.0
    sums = rows[:, 1:] @ coeffs[1:].astype(np.complex128)
    return float((np.abs(sums) ** 2).sum())


def _reference_ratios(cfg, rows):
    rng = np.random.default_rng(cfg.seed)
    ratios = []
    for _ in range(cfg.trials):
        a = np.zeros(cfg.N + 1)
        if cfg.coeff_source == "rademacher":
            a[1:] = rng.integers(0, 2, size=cfg.N) * 2 - 1
        elif cfg.coeff_source == "ones":
            a[1:] = 1.0
        elif cfg.coeff_source == "delta":
            a[cfg.delta_n] = 1.0
        lhs = _lhs_from_rows(rows, a)
        ssum = float(a[1:] @ a[1:])
        ratios.append(0.0 if lhs == 0.0 else lhs / ratio_denominator(cfg.Q, cfg.N, cfg.eps, ssum))
    return ratios


SOURCES = ("rademacher", "ones", "zeros", "delta")
# the complex path turns an exact zero (delta at an n where every complex
# lambda vanishes) into residue near 1e-36; a nonzero lhs of integer
# coefficients is at least 1, so its ratio is at least 1/denominator > 1e-13
RATIO_FLOOR = 1e-24


@functools.cache
def _reference_rows(Q, N):
    return complex_character_lambdas(Q, N)


@pytest.mark.parametrize("Q", [10, 23, 60, 100, 300])
@pytest.mark.parametrize("block", [1, 2, 3, None])
def test_experiment_matches_lambda_rows(monkeypatch, Q, block):
    if block is not None:
        monkeypatch.setattr(sievelab, "_TRIAL_BLOCK", block)
    N = 2000
    rows = _reference_rows(Q, N)
    for source in SOURCES:
        cfg = SieveExperimentConfig(Q=Q, N=N, trials=5, coeff_source=source, delta_n=12, seed=Q)
        expected = _reference_ratios(cfg, rows)
        assert run_sieve_experiment(cfg).ratios == pytest.approx(
            expected, rel=1e-12, abs=RATIO_FLOOR
        ), source


def _exact_lhs(Q, N, a):
    """h sum_C S_C^2 - sum_{chi real} (sum_C chi(C) S_C)^2 over the family, in Python ints."""
    total = 0
    for q in fundamental_discriminants(Q):
        group = class_group(q)
        w = build_w_table(group, N).w.tolist()
        sums = [sum(ai * wi for ai, wi in zip(a[1:], row[1:])) for row in w]
        total += group.h * sum(s * s for s in sums)
        for chi in characters(group):
            if chi.is_real:
                values = [int(v.real) for v in chi.values]
                total -= sum(v * s for v, s in zip(values, sums)) ** 2
    return total


def test_lhs_is_exact_integer():
    Q, N = 60, 400
    rng = np.random.default_rng(3)
    sums = sievelab._class_sums(Q, N)
    for a in (rng.integers(-3, 4, size=N + 1).tolist(), [0] + [1] * N):
        exact = _exact_lhs(Q, N, a)
        assert exact > 0
        coeffs = np.array(a, dtype=np.float64)
        assert sums.lhs(coeffs[1:, None])[0] == exact
        # the oracle sums complex lambda rows, so it is exact only to rounding
        assert sieve_lhs(Q, N, coeffs) == pytest.approx(exact, rel=1e-12)
    cfg = SieveExperimentConfig(Q=Q, N=N, trials=3, seed=4)
    rng = np.random.default_rng(cfg.seed)
    for ratio in run_sieve_experiment(cfg).ratios:
        a = [0] + (rng.integers(0, 2, size=N) * 2 - 1).tolist()
        assert ratio == _exact_lhs(Q, N, a) / ratio_denominator(Q, N, cfg.eps, float(N))


def _matches_reference(cfg):
    expected = _reference_ratios(cfg, _reference_rows(cfg.Q, cfg.N))
    ratios = run_sieve_experiment(cfg).ratios
    return ratios == pytest.approx(expected, rel=1e-12, abs=RATIO_FLOOR)


FAULT_CFG = SieveExperimentConfig(Q=60, N=500, trials=3, seed=1)


def test_reference_catches_dropped_inverse_copy(monkeypatch):
    assert _matches_reference(FAULT_CFG)
    real = sievelab._inverse_pairs

    def single_rows(group):
        reps, sizes = real(group)
        return reps, np.ones_like(sizes)  # C^-1 no longer counted with C

    monkeypatch.setattr(sievelab, "_inverse_pairs", single_rows)
    assert not _matches_reference(FAULT_CFG)


def test_reference_catches_unsubtracted_trivial_character(monkeypatch):
    assert _matches_reference(FAULT_CFG)
    real = sievelab.genus_characters
    monkeypatch.setattr(sievelab, "genus_characters", lambda g: [c for c in real(g) if c[0] != 1])
    assert not _matches_reference(FAULT_CFG)


def test_sieve_lhs_catches_dropped_inverse_copy(monkeypatch):
    # sieve_lhs is the benchmark's oracle for the experiment: it must not
    # share the class-sum path, so a fault there shows as a disagreement
    cfg = FAULT_CFG

    def oracle_ratios():
        rng = np.random.default_rng(cfg.seed)
        ratios = []
        for _ in range(cfg.trials):
            a = np.zeros(cfg.N + 1)
            a[1:] = rng.integers(0, 2, size=cfg.N) * 2 - 1
            lhs = sieve_lhs(cfg.Q, cfg.N, a)
            ratios.append(lhs / ratio_denominator(cfg.Q, cfg.N, cfg.eps, float(cfg.N)))
        return ratios

    expected = oracle_ratios()
    assert run_sieve_experiment(cfg).ratios == pytest.approx(expected, rel=1e-12)
    real = sievelab._inverse_pairs

    def single_rows(group):
        reps, sizes = real(group)
        return reps, np.ones_like(sizes)  # C^-1 no longer counted with C

    monkeypatch.setattr(sievelab, "_inverse_pairs", single_rows)
    assert oracle_ratios() == expected
    assert run_sieve_experiment(cfg).ratios != pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("row_sum", [2**24 - 1, 2**24])
def test_class_sums_refuse_rows_past_float32(monkeypatch, row_sum):
    # the float32 class sums are exact while every partial sum, at most a
    # row sum of w for coefficients in {-1, 0, 1}, stays below 2^24
    real = sievelab.build_w_table

    def heavy(group, N, *args, **kwargs):
        table = real(group, N, *args, **kwargs)
        table.w[:, 1] += row_sum - table.w[:, 1:].sum(axis=1)
        return table

    monkeypatch.setattr(sievelab, "build_w_table", heavy)
    if row_sum < 2**24:
        assert sievelab._class_sums(30, 100).rows.sum(axis=1).max() == row_sum
    else:
        with pytest.raises(ValueError, match="float32"):
            sievelab._class_sums(30, 100)


@pytest.mark.parametrize("trials", [100, 1000])
def test_experiment_memory_bounded_in_trials(trials):
    cfg = SieveExperimentConfig(Q=300, N=10_000, trials=trials, seed=5)
    tracemalloc.start()
    try:
        run_sieve_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pair rows alone are 231 x 10^4 doubles (17.6 MiB); the lambda rows
    # of the complex characters were 280 x 10,001 complex doubles, held twice
    assert peak < 24 * 2**20, peak


def test_hecke_identity_spot_by_hand():
    g = class_group(-23)
    table = build_w_table(g, 10)
    for chi in characters(g):
        if chi.is_real:
            continue
        # lambda(2)^2 = 1 while lambda(4) = 0 and (q/2) lambda(1) = 1
        lam = lambda_table(chi, table)
        assert lam[2] ** 2 == pytest.approx(1.0, abs=1e-9)
        assert abs(lam[4]) < 1e-9


def test_hecke_check_clean_small():
    assert check_identities(60, 400, 1)[0] == []


# ---------------------------------------------------------------------------
# slow-path references: the identity checks as loops over every m and k
# with scalar Kronecker symbols


def _hecke_reference(Q, mn_limit, tol):
    out = []
    for q in fundamental_discriminants(Q):
        group = class_group(q)
        table = sievelab.build_w_table(group, mn_limit)
        chars = characters(group)
        lam = np.vstack([lambda_table(chi, table) for chi in chars])
        for m in range(1, mn_limit + 1):
            kmax = mn_limit // m
            lhs = lam[:, m][:, None] * lam[:, 1 : kmax + 1]
            rhs = np.zeros_like(lhs)
            for d in divisors(m):
                chi_q_d = kronecker(q.q, d)
                if chi_q_d == 0:
                    continue
                cols = (m // d) * np.arange(1, kmax // d + 1)
                rhs[:, d - 1 :: d] = rhs[:, d - 1 :: d] + chi_q_d * lam[:, cols]
            err = np.abs(lhs - rhs)
            for ci, nj in zip(*np.nonzero(err > tol)):
                out.append((q.q, chars[ci].exponents, m, int(nj) + 1, float(err[ci, nj])))
    return out


def _hecke_class_reference(Q, mn_limit):
    """The Hecke relation in the class group, pair by pair: every (m, n) with
    m n <= mn_limit and every class C, the lhs sum_{C1 C2 = C} w(C1, m) w(C2, n)
    with each product C1 C2 from compose_forms, against the rhs
    sum_{d | (m, n)} (q/d) w(C, mn/d^2).  Returns (q, C, m, n, lhs, rhs) of
    every class where they differ, ordered by q, m, C, n."""
    out = []
    for q in fundamental_discriminants(Q):
        group = class_group(q)
        w = sievelab.build_w_table(group, mn_limit).w.tolist()
        product = functools.cache(
            lambda i, j: group.class_index(compose_forms(group.classes[i], group.classes[j]))
        )
        found = []
        for m in range(1, mn_limit + 1):
            for n in range(1, mn_limit // m + 1):
                lhs = [0] * group.h
                for c1, row1 in enumerate(w):
                    for c2, row2 in enumerate(w):
                        if row1[m] and row2[n]:
                            lhs[product(c1, c2)] += row1[m] * row2[n]
                terms = [(kronecker(q.q, d), m * n // (d * d)) for d in divisors(math.gcd(m, n))]
                for c, row in enumerate(w):
                    rhs = sum(chi * row[k] for chi, k in terms)
                    if lhs[c] != rhs:
                        found.append((m, c, n, lhs[c], rhs))
        out += [(q.q, c, m, n, lhs, rhs) for m, c, n, lhs, rhs in sorted(found)]
    return out


def _convolution_reference(Q, N):
    """Every real character of the character table, factored by
    kronecker_factorize, against a scalar convolution; (q, d1, d2, n, lambda,
    conv) of the mismatches, ordered by q, (|d1|, d1), n."""
    out = []
    for q in fundamental_discriminants(Q):
        group = class_group(q)
        table = sievelab.build_w_table(group, N)
        found = []
        for chi in characters(group):
            if not chi.is_real:
                continue
            d1, d2 = kronecker_factorize(chi, table)
            t1 = np.array([kronecker(d1, k) for k in range(N + 1)], dtype=np.int64)
            t2 = np.array([kronecker(d2, k) for k in range(N + 1)], dtype=np.int64)
            conv = np.zeros(N + 1, dtype=np.int64)
            for k in range(1, N + 1):
                if t1[k]:
                    conv[k::k] += t1[k] * t2[1 : N // k + 1]
            lam = lambda_table_int(chi, table)
            for n in np.nonzero(conv[1:] != lam[1:])[0]:
                found.append((abs(d1), d1, d2, int(n) + 1, int(lam[n + 1]), int(conv[n + 1])))
        out += [(q.q, *v[1:]) for v in sorted(found)]
    return out


def _hecke_tuples(violations):
    return [(v.q, v.class_index, v.m, v.n, v.lhs, v.rhs) for v in violations]


def _pairs(violations):
    """The (q, m, n) at which a class-space or character-space check fires."""
    return sorted({(v[0], v[2], v[3]) for v in violations})


FAULT_Q, FAULT_N0 = -39, 1008  # h = 4 (cyclic): two real and two complex characters


@pytest.fixture
def planted_fault(monkeypatch):
    """Flip one weight w[C, n0] of one q, beyond the range (n <= 1000)
    kronecker_factorize verifies, so the factorization itself still holds."""
    real = sievelab.build_w_table

    def faulty(group, N, *args, **kwargs):
        table = real(group, N, *args, **kwargs)
        if int(group.q) == FAULT_Q:
            table.w[1, FAULT_N0] ^= 1
        return table

    monkeypatch.setattr(sievelab, "build_w_table", faulty)


def _shift_weights(monkeypatch, rows=slice(None)):
    """Add 1 to every weight w(C, n), n >= 1, of the given classes of every
    group.  For all classes the relation then fails at nearly every
    (C, m, n), every class of m = n = 1 included; for class 1 alone the
    weights of C and C^-1 differ when class 1 is not ambiguous, so the left
    side must take the class C1^-1, not C1, that pairs with C1 to give C."""
    real = sievelab.build_w_table

    def shifted(group, N, *args, **kwargs):
        table = real(group, N, *args, **kwargs)
        table.w[rows, 1:] += 1
        return table

    monkeypatch.setattr(sievelab, "build_w_table", shifted)


def test_hecke_check_matches_class_group_reference_on_shifted_weights(monkeypatch):
    assert check_identities(60, 200, 1)[0] == [] == _hecke_class_reference(60, 200)
    _shift_weights(monkeypatch)
    fast = _hecke_tuples(check_identities(60, 200, 1)[0])
    assert fast == _hecke_class_reference(60, 200)
    assert {v[:4] for v in fast if v[2] == v[3] == 1} == {
        (q.q, c, 1, 1) for q in fundamental_discriminants(60) for c in range(class_group(q).h)
    }
    # the character-space oracle fires at the same pairs (Fourier inversion)
    assert _pairs(fast) == _pairs(_hecke_reference(60, 200, tol=1e-9))


def test_hecke_check_matches_reference_at_every_small_limit(monkeypatch):
    # small limits cover the isqrt(mn_limit) row boundary and the mirrored
    # pairs (n, m) with n > m
    for L in range(1, 27):
        assert check_identities(40, L, 1)[0] == [] == _hecke_class_reference(40, L)
    for rows in (slice(None), slice(1, 2)):
        with monkeypatch.context() as patch:
            _shift_weights(patch, rows)
            for L in range(1, 27):
                fast = _hecke_tuples(check_identities(40, L, 1)[0])
                assert fast and fast == _hecke_class_reference(40, L), (rows, L)


def test_hecke_check_catches_planted_fault(planted_fault):
    violations = check_identities(60, 1200, 1)[0]
    assert violations
    for v in violations:
        assert v.q == FAULT_Q
        gcd = math.gcd(v.m, v.n)
        involved = {v.m, v.n} | {v.m * v.n // (d * d) for d in range(1, gcd + 1) if gcd % d == 0}
        assert FAULT_N0 in involved, v
    fast = _hecke_tuples(violations)
    assert fast == _hecke_class_reference(60, 1200)
    assert _pairs(fast) == _pairs(_hecke_reference(60, 1200, tol=1e-9))


def test_convolution_check_catches_planted_fault(planted_fault):
    violations = check_identities(60, 1, 1200)[1]
    splits = [kronecker_factorize(c, build_w_table(class_group(FAULT_Q), 1000))
              for c in characters(class_group(FAULT_Q)) if c.is_real]
    assert sorted((v.q, v.d1, v.d2, v.n) for v in violations) == sorted(
        (FAULT_Q, d1, d2, FAULT_N0) for d1, d2 in splits
    )
    assert [(v.q, v.d1, v.d2, v.n, v.lam, v.conv) for v in violations] == (
        _convolution_reference(60, 1200)
    )


def test_each_check_reads_only_its_own_limit(planted_fault):
    # both checks read one table up to max(mn_limit, N), which holds the
    # fault at n0 = 1008 either way; only the check whose limit reaches n0
    # may report it
    hecke, conv = check_identities(60, 1200, 1000)
    assert hecke and _hecke_tuples(hecke) == _hecke_class_reference(60, 1200)
    assert conv == []
    hecke, conv = check_identities(60, 1000, 1200)
    assert hecke == []
    assert conv and [(v.q, v.d1, v.d2, v.n, v.lam, v.conv) for v in conv] == (
        _convolution_reference(60, 1200)
    )


def test_check_identities_reports_violation_lines(planted_fault, capsys):
    assert cli.main(["check-identities", "-Q", "40", "--mn-limit", "1010", "-N", "1010"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].startswith("hecke relation: Q=40 mn_limit=1010 violations=")
    (hecke, *_), convolution = check_identities(40, 1010, 1010)
    assert lines[2] == (
        f"  hecke q={FAULT_Q} class={hecke.class_index} m={hecke.m} n={hecke.n}"
        f" lhs={hecke.lhs} rhs={hecke.rhs}"
    )
    conv = [line for line in lines if line.startswith("  convolution")]
    assert conv == [
        f"  convolution q={v.q} d1={v.d1} d2={v.d2} n={FAULT_N0} lambda={v.lam} conv={v.conv}"
        for v in convolution
    ] and len(conv) == 2
    assert err == "error: identity-violation: see report\n"


# block budgets in bytes: one group per block, a few groups per block at
# (60, 300, 300) and at (60, 1200, 1200), and the whole family in one block
BUDGETS = (0, 40_000, 150_000, 2**62)


def _lists_per_budget(monkeypatch, *args):
    lists = []
    for budget in BUDGETS:
        monkeypatch.setattr(sievelab, "_BLOCK_BYTES", budget)
        lists.append(check_identities(*args))
    return lists


def test_block_budget_cuts_the_family():
    args = (60, 1200, 1200)
    family = [q.q for q in fundamental_discriminants(60)]
    sizes = []
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sievelab, "_BLOCK_BYTES", budget)
            blocks = list(sievelab._blocks(*args))
        assert [group.q.q for block in blocks for group, _ in block] == family
        sizes.append(len(blocks))
    assert sizes[0] == len(family) > sizes[2] > 1 == sizes[-1], sizes


def test_block_budget_keeps_the_planted_fault_lists(planted_fault, monkeypatch):
    first, *others = _lists_per_budget(monkeypatch, 60, 1200, 1200)
    assert first[0] and first[1]
    assert all(lists == first for lists in others)


@pytest.mark.parametrize("rows", [slice(None), slice(1, 2)], ids=["all classes", "class 1"])
def test_block_budget_keeps_the_shifted_weight_lists(monkeypatch, rows):
    _shift_weights(monkeypatch, rows)
    first, *others = _lists_per_budget(monkeypatch, 60, 300, 300)
    assert first[0] and first[1]
    assert all(lists == first for lists in others)


def test_faults_either_side_of_a_block_edge(monkeypatch):
    # one weight flipped in the last group of a block and one in the first
    # group of the next; n0 = 19 * 53, so the pair (19, 53) alone puts the
    # flipped weight on the right side of its own class
    Q, L, n0 = 60, 1200, 1007
    monkeypatch.setattr(sievelab, "_BLOCK_BYTES", 150_000)
    blocks = list(sievelab._blocks(Q, L, L))
    last, next_first = blocks[0][-1][0], blocks[1][0][0]
    faults = {last.q.q: last.h - 1, next_first.q.q: next_first.h - 1}
    real = sievelab.build_w_table

    def faulty(group, N, *args, **kwargs):
        table = real(group, N, *args, **kwargs)
        if group.q.q in faults:
            table.w[faults[group.q.q], n0] ^= 1
        return table

    monkeypatch.setattr(sievelab, "build_w_table", faulty)
    hecke, conv = check_identities(Q, L, L)
    assert {v.q for v in hecke} == set(faults)
    assert set(faults.items()) <= {(v.q, v.class_index) for v in hecke if {v.m, v.n} == {19, 53}}
    assert _hecke_tuples(hecke) == _hecke_class_reference(Q, L)
    assert [(v.q, v.d1, v.d2, v.n) for v in conv] == [
        (q, d1, d2, n0) for q in faults for d1, d2, _ in genus_characters(class_group(q))
    ]


def _check_identities_peak(*args):
    """check_identities(*args) must find no violation; its tracemalloc peak in B."""
    tracemalloc.start()
    try:
        assert check_identities(*args) == ([], [])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identity_checks_bounded_memory():
    for args, bound_mb in (
        ((20, 1, 200_000), 16),
        ((20, 20_000, 1), 6),
        ((20, 20_000, 200_000), 16),
    ):
        peak = _check_identities_peak(*args)
        assert peak <= bound_mb * 10**6, (args, peak)


@pytest.mark.parametrize("Q", [50, 200])
def test_check_identities_peak_grows_with_the_largest_group(Q):
    # one group's int64 table of max(L, N) + 1 columns at a time, and room
    # for the int64 rows computed from it (24 B per entry in all); keeping
    # every table of the family exceeds the bound at both Q
    L, N = 2500, 20_000
    h_max = max(class_group(q).h for q in fundamental_discriminants(Q))
    peak = _check_identities_peak(Q, L, N)
    assert peak <= 24 * h_max * (max(L, N) + 1) + 10**6, (h_max, peak)


def test_convolution_check_clean_small():
    assert check_identities(60, 1, 500)[1] == []


def test_convolution_check_minus15_directly():
    from qforms.arith import kronecker

    g = class_group(-15)
    table = build_w_table(g, 1000)
    chi = [c for c in characters(g) if not c.is_trivial][0]
    from qforms.characters import lambda_table_int

    lam = lambda_table_int(chi, table)
    for n in range(1, 1001):
        conv = sum(
            kronecker(-3, k) * kronecker(5, n // k)
            for k in range(1, n + 1)
            if n % k == 0
        )
        assert conv == lam[n], n
