import json
import math
import tracemalloc

import numpy as np
import pytest

from qforms import sievelab
from qforms.arith import divisors, fundamental_discriminants, kronecker
from qforms.characters import (
    build_w_table,
    characters,
    kronecker_factorize,
    lambda_chi,
    lambda_table,
    lambda_table_int,
)
from qforms.forms import class_group
from qforms.sievelab import (
    PRESETS,
    SieveExperimentConfig,
    complex_character_lambdas,
    convolution_check,
    hecke_check,
    ratio_denominator,
    run_sieve_experiment,
    sieve_lhs,
)


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


def test_lhs_delta_bounded_by_tau(sieve_10k):
    rows = complex_character_lambdas(100, 200)
    for n in (2, 12, 60, 144):
        coeffs = np.zeros(201)
        coeffs[n] = 1.0
        lhs = sieve_lhs(100, 200, coeffs)
        direct = float((np.abs(rows[:, n]) ** 2).sum())
        assert lhs == pytest.approx(direct, rel=1e-12)
        assert lhs <= sieve_10k.tau(n) ** 2 * rows.shape[0] + 1e-9


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


def test_hecke_identity_spot_by_hand():
    g = class_group(-23)
    table = build_w_table(g, 10)
    for chi in characters(g):
        if chi.is_real:
            continue
        # lambda(2)^2 = 1 while lambda(4) = 0 and (q/2) lambda(1) = 1
        assert lambda_chi(chi, table, 2) ** 2 == pytest.approx(1.0, abs=1e-9)
        assert abs(lambda_chi(chi, table, 4)) < 1e-9


def test_hecke_check_clean_small():
    assert hecke_check(60, 400) == []


# ---------------------------------------------------------------------------
# slow-path references: the identity checks as loops over m and k with
# scalar Kronecker symbols, as they were before the Dirichlet pair index


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


def _convolution_reference(Q, N):
    out = []
    for q in fundamental_discriminants(Q):
        group = class_group(q)
        table = sievelab.build_w_table(group, N)
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
                out.append((q.q, chi.exponents, int(n) + 1, int(lam[n + 1]), int(conv[n + 1])))
    return out


def _hecke_tuples(violations):
    return [(v.q, v.character, v.m, v.n, v.error) for v in violations]


def _assert_same_hecke(fast, reference):
    assert [v[:4] for v in fast] == [v[:4] for v in reference]
    # the right-hand side is summed in another association, so the error
    # may differ in the last bits of a double
    assert np.allclose([v[4] for v in fast], [v[4] for v in reference], rtol=0, atol=1e-12)


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


def test_hecke_check_flags_everything_at_negative_tolerance():
    fast = _hecke_tuples(hecke_check(60, 200, tol=-1.0))
    reference = _hecke_reference(60, 200, tol=-1.0)
    # every (q, character, m, n) with m n <= 200, in order q, m, character, n
    assert len(fast) == sum(
        class_group(q).h * sum(200 // m for m in range(1, 201))
        for q in fundamental_discriminants(60)
    )
    _assert_same_hecke(fast, reference)


def test_hecke_check_catches_planted_fault(planted_fault):
    violations = hecke_check(60, 1200)
    assert violations
    for v in violations:
        assert v.q == FAULT_Q
        gcd = math.gcd(v.m, v.n)
        involved = {v.m, v.n} | {v.m * v.n // (d * d) for d in range(1, gcd + 1) if gcd % d == 0}
        assert FAULT_N0 in involved, v
    _assert_same_hecke(_hecke_tuples(violations), _hecke_reference(60, 1200, tol=1e-9))


def test_convolution_check_catches_planted_fault(planted_fault):
    violations = convolution_check(60, 1200)
    real_chars = [c for c in characters(class_group(FAULT_Q)) if c.is_real]
    assert [(v.q, v.character, v.n) for v in violations] == [
        (FAULT_Q, c.exponents, FAULT_N0) for c in real_chars
    ]
    assert [(v.q, v.character, v.n, v.lam, v.conv) for v in violations] == (
        _convolution_reference(60, 1200)
    )


def test_identity_checks_bounded_memory():
    for check, args, bound_mb in (
        (convolution_check, (20, 200_000), 32),
        (hecke_check, (20, 20_000), 16),
    ):
        tracemalloc.start()
        try:
            assert check(*args) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 10**6, (check.__name__, peak)


def test_convolution_check_clean_small():
    assert convolution_check(60, 500) == []


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
