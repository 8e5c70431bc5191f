"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole module is also part of the plain pytest run.
"""

import math

import numpy as np
import pytest

from qforms import arith, sievelab, stats
from qforms.arith import fundamental_discriminants, kronecker, prime_flags
from qforms.characters import build_w_table, characters
from qforms.cli import main
from qforms.forms import class_group, class_number
from qforms.stats import li

from oracles import LS_BASELINE, PRESETS


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {name}{suffix}")
    assert ok, name


EXPECTED_EXCEPTIONAL_N = [5, 41, 59, 314, 341, 479, 626, 749, 755, 881, 1784]


def _least_x2ny2_brute(n: int, bound: int = 20_000) -> tuple[int, int]:
    """Independent recomputation: smallest prime x^2 + n y^2 (x, y >= 1)."""
    flags = prime_flags(bound)
    best, y_best = None, None
    y = 1
    while n * y * y < bound:
        x = 1
        while x * x + n * y * y <= bound:
            v = x * x + n * y * y
            if flags[v] and (best is None or v < best):
                best, y_best = v, y
            x += 1
        y += 1
    # y_min among representations of the winner
    y = 1
    while n * y * y < best:
        r = math.isqrt(best - n * y * y)
        if r >= 1 and r * r == best - n * y * y:
            return best, y
        y += 1
    return best, y_best


def test_criterion_1_x2ny2_reproduction(capsys, tmp_path):
    out = tmp_path / "x2ny2.json"
    code = main(["x2ny2", "--max-n", "2000", "--format", "json", "--out", str(out)])
    import json

    payload = json.loads(out.read_text())
    rows = [(r["n"], r["prime"], r["y_min"]) for r in payload["exceptional"]]
    got_n = [n for n, _, _ in rows]
    ok = code == 0 and got_n == EXPECTED_EXCEPTIONAL_N
    ok = ok and all(y == 2 for _, _, y in rows)
    for n, p, _ in rows:
        brute_p, brute_y = _least_x2ny2_brute(n)
        ok = ok and brute_p == p and brute_y == 2
    with capsys.disabled():
        _report("1 x2+ny2 exceptional set up to 2000 via the CLI", ok, f"n={got_n}")


def test_criterion_2_average_identity(sieve_10k, capsys):
    mismatches = []
    for q in fundamental_discriminants(500):
        group = class_group(q)
        lhs, rhs = stats.average_identity_gap(group, 10_000, sieve_10k)
        if lhs != rhs:
            mismatches.append((q.q, lhs, rhs))
    with capsys.disabled():
        _report(
            "2 average identity, family to 500, X=1e4 exact",
            not mismatches,
            f"{len(fundamental_discriminants(500))} discriminants",
        )


def test_criterion_3_hecke_relation(capsys):
    violations = sievelab.check_identities(200, 2500, 1)[0]
    with capsys.disabled():
        _report(
            "3 Hecke relation, family to 200, mn<=2500, exact in the class group",
            violations == [],
            f"{len(violations)} violations",
        )


def test_criterion_4_kronecker_convolution(capsys):
    violations = sievelab.check_identities(500, 1, 10_000)[1]
    with capsys.disabled():
        _report(
            "4 Kronecker factorization convolution, family to 500, N=1e4 exact",
            violations == [],
            f"{len(violations)} violations",
        )


def test_criterion_5_dual_oracle_w_tables(capsys):
    ok = True
    for q in fundamental_discriminants(100):
        group = class_group(q)
        lattice = build_w_table(group, 1000)
        mult = build_w_table(group, 1000, method="multiplicative")
        if not np.array_equal(lattice.w, mult.w):
            ok = False
            break
    with capsys.disabled():
        _report("5 lattice vs multiplicative w-tables, family to 100, n<=1e3", ok)


def test_criterion_6_class_number_formula(capsys):
    ok = True
    for q in fundamental_discriminants(1000):
        a = q.abs_q
        units = 6 if q.q == -3 else 4 if q.q == -4 else 2
        total = sum(k * kronecker(q.q, k) for k in range(1, a))
        if -units * total != 2 * a * class_number(a):
            ok = False
            break
    with capsys.disabled():
        _report("6 exact class number formula, family to 1000", ok)


def test_criterion_7_coefficient_bound(capsys):
    n_top = 10_000
    tau = np.zeros(n_top + 1, dtype=np.int64)
    for d in range(1, n_top + 1):
        tau[d::d] += 1
    worst = 0.0
    for q in fundamental_discriminants(200):
        group = class_group(q)
        table = build_w_table(group, n_top)
        vals = np.vstack([c.values for c in characters(group)])
        lam = vals @ table.w.astype(np.complex128)
        worst = max(worst, float((np.abs(lam[:, 1:]) - tau[1:]).max()))
    with capsys.disabled():
        _report(
            "7 |lambda(n)| <= tau(n) + 1e-9, family to 200, n<=1e4",
            worst <= 1e-9,
            f"max excess {worst:.3e}",
        )


def test_criterion_8_equidistribution_sanity(sieve_1m, capsys):
    li_x = li(1e6)
    worst = 0.0
    for q in fundamental_discriminants(50):
        group = class_group(q)
        pis = stats.pi_repr_all(10**6, group, sieve_1m)
        for i in range(group.h):
            worst = max(worst, abs(group.e[i] * group.h * int(pis[i]) / li_x - 1))
    ratio_small = stats.bv_statistic(30, 10**4, sieve_1m).normalized
    ratio_large = stats.bv_statistic(30, 10**6, sieve_1m).normalized
    ok = worst <= 0.5 and ratio_large < ratio_small
    with capsys.disabled():
        _report(
            "8 equidistribution sanity at X=1e6 and ratio decrease",
            ok,
            f"max dev {worst:.4f}; normalized {ratio_small:.4f} -> {ratio_large:.4f}",
        )


def test_criterion_9_large_sieve_regression(capsys):
    exp = sievelab.run_sieve_experiment(PRESETS["baseline"])
    zeros = sievelab.run_sieve_experiment(PRESETS["zeros"])
    empty = sievelab.run_sieve_experiment(PRESETS["empty-family"])
    ok = (
        exp.max_ratio <= 1.5 * LS_BASELINE
        and zeros.max_ratio == 0.0
        and empty.max_ratio == 0.0
    )
    with capsys.disabled():
        _report(
            "9 large sieve ratio regression (seed 1, Q=100, N=1e4, 100 trials)",
            ok,
            f"max ratio {exp.max_ratio:.3e} vs baseline {LS_BASELINE:.3e}",
        )


def test_criterion_10_trivial_structure_and_determinism(tmp_path, capsys):
    ok = True
    for q in (-3, -4, -7, -11, -19, -43, -67, -163):
        group = class_group(q)
        table = build_w_table(group, 2000)
        for k in (0, 1, 2):
            if stats.discrepancy_E_k(2000, group, k, table) != 0.0:
                ok = False
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(
            [
                "sieve-ratio",
                "-Q",
                "60",
                "-N",
                "500",
                "--trials",
                "5",
                "--seed",
                "1",
                "--out",
                str(path),
            ]
        )
        ok = ok and code == 0
    ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    for path, flag in ((tmp_path / "c.json", "1"), (tmp_path / "d.json", "4")):
        code = main(
            ["scan-bv", "-Q", "40", "-X", "2000", "--format", "json",
             "--threads", flag, "--out", str(path)]
        )
        ok = ok and code == 0
    ok = ok and (tmp_path / "c.json").read_bytes() == (tmp_path / "d.json").read_bytes()
    with capsys.disabled():
        _report("10 E_k = 0 for h = 1 and byte-identical JSON reruns", ok)
