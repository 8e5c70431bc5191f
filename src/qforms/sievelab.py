"""Numerical laboratory for character-sum identities and inequalities.

The mean-square character sum over the family of complex class group
characters of all scan discriminants |q| <= Q is compared against the
reference envelope (N (log N)^3 + sqrt(N) (log N) Q^(5/2+eps)) * sum |a_n|^2
as a ratio experiment; the Hecke product relation and the real-character
convolution identity are verified exactly over scan ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .arith import kronecker_table
from .characters import (
    build_w_table,
    characters,
    kronecker_convolution,
    kronecker_factorize,
    lambda_table,
    lambda_table_int,
)
from .forms import class_group
from .serialize import canonical_json

__all__ = [
    "SieveExperimentConfig",
    "SieveExperiment",
    "complex_character_lambdas",
    "sieve_lhs",
    "ratio_denominator",
    "run_sieve_experiment",
    "hecke_check",
    "convolution_check",
    "HeckeViolation",
    "ConvolutionViolation",
    "LS_BASELINE",
    "PRESETS",
]

# Measured once with the "baseline" preset below (seed 1, Q=100, N=10^4,
# 100 Rademacher trials); regression tests assert max ratio <= 1.5x this.
LS_BASELINE = 3.3491728946812557e-07


@dataclass(frozen=True)
class SieveExperimentConfig:
    Q: int
    N: int
    trials: int = 1
    coeff_source: str = "rademacher"  # rademacher | ones | zeros | delta
    delta_n: int = 1
    seed: int = 1
    eps: float = 0.1

    def __post_init__(self):
        if self.Q < 1 or self.N < 1 or self.trials < 1:
            raise ValueError("invalid experiment config")
        if self.coeff_source not in ("rademacher", "ones", "zeros", "delta"):
            raise ValueError(f"unknown coefficient source {self.coeff_source!r}")
        if not 1 <= self.delta_n <= self.N:
            raise ValueError("delta_n outside 1..N")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass(eq=False)
class SieveExperiment:
    config: SieveExperimentConfig
    ratios: list[float] = field(default_factory=list)
    max_ratio: float = 0.0

    def to_json(self) -> str:
        cfg = self.config
        return canonical_json(
            {
                "meta": {
                    "Q": cfg.Q,
                    "N": cfg.N,
                    "trials": cfg.trials,
                    "coeff_source": cfg.coeff_source,
                    "delta_n": cfg.delta_n,
                    "seed": cfg.seed,
                    "eps": cfg.eps,
                },
                "ratios": self.ratios,
                "max_ratio": self.max_ratio,
            }
        )


PRESETS: dict[str, SieveExperimentConfig] = {
    "baseline": SieveExperimentConfig(Q=100, N=10_000, trials=100, seed=1),
    "zeros": SieveExperimentConfig(Q=100, N=10_000, trials=1, coeff_source="zeros"),
    "empty-family": SieveExperimentConfig(Q=10, N=1_000, trials=10, seed=1),
    "ones": SieveExperimentConfig(Q=100, N=10_000, trials=1, coeff_source="ones"),
    "delta": SieveExperimentConfig(Q=100, N=10_000, trials=1, coeff_source="delta"),
}


def complex_character_lambdas(Q: float, N: int) -> np.ndarray:
    """lambda rows for every complex character of every scan q with |q| <= Q.

    The family deliberately includes would-be exceptional discriminants;
    the reference inequality has no exceptional-set exclusion.  Shape is
    (number of characters, N + 1); possibly zero rows.
    """
    rows = []
    for q in arith.fundamental_discriminants(Q):
        group = class_group(q)
        if group.h <= 2:
            continue  # all characters real
        table = build_w_table(group, N)
        for chi in characters(group):
            if not chi.is_real:
                rows.append(lambda_table(chi, table))
    if not rows:
        return np.zeros((0, N + 1), dtype=np.complex128)
    return np.vstack(rows)


def sieve_lhs(Q: float, N: int, coeffs: np.ndarray) -> float:
    """sum over complex characters of |sum_n a_n lambda_chi(n)|^2.

    coeffs has length N + 1 with slot 0 ignored (a_n = coeffs[n]).
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (N + 1,):
        raise ValueError("coeffs must have length N + 1 (slot 0 unused)")
    rows = complex_character_lambdas(Q, N)
    return _lhs_from_rows(rows, coeffs)


def _lhs_from_rows(rows: np.ndarray, coeffs: np.ndarray) -> float:
    if rows.shape[0] == 0:
        return 0.0
    sums = rows[:, 1:] @ coeffs[1:].astype(np.complex128)
    return float((np.abs(sums) ** 2).sum())


def ratio_denominator(Q: float, N: int, eps: float, coeff_square_sum: float) -> float:
    logn = math.log(N) if N > 1 else 1.0
    envelope = N * logn**3 + math.sqrt(N) * logn * Q ** (2.5 + eps)
    return envelope * coeff_square_sum


def run_sieve_experiment(cfg: SieveExperimentConfig) -> SieveExperiment:
    """Run the configured trials; deterministic given the seed."""
    rows = complex_character_lambdas(cfg.Q, cfg.N)
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
        if lhs == 0.0:
            ratios.append(0.0)
            continue
        ssum = float(a[1:] @ a[1:])
        ratios.append(lhs / ratio_denominator(cfg.Q, cfg.N, cfg.eps, ssum))
    return SieveExperiment(config=cfg, ratios=ratios, max_ratio=max(ratios))


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class HeckeViolation:
    q: int
    character: tuple[int, ...]
    m: int
    n: int
    error: float


@dataclass(frozen=True)
class ConvolutionViolation:
    q: int
    character: tuple[int, ...]
    n: int
    lam: int
    conv: int


def hecke_check(Q: float, mn_limit: int, tol: float = 1e-9) -> list[HeckeViolation]:
    """Verify lambda(m) lambda(n) = sum_{d | gcd(m,n)} (q/d) lambda(mn/d^2)
    for every character of every scan q with |q| <= Q and all m n <= mn_limit.

    Returns the violations beyond tol, ordered by q, m, character, n;
    empty on success.
    """
    out = []
    pairs = arith.DirichletPairs(mn_limit)
    for q in arith.fundamental_discriminants(Q):
        group = class_group(q)
        table = build_w_table(group, mn_limit)
        chars = characters(group)
        lam = np.vstack([lambda_table(chi, table) for chi in chars])
        chi_q = kronecker_table(q.q, math.isqrt(mn_limit))
        for blk in pairs.blocks():
            starts, d, v = blk.triples
            weight = chi_q[d]
            err = np.empty((len(chars), blk.k.size))
            for ci, row in enumerate(lam):  # one row at a time bounds memory
                diff = row[blk.k] * row[blk.j]
                diff -= np.add.reduceat(row[v] * weight, starts)
                err[ci] = np.abs(diff)
            ci, idx = np.nonzero(err > tol)
            m, n = blk.k[idx], blk.j[idx]
            for i in np.lexsort((n, ci, m)):
                out.append(
                    HeckeViolation(
                        q.q, chars[ci[i]].exponents, int(m[i]), int(n[i]), float(err[ci[i], idx[i]])
                    )
                )
    return out


def convolution_check(Q: float, N: int) -> list[ConvolutionViolation]:
    """Verify, exactly, that every real character's lambda equals the
    Dirichlet convolution of the Kronecker symbols of its factorization,
    for n <= N and every scan q with |q| <= Q."""
    out = []
    pairs = arith.DirichletPairs(N)
    for q in arith.fundamental_discriminants(Q):
        group = class_group(q)
        table = build_w_table(group, N)
        for chi in characters(group):
            if not chi.is_real:
                continue
            d1, d2 = kronecker_factorize(chi, table)
            conv = kronecker_convolution(d1, d2, pairs)
            lam = lambda_table_int(chi, table)
            for n in np.nonzero(conv[1:] != lam[1:])[0]:
                out.append(
                    ConvolutionViolation(
                        q.q, chi.exponents, int(n) + 1, int(lam[n + 1]), int(conv[n + 1])
                    )
                )
    return out
