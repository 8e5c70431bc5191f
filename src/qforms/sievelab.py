"""Numerical laboratory for character-sum identities and inequalities.

The mean-square character sum over the family of complex class group
characters of all scan discriminants |q| <= Q is compared against the
reference envelope (N (log N)^3 + sqrt(N) (log N) Q^(5/2+eps)) * sum |a_n|^2
as a ratio experiment.  The experiment forms no lambda row: it takes the
class sums S_C = sum_n a_n w(C, n) of a block of trials from one matrix
product, and character orthogonality turns them into the mean square, an
exact integer for integer coefficients, less the squares of the real
(genus) characters; sieve_lhs recomputes it from the complex lambda rows as
an independent check.

check_identities builds one w-table per q, up to max(L, N), for both exact
integer checks; neither builds the character table, and hecke_check runs
row by row over m <= isqrt(L).  The Hecke product relation holds for
every character iff it holds in the class group's algebra (orthogonality),
so hecke_check compares sum_{C1 C2 = C} w(C1, m) w(C2, n) with
sum_{d | (m, n)} (q/d) w(C, mn/d^2) for every class C.  The real-character
convolution identity takes each real character from its split q = d1 d2
(characters.genus_characters) and compares its lambda with the Dirichlet
convolution (d1/.) * (d2/.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .arith import IdentityViolation, kronecker_table
from .characters import (
    build_w_table,
    characters,
    genus_characters,
    kronecker_convolution,
    lambda_table,
)
from .forms import FormClassGroup, class_group
from .serialize import canonical_json

__all__ = [
    "SieveExperimentConfig",
    "SieveExperiment",
    "complex_character_lambdas",
    "sieve_lhs",
    "ratio_denominator",
    "run_sieve_experiment",
    "check_identities",
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
        if not self.eps > 0:  # NaN too
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
    (number of characters, N + 1); possibly zero rows.  The experiment
    itself works from the class sums instead (see run_sieve_experiment).
    """
    # a finite abelian group has as many real characters as classes of
    # order <= 2, so one complex character per non-ambiguous class; a group
    # of ambiguous classes only has none
    groups = [g for g in map(class_group, arith.fundamental_discriminants(Q)) if 1 in g.e]
    rows = np.empty((sum(g.e.count(1) for g in groups), N + 1), dtype=np.complex128)
    r = 0
    for group in groups:
        table = build_w_table(group, N)
        chars = [chi for chi in characters(group) if not chi.is_real]
        if len(chars) != group.e.count(1):
            raise IdentityViolation(f"q={group.q.q}: complex characters != non-ambiguous classes")
        for chi in chars:
            rows[r] = lambda_table(chi, table)
            r += 1
    return rows


# Trials whose coefficients are drawn and summed in one matrix product; the
# block, not the number of trials, bounds the coefficient memory.
_TRIAL_BLOCK = 16


def _inverse_pairs(group: FormClassGroup) -> tuple[list[int], np.ndarray]:
    """One class index per pair {C, C^-1} and the size of each pair."""
    reps, pair = group.pairs
    return reps, np.bincount(pair)


@dataclass(frozen=True)
class _ClassSums:
    """The family's class sums S_C = sum_n a_n w(C, n) and the lhs they give.

    rows holds w(C, n) for n = 1..N, one row per pair {C, C^-1} (the two
    classes have the same weights, hence the same sum) of every group with a
    complex character; weights[r] = h |{C, C^-1}|.  real holds, per group,
    its slice of rows and the matrix |{C, C^-1}| chi(C) over its real
    characters chi (the genus characters, values +-1), trivial character
    included.
    """

    rows: np.ndarray
    weights: np.ndarray
    real: list[tuple[slice, np.ndarray]]

    def lhs(self, coeffs: np.ndarray) -> np.ndarray:
        """The lhs for each trial; coeffs has shape (N, trials), a_n in row n - 1.

        By orthogonality, the complex characters of a group give
        sum_chi |sum_C chi(C) S_C|^2 = h sum_C S_C^2 - sum_{chi real} (sum_C chi(C) S_C)^2.
        """
        sums = self.rows @ coeffs
        out = self.weights @ sums**2
        for rows, chis in self.real:
            out -= ((chis @ sums[rows]) ** 2).sum(axis=0)
        return out


def _class_sums(Q: float, N: int) -> _ClassSums:
    groups = []
    for q in arith.fundamental_discriminants(Q):
        group = class_group(q)
        if 1 not in group.e:
            continue  # every class its own inverse: all characters real
        groups.append((group, *_inverse_pairs(group)))
    total = sum(len(reps) for _, reps, _ in groups)
    rows = np.empty((total, N))
    weights = np.empty(total)
    real = []
    start = 0
    for group, reps, sizes in groups:
        span = slice(start, start + len(reps))
        rows[span] = build_w_table(group, N).w[reps, 1:]
        weights[span] = group.h * sizes
        chis = [row[reps] for _, _, row in genus_characters(group)]
        real.append((span, np.reshape(chis, (-1, len(reps))) * sizes))
        start = span.stop
    return _ClassSums(rows, weights, real)


def sieve_lhs(Q: float, N: int, coeffs: np.ndarray) -> float:
    """sum over complex characters of |sum_n a_n lambda_chi(n)|^2.

    coeffs has length N + 1 with slot 0 ignored (a_n = coeffs[n]).  Computed
    from the complex lambda rows of complex_character_lambdas, independently
    of the class sums run_sieve_experiment uses, so it serves as its oracle.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (N + 1,):
        raise ValueError("coeffs must have length N + 1 (slot 0 unused)")
    rows = complex_character_lambdas(Q, N)
    sums = rows[:, 1:] @ coeffs[1:].astype(np.complex128)
    return float((np.abs(sums) ** 2).sum())


def ratio_denominator(Q: float, N: int, eps: float, coeff_square_sum: float) -> float:
    logn = math.log(N) if N > 1 else 1.0
    envelope = N * logn**3 + math.sqrt(N) * logn * Q ** (2.5 + eps)
    return envelope * coeff_square_sum


def run_sieve_experiment(cfg: SieveExperimentConfig) -> SieveExperiment:
    """Run the configured trials; deterministic given the seed.

    No lambda row is formed.  By linearity sum_n a_n lambda_chi(n) =
    sum_C chi(C) S_C with the class sums S_C = sum_n a_n w(C, n), and the
    sums of a block of _TRIAL_BLOCK trials come from one float64 product of
    the family's w rows with the block's coefficients (_ClassSums.lhs), so
    memory does not grow with the number of trials.  Each trial draws its
    coefficients from the generator in turn, so a seed gives the same
    coefficients whatever the block.

    Exactness: with integer coefficients (every coefficient source) each S_C
    is an exact integer whatever the BLAS blocking (every partial sum is an
    integer of size at most sum_n |a_n| w(C, n)), and the lhs is an exact
    integer while h sum_C S_C^2 < 2^53, so the ratios do not depend on the
    BLAS kernel or its thread count.
    """
    sums = _class_sums(cfg.Q, cfg.N)
    rng = np.random.default_rng(cfg.seed)
    ratios = []
    for start in range(0, cfg.trials, _TRIAL_BLOCK):
        block = np.zeros((min(_TRIAL_BLOCK, cfg.trials - start), cfg.N))
        for a in block:  # a[n - 1] = a_n
            if cfg.coeff_source == "rademacher":
                a[:] = rng.integers(0, 2, size=cfg.N) * 2 - 1
            elif cfg.coeff_source == "ones":
                a[:] = 1.0
            elif cfg.coeff_source == "delta":
                a[cfg.delta_n - 1] = 1.0
        for lhs, a in zip(sums.lhs(block.T), block):
            if lhs == 0.0:
                ratios.append(0.0)
                continue
            ssum = float(a @ a)
            ratios.append(float(lhs) / ratio_denominator(cfg.Q, cfg.N, cfg.eps, ssum))
    return SieveExperiment(config=cfg, ratios=ratios, max_ratio=max(ratios))


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class HeckeViolation:
    """Class class_index of q has lhs = sum_{C1 C2 = C} w(C1, m) w(C2, n)
    but rhs = sum_{d | (m, n)} (q/d) w(C, mn/d^2)."""

    q: int
    class_index: int
    m: int
    n: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class ConvolutionViolation:
    """The real character of the split q = d1 d2 has lambda(n) = lam but
    ((d1/.) * (d2/.))(n) = conv."""

    q: int
    d1: int
    d2: int
    n: int
    lam: int
    conv: int


def check_identities(
    Q: float, mn_limit: int, N: int
) -> tuple[list[HeckeViolation], list[ConvolutionViolation]]:
    """(hecke_check, convolution_check) violations of every scan q with |q| <= Q, in one
    pass: per q one group and one w-table up to max(mn_limit, N), read by both checks."""
    hecke, conv = [], []
    for q in arith.fundamental_discriminants(Q):
        group = class_group(q)
        w = build_w_table(group, max(mn_limit, N)).w
        hecke += hecke_check(group, w, mn_limit)
        conv += convolution_check(group, w, N)
    return hecke, conv


def hecke_check(group: FormClassGroup, w: np.ndarray, mn_limit: int) -> list[HeckeViolation]:
    """Verify, exactly, lambda(m) lambda(n) = sum_{d | gcd(m,n)} (q/d) lambda(mn/d^2)
    for every character of the group and all m n <= mn_limit, on w up to column mn_limit.

    By orthogonality that holds for every character iff, for every class C,
        sum_{C1 C2 = C} w(C1, m) w(C2, n) = sum_{d | (m, n)} (q/d) w(C, mn/d^2),
    an identity of integers checked on the w-table.  Every pair has
    min(m, n) <= isqrt(mn_limit), so row m checks n = m..mn_limit // m: the
    left side adds w(C1, m) w(C C1^-1, n) over the few C1 with w(C1, m) > 0
    (FormClassGroup.composition), the right side the strided slices
    w(C, e (n/d)) with e = m/d at the n divisible by d.  Both sides are
    symmetric in m and n, so a violation (m, n) with n > m is also reported
    as (n, m).

    Returns the violations ordered by m, class, n; empty on success.
    """
    top = math.isqrt(mn_limit)
    divs = [[] for _ in range(top + 1)]  # divs[m]: the divisors d > 1 of m
    for d in range(2, top + 1):
        for m in range(d, top + 1, d):
            divs[m].append(d)
    inv = [group.inverse(i) for i in range(group.h)]
    shift = group.composition[:, inv].T  # shift[C1, C] = C C1^-1
    cols = w[:, : top + 1].T.tolist()  # cols[m][C1] = w(C1, m)
    chi_q = kronecker_table(group.q.q, top).tolist()
    found = []  # (m, class, n, lhs, rhs) of the violations
    for m in range(1, top + 1):
        hi = mn_limit // m
        rhs = w[:, m * m : m * hi + 1 : m].copy()
        for d in divs[m]:
            if chi_q[d]:
                e = m // d
                rhs[:, ::d] += chi_q[d] * w[:, e * e : e * (hi // d) + 1 : e]
        # 0 when no ideal has norm m
        lhs = sum(k * w[shift[c1], m : hi + 1] for c1, k in enumerate(cols[m]) if k)
        if (lhs == rhs).all():
            continue
        ci, idx = np.nonzero(lhs != rhs)
        left = np.broadcast_to(lhs, rhs.shape)[ci, idx].tolist()
        for c, n, a, b in zip(ci.tolist(), (idx + m).tolist(), left, rhs[ci, idx].tolist()):
            found.append((m, c, n, a, b))
            if n > m:
                found.append((n, c, m, a, b))
    return [HeckeViolation(group.q.q, c, m, n, a, b) for m, c, n, a, b in sorted(found)]


def convolution_check(group: FormClassGroup, w: np.ndarray, N: int) -> list[ConvolutionViolation]:
    """Verify, exactly, that every real character's lambda equals the
    Dirichlet convolution (d1/.) * (d2/.) of its split q = d1 d2, for n <= N,
    reading the group's w-table w up to column N.

    The real characters and their splits come from the forms
    (characters.genus_characters), lambda(n) = sum_C (d1/m_C) w(C, n).
    Returns the violations ordered by split, n; empty on success.
    """
    out = []
    for d1, d2, row in genus_characters(group):
        lam = row @ w[:, : N + 1]
        conv = kronecker_convolution(d1, d2, N)
        out += [
            ConvolutionViolation(group.q.q, d1, d2, n, int(lam[n]), int(conv[n]))
            for n in (np.flatnonzero(conv[1:] != lam[1:]) + 1).tolist()
        ]
    return out
