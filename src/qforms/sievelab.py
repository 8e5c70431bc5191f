"""Numerical laboratory for character-sum identities and inequalities.

The mean-square character sum over the family of complex class group
characters of all scan discriminants |q| <= Q is compared against the
reference envelope (N (log N)^3 + sqrt(N) (log N) Q^(5/2+eps)) * sum |a_n|^2
as a ratio experiment.  The experiment forms no lambda row: it takes the
class sums S_C = sum_n a_n w(C, n) of a block of trials from one float32
matrix product, exact for a_n in {-1, 0, 1}, and character orthogonality
turns them into the mean square, an exact integer, less the squares of the real
(genus) characters; sieve_lhs recomputes it from the complex lambda rows as
an independent check.

check_identities takes the family in blocks of consecutive q whose stacks
fit a fixed byte budget (_BLOCK_BYTES); it builds one w-table per q, up
to max(L, N), for both exact integer checks, holds only one at a time, and
neither check builds the character table.  The Hecke product relation holds
for every character iff it holds in the class group's algebra
(orthogonality), so hecke_check compares sum_{C1 C2 = C} w(C1, m) w(C2, n)
with sum_{d | (m, n)} (q/d) w(C, mn/d^2) for every class C of the block,
in one loop over m <= isqrt(L) on the block's stacked w rows.  The
real-character convolution identity takes each real character from its
split q = d1 d2 (characters.genus_characters) and compares its lambda with
the Dirichlet convolution (d1/.) * (d2/.); the convolutions of a block's
splits are one stacked arith.dirichlet_convolve.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .arith import IdentityViolation, kronecker_table
from .characters import (
    build_w_table,
    characters,
    genus_characters,
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
        return canonical_json(
            {
                "meta": vars(self.config),
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

    rows holds w(C, n) for n = 1..N as float32, one row per pair {C, C^-1}
    (the two classes have the same weights, hence the same sum) of every
    group with a complex character; weights[r] = h |{C, C^-1}|.  real holds, per group,
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
        The class sums come from one float32 product, squared in float64.
        """
        sums = (self.rows @ coeffs.astype(np.float32, copy=False)).astype(np.float64)
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
    rows = np.empty((total, N), dtype=np.float32)
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
    # float32 holds every integer below 2^24 exactly (see run_sieve_experiment)
    if total and rows.sum(axis=1, dtype=np.float64).max() >= 2**24:
        raise ValueError("N too large for exact float32 class sums")
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
    sums of a block of _TRIAL_BLOCK trials come from one float32 product of
    the family's w rows with the block's coefficients (_ClassSums.lhs), so
    memory does not grow with the number of trials.  Each trial draws its
    coefficients from the generator in turn, so a seed gives the same
    coefficients whatever the block.

    Exactness: every coefficient source gives a_n in {-1, 0, 1}, so each
    partial sum of S_C, whatever the BLAS blocking, is an integer of size at
    most sum_n w(C, n), which _class_sums holds below 2^24 (about 0.66 N at
    q = -23, so every N up to the CLI's 10^7 qualifies): the float32 sums
    are exact.  Squared in float64, the lhs is an exact integer while
    h sum_C S_C^2 < 2^53, so the ratios do not depend on the BLAS kernel or
    its thread count.
    """
    sums = _class_sums(cfg.Q, cfg.N)
    rng = np.random.default_rng(cfg.seed)
    ratios = []
    for start in range(0, cfg.trials, _TRIAL_BLOCK):
        block = np.zeros((min(_TRIAL_BLOCK, cfg.trials - start), cfg.N), dtype=np.float32)
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


# Bytes a block of check_identities may stack: each group's int64 Hecke rows
# h (mn_limit + 1) and shift table h^2, and the int16 Kronecker convolution
# columns (N + 1) of its genus characters.  A group above it is a block of one.
_BLOCK_BYTES = 2**19

# a block: (group, genus_characters(group)) for each of its q
_Block = list[tuple[FormClassGroup, list[tuple[int, int, np.ndarray]]]]


def _blocks(Q: float, mn_limit: int, N: int) -> Iterator[_Block]:
    """The scan family's groups, each with its genus characters, in runs
    (arith.runs) of consecutive q whose stacks fit _BLOCK_BYTES."""

    def size(entry) -> int:
        group, chars = entry
        return 8 * group.h * (mn_limit + 1 + group.h) + 2 * len(chars) * (N + 1)

    groups = map(class_group, arith.fundamental_discriminants(Q))
    return arith.runs(((g, genus_characters(g)) for g in groups), size, _BLOCK_BYTES)


def _tables(block: _Block, limit: int, heads: np.ndarray) -> Iterator[np.ndarray]:
    """Each group's w-table up to limit, one at a time; its columns up to
    heads.shape[1] - 1 are copied into the group's rows of heads first."""
    r = 0
    for group, _ in block:
        w = build_w_table(group, limit).w
        heads[r : r + group.h] = w[:, : heads.shape[1]]
        r += group.h
        yield w
        del w  # before the next table is built


def check_identities(
    Q: float, mn_limit: int, N: int
) -> tuple[list[HeckeViolation], list[ConvolutionViolation]]:
    """(hecke_check, convolution_check) violations of every scan q with |q| <= Q.

    The family goes through in blocks (_blocks): per block, the convolutions
    of all its genus characters first, then per q one w-table up to
    max(mn_limit, N), read by the convolution check while it is alive and
    kept up to column mn_limit in the block's stack, then the Hecke check of
    the whole stack.  Only one w-table and the block's stacks live at once.
    """
    hecke, conv = [], []
    for block in _blocks(Q, mn_limit, N):
        # the block's w rows up to mn_limit and one row of zeros (hecke_check)
        heads = np.zeros((sum(group.h for group, _ in block) + 1, mn_limit + 1), dtype=np.int64)
        conv += convolution_check(block, _tables(block, max(mn_limit, N), heads), N)
        hecke += hecke_check([group for group, _ in block], heads, mn_limit)
    return hecke, conv


def hecke_check(
    groups: list[FormClassGroup], w: np.ndarray, mn_limit: int
) -> list[HeckeViolation]:
    """Verify, exactly, lambda(m) lambda(n) = sum_{d | gcd(m,n)} (q/d) lambda(mn/d^2)
    for every character of each group and all m n <= mn_limit.  w stacks the
    groups' w-tables up to column mn_limit, the classes of each group in
    order, and ends in one row of zeros.

    By orthogonality that holds for every character iff, for every class C,
        sum_{C1 C2 = C} w(C1, m) w(C2, n) = sum_{d | (m, n)} (q/d) w(C, mn/d^2),
    an identity of integers checked on the w-table.  Every pair has
    min(m, n) <= isqrt(mn_limit), so one loop over m checks n = m..mn_limit // m
    for every class of the block: the right side adds the strided slices
    w(C, e (n/d)) with e = m/d at the n divisible by d, times (q/d) of each
    class's q; the left side adds w(C C1^-1, n) once for each of the
    w(C1, m) ideals of norm m in each class C1 of C's group
    (FormClassGroup.composition), one gather and one sum for the block.
    Both sides are symmetric in m and n, so a violation (m, n) with n > m is
    also reported as (n, m).

    Returns the violations ordered by group, m, class, n; empty on success.
    """
    top = math.isqrt(mn_limit)
    sizes = [group.h for group in groups]
    H = sum(sizes)
    ends = np.cumsum(sizes)
    h = np.repeat(sizes, sizes)  # per class row: its group's h
    first = ends.repeat(sizes) - h  # and the row of its group's principal class
    chi = np.repeat([kronecker_table(group.q.q, top) for group in groups], sizes, axis=0)
    divs = [[] for _ in range(top + 1)]  # divs[m]: the d > 1 dividing m with some (q/d) != 0
    for d in (np.flatnonzero(chi[:, 2:].any(axis=0)) + 2).tolist():
        for m in range(d, top + 1, d):
            divs[m].append(d)
    # shift[base[C1] + i] is the row of C C1^-1 for the i-th class C of C1's group
    shift = np.concatenate(
        [g.composition[:, [g.inverse(i) for i in range(g.h)]].T.ravel() for g in groups]
    ) + first.repeat(h)
    squares = np.square(sizes)
    base = (np.cumsum(squares) - squares).repeat(sizes) + (np.arange(H) - first) * h
    # the ideals of norm m <= top: one term (m, C1) per ideal, ranked within
    # its group and m; src[m, r, C] is the row of C C1^-1 for the term of
    # rank r of C's group, or the zero row H past the group's last term
    m_of, c1 = np.nonzero(w[:H, 1 : top + 1].T > 0)
    ideals = w[c1, m_of + 1]
    m_of, c1 = m_of.repeat(ideals) + 1, c1.repeat(ideals)
    new = (np.diff(m_of, prepend=0) != 0) | (np.diff(first[c1], prepend=-1) != 0)
    rank = np.arange(c1.size) - np.flatnonzero(new)[np.cumsum(new) - 1]
    terms = np.zeros(top + 1, dtype=np.int64)  # terms[m]: the most ranks of a group
    np.maximum.at(terms, m_of, rank + 1)
    src = np.full((top + 1, terms.max(initial=0), H), H)
    pair = np.repeat(np.arange(c1.size), h[c1])
    i = np.arange(pair.size) - (np.cumsum(h[c1]) - h[c1])[pair]
    src[m_of[pair], rank[pair], first[c1[pair]] + i] = shift[base[c1[pair]] + i]
    found = []  # (group, m, class, n, lhs, rhs) of the violations
    for m in range(1, top + 1):
        hi = mn_limit // m
        rhs = w[:H, m * m : m * hi + 1 : m].copy()
        for d in divs[m]:
            e = m // d
            rhs[:, ::d] += chi[:, d, None] * w[:H, e * e : e * (hi // d) + 1 : e]
        lhs = w[src[m, : terms[m]], m : hi + 1].sum(axis=0)
        if (lhs == rhs).all():
            continue
        ci, idx = np.nonzero(lhs != rhs)
        gi = np.searchsorted(ends, ci, side="right")
        for g, c, n, a, b in zip(
            gi.tolist(), (ci - first[ci]).tolist(), (idx + m).tolist(),
            lhs[ci, idx].tolist(), rhs[ci, idx].tolist(),
        ):
            found.append((g, m, c, n, a, b))
            if n > m:
                found.append((g, n, c, m, a, b))
    return [
        HeckeViolation(groups[g].q.q, c, m, n, a, b) for g, m, c, n, a, b in sorted(found)
    ]


def _kronecker_columns(ds: tuple[int, ...], N: int) -> np.ndarray:
    """(d/n) for n = 0..N on axis 0, one int8 column per d."""
    out = np.empty((N + 1, len(ds)), dtype=np.int8)
    for j, d in enumerate(ds):
        out[:, j] = kronecker_table(d, N)
    return out


def convolution_check(
    block: _Block, tables: Iterator[np.ndarray], N: int
) -> list[ConvolutionViolation]:
    """Verify, exactly, that every real character's lambda equals the
    Dirichlet convolution (d1/.) * (d2/.) of its split q = d1 d2, for n <= N.

    block holds (group, genus_characters(group)) per q and tables yields
    each group's w-table, up to column N at least, in the same order.  The
    real characters and their splits come from the forms, so the
    convolutions of the whole block are taken first, one column per split
    in one arith.dirichlet_convolve; then each group's lambda rows,
    lambda(n) = sum_C (d1/m_C) w(C, n), are compared with its columns while
    its table is the current one.
    Returns the violations ordered by group, split, n; empty on success.
    """
    d1s, d2s = zip(*((d1, d2) for _, chars in block for d1, d2, _ in chars))
    # int16 holds every partial sum: at most tau(n) < 2^15 terms +-1 for n < 10^15
    conv = arith.dirichlet_convolve(
        _kronecker_columns(d1s, N), _kronecker_columns(d2s, N), dtype=np.int16
    )
    out = []
    col = 0
    for group, chars in block:
        # the table is dropped when the mismatches are in, before the next is built
        out += _mismatches(group.q.q, chars, next(tables), conv[:, col : col + len(chars)], N)
        col += len(chars)
    return out


def _mismatches(
    q: int, chars: list[tuple[int, int, np.ndarray]], w: np.ndarray, conv: np.ndarray, N: int
) -> list[ConvolutionViolation]:
    """The violations of q's real characters chars: lambda from its w-table w
    against conv, one column per character."""
    lam = np.array([row for _, _, row in chars]) @ w[:, : N + 1]
    split, n = np.nonzero(lam[:, 1:] != conv[1:].T)
    return [
        ConvolutionViolation(q, *chars[j][:2], k, int(lam[j, k]), int(conv[k, j]))
        for j, k in zip(split.tolist(), (n + 1).tolist())
    ]
