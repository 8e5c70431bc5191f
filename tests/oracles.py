"""Reference paths and recorded values that only the tests read.

psi_k and psi_k_chi are the smoothed Chebyshev sums per class and per
character, summed directly over the prime powers; the tests check them
against brute force and against each other by character orthogonality.
PRESETS and LS_BASELINE are the recorded sieve-ratio experiments of
acceptance criterion 9.
"""

from __future__ import annotations

import math

import numpy as np

from qforms import arith
from qforms.characters import ClassCharacter, WTable, lambda_table
from qforms.sievelab import SieveExperimentConfig


def psi_k(Y: float, c: int, k: int, table: WTable) -> float:
    """(1/k!) sum over n <= Y of Lambda(n) (log Y/n)^k w(C, n), C the class
    of row c of table."""
    if Y > table.N:
        raise ValueError("Y beyond table limit")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if Y < 2:
        return 0.0
    ns, logs = arith.prime_power_table(int(Y))
    wrow = table.w[c, ns]
    terms = logs * wrow * np.log(Y / ns) ** k
    return float(terms.sum()) / math.factorial(k)


def psi_k_chi(Y: float, chi: ClassCharacter, k: int, table: WTable) -> complex:
    """Character-twisted psi: (1/k!) sum of Lambda(n) lambda_chi(n) (log Y/n)^k."""
    if Y > table.N:
        raise ValueError("Y beyond table limit")
    if Y < 2:
        return 0.0 + 0.0j
    ns, logs = arith.prime_power_table(int(Y))
    lam = lambda_table(chi, table)[ns]
    terms = logs * lam * np.log(Y / ns) ** k
    return complex(terms.sum()) / math.factorial(k)


# Measured once with the "baseline" preset below (seed 1, Q=100, N=10^4,
# 100 Rademacher trials), which `qforms sieve-ratio -Q 100 -N 10000
# --trials 100 --seed 1` runs too; criterion 9 asserts max ratio <= 1.5x
# this, and the CLI test asserts it exactly.
LS_BASELINE = 3.3491728946812557e-07

PRESETS: dict[str, SieveExperimentConfig] = {
    "baseline": SieveExperimentConfig(Q=100, N=10_000, trials=100, seed=1),
    "zeros": SieveExperimentConfig(Q=100, N=10_000, trials=1, coeff_source="zeros"),
    "empty-family": SieveExperimentConfig(Q=10, N=1_000, trials=10, seed=1),
    "ones": SieveExperimentConfig(Q=100, N=10_000, trials=1, coeff_source="ones"),
    "delta": SieveExperimentConfig(Q=100, N=10_000, trials=1, coeff_source="delta"),
}
