import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qforms import arith, forms

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def sieve_10k() -> arith.SieveTables:
    return arith.build_sieve(10_000)


@pytest.fixture(scope="session")
def sieve_1m() -> arith.SieveTables:
    return arith.build_sieve(1_000_000)


@pytest.fixture
def wedge_faults():
    """forms._wedge_rows with one kind's clip planted wrong: x >= 0 for
    b = 0, and |x| <= y for a = c (both put fixed points in the wedge)."""
    real = forms._wedge_rows

    def widened(kind, bounds):
        def fault(abc, form, y, lo, hi):
            f2, y2, lo2, hi2 = real(abc, form, y, lo, hi)
            rows = kind(*abc[f2].T)
            wide_lo, wide_hi = bounds(lo[y > 0], hi[y > 0], y2)
            return f2, y2, np.where(rows, wide_lo, lo2), np.where(rows, wide_hi, hi2)

        return fault

    b0_from_x0 = widened(lambda a, b, c: b == 0, lambda lo, hi, y: (np.maximum(lo, 0), hi))
    ac_closed = widened(
        lambda a, b, c: (a == c) & (b != 0) & (b != a),
        lambda lo, hi, y: (np.maximum(lo, -y), np.minimum(hi, y)),
    )
    return b0_from_x0, ac_closed


@pytest.fixture
def swapped_fixed_line_values():
    """forms._fixed_line_values with a swapped candidate: the b = 0 kind
    reads the b = a pair (a, 4c - a)."""
    real = forms._fixed_line_values
    return lambda a, b, c: (a, 4 * c - a) if b == 0 else real(a, b, c)


@pytest.fixture
def pair_off_by_one():
    """FormClassGroup.pairs with the last class's pair index one too low, as
    a property to patch over the class's own."""
    real = forms.FormClassGroup.pairs.func

    def pairs(group):
        reps, pair = real(group)
        return reps, pair[:-1] + [max(pair[-1] - 1, 0)]

    return property(pairs)
