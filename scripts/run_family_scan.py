#!/usr/bin/env python3
"""Run the averaged prime-distribution scans over the discriminant family.

Prints the normalized aggregates for both the max-deviation (bv) and
mean-square (bdh) statistics at a few X values, so the decay of the
normalized ratio with X is visible directly, then the per-q bv table at
the last X.
"""

import argparse

from qforms import arith, stats


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-Q", type=float, default=50)
    ap.add_argument("-X", type=int, nargs="+", default=[10_000, 100_000, 1_000_000])
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    sieve = arith.build_sieve(max(args.X))
    for x in args.X:
        bv = stats.bv_statistic(args.Q, x, sieve, threads=args.threads)
        bdh = stats.bdh_statistic(args.Q, x, sieve, threads=args.threads)
        print(
            f"X={x:>9d}  bv aggregate={bv.aggregate:12.3f}"
            f"  normalized={bv.normalized:.5f}"
            f"  |  bdh aggregate={bdh.aggregate:14.3f}"
            f"  normalized={bdh.normalized:.3e}"
        )
    print()
    print(bv.to_csv())


if __name__ == "__main__":
    main()
