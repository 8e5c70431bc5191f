#!/usr/bin/env python3
"""Shows that the benchmark's correctness gate fires.

    python3 perfbench/selftest.py [--seed N]

Runs one short iteration of every workload as it is, where ``failed_share``
must be 0, and once with each planted fault, where it must be above 0:

- ``scan-row``: one row of the scan report is shifted by 0.25;
- ``cache-blob``: one w-table entry of one cache blob is flipped between the
  two ``tabulate`` runs;
- ``ek``: one E_0 value is shifted by 1.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = [
    ("scan", None), ("identities", None), ("tables", None),
    ("scan", "scan-row"), ("tables", "cache-blob"), ("tables", "ek"),
]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    good = True
    for workload, fault in CASES:
        argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                "--seconds", "1"]
        if fault:
            argv += ["--inject", fault]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"FAIL {workload} {fault}: exit code {proc.returncode}")
            good = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        share = result["failed"] / result["attempted"]
        ok = share > 0 if fault else share == 0 and result["correct"]
        good &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload:10s} fault={fault or 'none':10s} "
              f"failed_share={share:.6g} ({result['failed']} of {result['attempted']})")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
