#!/usr/bin/env python3
"""Density tables for small extremal cells and the limiting line-free densities.

Usage:
    python scripts/density_tables.py [--max-n 7] [--forbid 2,3] [--r 2]

Prints the exact per-n maxima (with the basis-density rational) for the
requested forbidden uniform minor, followed by the limiting densities
prod(1 - (q^i-1)/(q^r-1)) for small ranks and field sizes.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from turan_matroids.bounds import euler_product_interval, u2_density
from turan_matroids.extremal import DEFAULT_MAX_NODES, SearchOptions, density_rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--forbid", default="2,3")
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    args = ap.parse_args()
    s, t = (int(x) for x in args.forbid.split(","))

    t0 = time.time()
    print(f"exact maxima, rank {args.r}, forbidding the uniform ({s},{t})-minor")
    print(f"{'n':>3} {'max':>6} {'C(n,r)':>7} {'density':>10} {'exhaustive':>10}")
    for row in density_rows(args.r, s, t, range(args.r, args.max_n + 1),
                            SearchOptions(max_nodes=args.max_nodes)):
        print(
            f"{row['n']:>3} {row['max_bases']:>6} {row['binomial']:>7} "
            f"{str(row['density']):>10} {'yes' if row['exhaustive'] else 'NO':>10}"
        )

    print("\nlimiting densities for forbidden (q+2)-point line minors")
    print(f"{'q':>3} " + " ".join(f"{f'r={r}':>12}" for r in range(2, 7)) + f" {'limit':>14}")
    for q in (2, 3, 4, 5):
        lo, hi = euler_product_interval(q)
        cells = " ".join(f"{float(u2_density(r, q)):>12.8f}" for r in range(2, 7))
        print(f"{q:>3} {cells} {float(lo):>14.10f}")
    print(f"\ntotal time {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
