#!/usr/bin/env python3
"""Exhaustively compare every decision route over the standard boxes.

Runs the degree-4 box mod 8 at p = 2 and the degree-5 box mod 9 at
p = 3 through the closed form, the decision-level check and a
brute-force orbit walk, and reports agreement counts.  A nonzero
disagreement count is a bug in one of the routes.  The degree-4 box is
every class of the p = 2 certificate; the p = 3 one, the degree-8 box
mod 9, is a sweep of its own (see the README's Tests section).
"""

import argparse
import sys
import time

from padicdyn.sweep import SweepConfig, run_sweep

BOXES = {
    2: SweepConfig(prime=2, degree=4, bound=8),
    3: SweepConfig(prime=3, degree=5, bound=9),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, choices=(2, 3), default=None,
                        help="run a single box instead of both")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    primes = [args.prime] if args.prime else [2, 3]
    failures = 0
    for p in primes:
        base = BOXES[p]
        cfg = SweepConfig(prime=base.prime, degree=base.degree,
                          bound=base.bound, workers=args.threads)
        t0 = time.perf_counter()
        rep = run_sweep(cfg)
        dt = time.perf_counter() - t0
        print(f"p={p}: box {base.bound}^{base.degree} = {rep.total} tuples "
              f"in {dt:.2f}s")
        print(f"  minimal on every route:     {rep.agree_minimal}")
        print(f"  non-minimal on every route: {rep.agree_nonminimal}")
        print(f"  disagreements:              {rep.disagreements}")
        if rep.disagreements:
            failures += 1
            print(f"  first counterexample: {rep.first_counterexample} "
                  f"routes {rep.first_routes}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
