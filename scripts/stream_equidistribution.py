#!/usr/bin/env python3
"""Empirical equidistribution table for a maximal-period stream.

Streams one full period of a minimal map at the requested level and
tabulates how often each residue class mod p^m is hit, for every
m <= level.  A minimal map hits every class mod p^m exactly p^(n-m)
times per period; any deviation is printed loudly.
"""

import argparse
import sys
from collections import Counter

from padicdyn.criteria import decide
from padicdyn.dynamics import IntPolynomial
from padicdyn.odometer import full_cycle_stream


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=3)
    parser.add_argument("--coeffs", type=str, default="1,1,6",
                        help="comma-separated, constant term first")
    parser.add_argument("--level", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    f = IntPolynomial.from_text(args.prime, args.coeffs)
    verdict = decide(f)
    if not verdict.minimal:
        print(f"{f} is not minimal ({verdict.method}); no maximal-period "
              "stream exists", file=sys.stderr)
        return 2

    p, n = args.prime, args.level
    period = p**n
    values = list(full_cycle_stream(f, n, args.seed, period))
    print(f"f = {f}, level {n}, period {period}, seed {args.seed % period}")
    deviations = 0
    for m in range(1, n + 1):
        counts = Counter(x % p**m for x in values)
        expected = p ** (n - m)
        worst = max(abs(counts[c] - expected) for c in range(p**m))
        deviations += worst
        print(f"  mod {p}^{m}: {p**m} classes, expected {expected} hits "
              f"each, worst deviation {worst}")
    if deviations:
        print("equidistribution violated", file=sys.stderr)
        return 1
    print("exact equidistribution at every level")
    return 0


if __name__ == "__main__":
    sys.exit(main())
