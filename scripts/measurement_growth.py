#!/usr/bin/env python3
"""Show why one real-valued measurement cannot serve every chain prefix.

The minimum feasible top value of an accurate measurement grows linearly
with the chain length, while any bounded monotone measurement of the same
chain plateaus: past some index, consecutive values are closer than any
fixed tolerance. ``--r`` and ``--tol`` are lone rationals, read as the CLI
reads them: a value that is not one, or is not positive, exits 2 with one
stderr line and no output.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from narch.laurent import as_rational
from narch.measurement import diminishing_returns_index, min_feasible_top


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", default="1", help="threshold (rational)")
    parser.add_argument("--tol", default="1/100", help="plateau tolerance (rational)")
    args = parser.parse_args()
    lengths = [0] + [2**k for k in range(13)]  # up to 4096
    bounded = [1 - Fraction(1, 2**i) for i in range(40)]
    try:  # read like the CLI's rationals; a bad value exits 2 before any output
        r = as_rational(args.r)
        tol = as_rational(args.tol)
        tops = [min_feasible_top(length, r) for length in lengths]
        index = diminishing_returns_index(bounded, tol)
    except ValueError as exc:
        print(f"measurement_growth: invalid input: {exc}", file=sys.stderr)
        return 2

    print(f"minimum feasible top (threshold r = {r}):")
    for length, top in zip(lengths, tops):
        print(f"  chain index {length:>5}: {top}")
    print(f"\nbounded measurement 1 - 2^-i plateaus at index {index} (tolerance {tol})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
