#!/usr/bin/env python3
"""Compare reward codomains in the delayed-gratification environment.

Prints, for each scheme, when (if ever) the blue arm's exact sample mean
falls below the red arm's in a paired scripted run. Static approximations
flip at their crossover step; exact Laurent rewards and the doubling
approximation never flip.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from narch.bandit import KIND_LAURENT, RewardScheme, _bands, crossover_step


def first_flip(scheme: RewardScheme, rounds: int):
    """First round of a paired scripted run whose blue mean is below the red one.

    Decided once per power-of-two band: a rational blue total num/den is
    below the red total of ``step`` units exactly when step > num/den, so
    the band's first such step is num // den + 1 or its first step. A
    Laurent total holds an eps^-1 term and never falls below.
    """
    if scheme.kind == KIND_LAURENT:
        return None
    for first, last, _, num, den in _bands(rounds, scheme):
        if num // den < last:
            return max(first, num // den + 1)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=100_000,
                        help="scan length for the schemes that never flip")
    args = parser.parse_args()

    print(f"{'scheme':<18} {'flip step':<12} note")
    for m in (1000, 1_000_000):
        predicted = crossover_step(m)
        note = f"crossover_step({m}) = {predicted}"
        if predicted is not None and predicted <= args.rounds:
            observed = first_flip(RewardScheme.static_approx(m), args.rounds)
            assert observed == predicted
            note += " (confirmed by scripted scan)"
        print(f"{'approx:' + str(m):<18} {str(predicted):<12} {note}")

    for scheme in (RewardScheme.exact_laurent(), RewardScheme.dynamic_approx(1_000_000)):
        observed = first_flip(scheme, args.rounds)
        print(f"{scheme.text():<18} {str(observed):<12} no flip in {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
