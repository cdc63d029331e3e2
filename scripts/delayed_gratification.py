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

from narch import Ordering, RewardScheme, crossover_step, first_flip, scripted_eval


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
            # confirmed by the rows: the first one whose blue mean is below the red one
            rows = scripted_eval(predicted, RewardScheme.static_approx(m))
            assert next(r.step for r in rows if r.blue_vs_red is Ordering.LESS) == predicted
            note += " (confirmed by scripted scan)"
        print(f"{'approx:' + str(m):<18} {str(predicted):<12} {note}")

    for scheme in (RewardScheme.exact_laurent(), RewardScheme.dynamic_approx(1_000_000)):
        observed = first_flip(scheme, args.rounds)
        print(f"{scheme.text():<18} {str(observed):<12} no flip in {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
