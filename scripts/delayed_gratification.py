#!/usr/bin/env python3
"""Compare reward codomains in the delayed-gratification environment.

Prints, for each scheme, when (if ever) the blue arm's exact sample mean
falls below the red arm's in a paired scripted run. Static approximations
flip at their crossover step; exact Laurent rewards and the doubling
approximation never flip.
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from narch import Ordering, RewardScheme, crossover_step, first_flip, scripted_eval


def _rounds(text: str) -> int:
    """A positive count in ASCII digits; ``int`` would also read ``1_0``, ``-5`` or ``٢``."""
    # int() raises ValueError past the interpreter's int-from-text digit limit
    if re.fullmatch(r"[0-9]+", text) is None or int(text) < 1:
        raise ValueError(f"--rounds must be a positive integer, got {text!r}")
    return int(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", default="100000",
                        help="scan length for the schemes that never flip (positive digits)")
    args = parser.parse_args()
    try:  # a bad count exits 2 before any output
        rounds = _rounds(args.rounds)
    except ValueError as exc:
        print(f"delayed_gratification: invalid input: {exc}", file=sys.stderr)
        return 2

    print(f"{'scheme':<18} {'flip step':<12} note")
    for m in (1000, 1_000_000):
        predicted = crossover_step(m)
        note = f"crossover_step({m}) = {predicted}"
        if predicted is not None and predicted <= rounds:
            # confirmed by the rows: the first one whose blue mean is below the red one
            rows = scripted_eval(predicted, RewardScheme.static_approx(m))
            assert next(r.step for r in rows if r.blue_vs_red is Ordering.LESS) == predicted
            note += " (confirmed by scripted scan)"
        print(f"{'approx:' + str(m):<18} {str(predicted):<12} {note}")

    for scheme in (RewardScheme.exact_laurent(), RewardScheme.dynamic_approx(1_000_000)):
        observed = first_flip(scheme, rounds)
        print(f"{scheme.text():<18} {str(observed):<12} no flip in {rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
