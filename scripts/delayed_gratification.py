#!/usr/bin/env python3
"""Compare reward codomains in the delayed-gratification environment.

Prints, for each scheme, when (if ever) the blue arm's exact sample mean
falls below the red arm's in a paired scripted run. Static approximations
flip at their crossover step, confirmed from the two scripted rows around
it where it lies within ``--rounds`` (a failed check exits 1); exact
Laurent rewards and the doubling approximation never flip. ``--rounds`` is
a positive count in ASCII digits: ``-5``, ``0`` or ``1_0`` exits 2 with one
stderr line and no output.
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from narch import RewardScheme, crossover_step, first_flip


def _rounds(text: str) -> int:
    """A positive count in ASCII digits; ``int`` would also read ``1_0``, ``-5`` or ``٢``."""
    # int() raises ValueError past the interpreter's int-from-text digit limit
    if re.fullmatch(r"[0-9]+", text) is None or int(text) < 1:
        raise ValueError(f"--rounds must be a positive integer, got {text!r}")
    return int(text)


def _blue_below_red(m: int, n: int) -> bool:
    """After n presses, whether the blue total m * (floor(log2 n) + 1) is below n red units."""
    return m * n.bit_length() < n


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
            # the scripted rows at predicted - 1 and predicted, from their integer totals:
            # the blue mean falls below the red one at predicted and not before
            if not _blue_below_red(m, predicted) or _blue_below_red(m, predicted - 1):
                print(f"delayed_gratification: {note} is not the first flip", file=sys.stderr)
                return 1
            note += " (confirmed from two scripted rows)"
        print(f"{'approx:' + str(m):<18} {str(predicted):<12} {note}")

    for scheme in (RewardScheme.exact_laurent(), RewardScheme.dynamic_approx(1_000_000)):
        observed = first_flip(scheme, rounds)
        print(f"{scheme.text():<18} {str(observed):<12} no flip in {rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
