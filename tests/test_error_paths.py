"""Raises and operator fallbacks that the other test files do not reach in process.

Each row pins one path's exception type and its whole message. An unknown
``RunConfig`` mode is left out: ``test_cli.TestBadMode`` pins its message
through the CLI, from the flag and from a config file.
"""

import re
from fractions import Fraction

import pytest

from narch.bandit import RewardScheme
from narch.laurent import ONE, PLUS_INFINITY, ZERO, parse, series_from_json, series_to_json
from narch.measurement import assignment_from_json, chain_prefix_structure, structure_from_json
from narch.sig_order import certificate_from_json, laurent_nonarch_witness

_ZERO_JSON = series_to_json(ZERO)

# (id, call, exception type, whole message)
RAISES = [
    ("series-not-object", lambda: series_from_json([]), ValueError,
     "series JSON must be an object with a 'terms' list"),
    ("series-terms-not-list", lambda: series_from_json({"terms": {}}), ValueError,
     "'terms' must be a list of [exponent, coefficient] pairs"),
    ("series-entry-not-pair", lambda: series_from_json({"terms": [[0]]}), ValueError,
     "bad term entry [0]"),
    ("series-bool-exponent", lambda: series_from_json({"terms": [[True, "1"]]}), ValueError,
     "bad exponent True"),
    ("structure-keys", lambda: structure_from_json({"elements": []}), ValueError,
     "structure JSON must have 'elements' and 'relation'"),
    ("structure-elements", lambda: structure_from_json({"elements": "ab", "relation": []}),
     ValueError, "'elements' must be a list of labels"),
    ("structure-relation", lambda: structure_from_json({"elements": [], "relation": {}}),
     ValueError, "'relation' must be a list of [x1, x2] pairs"),
    ("assignment-keys", lambda: assignment_from_json({"values": {}}), ValueError,
     "assignment JSON must have 'values' and 'r'"),
    ("assignment-values", lambda: assignment_from_json({"values": [], "r": "1"}), ValueError,
     "'values' must map labels to rationals"),
    ("certificate-not-object", lambda: certificate_from_json([]), ValueError,
     "certificate JSON must be an object"),
    ("certificate-chain", lambda: certificate_from_json(
        {"lower": _ZERO_JSON, "upper": _ZERO_JSON, "chain": {"base": _ZERO_JSON}}
    ), ValueError, "certificate 'chain' must have 'base' and 'step'"),
    ("chain-length", lambda: chain_prefix_structure(0), ValueError,
     "chain length must be positive"),
    ("witness-length", lambda: laurent_nonarch_witness(1, 0), ValueError,
     "prefix length must be positive"),
    ("scheme-kind", lambda: RewardScheme("exact"), ValueError, "unknown scheme kind 'exact'"),
    # each series operator returns NotImplemented, and so does the other operand
    ("series-add", lambda: ONE + 1, TypeError,
     "unsupported operand type(s) for +: 'LaurentSeries' and 'int'"),
    ("series-sub", lambda: ONE - Fraction(1), TypeError,
     "unsupported operand type(s) for -: 'LaurentSeries' and 'Fraction'"),
    ("series-mul", lambda: ONE * 1.5, TypeError,
     "unsupported operand type(s) for *: 'LaurentSeries' and 'float'"),
    ("series-rmul", lambda: None * ONE, TypeError,
     "unsupported operand type(s) for *: 'NoneType' and 'LaurentSeries'"),
    ("series-lt", lambda: ONE < 1, TypeError,
     "'<' not supported between instances of 'LaurentSeries' and 'int'"),
    ("infinity-lt", lambda: PLUS_INFINITY < "1", TypeError,
     "'<' not supported between instances of 'PlusInfinity' and 'str'"),
    ("infinity-add", lambda: PLUS_INFINITY + Fraction(1), TypeError,
     "unsupported operand type(s) for +: 'PlusInfinity' and 'Fraction'"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in RAISES],
                         ids=[row[0] for row in RAISES])
def test_raises_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_series_equality_with_a_non_series_is_false():
    # __eq__ returns NotImplemented, and Python falls back to identity
    assert (ONE == 1, ONE != 1, 1 == ONE) == (False, True, False)


def test_series_product_through_the_operator():
    a, b = parse("1 + 2 eps^1"), parse("1/2 eps^-1 - 1")
    assert a * b == parse("1/2 eps^-1 - 2 eps^1")
    assert repr(a * ZERO) == "LaurentSeries('0')"


def test_plus_infinity_repr():
    assert repr(PLUS_INFINITY) == "PlusInfinity"
