"""The report encoder: json.dumps's text for everything but floats, which print as .17g."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmeans import UsageError, jsonio

_STRINGS = st.text(st.characters(max_codepoint=0x1F) | st.characters())
# str and int keys only: jsonio writes str(k), so True and None keys read "True" and "None"
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _STRINGS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_STRINGS | st.integers(), kids, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_TREES)
@example({"\x00\x1f ": ["é", "\U0001F600", '"\\/'], 7: (None, True, False, -10 ** 30)})
def test_trees_without_floats_encode_as_json_dumps(tree):
    assert jsonio.dumps(tree) == json.dumps(tree)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(2.0)
def test_every_float_prints_17_digits_and_reads_back_bitwise(x):
    text = format(x, ".17g")
    assert jsonio.dumps(x) == jsonio.dumps(np.float64(x)) == text
    assert jsonio.dumps({"x": [x, (x,)]}) == f'{{"x": [{text}, [{text}]]}}'
    assert float(text).hex() == x.hex()


def test_integral_floats_print_without_a_point():
    assert jsonio.dumps([2.0, -0.0, 1e17, 0.1]) == "[2, -0, 1e+17, 0.10000000000000001]"


def test_bool_and_none_keys_print_as_python_names():
    assert jsonio.dumps({True: 1, None: 2, 3: 4}) == '{"True": 1, "None": 2, "3": 4}'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise_value_error(bad):
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dumps({"x": [1.0, bad]})


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), {1.0}, frozenset()],
                         ids=["int64", "bool_", "set", "frozenset"])
def test_unsupported_types_raise_type_error(bad):
    with pytest.raises(TypeError, match="cannot serialize"):
        jsonio.dumps({"x": [bad]})


def test_malformed_json_text_is_a_usage_error():
    with pytest.raises(UsageError, match="invalid JSON: Expecting property name"):
        jsonio.loads("{")
