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


def _per_item(obj) -> str:
    """The encoder with every float formatted on its own, the reference for
    the one-format encoding of float lists."""
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_per_item, obj)) + "]"
    return jsonio.format_float(obj) if isinstance(obj, float) else jsonio.dumps(obj)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                2.2250738585072014e-308, 0.1, 1e16, 1e17, 2.0, -1.5]


@pytest.mark.parametrize("items", [
    [], [1.0], _EDGE_FLOATS, tuple(_EDGE_FLOATS), [np.float64(x) for x in _EDGE_FLOATS],
    [1.0, np.float64(-0.0), 3], [1.0, True, None, "a", 2], [[0.5, -0.0], (5e-324,), [], 7.0],
    np.random.default_rng(36).standard_normal(40).tolist()],
    ids=["empty", "one", "edges", "tuple", "float64", "with-int", "mixed", "nested", "random"])
def test_float_lists_encode_as_each_float_alone(items):
    assert jsonio.dumps(items) == _per_item(items)
    assert jsonio.dumps({"rows": [items, items]}) == '{"rows": [%s, %s]}' % ((_per_item(items),) * 2)


@pytest.mark.parametrize("items", [
    [1.0, math.nan, math.inf], [2.0, -math.inf, math.nan], [np.float64(1.0), np.float64(math.inf)]],
    ids=["nan", "-inf", "float64-inf"])
def test_float_lists_raise_at_the_first_non_finite_value(items):
    first = next(x for x in items if not math.isfinite(x))
    with pytest.raises(ValueError) as info:
        jsonio.dumps([items])
    assert str(info.value) == f"cannot serialize non-finite float {first!r}"
