"""Parsing and evaluation of scalar function expressions in the variable t."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from opmeans import (DomainError, MeanDescriptor, MonoConfig, UsageError, falsify_transfer,
                     funcexpr, is_operator_monotone_sampled, parse_function, spd)
from opmeans.cli import main


def test_basic_expressions():
    assert parse_function("t^2")(3.0) == 9.0
    assert parse_function("sqrt(t)")(4.0) == 2.0
    assert parse_function("abs(t-2)")(1.0) == 1.0
    assert parse_function("t**2")(3.0) == 9.0
    assert parse_function("2*t/(1+t)")(3.0) == pytest.approx(1.5)
    f = parse_function("(exp(t)-1)/(exp(1)-1)")
    assert f(1.0) == pytest.approx(1.0, rel=1e-15)
    assert f(0.0) == pytest.approx(0.0, abs=1e-15)


def test_precedence_and_associativity():
    assert parse_function("2+3*4")(0.0) == 14.0
    assert parse_function("2*3^2")(0.0) == 18.0
    assert parse_function("2^3^2")(0.0) == 512.0     # right-associative
    assert parse_function("2**3**2")(0.0) == 512.0
    assert parse_function("-t^2")(2.0) == -4.0       # unary binds looser
    assert parse_function("-t**2")(2.0) == -4.0
    assert parse_function("(-t)^2")(2.0) == 4.0
    assert parse_function("2^-1")(0.0) == 0.5
    assert parse_function("6/3/2")(0.0) == 1.0       # left-associative
    assert parse_function("1-2-3")(0.0) == -4.0
    assert parse_function("--t")(2.0) == 2.0
    assert parse_function("+t")(2.0) == 2.0
    assert parse_function("2^-t")(1.0) == 0.5


def test_constants_and_whitespace():
    assert parse_function("e")(0.0) == math.e
    assert parse_function("pi")(0.0) == math.pi
    assert parse_function("  t +  1 ")(2.0) == 3.0
    assert parse_function("t\n+ 1")(2.0) == 3.0
    assert parse_function("0.5*(t^0.25 + t^0.75)")(1.0) == 1.0


def test_number_formats():
    assert parse_function("1e-3")(0.0) == 1e-3
    assert parse_function("2.5E2")(0.0) == 250.0
    assert parse_function(".5")(0.0) == 0.5
    assert parse_function("01")(0.0) == 1.0          # digits, not Python literals
    assert parse_function("t^007")(2.0) == 128.0


def test_source_is_kept():
    f = parse_function("t^0.3")
    assert f.source == "t^0.3"


def test_parse_errors_carry_position():
    for bad in ("t +", "2 *", "(t", "t)", "", "   ", "t @ 2", "foo(t)",
                "sqrt", "sqrt 2", "1 2", "t t", "t ** ", "t***2", "abs t",
                "t(2)", "(t)(t)", "(sqrt)(t)", "sqrt(t)(t)", "e(t)", "sqrt(t,)", "0x10",
                "1_0", "1j", "t # c", "t % 2", "t // 2", "t < 1", "not t",
                "t if t else t", "True", "[t]"):
        with pytest.raises(UsageError):
            parse_function(bad)
    with pytest.raises(UsageError, match="position"):
        parse_function("t + $")
    with pytest.raises(UsageError, match="position"):
        parse_function("t + (t")


@pytest.mark.parametrize("source, message", [
    ("t + $", "unexpected character '$' at position 4"),
    ("1.2.3*t", "malformed number '1.2.3' at position 0"),
    ("x + 1", "unknown name 'x' at position 0"),
    ("x + $", "unexpected character '$' at position 4")])   # scanning comes first
def test_scanning_and_name_errors_give_exact_messages(source, message):
    with pytest.raises(UsageError) as info:
        parse_function(source)
    assert str(info.value) == message


def test_unicode_digits_and_spaces():
    # decimal digits of any script are numbers and any Unicode space is
    # whitespace; superscripts and vulgar fractions are not numbers
    assert parse_function("\u0663*t")(2.0) == 6.0          # Arabic-Indic three
    assert parse_function("t\u00a0+ 1")(2.0) == 3.0        # a no-break space
    for bad in ("t\u00b2", "\u00bd*t"):
        with pytest.raises(UsageError):
            parse_function(bad)


def test_unknown_name_rejected_at_parse_time():
    with pytest.raises(UsageError, match="x"):
        parse_function("x + 1")
    with pytest.raises(UsageError):
        parse_function("sin(t)")


def test_domain_errors_at_evaluation():
    with pytest.raises(DomainError):
        parse_function("log(t)")(-1.0)
    with pytest.raises(DomainError):
        parse_function("sqrt(t)")(-4.0)
    with pytest.raises(DomainError):
        parse_function("1/t")(0.0)
    with pytest.raises(DomainError):
        parse_function("exp(t)")(1e6)          # overflow surfaces as domain
    with pytest.raises(DomainError):
        parse_function("t^t")(-0.5)            # complex result rejected
    with pytest.raises(DomainError):
        parse_function("abs(t^0.5)")(-1.0)     # no modulus of a complex value


def test_evaluation_is_plain_float():
    v = parse_function("t^2 + 1")(1.5)
    assert isinstance(v, float)
    assert v == 3.25


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_array_input_gives_the_float_values_or_a_plain_error():
    # callers that try an array first fall back to scalar calls when it
    # raises; the error must not be a DomainError whose message formats the
    # array, and scalars keep their own path
    f = parse_function("sqrt(t)")
    x = np.array([1.0, 2.0, 4.0, 1e-300, 0.0, 123.5])
    assert _bits(f(x)) == _bits([f(v) for v in x.tolist()])
    assert _bits(f(x.reshape(2, 3))) == _bits(f(x).reshape(2, 3))
    for source in ("t", "+t", "sqrt(2)", "2"):      # no array node: a new array all the same
        g = parse_function(source)
        got = g(x.reshape(2, 3))
        assert got.shape == (2, 3) and got.dtype == float and not np.shares_memory(got, x)
        assert _bits(got.ravel()) == _bits([g(v) for v in x.tolist()])
    with pytest.raises(Exception) as info:
        f(np.array([4.0, -123.5]))
    assert not isinstance(info.value, DomainError)
    assert "123.5" not in str(info.value)
    assert f(np.float64(4.0)) == 2.0
    assert f(np.array(9.0)) == 3.0
    assert isinstance(f(np.array(9.0)), float)


# the functions the sampler is pointed at: consistent, then refuted
_SAMPLER_EXPRESSIONS = ("sqrt(t)", "t^0.3", "t/(1+t)", "log(1+t)", "t", "2*t/(1+t)",
                        "0.5*(t^0.25+t^0.75)", "t - 1/t", "-1/t", "t^0.999", "log(t)",
                        "t^2", "t^3", "(exp(t)-1)/(exp(1)-1)", "t^1.01", "t^1.001")
# (expression, a good point set, a point set the array call fails on): domain
# edges of every array operation, and non-finite values that a later node
# would hide (the float path gives nan, 0 or inf there without an error)
_EDGE_EXPRESSIONS = (("sqrt(t-5)", [5.5, 6.0], [4.0, 6.0]), ("log(t-1)", [1.5, 2.0], [1.0, 2.0]),
                     ("1/(t-1)", [2.0, 3.0], [2.0, 1.0]), ("(t-2)^0.5", [3.0, 4.0], [3.0, 1.5]),
                     ("sqrt(t-2)^0", [3.0, 4.0], [3.0, 1.0]),
                     ("exp(t)", [1.0, 709.78], [709.78, 709.79]),
                     ("t^t", [0.5, 2.0], [0.5, -0.5]), ("abs(t-1)^-1", [2.0, 3.0], [1.0, 3.0]),
                     ("1/(1/(t-1))", [2.0, 3.0], [2.0, 1.0]),
                     ("1/(1e300*t*t)", [1.0, 2.0], [1.0, 1e10]),
                     ("t+1e308", [1.0, 2.0], [1e308, 2.0]),          # overflow in +
                     ("-1e308-t", [1.0, 2.0], [1e308, 2.0]),         # overflow in -
                     ("(t-1)/(t-1)", [2.0, 3.0], [1.0, 3.0]))        # 0/0


def _scalar_only(f):
    return lambda t: f(float(t))


def _errors(errors) -> list:
    return None if errors is None else [e and (type(e), str(e)) for e in errors]


@pytest.mark.parametrize("source", _SAMPLER_EXPRESSIONS)
def test_array_path_is_bitwise_the_float_path(source):
    f = parse_function(source)
    x = np.logspace(-3.0, 2.5, 2001)
    assert _bits(f(x)) == _bits([f(v) for v in x.tolist()])


# with _SAMPLER_EXPRESSIONS, every row of the operation table: abs, e and pi,
# negation of a function, a unary plus and t^t
_ROW_EXPRESSIONS = ("abs(t-3)", "pi*t^e", "-exp(-t)", "sqrt(t)*log(t)", "t^t", "+t/e - 2")


@pytest.mark.parametrize("source", _ROW_EXPRESSIONS)
def test_every_operation_on_an_array_is_bitwise_the_float_path(source):
    f = parse_function(source)
    x = np.logspace(-3.0, 2.0, 2001)
    assert _bits(f(x)) == _bits([f(v) for v in x.tolist()])


def test_the_bitwise_expressions_use_every_row_of_the_table():
    used = set()
    for source in (*_SAMPLER_EXPRESSIONS, *_ROW_EXPRESSIONS):
        text, _ = funcexpr._python_source(funcexpr._tokenize(source))
        for node in ast.walk(ast.parse(text, mode="eval")):
            if isinstance(node, (ast.BinOp, ast.UnaryOp)):
                used.add(type(node.op))
            elif isinstance(node, ast.Call):
                used.add(node.func.id)
            elif isinstance(node, ast.Name) and node.id in ("t", "_k", "e", "pi"):
                used.update(("t",) if node.id == "t" else ("const", node.id))
    assert set(funcexpr._OPS) | {"e", "pi"} <= used


@pytest.mark.parametrize("source, good, bad", _EDGE_EXPRESSIONS)
def test_array_path_at_domain_edges_falls_back_to_the_float_path(source, good, bad):
    # a good set, a bad one, the good one again: the array call raises a plain
    # error, and the per-point fallback gives the float path's values and errors
    f = parse_function(source)
    x = np.array([*good, *bad, *good])
    assert _bits(f(np.array(good))) == _bits([f(v) for v in good])
    with pytest.raises(Exception) as info:
        f(x)
    assert not isinstance(info.value, DomainError)
    values, errors = spd._evaluate_sets(f, x.copy(), [2, 2, 2])
    want, want_errors = spd._evaluate_sets(_scalar_only(f), x.copy(), [2, 2, 2])
    assert _bits(values) == _bits(want)
    assert _errors(errors) == _errors(want_errors)
    assert want_errors[0] is None and want_errors[2] is None


@pytest.mark.parametrize("source", [*_SAMPLER_EXPRESSIONS, *(e[0] for e in _EDGE_EXPRESSIONS)])
def test_checks_on_a_parsed_function_equal_those_on_its_float_path(source):
    # the sampler and the transfer search call f once on all their points,
    # which a parsed function answers unless a point is off its domain; the
    # verdicts, trials_run and witnesses are those of one call per point
    f = parse_function(source)
    geo, arith = MeanDescriptor.geometric(), MeanDescriptor.arithmetic()
    for seed in (0, 3, 7):
        config = MonoConfig(trials=40, seed=seed)
        got, want = (is_operator_monotone_sampled(g, None, config).to_json_dict()
                     for g in (f, _scalar_only(f)))
        assert got == want
        got, want = (falsify_transfer(g, geo, arith, trials=24, seed=seed).to_json_dict()
                     for g in (f, _scalar_only(f)))
        assert got == want


def test_an_infinite_number_sends_every_array_to_the_float_path():
    # 1e999 reads as inf; 1/inf is 0 for numpy and Python alike, but the
    # array evaluator refuses every non-finite value, constants included
    for source in ("1/1e999 + t", "1e999*0 + t"):
        with pytest.raises(FloatingPointError):
            parse_function(source)(np.array([2.0, 3.0]))
    assert parse_function("1/1e999 + t")(2.0) == 2.0
    assert math.isnan(parse_function("1e999*0 + t")(2.0))
    # so does an infinite input: inf/0 is inf and sets no floating-point
    # flag, where Python raises
    f = parse_function("1/(t/0)")
    with pytest.raises(FloatingPointError):
        f(np.array([np.inf, np.inf]))
    with pytest.raises(DomainError):
        f(np.inf)


def test_deep_input_is_a_usage_error():
    # an uncaught RecursionError here would reach the CLI as exit 1, which
    # means "refuted"
    for deep in ("(" * 300 + "t" + ")" * 300, "+".join(["t"] * 3001)):
        with pytest.raises(UsageError):
            parse_function(deep)
        assert main(["check-monotone", "--fn", deep]) == 2
    assert parse_function("-" * 5001 + "t")(2.0) == -2.0      # sign runs fold


def test_parser_never_evaluates_code():
    # user text reaches Python only through ast.parse and the node whitelist
    tree = ast.parse(Path(funcexpr.__file__).read_text(encoding="utf-8"))
    banned = {"eval", "exec", "compile"}
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in banned)
             or (isinstance(node, ast.Attribute) and node.attr in banned)]
    assert found == [], f"eval, exec or compile in funcexpr.py: {found}"
