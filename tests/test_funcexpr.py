"""Parsing and evaluation of scalar function expressions in the variable t."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from opmeans import DomainError, UsageError, funcexpr, parse_function
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


def test_array_input_is_rejected_with_a_plain_type_error():
    # callers that try an array first fall back to scalar calls on TypeError;
    # the rejection must not be a DomainError whose message formats the array
    f = parse_function("sqrt(t)")
    with pytest.raises(TypeError) as info:
        f(np.array([1.0, 4.0]))
    assert not isinstance(info.value, DomainError)
    assert f(np.float64(4.0)) == 2.0
    assert f(np.array(9.0)) == 3.0


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
