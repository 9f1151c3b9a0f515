import math
import re
import warnings
from importlib import resources

import numpy as np
import pytest

from ddebound.cli import main
from ddebound.config import load_config_text
from ddebound.expressions import (_MAX_DEPTH, EvaluationError, ExpressionSyntaxError,
                                  parse_expression)
from ddebound.timefn import ConstantFn


def test_bundled_coefficient_forms():
    assert parse_expression("-3 + 0.1*sin(5*t)")(0.0) == -3.0
    assert parse_expression("exp(-t)")(0.0) == 1.0
    omega = parse_expression("1 + 0.1*sin(1*t) + 0.1*sin(3.14*t)")
    assert omega(0.0) == 1.0
    t = 0.37
    expected = 1 + 0.1 * math.sin(t) + 0.1 * math.sin(3.14 * t)
    assert omega(t) == pytest.approx(expected, abs=1e-15)


def test_precedence_and_associativity():
    assert parse_expression("-3^2")(0.0) == -9.0     # ^ binds above unary -
    assert parse_expression("(-3)^2")(0.0) == 9.0
    assert parse_expression("2^3^2")(0.0) == 512.0   # right associative
    assert parse_expression("6/3/2")(0.0) == 1.0     # left associative
    assert parse_expression("2^-3")(0.0) == 0.125
    assert parse_expression("1 - 2 - 3")(0.0) == -4.0
    assert parse_expression("2 + 3*4")(0.0) == 14.0
    assert parse_expression("-2*3")(0.0) == -6.0


def test_functions_and_numbers():
    assert parse_expression("abs(-2.5)")(0.0) == 2.5
    assert parse_expression("cos(0)")(1.0) == 1.0
    assert parse_expression("1e-3")(0.0) == 1e-3
    assert parse_expression("2.5E2")(0.0) == 250.0
    assert parse_expression(".5")(0.0) == 0.5


@pytest.mark.parametrize("text", [
    "foo(1)",          # unknown identifier
    "sin 1",           # missing parens
    "(1 + 2",          # unbalanced
    "sin()",           # empty argument
    "",                # empty input
    "1 + * 2",         # dangling operator
    "x + 1",           # unknown variable
])
def test_syntax_errors(text):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(text)


@pytest.mark.parametrize("text, column", [
    ("t^2 + 0x10", 7),          # only the decimal number form
    ("t^2 + 1_000", 7),
    ("t^2 + 1j", 7),
    ("t^2 + +t", 7),            # no unary plus
    ("t^2 + (t < 1)", 8),
    ("t^2 + sin(t, t)", 7),     # one positional argument
    ("t^2 + sin(x=t)", 7),
    ("t^2 + 2**3", 8),          # powers are written ^
    ('t^2 + "t"', 7),
    ("t^2 + [t]", 7),
    ("t^2 + t.real", 7),
    ("t^2 + π*t", 7),
    ("t^2 + 05", 7),            # Python's tokenizer refuses leading zeros
    ("t^2 + t # 2", 9),         # not a comment
    ("t^2 +\n  sin", 9),
    ("1or 2", 1),               # a number run into a name, which Python's
    ("1e5or 2", 1),             # tokenizer would warn about on stderr
    ("2t", 1),
    ("5.t", 1),
    ("1.5e-3x", 1),
    ("t + 1if t else 2", 5),
    ("t^2 + 0x1for 2", 7),
    ("t.5or 2", 2),             # a name ends before the dot
])
def test_refusal_column(text, column, capfd):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
    assert err.value.column == column, str(err.value)
    assert caught == [] and capfd.readouterr().err == ""


@pytest.mark.parametrize("text, value", [
    ("  t  ", lambda t: t),
    ("1\n+2", lambda t: 3.0),
    ("\u00a0t\t+\x1c1", lambda t: t + 1.0),    # any whitespace reads as a space
    (".5", lambda t: 0.5),
    ("5.", lambda t: 5.0),
    ("2.5E2", lambda t: 250.0),
    ("1e5", lambda t: 1e5),
    ("5.e3", lambda t: 5e3),
    ("1E+5", lambda t: 1e5),
    ("1e-3*t", lambda t: 1e-3 * t),
    ("-3^2", lambda t: -9.0),
    ("2^-3", lambda t: 0.125),
    ("2^3^2", lambda t: 512.0),
])
def test_accepted_text(text, value):
    fn = parse_expression(text)
    for t in (0.0, 0.5, 2.0):
        assert fn(t) == value(t)


def test_config_with_a_number_run_into_a_name_exits_2_without_a_warning(tmp_path, capfd):
    cfg = tmp_path / "or.cfg"
    cfg.write_text("[system]\ndim = 1\nA0 1 1 = 1or 2\nhistory = constant 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert caught == []
    err = capfd.readouterr().err
    assert f"{cfg}:3: bad expression: column 1: number '1' runs into 'o'" in err
    assert "Warning" not in err


def test_syntax_error_column_is_reported():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 + foo(2)")
    assert err.value.column == 5
    assert "column 5" in str(err.value)


def test_evaluation_errors():
    # a constant is evaluated once, when it is parsed
    for text in ("1/0", "1e308*10", "(-2)^0.5"):
        with pytest.raises(EvaluationError, match=re.escape(repr(text))):
            parse_expression(text)


def test_constant_detection():
    constant = parse_expression("3*4 - 2^2")
    assert isinstance(constant, ConstantFn) and constant.value == 8.0
    varying = parse_expression("3*t")
    assert varying.source[0] == "t" and varying(2.0) == 6.0


def _random_text(rng, depth: int) -> str:
    """Random text of the language: optional parentheses, every number form
    and whitespace between the tokens."""
    def space() -> str:
        return str(rng.choice(["", " ", "  ", "\t", "\n"]))

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return "t"
        value = np.round(rng.uniform(0.0, 9.0), 3)
        return str(rng.choice([repr(float(value)), str(int(value) or 1), f"{value:.2e}",
                               f"{value:.3E}", f"{value % 1:.3f}"[1:]]))
    choice = rng.random()
    if choice < 0.15:
        text = f"-{space()}{_random_text(rng, depth - 1)}"
    elif choice < 0.3:
        name = ("sin", "cos", "exp", "abs")[rng.integers(0, 4)]
        text = f"{name}({space()}{_random_text(rng, depth - 1)}{space()})"
    else:
        op = ("+", "-", "*", "/", "^")[rng.integers(0, 5)]
        text = space().join([_random_text(rng, depth - 1), op, _random_text(rng, depth - 1)])
    return f"({space()}{text}{space()})" if rng.random() < 0.5 else text


def test_random_texts_parse_and_run():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        text = _random_text(rng, 4)
        try:
            fn = parse_expression(text)
        except EvaluationError:
            assert "t" not in text, text      # only a constant is evaluated on parsing
            continue
        try:
            value = fn(0.7)
        except (ArithmeticError, ValueError):
            continue
        assert isinstance(value, float), text


# written as A0 1 1 = -3 + 0.001*(E) on line 3, a shape E of level n: its
# floor, the deepest level the hand-written parser read, and its deepest
# accepted level.  The tree of the sum, the minus chain and sin is n + 3 nodes
# deep, that of the power chain n + 2; parentheses make no node, and Python's
# tokenizer stops at 200 nested ones, one of which is the wrapper's.
SHAPES = {
    "sum": (197, _MAX_DEPTH - 3, lambda n: "+".join(["0.001*t"] * n)),
    "minus": (197, _MAX_DEPTH - 3, lambda n: "-" * n + "t"),
    "power": (199, _MAX_DEPTH - 2, lambda n: "^".join(["1.0"] * n)),
    "parentheses": (194, 199, lambda n: "(" * n + "t" + ")" * n),
    "sin": (162, _MAX_DEPTH - 3, lambda n: "sin(" * n + "t" + ")" * n),
}


def _deep_config(shape: str, level: int) -> str:
    return (f"[system]\ndim = 1\nA0 1 1 = -3 + 0.001*({SHAPES[shape][2](level)})\n"
            "history = constant 1\n[solver]\nhorizon = 1\n")


@pytest.mark.parametrize("shape", SHAPES)
def test_deep_expressions_load_up_to_the_limit(shape):
    floor, deepest, _text = SHAPES[shape]
    assert floor <= deepest
    for level in (floor, deepest):
        cfg = load_config_text(_deep_config(shape, level), "<test>")
        assert cfg.a0(0.0)[0, 0] == pytest.approx(-3.0, abs=1e-2)


@pytest.mark.parametrize("shape", SHAPES)
def test_too_deep_expressions_exit_2(shape, tmp_path, capsys):
    for level in (SHAPES[shape][1] + 1, 1000, 5000):
        cfg = tmp_path / f"{shape}_{level}.cfg"
        cfg.write_text(_deep_config(shape, level))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"{cfg}:3: bad expression" in capsys.readouterr().err


def test_deepest_call_chains_run_through_every_stage(tmp_path):
    # generated code nests the bodies it inlines in parentheses of its own:
    # the deepest call chains still compile in each right side, the numerical
    # reduction and the majorant built from them
    text = resources.files("ddebound").joinpath("configs/planar_case_a.cfg").read_text()
    text = text.replace("A0 1 1 = -3 + 0.1*sin(5*t)",
                        "A0 1 1 = " + "sin(" * (_MAX_DEPTH - 1) + "t" + ")" * (_MAX_DEPTH - 1))
    text = text.replace("e 2 = sin(10*t)",
                        "e 2 = " + "abs(" * (_MAX_DEPTH - 3) + "sin(10*t)" + ")" * (_MAX_DEPTH - 3))
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg), "--horizon", "2", "--out", str(tmp_path)]) == 0
