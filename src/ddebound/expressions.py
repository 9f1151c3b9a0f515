"""Small arithmetic expression language for time-varying coefficients.

Grammar (recursive descent, 1-based column positions in errors)::

    expression := term (('+' | '-') term)*
    term       := unary (('*' | '/') unary)*
    unary      := '-' unary | power
    power      := atom ('^' unary)?          # right associative
    atom       := NUMBER | 't' | NAME '(' expression ')' | '(' expression ')'

Precedence is ``^`` > unary ``-`` > ``*`` ``/`` > ``+`` ``-``; all binary
operators are left associative except ``^``.  The only variable is ``t``; the
available functions are ``sin``, ``cos``, ``exp`` and ``abs``.

Expressions are evaluated in real arithmetic (``math.pow`` semantics, so a
negative base with a fractional exponent is an error rather than a complex
number).  Each node compiles once to a Python callable: `Expression.compiled`
returns it for integration loops, and `Expression.evaluate`, the strict
evaluator used during validation, runs it and rejects non-finite results.
The compiler, `_generate`, also builds the package's other generated
functions (comparison coefficients and right sides), which inline the source
of the compiled expressions they read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Expression",
    "Num",
    "TimeVar",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionSyntaxError",
    "EvaluationError",
    "parse_expression",
]

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs}
# names the generated source refers to; non-finite literals print as inf, nan
_NAMESPACE = {**{f"_{name}": fn for name, fn in _FUNCTIONS.items()},
              "_pow": math.pow, "_sqrt": math.sqrt, "_hypot": math.hypot,
              "inf": math.inf, "nan": math.nan}

_BINARY_OPS = ("+", "-", "*", "/", "^")


def _generate(params: str, result: str, names=None, lines=(), namespace=_NAMESPACE):
    """``def _generated(params): lines; return result``, compiled once from
    generated source (never user text) with the expression functions and
    ``names`` in scope.

    The function keeps ``(params, lines, result, names)`` as ``source``:
    generated code reading a function of ``t`` alone without statements
    inlines its body instead of calling it, and `timefn.grid_values` runs a
    function of ``t`` on a whole array of times, with ``namespace`` in place
    of the scalar expression functions.
    """
    names = dict(names or {})
    text = "\n    ".join([f"def _generated({params}):", *lines, f"return {result}"])
    scope = {**namespace, **names}
    exec(text, scope)
    fn = scope["_generated"]
    fn.source = (params, tuple(lines), result, names)
    return fn


class ExpressionSyntaxError(ValueError):
    """Raised on malformed expression text; carries the 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class EvaluationError(ArithmeticError):
    """Raised when an expression does not evaluate to a finite real number."""


class Expression:
    """Base class of AST nodes."""

    __slots__ = ()

    def evaluate(self, t: float) -> float:
        """Strictly evaluate at time ``t``; non-finite results are errors."""
        try:
            value = self.compiled()(t)
        except ZeroDivisionError as exc:
            raise EvaluationError(f"division by zero at t={t!r}") from exc
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(f"{exc} at t={t!r}") from exc
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite value {value!r} at t={t!r}")
        return value

    def compiled(self):
        """The ``t -> float`` callable behind :meth:`evaluate`, compiled once
        per node; it does not check finiteness."""
        return self._compiled

    @cached_property
    def _compiled(self):
        return _generate("t", self._source())

    def is_constant(self) -> bool:
        raise NotImplementedError

    def constant_value(self) -> float:
        """Value of a time-independent expression."""
        if not self.is_constant():
            raise ValueError("expression depends on t")
        return self.evaluate(0.0)

    def _source(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._format(0)

    def _format(self, context: int) -> str:
        raise NotImplementedError


# Precedence levels used by the printer: additive=1, multiplicative=2,
# unary minus=3, power=4, atoms=5.


@dataclass(frozen=True)
class Num(Expression):
    value: float

    def is_constant(self) -> bool:
        return True

    def _source(self) -> str:
        return repr(float(self.value))

    def _format(self, context: int) -> str:
        return repr(float(self.value)) if self.value >= 0 else f"({self.value!r})"


@dataclass(frozen=True)
class TimeVar(Expression):
    def is_constant(self) -> bool:
        return False

    def _source(self) -> str:
        return "t"

    def _format(self, context: int) -> str:
        return "t"


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    def is_constant(self) -> bool:
        return self.arg.is_constant()

    def _source(self) -> str:
        return f"(-{self.arg._source()})"

    def _format(self, context: int) -> str:
        inner = f"-{self.arg._format(3)}"
        return f"({inner})" if context > 3 else inner


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def is_constant(self) -> bool:
        return self.left.is_constant() and self.right.is_constant()

    def _source(self) -> str:
        a, b = self.left._source(), self.right._source()
        if self.op == "^":
            return f"_pow({a}, {b})"
        return f"({a} {self.op} {b})"

    def _format(self, context: int) -> str:
        if self.op in ("+", "-"):
            prec = 1
            text = f"{self.left._format(1)} {self.op} {self.right._format(2)}"
        elif self.op in ("*", "/"):
            prec = 2
            text = f"{self.left._format(2)} {self.op} {self.right._format(3)}"
        else:  # '^': right associative, base must bind tighter than ^
            prec = 4
            text = f"{self.left._format(5)}^{self.right._format(4)}"
        return f"({text})" if context > prec else text


@dataclass(frozen=True)
class Call(Expression):
    name: str
    arg: Expression

    def __post_init__(self):
        if self.name not in _FUNCTIONS:
            raise ValueError(f"unknown function {self.name!r}")

    def is_constant(self) -> bool:
        return self.arg.is_constant()

    def _source(self) -> str:
        return f"_{self.name}({self.arg._source()})"

    def _format(self, context: int) -> str:
        return f"{self.name}({self.arg._format(0)})"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    # -- lexing helpers ---------------------------------------------------
    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _column(self) -> int:
        return self.pos + 1

    def _error(self, message: str, column: int | None = None):
        raise ExpressionSyntaxError(message, self._column() if column is None else column)

    # -- grammar ----------------------------------------------------------
    def parse(self) -> Expression:
        if not self.text.strip():
            self._error("empty expression", 1)
        node = self._expression()
        self._skip_ws()
        if self.pos < len(self.text):
            self._error(f"unexpected {self.text[self.pos]!r}")
        return node

    def _expression(self) -> Expression:
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Expression:
        node = self._unary()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._unary())
        return node

    def _unary(self) -> Expression:
        if self._peek() == "-":
            self.pos += 1
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Expression:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return BinOp("^", base, self._unary())
        return base

    def _atom(self) -> Expression:
        ch = self._peek()
        col = self._column()
        if ch == "":
            self._error("unexpected end of expression", col)
        if ch == "(":
            self.pos += 1
            if self._peek() == ")":
                self._error("empty parentheses")
            node = self._expression()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return self._number()
        if ch.isalpha() or ch == "_":
            return self._name()
        self._error(f"unexpected {ch!r}", col)

    def _number(self) -> Expression:
        start = self.pos
        text = self.text
        n = len(text)
        while self.pos < n and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < n and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and text[self.pos].isdigit():
                while self.pos < n and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' belonged to something else; not a valid exponent
        literal = text[start:self.pos]
        try:
            value = float(literal)
        except ValueError:
            self._error(f"bad number literal {literal!r}", start + 1)
        return Num(value)

    def _name(self) -> Expression:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if name == "t":
            return TimeVar()
        if name in _FUNCTIONS:
            if self._peek() != "(":
                self._error(f"function {name!r} requires parentheses", start + 1)
            self.pos += 1
            if self._peek() == ")":
                self._error(f"empty argument to {name!r}")
            arg = self._expression()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            return Call(name, arg)
        self._error(f"unknown identifier {name!r}", start + 1)


def parse_expression(text: str) -> Expression:
    """Parse coefficient text into an `Expression` AST.

    Raises `ExpressionSyntaxError` (with a 1-based column) on malformed input.
    """
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    return _Parser(text).parse()
