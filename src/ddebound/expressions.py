"""Arithmetic expressions of time for the coefficients of a system.

The language is Python's arithmetic on floats, with ``^`` for powers: number
literals (digits with at most one dot and an optional exponent ``e±digits``),
the variable ``t``, the binary operators ``+ - * / ^``, unary ``-``,
parentheses and the functions ``sin``, ``cos``, ``exp`` and ``abs`` of one
argument.  Python's own parser reads the text (`ast.parse`, with ``^`` read
as ``**``), so precedence and associativity are Python's: ``^`` binds
tightest and to the right, above a unary ``-`` on its left (``-3^2`` is -9,
``2^-3`` is 0.125), then ``*`` ``/`` and ``+`` ``-``, both left associative.
One walk over the tree refuses every other construct, a tree more than
``_MAX_DEPTH`` nodes deep and a number literal that overflows to infinity;
a number run into a letter or ``_`` (``1or 2``) is refused before Python's
tokenizer would warn about it on stderr.  Every refusal is an
`ExpressionSyntaxError` with the 1-based column of the text it refuses.

Expressions are evaluated in real arithmetic (``math.pow`` semantics, so a
negative base with a fractional exponent is an error rather than a complex
number).  `parse_expression` compiles the text once to the time function
itself: a `timefn.ConstantFn` for text without ``t``, whose one value must be
finite, else the generated function of ``t``, which does not check
finiteness.  Its source is ``ast.unparse`` of the checked tree, with ``^`` as
``_pow`` and ``sin`` as ``_sin``.  The compiler, `_generate`, also builds the
package's other generated functions (comparison coefficients and right
sides), which inline the source of the compiled expressions they read.
"""

from __future__ import annotations

import ast
import math
import re
from collections import Counter
from typing import Callable

__all__ = [
    "ExpressionSyntaxError",
    "EvaluationError",
    "parse_expression",
]

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs}
# names the generated source refers to; non-finite literals print as inf, nan
_NAMESPACE = {**{f"_{name}": fn for name, fn in _FUNCTIONS.items()},
              "_pow": math.pow, "_sqrt": math.sqrt, "_hypot": math.hypot,
              "inf": math.inf, "nan": math.nan}

_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_NUMBER = re.compile(r"[0-9]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?")
# names and number literals, longest first, as Python's tokenizer reads them:
# a number run into a letter or "_" (``1or 2``, ``2t``) is refused before the
# tokenizer warns about it on stderr
_WORD = re.compile(r"[A-Za-z_]\w*|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                   r"(?P<run_on>[A-Za-z_])?")
# the deepest tree parse_expression accepts, in nodes from the root: deep
# enough for a 199-term chain of powers inside two operations, and shallow
# enough for `ast.unparse` (three frames a level) and for the compiled source,
# whose parentheses nest at most one level a node below the root, so at most
# the 200 levels Python's tokenizer reads
_MAX_DEPTH = 201

# a call of a named function at t in generated source
_CALL_AT_T = re.compile(r"(?<![\w.])(\w+)\(t\)")


def _generate(params: str, result: str, names=None, lines=(), namespace=_NAMESPACE):
    """``def _generated(params): lines; return result``, compiled once from
    generated source (never user text) with the expression functions and
    ``names`` in scope.

    A function of ``names`` that the source calls more than once at ``t`` is
    read once, into a local assigned by a first line.  The function keeps
    ``(params, lines, result, names)`` as ``source``: generated code reading
    a function of ``t`` alone without statements inlines its body instead of
    calling it, and `timefn.grid_values` runs a function of ``t`` on a whole
    array of times, with ``namespace`` in place of the scalar expression
    functions.
    """
    names = dict(names or {})
    source = "\n".join([*lines, result])
    counts = Counter(name for name in _CALL_AT_T.findall(source) if name in names)
    shared = [name for name, count in counts.items() if count > 1]
    if shared:
        def read_shared(text: str) -> str:
            return _CALL_AT_T.sub(
                lambda call: f"{call[1]}_t" if call[1] in shared else call[0], text)

        lines = [*(f"{name}_t = {name}(t)" for name in shared), *map(read_shared, lines)]
        result = read_shared(result)
    text = "\n    ".join([f"def _generated({params}):", *lines, f"return {result}"])
    scope = {**namespace, **names}
    exec(text, scope)
    fn = scope["_generated"]
    fn.source = (params, tuple(lines), result, names)
    return fn


# the most terms of one generated sum: a left fold nests one level of the
# syntax tree per term, and CPython's compiler stops at about 3,000 levels
_SUM_TERMS = 1000


def _folded(terms, name: str = "s") -> tuple[list[str], str]:
    """``(lines, result)`` of the source ``terms`` summed left to right: the
    sum itself up to ``_SUM_TERMS`` terms, else ``name`` after lines that
    fold ``_SUM_TERMS`` terms a statement into it."""
    terms = list(terms)
    if len(terms) <= _SUM_TERMS:
        return [], " + ".join(terms)
    chunks = [" + ".join(terms[k:k + _SUM_TERMS]) for k in range(0, len(terms), _SUM_TERMS)]
    return [f"{name} = {chunks[0]}", *(f"{name} = {name} + {chunk}" for chunk in chunks[1:])], name


class ExpressionSyntaxError(ValueError):
    """Raised on malformed expression text; carries the 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class EvaluationError(ArithmeticError):
    """Raised when constant expression text does not evaluate to a finite
    real number; the message names the text."""


def _checked(node: ast.expr, source: str, column, depth: int = 1) -> ast.expr:
    """The Python form of ``node``, a node of the parsed ``source``, after
    checking it and its operands against the language: a copy in which
    ``a ** b`` is ``_pow(a, b)`` and ``sin(x)`` is ``_sin(x)``, sharing the
    leaves.  A number literal becomes a float in ``node`` itself.  Anything
    else, or a node deeper than ``_MAX_DEPTH``, raises
    `ExpressionSyntaxError` at ``column(node.col_offset)``."""
    def refuse(message: str):
        raise ExpressionSyntaxError(message, column(node.col_offset))

    def checked(operand: ast.expr) -> ast.expr:
        return _checked(operand, source, column, depth + 1)

    if depth > _MAX_DEPTH:
        refuse(f"expression nested deeper than {_MAX_DEPTH} levels")
    text = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
        left, right = checked(node.left), checked(node.right)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("_pow"), [left, right], [])
        return ast.BinOp(left, node.op, right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ast.UnaryOp(node.op, checked(node.operand))
    if isinstance(node, ast.Name):
        if node.id != "t":
            refuse(f"unknown name {node.id!r}")
        return node
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(text):
        node.value = float(text)
        if math.isinf(node.value):
            refuse(f"number literal {text!r} is not finite")
        return node
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _FUNCTIONS:
            refuse(f"unknown function {name!r}")
        if len(node.args) != 1 or node.keywords:
            refuse(f"{name} takes one argument")
        return ast.Call(ast.Name(f"_{name}"), [checked(node.args[0])], [])
    refuse(f"unexpected {text!r}")


def parse_expression(text: str) -> Callable[[float], float]:
    """Compile coefficient text to its time function: a `timefn.ConstantFn`
    for text without ``t``, else the generated function of ``t``, with its
    ``source`` (`_generate`).

    Every whitespace character reads as a space.  Raises
    `ExpressionSyntaxError` (with a 1-based column) on text outside the
    language, on text Python's parser refuses (with its message), and on an
    expression too deep to parse or compile.  A constant is evaluated once,
    here: a value that raises or is not finite is an `EvaluationError` that
    names the text.
    """
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    spaced = "".join(" " if ch.isspace() else ch for ch in text)
    body = spaced.lstrip()
    if not body:
        raise ExpressionSyntaxError("empty expression", 1)
    # Python reads "**" as a power and "#" as a comment, and past printable
    # ASCII it counts columns in UTF-8 bytes
    bad = re.search(r"\*\*|#|[^ -~]", spaced)
    if bad:
        raise ExpressionSyntaxError(f"unexpected {bad[0]!r}", bad.start() + 1)
    for word in _WORD.finditer(spaced):
        if word["run_on"]:
            raise ExpressionSyntaxError(
                f"number {word['number']!r} runs into {word['run_on']!r}", word.start() + 1)
    source = body.replace("^", "**")
    lead = len(spaced) - len(body)

    def column(offset: int) -> int:
        # the column in ``text`` of ``source[offset]``: each "**" was one "^"
        return lead + offset - source.count("**", 0, offset) + 1

    try:
        checked = _checked(ast.parse(source, mode="eval").body, source, column)
    except SyntaxError as exc:
        raise ExpressionSyntaxError(exc.msg, column(max(exc.offset or 1, 1) - 1)) from exc
    except (RecursionError, MemoryError) as exc:
        raise ExpressionSyntaxError("expression nested too deeply to parse", 1) from exc
    try:
        python = ast.unparse(checked)
        compiled = _generate("t", python)
    except (RecursionError, MemoryError, SyntaxError) as exc:
        raise ExpressionSyntaxError(f"expression too deep to compile ({exc})", 1) from exc
    # ``t`` is the one name of the source that is not a function
    if re.search(r"\bt\b", python):
        return compiled
    from .timefn import ConstantFn      # here: timefn imports this module's compiler
    try:
        value = compiled(0.0)
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"{text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise EvaluationError(f"{text!r} is not finite ({value!r})")
    return ConstantFn(value)
