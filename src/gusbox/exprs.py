"""Arithmetic expressions for aggregate values and row ids.

Expressions are a restricted subset of Python syntax: column names,
numeric literals, ``+ - * /`` (``//`` and unary minus included), and
parentheses. An :class:`Arith` evaluates one row's value tuple with Python's
arithmetic, or whole column arrays at once (:meth:`Arith.over`). The
column form gives the same numbers as the row form on every row: where
int64 arithmetic would overflow, an int division would round twice, a
divisor is zero, or a column holds objects (ints past int64), it hands over
to the row form, which then yields Python's exact result or raises an
``ExpressionError`` carrying Python's own message for the first row that has
one.
"""

from __future__ import annotations

import ast
from typing import Sequence

import numpy as np

from .errors import ExpressionError
from .model import INT64_MAX, INT64_MIN, column_array, value_tuples

_NUMERIC_TYPES = {"int64", "float64"}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv)
_UNARYOPS = (ast.USub, ast.UAdd)

_INT = np.dtype(np.int64)
_EXACT_INT_DIVISION = 2**53  # int64 operands up to this size convert to float exactly


class _Rewriter(ast.NodeTransformer):
    def __init__(self, columns: Sequence[str], types: Sequence[str], what: str):
        self.columns = list(columns)
        self.types = list(types)
        self.what = what
        self.used: set[str] = set()

    def visit_Name(self, node: ast.Name):
        if node.id not in self.columns:
            raise ExpressionError(f"{self.what}: unknown column {node.id!r}")
        idx = self.columns.index(node.id)
        if self.types[idx] not in _NUMERIC_TYPES:
            raise ExpressionError(
                f"{self.what}: column {node.id!r} has type {self.types[idx]}, need a numeric column"
            )
        self.used.add(node.id)
        return ast.copy_location(
            ast.Subscript(
                value=ast.Name(id="v", ctx=ast.Load()),
                slice=ast.Constant(value=idx),
                ctx=ast.Load(),
            ),
            node,
        )

    def generic_visit(self, node):
        ok = (
            ast.Expression,
            ast.BinOp,
            ast.UnaryOp,
            ast.Constant,
            ast.Name,
            ast.Load,
            *_BINOPS,
            *_UNARYOPS,
        )
        if not isinstance(node, ok):
            raise ExpressionError(
                f"{self.what}: unsupported syntax {type(node).__name__!r}"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError(f"{self.what}: literal {node.value!r} is not numeric")
        return super().generic_visit(node)


class _RowPath(Exception):
    """The column form cannot reproduce Python's result; use the row form."""


def _binop(op: ast.operator, a, b):
    """``a op b`` on int64/float64 arrays or scalars, or ``_RowPath`` where
    Python's result differs from numpy's."""
    ints = a.dtype == _INT and b.dtype == _INT
    if isinstance(op, (ast.Div, ast.FloorDiv)) and np.any(b == 0):
        raise _RowPath  # Python raises ZeroDivisionError
    if isinstance(op, ast.Add):
        out = a + b
        overflow = ints and np.any(((a ^ out) & (b ^ out)) < 0)
    elif isinstance(op, ast.Sub):
        out = a - b
        overflow = ints and np.any(((a ^ b) & (a ^ out)) < 0)
    elif isinstance(op, ast.Mult):
        # a float product within a factor 2 of 2**63 flags every overflow
        overflow = ints and np.any(np.abs(np.multiply(a, b, dtype=np.float64)) >= 2.0**62)
        out = a * b
    elif isinstance(op, ast.Div):
        # Python divides ints exactly and rounds once; numpy converts first
        overflow = ints and any(np.any((x < -_EXACT_INT_DIVISION) | (x > _EXACT_INT_DIVISION))
                                for x in (a, b))
        out = a / b
    else:
        overflow = ints and np.any((a == INT64_MIN) & (b == -1))
        out = a // b
    if overflow:
        raise _RowPath
    return out


def _vector(node: ast.AST, data: Sequence[np.ndarray]):
    if isinstance(node, ast.Subscript):
        column = data[node.slice.value]
        if column.dtype == object:
            raise _RowPath
        return column
    if isinstance(node, ast.Constant):
        value = node.value
        if type(value) is float:
            return np.float64(value)
        if type(value) is int and INT64_MIN <= value <= INT64_MAX:
            return np.int64(value)
        raise _RowPath
    if isinstance(node, ast.UnaryOp):
        operand = _vector(node.operand, data)
        if isinstance(node.op, ast.UAdd):
            return operand
        if operand.dtype == _INT and np.any(operand == INT64_MIN):
            raise _RowPath
        return -operand
    return _binop(node.op, _vector(node.left, data), _vector(node.right, data))


class Arith:
    """A checked arithmetic expression over named, typed columns.

    With ``integer=True`` every referenced column must be int64 and each
    row's result must be an int (row ids); otherwise a row's result is a
    float. Calling the object evaluates one row's value tuple; :meth:`over`
    evaluates whole columns. Python's arithmetic errors (a zero divisor, an
    int too large for a float) become an ``ExpressionError`` naming the
    expression.
    """

    def __init__(self, text: str, columns: Sequence[str], types: Sequence[str],
                 what: str = "expression", integer: bool = False):
        rewriter = _Rewriter(columns, types, what)
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"{what}: cannot parse {text!r}: {exc.msg}") from None
        tree = rewriter.visit(tree)
        if integer:
            for name in rewriter.used:
                if types[list(columns).index(name)] != "int64":
                    raise ExpressionError(f"{what}: column {name!r} must be int64")
        ast.fix_missing_locations(tree)
        self.tree = tree
        self.code = compile(tree, filename=f"<{what}>", mode="eval")
        self.what = what
        self.integer = integer

    def __call__(self, values: tuple):
        try:
            out = eval(self.code, {"__builtins__": {}}, {"v": values})
            if not self.integer:
                return float(out)
        except ArithmeticError as exc:  # a zero divisor, or an int too large for a float
            raise ExpressionError(f"{self.what}: {exc}") from None
        if not isinstance(out, int):
            raise ExpressionError(f"{self.what}: produced non-integer {out!r}")
        return out

    def over(self, data: Sequence[np.ndarray], m: int) -> np.ndarray:
        """Row ``i`` of the result is ``self(row i)``, as float64 (as int64,
        or object past its range, when ``integer``)."""
        if m:
            try:
                with np.errstate(all="ignore"):
                    out = np.broadcast_to(_vector(self.tree.body, data), (m,))
                if not self.integer:
                    return out.astype(np.float64)
                if out.dtype == _INT:
                    return out.copy()
            except _RowPath:
                pass
        values = [self(v) for v in value_tuples(data, m)]
        if self.integer:
            return column_array(values, "int64")
        return np.array(values, dtype=np.float64)
