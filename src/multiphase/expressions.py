"""Tiny arithmetic expression grammar for scalar fields of (x1, x2).

Supported: numbers, x1, x2, + - * / ^, unary minus, parentheses, and the
functions sin, cos, exp, abs, min, max.  Expressions are compiled through
the ``ast`` module so no arbitrary Python can sneak in via a config file.
"""

from __future__ import annotations

import ast

import numpy as np

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


class ExpressionError(ValueError):
    """Raised when an expression uses anything outside the grammar."""


def _compile(node):
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric constant {node.value!r}")
        value = float(node.value)
        return lambda x1, x2: value
    if isinstance(node, ast.Name):
        if node.id == "x1":
            return lambda x1, x2: x1
        if node.id == "x2":
            return lambda x1, x2: x2
        raise ExpressionError(f"unknown variable {node.id!r} (use x1, x2)")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            inner = _compile(node.operand)
            return lambda x1, x2: -inner(x1, x2)
        if isinstance(node.op, ast.UAdd):
            return _compile(node.operand)
        raise ExpressionError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError("unsupported binary operator")
        left, right = _compile(node.left), _compile(node.right)
        return lambda x1, x2: op(left(x1, x2), right(x1, x2))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ExpressionError("only plain function calls allowed")
        fn = _FUNCTIONS.get(node.func.id)
        if fn is None:
            raise ExpressionError(f"unknown function {node.func.id!r}")
        args = [_compile(a) for a in node.args]
        if node.func.id in ("min", "max"):
            if len(args) < 2:
                raise ExpressionError(f"{node.func.id} needs >= 2 arguments")

            def call(x1, x2, fn=fn, args=args):
                out = args[0](x1, x2)
                for a in args[1:]:
                    out = fn(out, a(x1, x2))
                return out

            return call
        if len(args) != 1:
            raise ExpressionError(f"{node.func.id} takes one argument")
        arg = args[0]
        return lambda x1, x2: fn(arg(x1, x2))
    raise ExpressionError(f"unsupported syntax: {ast.dump(node)}")


def parse_expression(text):
    """Compile ``text`` into a vectorized callable of (x1, x2)."""
    if not isinstance(text, str):
        raise ExpressionError(f"expression must be a string, got {text!r}")
    text = text.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    fn = _compile(tree)

    def evaluate(x1, x2):
        return np.asarray(fn(np.asarray(x1, dtype=float),
                             np.asarray(x2, dtype=float)), dtype=float)

    return evaluate
