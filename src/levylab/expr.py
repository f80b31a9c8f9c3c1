"""Tiny arithmetic expression language for coefficient fields.

Expressions are written in Python syntax, parsed by :mod:`ast` and
translated through a whitelist; the text is never evaluated by Python.
The whitelist admits binary ``+ - * / **``, unary ``+ -``, numbers
(digits with an optional point and exponent), the coordinates x1..xd and
the functions exp, log, abs (one argument) and min, max (two or more).
Trees nested deeper than ``MAX_DEPTH`` levels are rejected.
Compiled expressions evaluate vectorized over an (m, d) array of points.
"""

from __future__ import annotations

import ast
import functools
import re
import warnings
from typing import Callable

import numpy as np

from .errors import ExpressionError

MAX_DEPTH = 200

_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_COORD = re.compile(r"x([0-9]{1,9})")

_FUNCTIONS: dict[str, np.ufunc] = {
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}


def _short(text: str) -> str:
    """``text`` quoted, cut to a prefix that fits in an error message."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def _parse(text: str, dim: int):
    # Any run of whitespace separates tokens, so the source is one line and
    # ast column offsets index its UTF-8 bytes directly.
    source = " ".join(text.split())
    if not source:
        raise ExpressionError("empty expression")
    try:
        # The parser warns on some inputs (invalid escapes, `1if`) that the
        # whitelist rejects anyway.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            body = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        reason = str(getattr(exc, "msg", exc)) or "nested too deeply"
        raise ExpressionError(f"cannot parse {_short(source)}: {reason}") from None
    encoded = source.encode()

    def segment(node) -> str:
        return encoded[node.col_offset:node.end_col_offset].decode()

    def translate(node, depth: int):
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], translate(node.left, depth + 1),
                    translate(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = translate(node.operand, depth + 1)
            return inner if isinstance(node.op, ast.UAdd) else (np.negative, inner)
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment(node)):
            return ("const", float(segment(node)))
        if isinstance(node, ast.Name):
            m = _COORD.fullmatch(node.id)
            if m is None:
                raise ExpressionError(f"unknown name {_short(node.id)}")
            axis = int(m.group(1))
            if not 1 <= axis <= dim:
                raise ExpressionError(f"coordinate {node.id} outside the dimension ({dim})")
            return ("coord", axis - 1)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and not node.keywords):
            name, n = node.func.id, len(node.args)
            fn = _FUNCTIONS[name]
            if fn.nin == 1:
                if n != 1:
                    raise ExpressionError(f"{name} takes exactly one argument")
                return (fn, translate(node.args[0], depth + 1))
            if n < 2:
                raise ExpressionError(f"{name} needs at least two arguments")
            # min/max fold to the left: one tree level per extra argument.
            args = [translate(arg, depth + n - 1) for arg in node.args]
            return functools.reduce(lambda acc, arg: (fn, acc, arg), args)
        raise ExpressionError(f"unsupported syntax {_short(segment(node))}")

    return translate(body, 0)


def _evaluate(node, points: np.ndarray):
    if node[0] == "const":
        return np.full(points.shape[0], node[1])
    if node[0] == "coord":
        return points[:, node[1]]
    fn = node[0]
    args = [_evaluate(child, points) for child in node[1:]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return fn(*args)


def compile_expression(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile ``text`` into a vectorized function of an (m, dim) point array."""
    tree = _parse(text, dim)

    def fn(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(_evaluate(tree, pts), dtype=float)

    return fn
