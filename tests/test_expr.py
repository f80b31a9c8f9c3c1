import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab.errors import ExpressionError
from levylab.expr import _parse, compile_expression


def ev(text, *points, dim=1):
    fn = compile_expression(text, dim)
    return fn(np.array(points, dtype=float).reshape(len(points), dim))


class TestEvaluation:
    def test_arithmetic(self):
        np.testing.assert_allclose(ev("1 + 2*3 - 4/8", [0.0]), [6.5])

    def test_coordinates(self):
        np.testing.assert_allclose(ev("x1 * x2", [2.0, 3.0], dim=2), [6.0])

    def test_functions(self):
        np.testing.assert_allclose(ev("exp(-abs(x1))", [-1.0], [2.0]),
                                   [np.exp(-1), np.exp(-2)])
        np.testing.assert_allclose(ev("log(x1)", [np.e]), [1.0])

    def test_min_max(self):
        np.testing.assert_allclose(ev("min(x1, 1.5)", [2.0], [1.0]), [1.5, 1.0])
        np.testing.assert_allclose(ev("max(x1, 0, 0.5)", [0.2], [-3.0]), [0.5, 0.5])

    def test_power_and_unary(self):
        np.testing.assert_allclose(ev("-x1 ** 2", [3.0]), [-9.0])
        np.testing.assert_allclose(ev("(-x1) ** 2", [3.0]), [9.0])
        np.testing.assert_allclose(ev("2 ** -1", [0.0]), [0.5])

    def test_scientific_numbers(self):
        np.testing.assert_allclose(ev("1e-3 + 2.5E2", [0.0]), [250.001])

    def test_any_whitespace_separates_tokens(self):
        np.testing.assert_allclose(ev("\tx1 +\n 2 *\r\n(x1\f- 1) ", [3.0]), [7.0])

    def test_vectorized(self):
        fn = compile_expression("1.2 + 0.3 * exp(-x1*x1)", 1)
        xs = np.linspace(-2, 2, 7)[:, None]
        np.testing.assert_allclose(fn(xs), 1.2 + 0.3 * np.exp(-xs[:, 0] ** 2))


def walk(text, points, dim):
    """The reference evaluator: the parsed tree walked node by node, every
    number filled to an (m,) array and every operation under its own errstate."""

    def value(node):
        if node[0] == "const":
            return np.full(points.shape[0], node[1])
        if node[0] == "coord":
            return points[:, node[1]]
        args = [value(child) for child in node[1:]]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return node[0](*args)

    return np.asarray(value(_parse(text, dim)), dtype=float)


HOSTILE = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, 1.0, -1.0, 0.5, -2.5]
# Every pair of hostile values, as (x1, x2) rows.
HOSTILE_POINTS = np.array(list(itertools.product(HOSTILE, repeat=2)))
ORACLE_TEXTS = [
    # a number on either side of each binary operation, and between two numbers
    *[f"{left} {op} {right}" for op in "+-*/" for left, right in
      [("x1", "0.5"), ("0.5", "x1"), ("x1", "0"), ("0", "x1"), ("x1", "-0.0"), ("-0.0", "x1"),
       ("x1", "x2"), ("2", "3"), ("1", "0")]],
    *[f"{fn}({args})" for fn in ("min", "max") for args in
      ["x1, 0.5", "0.5, x1", "x1, 0", "0, x1", "x1, -0.0", "-0.0, x1", "x1, x2", "0, -0.0",
       "x1, x2, 0", "0, x1, x2", "x1, 1e308, x2", "x1, -0.0, 0, x2"]],
    # powers: a numeric base or exponent stays an array
    "x1 ** 2", "x1 ** 0.5", "x1 ** 1", "x1 ** 0", "x1 ** -1", "x1 ** -2", "2 ** x1",
    "0.5 ** x2", "x1 ** x2", "2 ** 0.5", "x1 ** (1 / x2)", "1e308 ** x1",
    # unary minus, nested
    "-x1", "--x1", "-(-(-x1))", "-0.0", "--0.0", "-(0)", "-x1 * -0.5", "- - 2 * x1",
    "+-+x1",
    # functions, of a number too
    "exp(x1)", "exp(-x1 * x1)", "log(x1)", "abs(x1)", "abs(-0.0)", "exp(1)", "log(0)",
    "log(-1)", "abs(x2) - abs(-x2)", "exp(log(abs(x1)))",
    # whole expressions
    "1.2 + 0.2*exp(-x1*x1)", "1.5", "0", "1 - abs(x1)", "1.5 + min(abs(x1), 1)",
    "max(0, min(1, x1 / x2)) * 2 ** -x2 + log(1e-300 * abs(x1))",
]


@pytest.mark.parametrize("text", ORACLE_TEXTS)
def test_compiled_expression_matches_the_tree_walker_bit_for_bit(text):
    fn = compile_expression(text, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(HOSTILE_POINTS)
    ref = walk(text, HOSTILE_POINTS, 2)
    assert got.shape == ref.shape == (HOSTILE_POINTS.shape[0],)
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ExpressionError):
            compile_expression("y + 1", 1)

    def test_coordinate_out_of_dimension(self):
        with pytest.raises(ExpressionError):
            compile_expression("x2", 1)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            compile_expression("sin(x1)", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            compile_expression("(x1 + 1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            compile_expression("x1 x1", 1)

    def test_empty(self):
        with pytest.raises(ExpressionError):
            compile_expression("   ", 1)

    def test_min_arity(self):
        with pytest.raises(ExpressionError):
            compile_expression("min(x1)", 1)

    @pytest.mark.parametrize("text", ["1_0", "0x1F", "1j", "True", "x1 if x1 else 1",
                                      "x1.real", "__import__('os')", "min(x1, y=2)"])
    def test_python_beyond_the_language(self, text):
        with pytest.raises(ExpressionError):
            compile_expression(text, 1)

    def test_nesting_limit(self):
        compile_expression("-" * 200 + "x1", 1)
        with pytest.raises(ExpressionError, match="nested deeper"):
            compile_expression("-" * 201 + "x1", 1)


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet="x12.e+-*/(), expminlogabs"))
def test_any_text_compiles_or_raises_expression_error(text):
    try:
        fn = compile_expression(text, 2)
    except ExpressionError:
        return
    points = np.array([[1.0, -0.5], [0.0, np.inf], [-0.0, np.nan]])
    with np.errstate(all="ignore"):
        got = fn(points)
        assert got.view(np.uint64).tolist() == walk(text, points, 2).view(np.uint64).tolist()
