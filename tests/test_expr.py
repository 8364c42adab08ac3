import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stageflow.errors import ExpressionError
from stageflow.expr import (Bin, Index, Num, SliceItem, free_variables,
                            parse_expression, tokenize)

from conftest import env_value, expr_value


class TestTokenizer:
    def test_dotted_name_is_one_token(self):
        toks = tokenize("xd.vel + 1")
        assert [t.text for t in toks[:-1]] == ["xd.vel", "+", "1"]

    def test_ellipsis_vs_number_dot(self):
        toks = tokenize("a[..., 0]")
        assert [t.kind for t in toks[:-1]] == ["name", "op", "ellipsis", "op",
                                               "number", "op"]

    def test_unknown_token_offset(self):
        with pytest.raises(ExpressionError) as e:
            tokenize("a + $")
        assert e.value.code == "UNKNOWN_TOKEN"
        assert e.value.offset == 4

    def test_scientific_notation(self):
        assert parse_expression("2.5e-3") == Num(0.0025)


class TestParser:
    def test_precedence(self):
        # 1 + 2 * 3 parses as 1 + (2 * 3)
        node = parse_expression("1 + 2 * 3")
        assert node == Bin("+", Num(1.0), Bin("*", Num(2.0), Num(3.0)))

    def test_comparison_binds_looser_than_arith(self):
        node = parse_expression("a + 1 > b")
        assert node.op == ">"

    def test_bool_ops_loosest(self):
        node = parse_expression("a > 1 & b < 2 | c == 3")
        assert node.op == "|"
        assert node.left.op == "&"

    def test_index_forms(self):
        node = parse_expression("x[0:2, ..., -1]")
        assert isinstance(node, Index)
        assert node.items == (SliceItem(0, 2), Ellipsis, -1)

    def test_open_slices(self):
        assert parse_expression("x[:]").items == (SliceItem(None, None),)
        assert parse_expression("x[1:]").items == (SliceItem(1, None),)
        assert parse_expression("x[:2]").items == (SliceItem(None, 2),)

    def test_non_integer_bound_rejected(self):
        with pytest.raises(ExpressionError) as e:
            parse_expression("x[0.5]")
        assert e.value.code == "SYNTAX_ERROR"

    @pytest.mark.parametrize("bad", ["", "  ", "a +", "(a", "a )", "[1]", "a[]"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError) as e:
            parse_expression("a b")
        assert e.value.code == "SYNTAX_ERROR"


class TestFreeVariables:
    def test_collects_through_all_nodes(self):
        node = parse_expression("-(a[0] + b * xd.vel) > c & True")
        assert free_variables(node) == {"a", "b", "xd.vel", "c"}

    def test_literals_have_none(self):
        assert free_variables(parse_expression("1 + 2.5")) == set()


class TestEvaluate:
    def scope(self):
        return {
            "a": env_value([1.0, 2.0, 3.0]),
            "b": env_value(2.0),
            "m": env_value(np.arange(6, dtype=float).reshape(2, 3)),
        }

    def test_arith_and_index(self):
        out = expr_value("(a - b)[0:2]", self.scope())
        assert out[0].tolist() == [-1.0, 0.0]
        # several rows: the slice applies to each env's value
        rows = {"a": np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])}
        out = expr_value("(a - 2)[0:2]", rows)
        assert out.tolist() == [[-1.0, 0.0], [2.0, 3.0]]

    def test_matrix_ellipsis(self):
        out = expr_value("m[..., 1]", self.scope())
        assert out[0].tolist() == [1.0, 4.0]

    def test_unary_minus(self):
        assert float(expr_value("-b", self.scope())[0]) == -2.0

    def test_unbound_variable(self):
        with pytest.raises(ExpressionError) as e:
            expr_value("zz + 1", self.scope())
        assert e.value.code == "UNBOUND_VARIABLE"

    def test_comparison_chain_with_bool(self):
        out = expr_value("a > 1.5 & a < 2.5", self.scope())
        assert out[0].tolist() == [0.0, 1.0, 0.0]

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_matches_python_arithmetic(self, x, y):
        scope = {"x": env_value(x), "y": env_value(y)}
        out = expr_value("x * y + x - y", scope)
        assert float(out[0]) == pytest.approx(x * y + x - y, rel=1e-12, abs=1e-12)
