import keyword

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stageflow.errors import ExpressionError
from stageflow.expr import (Bin, BoolLit, Index, Num, SliceItem, Unary, Var,
                            free_variables, parse_expression)

from conftest import env_value, expr_value

PARENTHESIZE = "parenthesize each comparison, joined by '&' or '|'"


def refusal(text: str) -> ExpressionError:
    with pytest.raises(ExpressionError) as e:
        parse_expression(text)
    return e.value


class TestTokenizer:
    """The language's tokens, as ``parse_expression`` reads them."""

    def test_dotted_name_is_one_token(self):
        assert parse_expression("xd.vel + 1") == Bin("+", Var("xd.vel"), Num(1.0))

    def test_ellipsis_vs_number_dot(self):
        assert parse_expression("a[..., 0]") == Index(Var("a"), (Ellipsis, 0))
        assert parse_expression("a[...] * .5") == Bin(
            "*", Index(Var("a"), (Ellipsis,)), Num(0.5))

    def test_unknown_token_offset(self):
        e = refusal("a + $")
        assert e.code == "UNKNOWN_TOKEN"
        assert e.offset == 4

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
        """Comparisons under '&' and '|' are parenthesized; unparenthesized,
        Python reads the text as a chained comparison, and it is refused."""
        assert PARENTHESIZE in refusal("a > 1 & b < 2 | c == 3").message
        node = parse_expression("(a > 1) & (b < 2) | (c == 3)")
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
        assert refusal("x[0.5]").code == "SYNTAX_ERROR"

    @pytest.mark.parametrize("bad", ["", "  ", "a +", "(a", "a )", "[1]", "a[]"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)

    def test_trailing_garbage(self):
        assert refusal("a b").code == "SYNTAX_ERROR"

    @pytest.mark.parametrize("text", [
        "a > 1 & b < 2",  # Python reads a chained comparison; the language, (a > 1) & (b < 2)
        "a > b & c", "a & b > c", "(a) & b > c",  # an '&' or '|' operand of a comparison
        "a < b < c",  # a chained comparison
        "0x10", "1_0", "1j", "007",  # Python's number forms outside the language
        "a[(0)]", "a[0,]", "a[1::]", "a[(-1)]", "a[-(1)]", "a[::]",  # index forms
        "(xd).vel", "xd . vel",  # a dotted name is one token
        "None", "not", "x.if",  # Python keywords are not names
        "+a", "a ** 2", "a // 2", "a << 2", "a and b", "a in b", "a if b else c", "...",
    ])
    def test_a_form_outside_the_language_is_refused(self, text):
        e = refusal(text)
        assert e.code == "SYNTAX_ERROR"
        assert 0 <= e.offset < len(text)

    @pytest.mark.parametrize("text,tree", [
        *((text, Bin("+", Var("a"), Num(1.0))) for text in [
            " a + 1", "a +\n 1", "\t\ta\n+\r1 ", "\xa0a\u2003+ 1", "(a) + (((1)))"]),
        ("a[ 0 : 1 ]", Index(Var("a"), (SliceItem(0, 1),))),
        ("a[- 1]", Index(Var("a"), (-1,)))])
    def test_blanks_and_parentheses_keep_the_tree(self, text, tree):
        """Python's parser refuses a leading blank and a newline outside
        brackets; the language allows both."""
        assert parse_expression(text) == tree

    def test_an_offset_counts_the_leading_blanks(self):
        assert refusal(" \n a + None").offset == 7
        assert refusal("\t a[0,]").offset == 4

    @pytest.mark.parametrize("text", [
        "(" * 250 + "a" + ")" * 250,  # Python's parser allows 200 parentheses
        " + ".join(["command[0:2]"] * 3000),  # deeper than ast.parse recurses
        "-" * 1000 + "a",  # ast.parse builds it; converting it overflows the stack
    ], ids=["250-parentheses", "3000-term-chain", "1000-minus-signs"])
    def test_a_too_deep_expression_is_a_syntax_error(self, text):
        """Only ExpressionError leaves the parser: Python's SyntaxError,
        RecursionError and MemoryError become SYNTAX_ERROR."""
        assert refusal(text).code == "SYNTAX_ERROR"

    def test_150_parentheses_parse(self):
        assert parse_expression("(" * 150 + "a" + ")" * 150) == Var("a")


# -- round trip -----------------------------------------------------------------

_LEVEL = {"|": 1, "&": 2, "<": 3, ">": 3, "<=": 3, ">=": 3, "==": 3, "!=": 3,
          "+": 4, "-": 4, "*": 5, "/": 5}
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}(\.[A-Za-z_][A-Za-z0-9_]{0,4}){0,2}",
                       fullmatch=True).filter(
    lambda name: not any(map(keyword.iskeyword, name.split("."))))
_INTS = st.integers(-30, 30)
_ITEMS = st.one_of(_INTS, st.just(Ellipsis),
                   st.builds(SliceItem, st.none() | _INTS, st.none() | _INTS))
TREES = st.recursive(
    st.one_of(st.floats(0, allow_infinity=False).map(lambda x: Num(abs(x))),
              st.integers(0, 10 ** 6).map(lambda i: Num(float(i))),  # written as integers too
              st.booleans().map(BoolLit), _NAMES.map(Var)),
    lambda kids: st.one_of(
        st.builds(Unary, st.just("-"), kids),
        st.builds(Bin, st.sampled_from(sorted(_LEVEL)), kids, kids),
        st.builds(Index, kids, st.lists(_ITEMS, min_size=1, max_size=3).map(tuple))),
    max_leaves=12)


def _level(node) -> int:
    if isinstance(node, Bin):
        return _LEVEL[node.op]
    return 6 if isinstance(node, Unary) else 7


def render(node, draw) -> str:
    """``node`` as text with random blanks between tokens and random redundant
    parentheses; parentheses the grammar needs are always there."""
    def blank():
        return draw(st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n "]))

    def child(kid, needed: bool) -> str:
        text = render(kid, draw)
        return f"({blank()}{text}{blank()})" if needed or draw(st.booleans()) else text

    def bound(i) -> str:
        return "" if i is None else f"-{blank()}{-i}" if i < 0 else str(i)

    def item(it) -> str:
        if isinstance(it, SliceItem):
            return f"{bound(it.start)}{blank()}:{blank()}{bound(it.stop)}"
        return "..." if it is Ellipsis else bound(it)

    if isinstance(node, Num):
        texts = [repr(node.value), f"{node.value:.17e}"]
        return draw(st.sampled_from(texts + [str(int(node.value))] * node.value.is_integer()))
    if isinstance(node, BoolLit):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"-{blank()}{child(node.operand, _level(node.operand) < 6)}"
    if isinstance(node, Index):
        items = ",".join(f"{blank()}{item(it)}{blank()}" for it in node.items)
        return f"{child(node.base, _level(node.base) < 7)}{blank()}[{items}]"
    level, left, right = _LEVEL[node.op], _level(node.left), _level(node.right)
    # left-associative; a comparison takes no comparison operand, and one
    # under '&' or '|' is parenthesized
    left_text = child(node.left, left < level or left == 3 and level <= 3)
    right_text = child(node.right, right <= level or right == 3)
    return f"{left_text}{blank()}{node.op}{blank()}{right_text}"


class TestRoundTrip:
    @given(TREES, st.data())
    def test_a_rendered_tree_parses_back(self, tree, data):
        text = render(tree, data.draw)
        lead = data.draw(st.sampled_from(["", " ", "\n\t ", "(", "( "]))
        text = f"{lead}{text}{')' if '(' in lead else ''}"
        assert parse_expression(text) == tree


class TestFreeVariables:
    def test_collects_through_all_nodes(self):
        assert PARENTHESIZE in refusal("-(a[0] + b * xd.vel) > c & True").message
        node = parse_expression("(-(a[0] + b * xd.vel) > c) & True")
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
        assert PARENTHESIZE in refusal("a > 1.5 & a < 2.5").message
        out = expr_value("(a > 1.5) & (a < 2.5)", self.scope())
        assert out[0].tolist() == [0.0, 1.0, 0.0]

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_matches_python_arithmetic(self, x, y):
        scope = {"x": env_value(x), "y": env_value(y)}
        out = expr_value("x * y + x - y", scope)
        assert float(out[0]) == pytest.approx(x * y + x - y, rel=1e-12, abs=1e-12)
