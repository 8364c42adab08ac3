"""Expression language used inside reward YAML files: the parser to an AST
and the free variables of an AST. Evaluation lives in
:mod:`stageflow.reward`.

An expression is written in Python expression syntax and parsed by
:func:`ast.parse`. Only this subset is accepted:

- numbers (``2``, ``0.5``, ``.5``, ``2.5e-3``), ``True`` and ``False``
- names; a dotted name like ``xd.vel`` is a single binding key
- ``+ - * /``, unary ``-`` and one comparison ``< > <= >= == !=``
- ``&`` and ``|``. A comparison under ``&`` or ``|`` is parenthesized:
  ``(a > 1) & (b < 2)``. Python reads ``a > 1 & b < 2`` as a chained
  comparison; chained comparisons are refused.
- subscripts whose items are integer literals, slices ``start:stop`` with
  either bound optional, and ``...``; a bound is an integer literal

Blanks of any kind, newlines included, may stand between tokens and before
the expression. Every fault is an :class:`ExpressionError` with the
character offset of the problem.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass

from .errors import ExpressionError


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class SliceItem:
    start: int | None
    stop: int | None


@dataclass(frozen=True)
class Index:
    base: object
    items: tuple  # of int | SliceItem | Ellipsis


_UNKNOWN = re.compile(r"[^\sA-Za-z0-9_.+\-*/<>=!&|()\[\]:,]")
_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", re.ASCII)
_ITEM = re.compile(r"\.\.\.|-?\d+|(-?\d+)?:(-?\d+)?")
_OPS = dict(Add="+", Sub="-", Mult="*", Div="/", BitAnd="&", BitOr="|", Lt="<", Gt=">",
            LtE="<=", GtE=">=", Eq="==", NotEq="!=")  # Python's operator names


def _item(text: str):
    """One index item from its text, which ``_ITEM`` matches."""
    bounds = [int(bound) if bound.lstrip("-").isdigit() else None for bound in text.split(":")]
    return SliceItem(*bounds) if ":" in text else Ellipsis if text == "..." else bounds[0]


def _bare_logical(cmp, side) -> bool:
    """Whether ``side``, an operand of comparison ``cmp``, is an '&' or '|' outside
    parentheses: an operand in parentheses starts and ends inside the comparison."""
    return type(getattr(side, "op", None)) in (ast.BitAnd, ast.BitOr) and (
        side.col_offset == cmp.col_offset or side.end_col_offset == cmp.end_col_offset)


def parse_expression(text: str):
    """Parse an expression string into an AST. Raises SYNTAX_ERROR/UNKNOWN_TOKEN
    with the character offset of the problem."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("SYNTAX_ERROR", "empty expression", offset=0)
    if bad := _UNKNOWN.search(text):
        raise ExpressionError("UNKNOWN_TOKEN", f"unknown character {bad[0]!r}", offset=bad.start())
    code = re.sub(r"\s", " ", text).lstrip(" ")  # Python refuses a leading blank
    lead = len(text) - len(code)

    def refuse(n, why: str):
        raise ExpressionError("SYNTAX_ERROR", why, offset=lead + n.col_offset)

    def walk(n):
        # each node's text must be the language's own token: 0x10, 1_0, 1j,
        # "xd . vel" and "(xd).vel" are Python's alone
        src = code[n.col_offset:n.end_col_offset]
        if isinstance(n, ast.Constant) and (isinstance(n.value, bool) or _NUMBER.fullmatch(src)):
            return BoolLit(n.value) if isinstance(n.value, bool) else Num(float(src))
        if isinstance(n, (ast.Name, ast.Attribute)) and _NAME.fullmatch(src):
            return Var(src)
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            return Unary("-", walk(n.operand))
        if isinstance(n, ast.BinOp) and type(n.op).__name__ in _OPS:
            return Bin(_OPS[type(n.op).__name__], walk(n.left), walk(n.right))
        if isinstance(n, ast.Compare) and type(n.ops[0]).__name__ in _OPS:
            if len(n.ops) > 1 or any(_bare_logical(n, o) for o in (n.left, *n.comparators)):
                refuse(n, "parenthesize each comparison, joined by '&' or '|': (a > 1) & (b < 2)")
            return Bin(_OPS[type(n.ops[0]).__name__], walk(n.left), walk(n.comparators[0]))
        if isinstance(n, ast.Subscript):
            items = code[n.slice.col_offset:n.end_col_offset - 1].replace(" ", "").split(",")
            if not all(map(_ITEM.fullmatch, items)):
                refuse(n.slice, "an index lists integer literals, slices of them and '...'")
            return Index(walk(n.value), tuple(map(_item, items)))
        refuse(n, f"{src!r} is not part of the expression language")

    try:
        with warnings.catch_warnings():  # Python warns of "1if" and the like, refused anyway
            warnings.simplefilter("ignore")
            return walk(ast.parse(code, mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError) as e:  # the last two: nested too deeply
        raise ExpressionError("SYNTAX_ERROR", getattr(e, "msg", "the expression nests too deeply"),
                              offset=lead + (getattr(e, "offset", None) or 1) - 1) from None


def free_variables(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Bin):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Index):
        return free_variables(node.base)
    return set()
