"""Expression language used inside reward YAML files: the tokenizer, the
parser to an AST, and the free variables of an AST. Evaluation lives in
:mod:`stageflow.reward`.

Grammar (low to high precedence)::

    or_expr   := and_expr ('|' and_expr)*
    and_expr  := cmp ('&' cmp)*
    cmp       := arith (('<'|'>'|'<='|'>='|'=='|'!=') arith)?
    arith     := term (('+'|'-') term)*
    term      := unary (('*'|'/') unary)*
    unary     := '-' unary | postfix
    postfix   := atom ('[' index_list ']')*
    atom      := NUMBER | 'True' | 'False' | NAME | '(' or_expr ')'
    index_list:= index_item (',' index_item)*
    index_item:= '...' | INT | [INT] ':' [INT]

A dotted NAME like ``xd.vel`` is a single binding key. Index/slice bounds are
integer literals only (that is all the file corpus uses).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ExpressionError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
  | (?P<ellipsis>\.\.\.)
  | (?P<op><=|>=|==|!=|[-+*/<>&|()\[\]:,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # number | name | ellipsis | op | end
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        # '...' must win over the number rule's leading-dot branch
        if text.startswith("...", pos):
            tokens.append(Token("ellipsis", "...", pos))
            pos += 3
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(
                "UNKNOWN_TOKEN", f"unrecognized character {text[pos]!r}", offset=pos
            )
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# -- AST ----------------------------------------------------------------------

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        if self.cur.kind == "op" and self.cur.text == text:
            return self.advance()
        raise ExpressionError(
            "SYNTAX_ERROR",
            f"expected {text!r}, found {self.cur.text or 'end of input'!r}",
            offset=self.cur.offset,
        )

    def at_op(self, *texts: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in texts

    def parse(self):
        node = self.or_expr()
        if self.cur.kind != "end":
            raise ExpressionError(
                "SYNTAX_ERROR",
                f"unexpected {self.cur.text!r}",
                offset=self.cur.offset,
            )
        return node

    def or_expr(self):
        node = self.and_expr()
        while self.at_op("|"):
            self.advance()
            node = Bin("|", node, self.and_expr())
        return node

    def and_expr(self):
        node = self.cmp()
        while self.at_op("&"):
            self.advance()
            node = Bin("&", node, self.cmp())
        return node

    def cmp(self):
        node = self.arith()
        if self.at_op("<", ">", "<=", ">=", "==", "!="):
            op = self.advance().text
            node = Bin(op, node, self.arith())
        return node

    def arith(self):
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return Unary("-", self.unary())
        return self.postfix()

    def postfix(self):
        node = self.atom()
        while self.at_op("["):
            self.advance()
            items = [self.index_item()]
            while self.at_op(","):
                self.advance()
                items.append(self.index_item())
            self.expect("]")
            node = Index(node, tuple(items))
        return node

    def _int_literal(self) -> int:
        neg = False
        if self.at_op("-"):
            self.advance()
            neg = True
        tok = self.cur
        if tok.kind != "number" or "." in tok.text or "e" in tok.text or "E" in tok.text:
            raise ExpressionError(
                "SYNTAX_ERROR", "index bounds must be integer literals", offset=tok.offset
            )
        self.advance()
        v = int(tok.text)
        return -v if neg else v

    def index_item(self):
        if self.cur.kind == "ellipsis":
            self.advance()
            return Ellipsis
        start = None
        if not self.at_op(":"):
            start = self._int_literal()
            if not self.at_op(":"):
                return start  # plain integer index
        self.expect(":")
        stop = None
        if not (self.at_op("]", ",")):
            stop = self._int_literal()
        return SliceItem(start, stop)

    def atom(self):
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "True":
                return BoolLit(True)
            if tok.text == "False":
                return BoolLit(False)
            return Var(tok.text)
        if self.at_op("("):
            self.advance()
            node = self.or_expr()
            self.expect(")")
            return node
        raise ExpressionError(
            "SYNTAX_ERROR",
            f"unexpected {tok.text or 'end of input'!r}",
            offset=tok.offset,
        )


def parse_expression(text: str):
    """Parse an expression string into an AST. Raises SYNTAX_ERROR/UNKNOWN_TOKEN
    with the character offset of the problem."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("SYNTAX_ERROR", "empty expression", offset=0)
    return _Parser(text).parse()


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

