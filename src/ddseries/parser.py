"""Expression parser for series literals.

Grammar (left-associative):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := complex | atom | '(' expr ')'
    atom    := INT '^-s' | INT '^-t'
    complex := FLOAT | FLOAT ('+' | '-') FLOAT 'i'

Expressions evaluate to a DirichletSeries when only `^-s` atoms occur and
to a DoubleDirichletSeries as soon as a `^-t` atom appears.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .double import (
    DoubleDirichletSeries,
    add2,
    constant_double,
    make_double_series,
    mul2,
)
from .series import DirichletSeries, scale

MAX_INPUT = 1 << 20  # 1 MB
# Each parenthesis level costs three frames of the recursive descent; the
# cap keeps deep nesting a ParseError instead of a RecursionError.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s at line %d, column %d" % (message, line, column))
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<atom>\d+\^-[st])
  | (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<i>i)
  | (?P<op>[+\-*()])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], truncations):
        self.tokens = tokens
        self.pos = 0
        self.truncs = truncations
        self.saw_t = False
        self.depth = 0

    def peek(self, offset=0):
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column + len(last.text))
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError("expected %r, found %r" % (op, tok.text), tok.line, tok.column)

    def parse(self) -> DoubleDirichletSeries:
        result = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError("unexpected token %r" % tok.text, tok.line, tok.column)
        return result

    def expr(self):
        acc = self.term()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in "+-":
            self.take()
            rhs = self.term()
            acc = add2(acc, scale(rhs, -1) if tok.text == "-" else rhs)
        return acc

    def term(self):
        acc = self.factor()
        while (tok := self.peek()) and tok.kind == "op" and tok.text == "*":
            self.take()
            acc = mul2(acc, self.factor(), self.truncs)
        return acc

    def factor(self):
        tok = self.take()
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    "parentheses nested deeper than %d" % MAX_DEPTH, tok.line, tok.column
                )
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        if tok.kind == "atom":
            base_txt, var = tok.text.split("^-")
            base = int(base_txt)
            if base < 1:
                raise ParseError("atom base must be >= 1", tok.line, tok.column)
            if var == "t":
                self.saw_t = True
                pair = (1, base)
            else:
                pair = (base, 1)
            M, N = self.truncs
            if pair[0] > M or pair[1] > N:
                raise ParseError(
                    "index %d exceeds truncation" % base, tok.line, tok.column
                )
            return make_double_series([(pair, 1 + 0j)], self.truncs)
        if tok.kind == "number":
            value = complex(float(tok.text), 0.0)
            nxt, nxt2, nxt3 = self.peek(), self.peek(1), self.peek(2)
            if (
                nxt is not None
                and nxt.kind == "op"
                and nxt.text in "+-"
                and nxt2 is not None
                and nxt2.kind == "number"
                and nxt3 is not None
                and nxt3.kind == "i"
            ):
                sign = 1.0 if nxt.text == "+" else -1.0
                self.take(), self.take(), self.take()
                value = complex(value.real, sign * float(nxt2.text))
            return constant_double(value, self.truncs)
        raise ParseError("unexpected token %r" % tok.text, tok.line, tok.column)


def parse_expression(text: str, truncation: int = 64):
    """Parse an expression to a series; single-variable input demotes to a
    DirichletSeries."""
    if len(text) > MAX_INPUT:
        raise ParseError("input exceeds 1 MB", 1, 1)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 1, 1)
    parser = _Parser(tokens, (truncation, truncation))
    result = parser.parse()
    if parser.saw_t:
        return result
    return DirichletSeries({m: c for (m, _), c in result.terms.items()}, truncation)


def print_expression(series) -> str:
    """Canonical expression text for a series; parse(print(x)) == x."""
    parts = []
    double = not isinstance(series, DirichletSeries)
    if double:
        items = sorted(series.terms.items())
    else:
        items = [((n, 1), c) for n, c in sorted(series.terms.items())]
    # a double series with no ^-t atom would parse back as a single series,
    # so one term (or the zero) carries a 1^-t factor
    mark_t = double and all(n == 1 for (_, n), _ in items)
    for (m, n), c in items:
        # fold the sign into the joining operator so coefficients stay in
        # the unsigned-literal grammar
        negative = c.real < 0 or (c.real == 0 and c.imag < 0)
        if negative:
            c = -c
        atom = []
        if m > 1:
            atom.append("%d^-s" % m)
        if n > 1 or mark_t:
            atom.append("%d^-t" % n)
            mark_t = False
        if c.imag == 0:
            coef = repr(c.real)
        else:
            coef = "(%r%s%ri)" % (c.real, "+" if c.imag >= 0 else "-", abs(c.imag))
        parts.append(("-" if negative else "+", "*".join([coef] + atom) if atom else coef))
    if not parts:
        return "0.0*1^-t" if mark_t else "0.0"
    head_op, head = parts[0]
    text = ("0.0 - %s" % head) if head_op == "-" else head
    for op, chunk in parts[1:]:
        text += " %s %s" % (op, chunk)
    return text
