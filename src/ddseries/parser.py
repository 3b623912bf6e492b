"""Expression parser for series literals.

Grammar (left-associative):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := complex | atom | '(' expr ')'
    atom    := INT '^-s' | INT '^-t'
    complex := FLOAT | FLOAT ('+' | '-') FLOAT 'i'

Expressions evaluate to a DirichletSeries when only `^-s` atoms occur and
to a DoubleDirichletSeries as soon as a `^-t` atom appears.

One regex pass tokenizes the input; every rule then evaluates to a plain
{(m, n): coefficient} map in the same pass: '+' and '-' add the right map
into the left one in place, '*' convolves the two maps (double._convolve2,
the loop of mul2), and one series is built at the end.  A sum of monomials
parses in time linear in the input.
"""

from __future__ import annotations

import re

from .double import DoubleDirichletSeries, _convolve2
from .series import DirichletSeries, _check_finite, _check_truncations, _pruned

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
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _error(text: str, message: str, offset: int) -> ParseError:
    """A ParseError at the line and column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list:
    """The (kind, text, offset) tokens of text, whitespace left out; the
    first unexpected character raises."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _error(text, "unexpected character %r" % m.group(), m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str, tokens: list, truncation: int):
        # three end tokens, just after the last token, so that the complex
        # literal's look-ahead never runs off the list
        _, last, offset = tokens[-1]
        self.tokens = tokens + [("end", "", offset + len(last))] * 3
        self.text = text
        self.pos = 0
        self.trunc = truncation
        self.saw_t = False
        self.depth = 0

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise _error(self.text, "unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def expr(self) -> dict:
        acc = self.term()
        while (op := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            for k, v in self.term().items():
                acc[k] = acc.get(k, 0j) + (v if op == "+" else -v)
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while self.tokens[self.pos][1] == "*":
            self.pos += 1
            acc = _convolve2(acc, self.factor(), (self.trunc, self.trunc))
        return acc

    def factor(self) -> dict:
        kind, text, offset = self.take()
        if text == "(":
            if self.depth == MAX_DEPTH:
                raise _error(self.text, "parentheses nested deeper than %d" % MAX_DEPTH, offset)
            self.depth += 1
            inner = self.expr()
            _, close, at = self.take()
            if close != ")":
                raise _error(self.text, "expected ')', found %r" % close, at)
            self.depth -= 1
            return inner
        if kind == "atom":
            base = int(text[:-3])
            if base < 1:
                raise _error(self.text, "atom base must be >= 1", offset)
            if base > self.trunc:
                raise _error(self.text, "index %d exceeds truncation" % base, offset)
            if text[-1] == "t":
                self.saw_t = True
                return {(1, base): 1 + 0j}
            return {(base, 1): 1 + 0j}
        if kind == "number":
            value = float(text)
            sign, imag, i = self.tokens[self.pos:self.pos + 3]
            if sign[1] in ("+", "-") and imag[0] == "number" and i[0] == "i":
                self.pos += 3
                value = complex(value, float(imag[1]) if sign[1] == "+" else -float(imag[1]))
            return {(1, 1): _check_finite(value)}
        raise _error(self.text, "unexpected token %r" % text, offset)


def parse_expression(text: str, truncation: int = 64):
    """Parse an expression to a series; single-variable input demotes to a
    DirichletSeries.  A coefficient that overflows raises ValueError."""
    if len(text) > MAX_INPUT:
        raise ParseError("input exceeds 1 MB", 1, 1)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 1, 1)
    parser = _Parser(text, tokens, truncation)
    terms = parser.expr()
    kind, rest, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise _error(text, "unexpected token %r" % rest, offset)
    # every index was checked against the truncation as it was parsed
    _check_truncations((truncation,))
    terms = _pruned(terms)
    if parser.saw_t:
        return DoubleDirichletSeries._of(terms, (truncation, truncation))
    return DirichletSeries._of({m: c for (m, _), c in terms.items()}, truncation)


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
            # + 0.0 turns a real part of -0.0 into 0.0, which the grammar reads
            coef = "(%r%s%ri)" % (c.real + 0.0, "+" if c.imag >= 0 else "-", abs(c.imag))
        parts.append(("-" if negative else "+", "*".join([coef] + atom) if atom else coef))
    if not parts:
        return "0.0*1^-t" if mark_t else "0.0"
    head_op, head = parts[0]
    text = ("0.0 - %s" % head) if head_op == "-" else head
    for op, chunk in parts[1:]:
        text += " %s %s" % (op, chunk)
    return text
