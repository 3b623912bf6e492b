"""Expression parser for series literals.

Grammar (left-associative):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := complex | atom | '(' expr ')'
    atom    := INT '^-s' | INT '^-t'
    complex := FLOAT | FLOAT ('+' | '-') FLOAT 'i'

Expressions evaluate to a DirichletSeries when only `^-s` atoms occur and
to a DoubleDirichletSeries as soon as a `^-t` atom appears.

The lexer's unit is the monomial: one regex match takes a coefficient
literal (a number, or a complex literal bare or in parentheses), an m^-s
atom and an n^-t atom, each optional, and yields one {(m, n): coefficient}
entry, its factors multiplied from left to right as double._convolve2
multiplies them.  A printed term is a sign and one such match, so a sum of
monomials parses in time linear in the input.  The recursive descent sees
monomials, '+', '-', '*', '(' and ')': '+' and '-' add the right map into
the left one in place, a parenthesised factor is convolved in with
_convolve2, the loop of mul2, and a monomial after '*' factor by factor, so
every grouping the grammar allows gives the bits that separate factors
give.  The whole input is lexed before it is parsed, so the first
unexpected character is reported before any other error.
"""

from __future__ import annotations

import cmath
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


# the number and atom lexemes of the grammar
_NUMBER = r"(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
_ATOM = r"\d+\^-[st]"

# One match per token, whitespace before it included; the input is cut
# after its last token, so every match ends at one.  A monomial is a
# coefficient literal (a number, or a complex literal bare or in
# parentheses), an m^-s atom and an n^-t atom, in that order, each of the
# three optional but one, and '*' between them: the shape a printed term has
# after its sign.  Where an atom starts, it is read before a number.  No
# number is cut short by backtracking: a cut number leaves a digit, '.' or
# 'e' next, and nothing that may follow a number in a monomial starts so.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<mono>
        (?:(?!{atom})(?:(?P<open>\()\s*)?(?P<re>{number})
           (?:\s*(?P<pm>[+-])\s*(?P<im>{number})\s*i)?(?(open)(?(im)\s*\)|(?!))))?
        (?:(?(re)\s*\*\s*)(?P<m>\d+)\^-s)?
        (?:(?(re)\s*\*\s*|(?(m)\s*\*\s*))(?P<n>\d+)\^-t)?
        (?(re)|(?(m)|(?(n)|(?!)))))
    | (?P<op>[-+*()i])
    | (?P<bad>\S)
    )
    """.format(atom=_ATOM, number=_NUMBER),
    re.VERBOSE,
)
# the first lexeme of a token, as an error message quotes it
_LEXEME_RE = re.compile("%s|%s|." % (_ATOM, _NUMBER), re.DOTALL)
_ONE = 1 + 0j


def _error(text: str, message: str, offset: int) -> ParseError:
    """A ParseError at the line and column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text: str, tokens: list, truncation: int):
        self.text = text
        self.tokens = tokens + [None]  # None: the end of the input
        self.end = tokens[-1].end()
        self.pos = 0
        self.trunc = truncation
        self.saw_t = False
        self.depth = 0

    def unexpected(self, tok, message: str = "unexpected token %r") -> ParseError:
        """A ParseError at token tok, quoting its first lexeme; at the end of
        the input if tok is None."""
        if tok is None:
            return _error(self.text, "unexpected end of input", self.end)
        at = tok.start(tok.lastgroup)
        return _error(self.text, message % _LEXEME_RE.match(self.text, at).group(), at)

    def take(self):
        tok = self.tokens[self.pos]
        if tok is None:
            raise self.unexpected(None)
        self.pos += 1
        return tok

    def op(self):
        """The operator at the current token, None if it is not one."""
        tok = self.tokens[self.pos]
        return None if tok is None else tok["op"]

    def expr(self) -> dict:
        acc = self.term()
        while (op := self.op()) in ("+", "-"):
            self.pos += 1
            for k, v in self.term().items():
                acc[k] = acc.get(k, 0j) + (v if op == "+" else -v)
        return acc

    def term(self) -> dict:
        acc = self.factor(self.take())
        while self.op() == "*":
            self.pos += 1
            tok = self.take()
            if tok.lastgroup == "mono":
                # a monomial after '*' multiplies in factor by factor, as
                # separate factors would
                for key, value in self.factors(tok):
                    acc = _convolve2(acc, {key: value}, (self.trunc, self.trunc))
            else:
                acc = _convolve2(acc, self.factor(tok), (self.trunc, self.trunc))
        return acc

    def factor(self, tok) -> dict:
        """The term map of the factor that starts at token tok."""
        if tok.lastgroup == "mono":
            return self.monomial(tok)
        if tok["op"] == "(":
            self.nest(tok.start("op"))
            self.depth += 1
            inner = self.expr()
            close = self.take()
            if close["op"] != ")":
                raise self.unexpected(close, "expected ')', found %r")
            self.depth -= 1
            return inner
        raise self.unexpected(tok)

    def nest(self, at: int) -> None:
        """A ParseError at offset at if one more parenthesis passes MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise _error(self.text, "parentheses nested deeper than %d" % MAX_DEPTH, at)

    def monomial(self, tok) -> dict:
        """The {(m, n): coefficient} map of monomial token tok: its factors
        multiplied from left to right, each product 0j + a * b as _convolve2
        forms it.  Its index is in range, as each atom's base is."""
        m = n = 1
        value = None
        for (a, b), c in self.factors(tok):
            m *= a
            n *= b
            value = c if value is None else 0j + value * c
        return {(m, n): value}

    def factors(self, tok) -> list:
        """The ((m, n), value) factors of monomial token tok from left to
        right, each checked as it is reached: a parenthesised complex literal
        is one level of nesting, a coefficient must be finite and an atom's
        base lie in 1..truncation."""
        _, paren, real, pm, imag, m, n, _, _ = tok.groups()
        out = []
        if real is not None:
            if paren:
                self.nest(tok.start("open"))
            value = complex(float(real), 0.0 if imag is None else
                            float(imag) if pm == "+" else -float(imag))
            if not cmath.isfinite(value):
                _check_finite(value)
            out.append(((1, 1), value))
        if m is not None:
            out.append(((self.base(tok, "m"), 1), _ONE))
        if n is not None:
            out.append(((1, self.base(tok, "n")), _ONE))
            self.saw_t = True
        return out

    def base(self, tok, group: str) -> int:
        """The base of the atom in group of token tok, in 1..truncation."""
        base = int(tok[group])
        if not 1 <= base <= self.trunc:
            message = "atom base must be >= 1" if base < 1 else "index %d exceeds truncation" % base
            raise _error(self.text, message, tok.start(group))
        return base


def parse_expression(text: str, truncation: int = 64):
    """Parse an expression to a series; single-variable input demotes to a
    DirichletSeries.  A coefficient that overflows raises ValueError."""
    if len(text) > MAX_INPUT:
        raise ParseError("input exceeds 1 MB", 1, 1)
    tokens = []
    # no token starts in trailing whitespace, and no match is tried there
    for tok in _TOKEN_RE.finditer(text.rstrip()):
        if tok.lastgroup == "bad":
            raise _error(text, "unexpected character %r" % tok["bad"], tok.start("bad"))
        tokens.append(tok)
    if not tokens:
        raise ParseError("empty expression", 1, 1)
    parser = _Parser(text, tokens, truncation)
    terms = parser.expr()
    if parser.tokens[parser.pos] is not None:
        raise parser.unexpected(parser.tokens[parser.pos])
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
