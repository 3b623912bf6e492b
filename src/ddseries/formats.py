"""Version-tagged line-oriented text formats.

Series:   `dirichlet v1 single <N>` then `<n> <re> <im>` lines;
          `dirichlet v1 double <M> <N>` then `<m> <n> <re> <im>` lines.
Symbols:  `symbol v1 single <c0>` / `symbol v1 double <c1> <d1> <c2> <d2>`
          followed by the embedded series block(s).
Polynomials: `bohr v1 single` then `<alpha> <re> <im>` with alpha written
          as comma-separated pos:exp pairs (`-` for the empty index).

Floats are printed with repr (shortest round-trip), `#` starts a comment,
output ordering is index-lexicographic so files are diffable.
"""

from __future__ import annotations

from .bohr import DoublePrimePolynomial, PrimePolynomial
from .compose import Symbol
from .double import DoubleDirichletSeries, _make
from .series import DirichletSeries, _key, _parts


class FormatError(ValueError):
    pass


def _clean_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _fields(kind, words, name: str, line: str) -> tuple:
    """Words of a line read as kind (int or float); a FormatError that
    names the field and quotes the line when one is not."""
    values = []
    for word in words:
        try:
            values.append(kind(word))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise FormatError("%s %r in line %r is not %s" % (name, word, line, what)) from None
    return tuple(values)


def _fmt(x: float) -> str:
    return repr(float(x))


# the kind word of a series or polynomial block, by arity
_KINDS = ("single", "double")


def _ints(values) -> str:
    return " ".join("%d" % v for v in values)


def dumps_series(D) -> str:
    if not isinstance(D, (DirichletSeries, DoubleDirichletSeries)):
        raise TypeError("expected a series")
    lines = ["dirichlet v1 %s %s" % (_KINDS[len(D.truncations) - 1], _ints(D.truncations))]
    for key in sorted(D.terms):
        c = D.terms[key]
        lines.append("%s %s %s" % (_ints(_parts(key)), _fmt(c.real), _fmt(c.imag)))
    return "\n".join(lines) + "\n"


def loads_series(text: str):
    lines = _clean_lines(text)
    if not lines:
        raise FormatError("empty series file")
    series, rest = _parse_series_block(lines)
    if rest:
        raise FormatError("trailing content after series block: %r" % rest[0])
    return series


def _arity(kind: str, what: str) -> int:
    if kind not in _KINDS:
        raise FormatError("unknown %s kind: %r" % (what, kind))
    return _KINDS.index(kind) + 1


def _parse_series_block(lines: list[str]):
    if not lines:
        raise FormatError("expected a series block, found end of input")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "dirichlet" or head[1] != "v1":
        raise FormatError("bad series header: %r" % lines[0])
    arity = _arity(head[2], "series")
    if len(head) != 3 + arity:
        raise FormatError("%s header needs %d truncation(s)" % (head[2], arity))
    terms = []
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] in ("dirichlet", "symbol", "bohr"):
            break
        if len(parts) != arity + 2:
            raise FormatError("bad %s term line: %r" % (head[2], lines[i]))
        index = _key(_fields(int, parts[:arity], "index", lines[i]))
        terms.append((index, complex(*_fields(float, parts[-2:], "coefficient part", lines[i]))))
        i += 1
    return _make(terms, _fields(int, head[3:], "truncation", lines[0])), lines[i:]


def dumps_symbol(sym) -> str:
    if not isinstance(sym, Symbol):
        raise TypeError("expected a symbol")
    slopes = (v for row in sym.slopes for v in row)
    head = "symbol v1 %s %s\n" % (_KINDS[len(sym.phis) - 1], _ints(slopes))
    return head + "".join(map(dumps_series, sym.phis))


def loads_symbol(text: str):
    lines = _clean_lines(text)
    if not lines:
        raise FormatError("empty symbol file")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "symbol" or head[1] != "v1":
        raise FormatError("bad symbol header: %r" % lines[0])
    arity = _arity(head[2], "symbol")
    if len(head) != 3 + arity * arity:
        raise FormatError("%s symbol header needs %d slope(s)" % (head[2], arity * arity))
    phis, rest = [], lines[1:]
    for _ in range(arity):
        phi, rest = _parse_series_block(rest)
        if len(phi.truncations) != arity:
            raise FormatError("%s symbol needs %s series parts" % (head[2], head[2]))
        phis.append(phi)
    if rest:
        raise FormatError("trailing content after symbol")
    return Symbol(*_fields(int, head[3:], "slope", lines[0]), *phis)


def _fmt_alpha(alpha) -> str:
    if not alpha:
        return "-"
    return ",".join("%d:%d" % (pos, e) for pos, e in alpha)


def _parse_alpha(text: str, line: str):
    """A multi-index: positions from 1 on, strictly increasing, each with an
    exponent >= 1, so that every monomial has exactly one spelling."""
    if text == "-":
        return ()
    alpha = []
    for chunk in text.split(","):
        pos, colon, e = chunk.partition(":")
        if not colon:
            raise FormatError("multi-index part %r in line %r is not position:exponent"
                              % (chunk, line))
        alpha.append(_fields(int, (pos,), "prime position", line)
                     + _fields(int, (e,), "exponent", line))
    positions = [pos for pos, _ in alpha]
    if positions[0] < 1 or positions != sorted(set(positions)) or min(e for _, e in alpha) < 1:
        raise FormatError("bad multi-index %r: positions must increase from 1 and "
                          "exponents be >= 1" % text)
    return tuple(alpha)


def dumps_polynomial(P) -> str:
    if not isinstance(P, (PrimePolynomial, DoublePrimePolynomial)):
        raise TypeError("expected a prime polynomial")
    double = isinstance(P, DoublePrimePolynomial)
    lines = ["bohr v1 " + _KINDS[double]]
    for key in sorted(P.terms):
        c = P.terms[key]
        alphas = " ".join(map(_fmt_alpha, key if double else (key,)))
        lines.append("%s %s %s" % (alphas, _fmt(c.real), _fmt(c.imag)))
    return "\n".join(lines) + "\n"


def loads_polynomial(text: str):
    lines = _clean_lines(text)
    if not lines:
        raise FormatError("empty polynomial file")
    head = lines[0].split()
    if head[:2] != ["bohr", "v1"] or len(head) != 3:
        raise FormatError("bad polynomial header: %r" % lines[0])
    arity = _arity(head[2], "polynomial")
    terms = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != arity + 2:
            raise FormatError("bad polynomial line: %r" % line)
        key = _key(tuple(_parse_alpha(a, line) for a in parts[:arity]))
        if key in terms:
            raise FormatError("duplicate monomial %r" % " ".join(parts[:arity]))
        terms[key] = complex(*_fields(float, parts[-2:], "coefficient part", line))
    return (PrimePolynomial, DoublePrimePolynomial)[arity - 1](terms)


def check_line(name: str, passed: bool, value: float, tolerance: float) -> str:
    """One assertion in the report format."""
    return "check %s %s %s %s" % (name, "pass" if passed else "fail", _fmt(value), _fmt(tolerance))


def norm_estimate_line(est) -> str:
    """The estimate as one JSON object; moment, moment_stderr and the H^infty
    upper bound are included whenever they are set."""
    import json

    rec = {"value": est.value, "stderr": est.stderr, "samples": est.samples,
           "seed": est.seed, "kind": est.kind}
    for name in ("moment", "moment_stderr", "upper"):
        if getattr(est, name) is not None:
            rec[name] = getattr(est, name)
    return json.dumps(rec)
