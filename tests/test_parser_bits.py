"""The parser's results bit for bit: a seeded corpus pinned by SHA-256, the
print/parse round trip and a fuzz over the grammar's alphabet."""

import hashlib
import random
import struct

from hypothesis import given, settings, strategies as st

from ddseries.double import DoubleDirichletSeries, make_double_series
from ddseries.parser import ParseError, parse_expression, print_expression
from ddseries.series import make_series


def _digest(h, D):
    h.update(("%s %r" % (type(D).__name__, D.truncations)).encode())
    for k, c in D.terms.items():  # in the order the parser built them
        h.update(repr(k).encode() + struct.pack("<dd", c.real, c.imag))


_HAND = [
    "0.0 - (0.0-0.0i)*3^-s",
    "0.0 - (0.0-0.0i)*3^-s + (1.5-0.0i)*2^-s - (0.0+2.5i)",
    "(1 + 2^-s) * (1 + 3^-t) * (0.5 - 2^-s)",
    "(1.5 - 2i) * (1 + 3^-s + 5^-s) - (2^-s - 7^-s) * (0.25+0.75i)",
    "2^-s * 2^-s * 3^-s + 3^-t * 3^-t - 2^-s * 2^-s",
    "3^-t * 2^-s + 2^-s * 3^-t + 5^-t * 7^-s * 2 * 3",
    "2 * 3 * 5^-s - 0.5 * 0.25 * 7^-t + 1e-3 * 1e2 * 11^-s * 13^-t",
    "(0.1+0.2i) * (0.3-0.4i) * 2^-s + 1 - 2i + 3 * 4 - 5i",
    "2^-t + (0.5-0.25i)*3^-t - 4^-t*5^-t",
    "((((((((1 + 2^-s) * (3^-t - 0.5)))))))) * ((((((2.5e-3 - (1+1i)*5^-s))))))",
    "(" * 99 + "(1.5-2.5i)*3^-s" + ")" * 99,
    "1e300 * 2^-s * 1e8 + 1.7976931348623157e+308 - 5e-324i",
]


def _printed(rng):
    """A printed series of the sparse-algebra shape: up to 8 terms, complex
    coefficients, indices up to the truncation."""
    double = rng.random() < 0.4
    N = rng.choice([64, 1024, 11585, 1 << 17])
    k = rng.randint(1, 8)
    c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(k)]
    if double:
        idx = {(rng.randint(1, N), rng.randint(1, N)) for _ in range(k)} | {(1, 1)}
        D = make_double_series(list(zip(sorted(idx), c + [1j] * len(idx))), (N, N))
    else:
        idx = {rng.randint(1, N) for _ in range(k)} | {1}
        D = make_series(list(zip(sorted(idx), c + [1j] * len(idx))), N)
    return print_expression(D), N


def test_parse_keeps_its_bits():
    """SHA-256 of the parse results of 400 printed series and the hand cases,
    every coefficient's two parts as bytes, in the order they were built;
    the digest is that of the token-by-token parser this one replaced."""
    rng = random.Random(27001)
    h = hashlib.sha256()
    for _ in range(400):
        text, N = _printed(rng)
        _digest(h, parse_expression(text, N))
    for text in _HAND:
        _digest(h, parse_expression(text, 64))
    assert h.hexdigest() == "ad712f7659330e5ea62ab9eedc3952d42c03e428492738774966be8eeea212ed"


_part = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _canonical(c):
    """c as the grammar can spell it: every product the parser forms is
    0j + a * b, which has no -0.0 part."""
    return 0j + c


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_print_parse_round_trip_is_exact(data):
    double = data.draw(st.booleans())
    N = data.draw(st.integers(1, 1 << 20))
    if double:
        keys = st.tuples(st.sampled_from([1, N]) | st.integers(1, N),
                         st.sampled_from([1, N]) | st.integers(1, N))
    else:
        keys = st.sampled_from([1, N]) | st.integers(1, N)
    terms = data.draw(st.dictionaries(keys, st.builds(complex, _part, _part), max_size=8))
    D = (make_double_series(terms.items(), (N, N)) if double
         else make_series(terms.items(), N))
    back = parse_expression(print_expression(D), N)
    assert type(back) is type(D) and back.truncations == D.truncations
    assert sorted(back.terms) == sorted(D.terms)
    for k, c in D.terms.items():
        want, got = _canonical(c), back.terms[k]
        assert struct.pack("<dd", got.real, got.imag) == struct.pack("<dd", want.real, want.imag)


_ALPHABET = st.sampled_from(list("0123456789 \n+-*().eEist^") + ["^-s", "^-t", "2^-s", "(1+2i)",
                                                                 "1e308", "1e999", "0.0"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_ALPHABET, max_size=30).map("".join), st.sampled_from([1, 8, 64]))
def test_random_text_parses_or_raises_a_value_error(text, truncation):
    try:
        D = parse_expression(text, truncation)
    except (ParseError, ValueError):
        return
    assert isinstance(D, DoubleDirichletSeries) or D.truncation == truncation
