import json
import random

import pytest

from ddseries.bohr import (
    DoublePrimePolynomial,
    NormEstimate,
    PrimePolynomial,
)
from ddseries.compose import DoubleSymbol, Symbol
from ddseries.double import make_double_series
from ddseries.formats import (
    FormatError,
    check_line,
    dumps_polynomial,
    dumps_series,
    dumps_symbol,
    loads_polynomial,
    loads_series,
    loads_symbol,
    norm_estimate_line,
)
from ddseries.series import make_series


def random_single(rng, max_index=64, n_terms=6):
    idx = rng.sample(range(1, max_index + 1), n_terms)
    return make_series(
        [(n, complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for n in idx], max_index
    )


def random_double(rng, bound=16, n_terms=5):
    pairs = set()
    while len(pairs) < n_terms:
        pairs.add((rng.randint(1, bound), rng.randint(1, bound)))
    return make_double_series(
        [(p, complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for p in sorted(pairs)],
        (bound, bound),
    )


class TestSeriesRoundTrip:
    def test_single(self):
        rng = random.Random(3)
        for _ in range(10):
            D = random_single(rng)
            back = loads_series(dumps_series(D))
            assert back.terms == D.terms
            assert back.truncation == D.truncation

    def test_double(self):
        rng = random.Random(5)
        for _ in range(10):
            D = random_double(rng)
            back = loads_series(dumps_series(D))
            assert back.terms == D.terms
            assert back.truncations == D.truncations

    def test_awkward_floats_survive_repr(self):
        D = make_series([(2, complex(1 / 3, -1e-17)), (3, complex(0.1 + 0.2, 0))], 4)
        assert loads_series(dumps_series(D)).terms == D.terms

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ndirichlet v1 single 4\n2 1.0 0.0  # inline\n"
        assert loads_series(text).terms == {2: 1 + 0j}

    def test_output_is_sorted(self):
        D = make_series([(7, 1), (2, 1), (5, 1)], 8)
        body = dumps_series(D).splitlines()[1:]
        assert [int(l.split()[0]) for l in body] == [2, 5, 7]


class TestSymbolRoundTrip:
    def test_single(self):
        sym = Symbol(2, make_series([(1, 0.5 + 1j), (3, -0.25)], 8))
        back = loads_symbol(dumps_symbol(sym))
        assert back.c0 == 2
        assert back.phi.terms == sym.phi.terms

    def test_double(self):
        sym = DoubleSymbol(
            1,
            0,
            0,
            1,
            make_double_series([((2, 1), 1j)], (4, 4)),
            make_double_series([((1, 3), -2 + 0j)], (4, 4)),
        )
        back = loads_symbol(dumps_symbol(sym))
        assert (back.c1, back.d1, back.c2, back.d2) == (1, 0, 0, 1)
        assert back.phi1.terms == sym.phi1.terms
        assert back.phi2.terms == sym.phi2.terms


class TestPolynomialRoundTrip:
    def test_single(self):
        P = PrimePolynomial({(): 1 + 2j, ((1, 1), (3, 2)): -0.5 + 0j})
        assert loads_polynomial(dumps_polynomial(P)).terms == P.terms

    def test_double(self):
        P = DoublePrimePolynomial(
            {((), ((1, 1),)): 2 + 0j, (((2, 1),), ()): 1j}
        )
        assert loads_polynomial(dumps_polynomial(P)).terms == P.terms


class TestErrors:
    def test_empty(self):
        with pytest.raises(FormatError):
            loads_series("")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            loads_series("series v1 single 4\n")

    def test_bad_version_word(self):
        with pytest.raises(FormatError):
            loads_symbol("symbol v2 single 1\ndirichlet v1 single 4\n")

    def test_wrong_term_arity(self):
        with pytest.raises(FormatError):
            loads_series("dirichlet v1 single 4\n2 1.0\n")

    def test_trailing_block(self):
        text = "dirichlet v1 single 4\n2 1.0 0.0\ndirichlet v1 single 4\n"
        with pytest.raises(FormatError):
            loads_series(text)

    def test_symbol_missing_part(self):
        with pytest.raises(FormatError):
            loads_symbol("symbol v1 double 1 0 0 1\ndirichlet v1 double 4 4\n")

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            loads_polynomial("bohr v1 triple\n")

    def test_repeated_monomial(self):
        with pytest.raises(FormatError):
            loads_polynomial("bohr v1 single\n1:1 1.0 0.0\n1:1 2.0 0.0\n")
        with pytest.raises(FormatError):
            loads_polynomial("bohr v1 double\n1:1 - 1.0 0.0\n1:1 - 2.0 0.0\n")

    @pytest.mark.parametrize("alpha", ["1:1,1:1", "2:1,1:1", "6:0", "1:-1", "0:1"])
    def test_non_canonical_multi_index(self, alpha):
        # positions strictly increasing from 1, exponents >= 1
        with pytest.raises(FormatError):
            loads_polynomial("bohr v1 single\n%s 1.0 0.0\n" % alpha)
        with pytest.raises(FormatError):
            loads_polynomial("bohr v1 double\n- %s 1.0 0.0\n" % alpha)

    @pytest.mark.parametrize("loads, text, field", [
        (loads_polynomial, "bohr v1 single\n1 1 0\n", "multi-index part '1'"),
        (loads_polynomial, "bohr v1 single\n1:x 1 0\n", "exponent 'x'"),
        (loads_polynomial, "bohr v1 double\n- y:1 1 0\n", "prime position 'y'"),
        (loads_polynomial, "bohr v1 single\n1:1 1 zero\n", "coefficient part 'zero'"),
        (loads_symbol, "symbol v1 single x\ndirichlet v1 single 4\n1 1 0\n", "slope 'x'"),
        (loads_series, "dirichlet v1 single 4x\n1 1 0\n", "truncation '4x'"),
        (loads_series, "dirichlet v1 double 4 4\n2 b 1 0\n", "index 'b'"),
        (loads_series, "dirichlet v1 single 4\n2 nope 0.0\n", "coefficient part 'nope'"),
    ])
    def test_bad_field_is_named_with_its_line(self, loads, text, field):
        with pytest.raises(FormatError) as exc:
            loads(text)
        line = text.splitlines()[0 if field.split()[0] in ("slope", "truncation") else 1]
        assert str(exc.value).startswith(field)
        assert repr(line) in str(exc.value)


class TestReportLines:
    def test_check_line(self):
        assert check_line("young", True, 0.5, 1e-6) == "check young pass 0.5 1e-06"
        assert check_line("young", False, 2.0, 1e-6).split()[2] == "fail"

    def test_norm_estimate_line_is_json(self):
        est = NormEstimate(1.5, 0.01, 1000, 42, "hp")
        rec = json.loads(norm_estimate_line(est))
        assert rec == {
            "value": 1.5,
            "stderr": 0.01,
            "samples": 1000,
            "seed": 42,
            "kind": "hp",
        }

    def test_norm_estimate_line_carries_moments(self):
        est = NormEstimate(1.5, 0.01, 1000, 42, "hp", moment=2.25, moment_stderr=0.03)
        rec = json.loads(norm_estimate_line(est))
        assert rec["moment"] == 2.25
        assert rec["moment_stderr"] == 0.03
        assert "upper" not in rec

    def test_norm_estimate_line_carries_hinf_upper_bound(self):
        est = NormEstimate(1.2, 0.0, 64, 3, "hinf-lower", upper=2.0)
        rec = json.loads(norm_estimate_line(est))
        assert rec["upper"] == 2.0
        assert rec["value"] == 1.2
        assert "moment" not in rec and "moment_stderr" not in rec
