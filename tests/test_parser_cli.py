import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from ddseries.cli import MAX_POINTS, MAX_TRUNC, build_parser, main
from ddseries.double import DoubleDirichletSeries, make_double_series
from ddseries.formats import dumps_series, dumps_symbol, loads_series
from ddseries.compose import Symbol
from ddseries.parser import MAX_INPUT, ParseError, parse_expression, print_expression
from ddseries.series import DirichletSeries, make_series, mul, zero_series


class TestParseExpression:
    def test_sum(self):
        D = parse_expression("1 + 2^-s")
        assert isinstance(D, DirichletSeries)
        assert D.terms == {1: 1 + 0j, 2: 1 + 0j}

    def test_product_of_sums(self):
        D = parse_expression("(1 + 2^-s) * (1 + 3^-t)")
        assert isinstance(D, DoubleDirichletSeries)
        assert D.terms == {
            (1, 1): 1 + 0j,
            (2, 1): 1 + 0j,
            (1, 3): 1 + 0j,
            (2, 3): 1 + 0j,
        }

    def test_repeated_atom_convolves(self):
        D = parse_expression("2^-s * 2^-s")
        assert isinstance(D, DirichletSeries)
        assert D.terms == {4: 1 + 0j}

    def test_complex_literal(self):
        D = parse_expression("(1.5 - 2i) * 3^-s")
        assert D.terms == {3: 1.5 - 2j}

    def test_precedence(self):
        # '*' binds tighter than '+'
        D = parse_expression("1 + 2 * 2^-s")
        assert D.terms == {1: 1 + 0j, 2: 2 + 0j}

    def test_subtraction(self):
        D = parse_expression("3^-s - 3^-s")
        assert D.is_zero()

    def test_scientific_notation(self):
        D = parse_expression("1e-3 * 5^-s")
        assert abs(D.coefficient(5) - 1e-3) < 1e-18

    def test_truncation_drops_products(self):
        D = parse_expression("8^-s * 8^-s", truncation=16)
        assert D.is_zero()

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1 +\n2^-s * $")
        assert exc.value.line == 2
        assert exc.value.column == 8

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expression("(1 + 2^-s")

    def test_nesting_depth_cap(self):
        assert parse_expression("(" * 100 + "2^-s" + ")" * 100).terms == {2: 1 + 0j}
        with pytest.raises(ParseError):
            parse_expression("(" * 5000 + "2^-s" + ")" * 5000)

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expression("   ")

    def test_size_cap(self):
        with pytest.raises(ParseError):
            parse_expression("1" + " " * MAX_INPUT)

    def test_index_beyond_truncation(self):
        with pytest.raises(ParseError):
            parse_expression("100^-s", truncation=64)

    @pytest.mark.parametrize("text, value", [
        ("1e300 * 1e300", "(inf+0j)"),
        ("1e300*1e300 - 1e300*1e300", "(nan+0j)"),
        ("(1e200*2^-s) * (1e200*3^-t)", "(inf+0j)"),
        ("1e999 * 2^-s", "(inf+0j)"),
        ("2^-s * (1 + 1e999i)", "(1+infj)"),
    ])
    def test_overflow_raises(self, text, value):
        with pytest.raises(ValueError) as exc:
            parse_expression(text)
        assert str(exc.value) == "non-finite coefficient: " + value

    def test_overflow_dropped_past_the_truncation_is_harmless(self):
        assert parse_expression("1e300 * 1e300 * 8^-s * 8^-s", 16).is_zero()


class TestParseGrowth:
    """A sum of monomials parses in time linear in its length."""

    @staticmethod
    def _best_of_3(text, truncation):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse_expression(text, truncation)
            times.append(time.perf_counter() - start)
        return min(times)

    def test_eight_times_the_terms_take_at_most_twenty_times_as_long(self):
        def text(terms):
            return " + ".join("%d.5*%d^-s" % (n, n) for n in range(1, terms + 1))

        ratio = self._best_of_3(text(8000), 8000) / self._best_of_3(text(1000), 1000)
        assert ratio <= 20, ratio

    def test_round_trip_of_sixteen_thousand_terms(self):
        rng = random.Random(16000)
        D = make_series(
            [(n, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for n in range(1, 16001)],
            16000,
        )
        assert parse_expression(print_expression(D), 16000) == D


class TestParseErrors:
    """Every ParseError kind, pinned with its full message and position."""

    @pytest.mark.parametrize("text, message, line, column", [
        ("1 +\n2^-s * $", "unexpected character '$'", 2, 8),
        ("2^-s * (1 +\t3)\n\n  # note", "unexpected character '#'", 3, 3),
        ("1 + 2^-s *", "unexpected end of input", 1, 11),
        ("1 * (2^-s\n + 3\n  \n", "unexpected end of input", 2, 5),
        ("(1 + 2^-s 3", "expected ')', found '3'", 1, 11),
        ("(1 +\n 2^-s i)", "expected ')', found 'i'", 2, 7),
        ("1 2", "unexpected token '2'", 1, 3),
        (")", "unexpected token ')'", 1, 1),
        ("1e300 * 1e300 )", "unexpected token ')'", 1, 15),
        ("\t\n  1 *\n   *", "unexpected token '*'", 3, 4),
        ("2 + i", "unexpected token 'i'", 1, 5),
        ("0^-s", "atom base must be >= 1", 1, 1),
        ("1 +\n 00^-t", "atom base must be >= 1", 2, 2),
        ("100^-s", "index 100 exceeds truncation", 1, 1),
        (" 2^-s *\n 65^-t", "index 65 exceeds truncation", 2, 2),
        ("\n" + "(" * 101 + "2^-s" + ")" * 101, "parentheses nested deeper than 100", 2, 101),
        ("", "empty expression", 1, 1),
        ("  \n ", "empty expression", 1, 1),
        ("1" + " " * MAX_INPUT, "input exceeds 1 MB", 1, 1),
    ])
    def test_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert str(exc.value) == "%s at line %d, column %d" % (message, line, column)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_bad_character_is_raised_before_parsing(self):
        with pytest.raises(ParseError, match=r"^unexpected character '\$' at line 1, column 5"):
            parse_expression(") + $")


class TestPrintExpression:
    def test_roundtrip_single(self):
        rng = random.Random(3)
        for _ in range(10):
            idx = rng.sample(range(1, 33), 5)
            D = make_series(
                [(n, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for n in idx], 64
            )
            back = parse_expression(print_expression(D))
            assert back.terms == D.terms

    def test_roundtrip_double(self):
        D = make_double_series(
            [((2, 3), -1.5 + 0.25j), ((1, 1), 2 + 0j), ((4, 1), -0.125j)], (8, 8)
        )
        back = parse_expression(print_expression(D))
        assert back.terms == D.terms

    def test_zero(self):
        assert parse_expression(print_expression(zero_series(4))).is_zero()

    @pytest.mark.parametrize("c", [complex(0.0, -1.0), complex(-0.0, 1.0), complex(-0.0, -1.0)])
    def test_signed_zero_real_part(self, c):
        # the negation of 0.0 - 1.0j has a real part of -0.0, once printed
        # as the unreadable "(-0.0+1.0i)"
        D = make_series([(1, c), (3, c)], 4)
        assert parse_expression(print_expression(D), 4) == D

    def test_double_without_t_atoms_stays_double(self):
        D = make_double_series([((1, 1), 1 + 0j), ((2, 1), 2 + 0j)], (4, 4))
        text = print_expression(D)
        assert text == "1.0*1^-t + 2.0*2^-s"
        back = parse_expression(text, 4)
        assert isinstance(back, DoubleDirichletSeries)
        assert back.terms == D.terms
        assert parse_expression("1.0*1^-t + 2.0*2^-s", 4) == back

    def test_double_zero_stays_double(self):
        text = print_expression(make_double_series([], (4, 4)))
        assert text == "0.0*1^-t"
        back = parse_expression(text, 4)
        assert isinstance(back, DoubleDirichletSeries)
        assert back.is_zero()


class TestCliCommands:
    def test_eval(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1 + 2^-s")
        assert main(["eval", "--in", str(f), "--s", "1"]) == 0
        assert capsys.readouterr().out == "value 1.5 0.0\n"

    def test_eval_double_needs_t(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2^-s * 3^-t")
        assert main(["eval", "--in", str(f), "--s", "1"]) == 2
        assert main(["eval", "--in", str(f), "--s", "1", "--t", "1"]) == 0
        out = capsys.readouterr().out.splitlines()[-1]
        assert abs(float(out.split()[1]) - 1 / 6) < 1e-12

    def test_mul_matches_library(self, tmp_path, capsys):
        rng = random.Random(5)
        A = make_series([(n, complex(rng.uniform(-1, 1))) for n in (1, 2, 5)], 64)
        B = make_series([(n, complex(rng.uniform(-1, 1))) for n in (1, 3)], 64)
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(dumps_series(A))
        fb.write_text(dumps_series(B))
        assert main(["mul", str(fa), str(fb)]) == 0
        assert capsys.readouterr().out == dumps_series(mul(A, B, 64))

    def test_mul_mixed_embeds(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text("2^-s")
        fb.write_text("3^-t")
        assert main(["mul", str(fa), str(fb)]) == 0
        assert loads_series(capsys.readouterr().out).terms == {(2, 3): 1 + 0j}

    def test_compose_identity_symbol(self, tmp_path, capsys):
        sym = tmp_path / "sym.txt"
        sym.write_text(dumps_symbol(Symbol(1, zero_series(8))))
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        assert main(["compose", "--in", str(src), "--symbol", str(sym)]) == 0
        assert loads_series(capsys.readouterr().out).terms == {1: 1 + 0j, 2: 1 + 0j}

    def test_lift_unlift_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s + 0.5 * 6^-s")
        lifted = tmp_path / "p.txt"
        assert main(["lift", "--in", str(src), "--out", str(lifted)]) == 0
        assert main(["unlift", "--in", str(lifted), "--trunc", "8"]) == 0
        back = loads_series(capsys.readouterr().out)
        assert back.terms == {1: 1 + 0j, 2: 1 + 0j, 6: 0.5 + 0j}

    def test_unlift_index_above_trunc(self, tmp_path, capsys):
        src = tmp_path / "p.txt"
        src.write_text("bohr v1 single\n1:7 1.0 0.0\n")
        assert main(["unlift", "--in", str(src), "--trunc", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: index 128 exceeds truncation 64\n"

    def test_recover_symbol(self, tmp_path, capsys):
        two, three = tmp_path / "two.txt", tmp_path / "three.txt"
        two.write_text("2^-s")
        three.write_text("3^-s")
        assert main(["recover-symbol", str(two), str(three)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "symbol v1 single 1"

    def test_norm_parseval(self, tmp_path, capsys):
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        assert main(
            ["norm", "--in", str(src), "--p", "2", "--samples", "50000", "--seed", "7"]
        ) == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["value"] - math.sqrt(2)) < 0.02
        assert rec["seed"] == 7

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_norm_of_a_double_series_on_the_first_axis(self, tmp_path, capsys, p):
        """A double series whose terms all have n = 1 is its first-axis
        single series: the same estimate at the same seed."""
        single, double = tmp_path / "d1.txt", tmp_path / "d2.txt"
        single.write_text("dirichlet v1 single 16\n1 1.0 0.0\n2 0.5 0.25\n3 -0.25 0.0\n"
                          "12 0.125 0.0\n")
        double.write_text("dirichlet v1 double 16 4\n1 1 1.0 0.0\n2 1 0.5 0.25\n"
                          "3 1 -0.25 0.0\n12 1 0.125 0.0\n")
        outs = []
        for src in (single, double):
            argv = ["norm", "--in", str(src), "--p", p, "--samples", "2000", "--seed", "5"]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[1])["samples"] == 2000

    @pytest.mark.parametrize("p, kind", [("2", "hp-exact"), ("4", "hp-exact"), ("3", "hp")])
    def test_norm_kind_names_the_route(self, tmp_path, capsys, p, kind):
        src = tmp_path / "d.txt"
        src.write_text("1 + 0.5*2^-s")
        assert main(["norm", "--in", str(src), "--p", p, "--samples", "2000", "--seed", "1"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == kind
        assert (rec["moment_stderr"] == 0.0) == (kind == "hp-exact")

    def test_norm_requires_seed(self, tmp_path):
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        assert main(["norm", "--in", str(src), "--p", "2"]) == 2

    def test_coeff(self, tmp_path, capsys):
        src = tmp_path / "d.txt"
        src.write_text("1 + 0.75 * 2^-s")
        assert main(
            ["coeff", "--in", str(src), "--j", "2", "--T", "5000", "--panels", "50000"]
        ) == 0
        parts = capsys.readouterr().out.split()
        assert abs(float(parts[2]) - 0.75) < 1e-2

    def test_coeff_at_a_huge_sigma_on_its_own_index(self, tmp_path, capsys):
        # (2/2)^{sigma+1} = 1 at any sigma
        src = tmp_path / "d.txt"
        src.write_text("2^-s")
        assert main(["coeff", "--in", str(src), "--j", "2", "--sigma", "1e300",
                     "--panels", "1000"]) == 0
        assert capsys.readouterr().out == "coeff 2 1.0 0.0 0.0\n"

    def test_coeff_bound_covers_a_coarse_quadrature(self, tmp_path, capsys):
        # 100 panels over [-10^4, 10^4] are 200 apart, far wider than the
        # 9.06 period of 2^{i tau}: the value is 1.1257 where the truth is 1
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        assert main(["coeff", "--in", str(src), "--j", "2", "--sigma", "0.5",
                     "--panels", "100"]) == 0
        _, _, re, im, bound = capsys.readouterr().out.split()
        assert abs(complex(float(re), float(im)) - 1) <= float(bound)

    def test_check_symbol_pass_and_fail(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text(dumps_symbol(Symbol(0, make_series([(1, 2 + 0j)], 4))))
        assert main(["check-symbol", "--symbol", str(good)]) == 0
        assert capsys.readouterr().out.startswith("check symbol-range-phi pass")
        bad = tmp_path / "bad.txt"
        bad.write_text(dumps_symbol(Symbol(0, make_series([(1, -1 + 0j)], 4))))
        assert main(["check-symbol", "--symbol", str(bad)]) == 1
        assert " fail " in capsys.readouterr().out

    def test_check_young(self, tmp_path, capsys):
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        code = main(
            [
                "check-young", "--in", str(src), "--k", "2", "--p", "4", "--q", "2",
                "--samples", "20000", "--seed", "3",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("check young-slack pass")

    def test_check_young_small_polynomial(self, tmp_path, capsys):
        # ||P^2||_1 <= ||P||_4^2 holds although ||P^2||_1 > ||P||_4^4
        src = tmp_path / "d.txt"
        src.write_text("0.5 + 0.25*2^-s\n")
        code = main(["check-young", "--in", str(src), "--k", "2", "--p", "4", "--q", "1",
                     "--seed", "0"])
        assert code == 0
        assert capsys.readouterr().out.startswith("check young-slack pass")

    def test_check_suplines(self, tmp_path, capsys):
        src = tmp_path / "d.txt"
        src.write_text("2^-s")
        assert main(["check-suplines", "--in", str(src), "--sigma", "0.5", "--eta", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "strict" in out

    def test_selftest_single_check(self, capsys):
        assert main(["selftest", "--only", "compactness", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("check compactness pass")

    def test_selftest_unknown_name(self, capsys):
        assert main(["selftest", "--only", "no-such-check"]) == 2

    def test_bad_expression_is_usage_error(self, tmp_path):
        src = tmp_path / "d.txt"
        src.write_text("1 + $")
        assert main(["eval", "--in", str(src), "--s", "1"]) == 2

    def test_deep_nesting_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "d.txt"
        src.write_text("(" * 5000 + "1" + ")" * 5000)
        assert main(["eval", "--in", str(src), "--s", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: parentheses nested deeper")

    @pytest.mark.parametrize("argv", [
        ["coeff", "--j", "2", "--T", "0"],
        ["coeff", "--j", "2", "--panels", "0"],
        ["norm", "--p", "nan", "--seed", "1"],
        ["eval", "--s", "nan"],
        ["check-young", "--k", "1", "--p", "inf", "--q", "1", "--seed", "1"],
    ])
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, capsys, argv):
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        assert main(argv + ["--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bad_format_file(self, tmp_path):
        src = tmp_path / "d.txt"
        src.write_text("dirichlet v1 single 4\n2 nope 0.0\n")
        assert main(["eval", "--in", str(src), "--s", "1"]) == 2

    def test_multi_index_without_colon_names_the_field(self, tmp_path, capsys):
        src = tmp_path / "p.txt"
        src.write_text("bohr v1 single\n1 1 0\n")
        assert main(["unlift", "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: multi-index part '1' in line '1 1 0' is not position:exponent\n")

    def test_non_integer_slope_names_the_field(self, tmp_path, capsys):
        sym = tmp_path / "sym.txt"
        sym.write_text("symbol v1 single x\ndirichlet v1 single 4\n1 1.0 0.0\n")
        src = tmp_path / "d.txt"
        src.write_text("2^-s")
        assert main(["compose", "--in", str(src), "--symbol", str(sym)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: slope 'x' in line 'symbol v1 single x' is not an integer\n"

    def test_missing_file(self):
        assert main(["eval", "--in", "/nonexistent/file", "--s", "1"]) == 2

    def test_format_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval", "--s", "1", "--format", "text"])

    def test_lift_of_largest_prime_below_a_million(self):
        """A cold process lifts 999983 through factor's sieve and its prime
        list; a trial-division prime table took minutes here."""
        import ddseries

        src = os.path.dirname(os.path.dirname(ddseries.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "ddseries.cli", "lift", "--trunc", "1000000"],
            input="999983^-s\n", capture_output=True, text=True, env=env, timeout=20,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "bohr v1 single\n78498:1 1.0 0.0\n"


# every command that reads --trunc, with its other required flags; x.txt
# stands for an input file
TRUNC_COMMANDS = [
    ["eval", "--in", "x.txt", "--s", "1"],
    ["mul", "x.txt", "x.txt"],
    ["compose", "--in", "x.txt", "--symbol", "x.txt"],
    ["lift", "--in", "x.txt"],
    ["unlift", "--in", "x.txt"],
    ["norm", "--in", "x.txt", "--p", "2", "--seed", "1"],
    ["coeff", "--in", "x.txt", "--j", "2"],
    ["check-young", "--in", "x.txt", "--k", "2", "--p", "4", "--q", "2", "--seed", "1"],
    ["check-suplines", "--in", "x.txt", "--sigma", "0.5", "--eta", "1.5"],
]

# float flags outside the range where their value is used; {sym}, {sym2}
# and {d} stand for a one-variable symbol, a two-variable one and a series
FLOAT_FLAGS = [
    ["check-symbol", "--symbol", "{sym}", "--epsilon", "nan"],
    ["check-symbol", "--symbol", "{sym}", "--epsilon", "-1"],
    ["check-compact", "--symbol", "{sym2}", "--min-re", "0"],
    ["check-compact", "--symbol", "{sym2}", "--min-re", "-1"],
    ["check-compact", "--symbol", "{sym2}", "--min-re", "nan"],
    ["check-compact", "--symbol", "{sym2}", "--min-re", "1e300"],
    ["check-suplines", "--in", "{d}", "--sigma", "0.5", "--eta", "inf"],
]

# the flags that size an array, each last so that a value can follow
SIZING_FLAGS = [
    ["norm", "--p", "2", "--seed", "1", "--samples"],
    ["check-young", "--k", "2", "--p", "4", "--q", "2", "--seed", "1", "--samples"],
    ["coeff", "--j", "2", "--panels"],
]


class TestCliOverflow:
    """A coefficient that overflows exits 2 with one error line."""

    @pytest.mark.parametrize("argv, text, err", [
        (["eval", "--s", "2"], "1e300 * 1e300",
         "error: non-finite coefficient: (inf+0j)\n"),
        (["lift"], "(1e200*2^-s)*(1e200*3^-s)",
         "error: non-finite coefficient: (inf+0j)\n"),
        (["compose", "--symbol", "{sym}"], "2^-s",
         "error: exp of the constant term (1386.2943611198905-0j) overflows\n"),
        # a point value that overflows: a term, a sum, a term of a double series
        (["eval", "--s", "-2000"], "1 + 2^-s", "error: the value at (-2000+0j) overflows\n"),
        (["eval", "--s", "-30"], "1e300*2^-s", "error: the value at (-30+0j) overflows\n"),
        (["eval", "--s", "1", "--t", "-2000"], "1 + 2^-t",
         "error: the value at ((1+0j), (-2000+0j)) overflows\n"),
        # a moment that overflows: exact and even, exact within Young's
        # check, sampled
        (["norm", "--p", "2", "--seed", "1"], "1e308*2^-s + 1e308*3^-s",
         "error: the H^2 moment, the mean of |f|^2, overflows\n"),
        (["check-young", "--k", "2", "--p", "4", "--q", "1", "--seed", "1"], "1e300*2^-s",
         "error: the H^2 moment, the mean of |f|^2, overflows\n"),
        (["norm", "--p", "3000", "--samples", "64", "--seed", "1"], "1 + 2^-s",
         "error: the H^3000 moment, the mean of |f|^3000, overflows\n"),
    ])
    def test_exit_2(self, tmp_path, capsys, argv, text, err):
        sym = tmp_path / "sym.txt"
        sym.write_text("symbol v1 single 0\ndirichlet v1 single 8\n1 -2000 0\n")
        src = tmp_path / "d.txt"
        src.write_text(text)
        argv = [a.format(sym=sym) for a in argv]
        assert main(argv + ["--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


class TestCliCompose:
    """compose reads only the symbol terms the truncation keeps, and
    refuses a symbol and a series of different arities."""

    def _run(self, tmp_path, capsys, symbol, text):
        sym = tmp_path / "sym.txt"
        sym.write_text(symbol)
        src = tmp_path / "d.txt"
        src.write_text(text)
        code = main(["compose", "--symbol", str(sym), "--in", str(src)])
        return (code,) + tuple(capsys.readouterr())

    def test_a_symbol_term_past_the_truncation(self, tmp_path, capsys):
        # 50 > 64 // 8, and -ln 8 * 1e308 is not finite
        symbol = "symbol v1 single 1\ndirichlet v1 single 64\n1 2 0\n50 1e308 0\n"
        code, out, err = self._run(tmp_path, capsys, symbol, "1 + 8^-s")
        assert (code, err) == (0, "")
        assert out == dumps_series(make_series([(1, 1), (8, 0.015625000000000007)], 64))

    def test_an_overflowing_term_in_range(self, tmp_path, capsys):
        symbol = "symbol v1 single 1\ndirichlet v1 single 64\n1 2 0\n4 1e308 0\n"
        code, out, err = self._run(tmp_path, capsys, symbol, "1 + 8^-s")
        assert (code, out, err) == (2, "", "error: non-finite coefficient: (-inf+0j)\n")

    @pytest.mark.parametrize("symbol, text", [
        (dumps_symbol(Symbol(1, zero_series(8))), "2^-s * 3^-t"),
        (dumps_symbol(Symbol(1, 0, 0, 1, make_double_series([], (4, 4)),
                             make_double_series([], (4, 4)))), "2^-s"),
    ])
    def test_differing_arities(self, tmp_path, capsys, symbol, text):
        code, out, err = self._run(tmp_path, capsys, symbol, text)
        assert (code, out) == (2, "")
        assert err == "error: the symbol and the series differ in the number of variables\n"


@pytest.mark.parametrize("argv", [
    ["selftest"], ["check-symbol", "--symbol", "s.txt"], ["check-compact", "--symbol", "s.txt"],
])
def test_ignored_trunc_is_refused(argv, capsys):
    """The commands that read no series take no --trunc."""
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--trunc", "8"])
    assert "unrecognized arguments: --trunc 8" in capsys.readouterr().err


class TestCliLimits:
    """Inputs that would size a table or an array past what a process can
    hold exit 2 with one error line, before anything is allocated."""

    def test_lift_of_a_prime_beyond_the_table(self, tmp_path, capsys):
        src = tmp_path / "d.txt"
        src.write_text("1000000007^-s")
        assert main(["lift", "--in", str(src), "--trunc", "2000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: prime 1000000007 is beyond the prime table (primes below 2^20)\n")

    def test_unlift_of_a_position_beyond_the_table(self, tmp_path, capsys):
        src = tmp_path / "p.txt"
        src.write_text("bohr v1 single\n82026:1 1.0 0.0\n")
        assert main(["unlift", "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: prime position 82026 is beyond the prime table")
        assert captured.err.count("\n") == 1

    def test_lift_of_a_number_beyond_trial_division(self):
        """10^18 + 3 has no prime factor below 2^20 and is above 2^40, so
        the prime table cannot factor it: a cold process says so at once."""
        import ddseries

        src = os.path.dirname(os.path.dirname(ddseries.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "ddseries.cli", "lift", "--trunc", str(2 * 10**18)],
            input="1000000000000000003^-s\n", capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=20,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: cannot factor 1000000000000000003")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", FLOAT_FLAGS)
    def test_float_flag_out_of_range(self, tmp_path, capsys, argv):
        texts = {
            "sym": dumps_symbol(Symbol(0, make_series([(1, 2 + 0j)], 4))),
            "sym2": "symbol v1 double 1 1 1 0\ndirichlet v1 double 1 1\n1 1 2.0 0.0\n"
                    "dirichlet v1 double 1 1\n1 1 1.0 0.0\n",
            "d": "1 + 2^-s",
        }
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", SIZING_FLAGS)
    def test_sizing_flag_above_its_ceiling(self, tmp_path, capsys, argv):
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        assert main(argv + [str(10**12), "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(
            ": %d is above the ceiling %d" % (10**12, MAX_POINTS))
        assert "Traceback" not in captured.err

    def test_coeff_at_the_panel_ceiling_fits_in_a_gigabyte(self):
        """10^6 panels on a 200-term series once asked for a 3 GB table of
        panels x terms; the grid sum needs a few tens of MB.  The child
        caps its own address space at 1 GB, with one BLAS thread so that a
        many-core host reserves no more thread memory than a small one."""
        import ddseries

        pytest.importorskip("resource")
        text = dumps_series(make_series([(n, 1 / n) for n in range(1, 201)], 200))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))\n"
            "from ddseries.cli import main\n"
            "sys.exit(main(['coeff', '--j', '7', '--panels', '%d']))\n" % MAX_POINTS
        )
        src = os.path.dirname(os.path.dirname(ddseries.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("coeff 7 ")
        assert abs(float(done.stdout.split()[2]) - 1 / 7) < 1e-2

    def test_coeff_sigma_that_overflows_a_weight(self, tmp_path, capsys):
        # (2/1)^{1101} overflows: one error line naming sigma and j
        src = tmp_path / "d.txt"
        src.write_text("1 + 2^-s")
        assert main(["coeff", "--in", str(src), "--j", "2", "--sigma", "1100",
                     "--panels", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: (j/n)^(sigma+1) overflows at sigma 1100.0, j 2\n"

    @pytest.mark.parametrize("argv", SIZING_FLAGS)
    def test_sizing_flag_at_its_ceiling_parses(self, argv):
        args = build_parser().parse_args(argv + [str(MAX_POINTS)])
        assert MAX_POINTS in vars(args).values()

    @pytest.mark.parametrize("argv", TRUNC_COMMANDS)
    def test_trunc_above_its_ceiling(self, tmp_path, capsys, argv):
        """Refused before any input is read: the files named do not exist."""
        argv = [str(tmp_path / "missing.txt") if a == "x.txt" else a for a in argv]
        assert main(argv + ["--trunc", str(MAX_TRUNC + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(
            ": %d is above the ceiling %d" % (MAX_TRUNC + 1, MAX_TRUNC))
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", TRUNC_COMMANDS)
    def test_trunc_at_its_ceiling_parses(self, argv):
        assert build_parser().parse_args(argv + ["--trunc", str(MAX_TRUNC)]).trunc == MAX_TRUNC

    def test_compose2_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compose2", "--symbol", "sym.txt"])
