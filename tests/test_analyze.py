import math
import random
import warnings

import numpy as np
import pytest

from ddseries.analyze import (
    SemigroupError,
    _grid_sum,
    coefficient_bound_check,
    coefficient_extract,
    line_sup_estimate,
    semigroup_identify,
    series_evaluator,
    sup_monotonicity_check,
    three_lines_check,
)
from ddseries.double import embed_single, make_double_series
from ddseries.series import DirichletSeries, constant_series, make_series, zero_series

from fresh_process import run_fresh


def random_series(rng, max_index=16, n_terms=4):
    idx = rng.sample(range(1, max_index + 1), n_terms)
    return make_series(
        [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in idx], max_index
    )


def random_double(rng, bound=8, n_terms=4):
    pairs = set()
    while len(pairs) < n_terms:
        pairs.add((rng.randint(1, bound), rng.randint(1, bound)))
    return make_double_series(
        [(p, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for p in sorted(pairs)],
        (bound, bound),
    )


class TestLineSup:
    def test_single_term(self):
        # |2^{-1-i tau}| = 1/2 for every height
        est = line_sup_estimate(make_series([(2, 1)], 4), 1.0)
        assert abs(est.value - 0.5) < 1e-6

    def test_constant(self):
        est = line_sup_estimate(constant_series(3j, 4), 2.0)
        assert abs(est.value - 3.0) < 1e-9

    def test_two_term_peak(self):
        # peak at tau = 0 where both terms align in phase
        est = line_sup_estimate(make_series([(1, 1), (2, 1)], 4), 0.5)
        assert abs(est.value - (1 + 2**-0.5)) < 1e-4

    def test_is_lower_bound_of_l1_translate(self):
        rng = random.Random(3)
        for _ in range(5):
            D = random_series(rng)
            sigma = rng.uniform(0.2, 2.0)
            l1 = sum(abs(a) * n**-sigma for n, a in D.terms.items())
            assert line_sup_estimate(D, sigma).value <= l1 + 1e-9

    def test_double_single_term(self):
        D = make_double_series([((2, 3), 1 + 0j)], (4, 4))
        est = line_sup_estimate(D, (1.0, 1.0), samples=100)
        assert abs(est.value - 1 / 6) < 1e-9

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            line_sup_estimate(make_series([(2, 1)], 4), 0.0)

    def test_rejects_wrong_number_of_abscissas(self):
        with pytest.raises(ValueError):
            line_sup_estimate(make_double_series([((2, 3), 1)], (4, 4)), 0.5)

    def test_zero(self):
        assert line_sup_estimate(zero_series(8), 0.5).value == 0.0
        assert line_sup_estimate(make_double_series([], (4, 4)), (1.0, 1.0)).value == 0.0


class TestSampleCount:
    """Every sup search refuses a sample count below one by name."""

    D = make_series([(1, 1), (2, 1)], 4)
    D2 = make_double_series([((1, 1), 1), ((2, 3), 1)], (4, 4))

    @pytest.mark.parametrize("check", [
        lambda D, D2: line_sup_estimate(D, 1.0, samples=0),
        lambda D, D2: line_sup_estimate(D2, (1.0, 1.0), samples=0),
        lambda D, D2: sup_monotonicity_check(D, 0.5, 1.0, samples=0),
        lambda D, D2: three_lines_check(D2, 0.5, 0.5, 2.0, 0.5, 0.5, samples=0),
        lambda D, D2: coefficient_bound_check(D2, 0.5, samples=-3),
    ], ids=["line-sup", "line-sup-double", "monotonicity", "three-lines", "coefficient-bound"])
    def test_rejected(self, check):
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            check(self.D, self.D2)

    def test_one_sample_is_enough(self):
        assert abs(line_sup_estimate(self.D, 1.0, samples=1).value - 1.5) < 1e-6


class TestLineSupAscent:
    """Closed forms: with non-negative coefficients every term is largest
    in phase at tau = 0, so the sup on Re s = sigma is sum c_n n^{-sigma}.
    No grid point is at 0, so only the ascent can reach it."""

    def test_nonnegative_coefficients(self):
        rng = random.Random(4048)
        for _ in range(50):
            idx = rng.sample(range(1, 129), rng.randint(2, 64))
            D = make_series([(n, rng.uniform(0.01, 1.0)) for n in idx], 128)
            exact = sum(c.real * n**-0.5 for n, c in D.terms.items())
            assert line_sup_estimate(D, 0.5).value == pytest.approx(exact, rel=1e-9)

    def test_two_variables_peak_at_the_origin(self):
        rng = random.Random(9)
        for _ in range(10):
            pairs = rng.sample([(m, n) for m in range(1, 5) for n in range(1, 5)], rng.randint(2, 8))
            D = make_double_series([(p, rng.uniform(0.01, 1.0)) for p in pairs], (4, 4))
            exact = sum(c.real * m**-1.0 * n**-1.5 for (m, n), c in D.terms.items())
            est = line_sup_estimate(D, (1.0, 1.5), height_range=(-2.3, 2.0), samples=100)
            assert est.value == pytest.approx(exact, rel=1e-9)

    def test_coarse_two_variable_grid_is_refined(self):
        """Four samples ask for a 2 x 2 grid 20 apart; the refined grid puts a
        start near enough to the origin for the ascent to reach it."""
        rng = random.Random(21)
        for _ in range(10):
            pairs = rng.sample([(m, n) for m in range(1, 9) for n in range(1, 9)], 12)
            D = make_double_series([(p, rng.uniform(0.01, 1.0)) for p in pairs], (8, 8))
            exact = sum(c.real * (m * n) ** -0.5 for (m, n), c in D.terms.items())
            est = line_sup_estimate(D, (0.5, 0.5), height_range=(-10.0, 10.0), samples=4)
            assert est.value == pytest.approx(exact, rel=1e-9)

    def test_single_term_on_two_lines(self):
        est = line_sup_estimate(make_double_series([((3, 2), 2j)], (4, 4)), (0.5, 2.0))
        assert est.value == pytest.approx(2 * 3**-0.5 * 2**-2.0, rel=1e-12)


def test_import_loads_no_scipy():
    """Every sup search runs on numpy alone."""
    assert run_fresh("import sys, ddseries; print('scipy' in sys.modules)") == "False"


class TestSupMonotonicity:
    def test_strict_single_term(self):
        rep = sup_monotonicity_check(make_series([(2, 1)], 4), 0.5, 1.5)
        assert rep.nonstrict_holds
        assert rep.strictness == "strict"
        assert abs(rep.lower_sup.value - 2**-0.5) < 1e-6

    def test_constant_is_equal(self):
        rep = sup_monotonicity_check(constant_series(2, 4), 0.5, 1.5)
        assert rep.nonstrict_holds
        assert rep.strictness == "equal"

    def test_random_nonstrict(self):
        rng = random.Random(5)
        for _ in range(5):
            D = random_series(rng)
            rep = sup_monotonicity_check(D, 0.3, 1.1, samples=256)
            assert rep.nonstrict_holds

    def test_double_variant(self):
        D = make_double_series([((2, 2), 1 + 0j)], (4, 4))
        rep = sup_monotonicity_check(D, (0.5, 0.5), (1.0, 1.0), samples=64)
        assert rep.nonstrict_holds
        assert rep.strictness == "strict"

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            sup_monotonicity_check(make_series([(2, 1)], 4), 1.5, 0.5)


class TestThreeLines:
    def test_constant_equality(self):
        D = make_double_series([((1, 1), 2 + 0j)], (1, 1))
        rep = three_lines_check(D, 0.5, 0.5, 2.0, 0.5, 0.5, samples=64)
        assert rep.holds
        assert abs(rep.slack) < 1e-9

    def test_single_term_equality(self):
        # |(2,3) term| factors exactly, so the weighted corner product
        # matches the middle sup
        D = make_double_series([((2, 3), 1 + 0j)], (4, 4))
        rep = three_lines_check(D, 0.5, 0.5, 2.0, 0.5, 0.5, samples=64)
        assert rep.holds
        assert abs(rep.slack) < 1e-8

    def test_random_slack_nonnegative(self):
        rng = random.Random(7)
        for _ in range(3):
            D = random_double(rng)
            rep = three_lines_check(D, 0.4, 0.6, 2.5, 0.5, 0.3, samples=100)
            assert rep.holds
            assert rep.slack >= -1e-6

    def test_rejects_theta_outside(self):
        D = random_double(random.Random(9))
        with pytest.raises(ValueError):
            three_lines_check(D, 0.5, 0.5, 2.0, 0.0, 0.5)


class TestCoefficientExtract:
    def test_two_term(self):
        D = make_series([(1, 1), (2, 1)], 4)
        got = coefficient_extract(series_evaluator(D), 2, 0.5, 1e4, panels=100_000)
        assert abs(got.value - 1) < 1e-2

    def test_absent_index(self):
        D = make_series([(1, 1), (2, 1)], 4)
        got = coefficient_extract(series_evaluator(D), 3, 0.5, 1e4, panels=100_000)
        assert abs(got.value) < 1e-2

    def test_leading_coefficient(self):
        D = make_series([(1, 2.5 - 1j), (3, 0.7)], 4)
        got = coefficient_extract(series_evaluator(D), 1, 0.5, 1e4, panels=100_000)
        assert abs(got.value - (2.5 - 1j)) < 1e-2

    def test_error_bound_covers_truth(self):
        rng = random.Random(11)
        D = random_series(rng, 8, 4)
        ev = series_evaluator(D)
        for panels in (100, 1000, 100_000):
            for j in (1, 2, 5):
                got = coefficient_extract(ev, j, 0.5, 5e3, panels=panels, support=D.terms)
                assert got.error_bound is not None
                assert abs(got.value - D.terms.get(j, 0j)) <= got.error_bound + 1e-6

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            coefficient_extract(series_evaluator(make_series([], 4)), 0, 0.5, 1e3)

    def test_black_box_weight_overflow_raises(self):
        """j^{sigma+1} overflows: the same error as the series_evaluator
        path, not a NaN with numpy warnings."""
        D = make_series([(1, 1), (2, 1)], 4)
        message = r"^\(j/n\)\^\(sigma\+1\) overflows at sigma 1e\+300, j 2$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ev in (series_evaluator(D), lambda s: 1 + np.exp(-np.log(2) * s)):
                with pytest.raises(ValueError, match=message):
                    coefficient_extract(ev, 2, 1e300, 1e3, panels=1000)

    @pytest.mark.parametrize("terms, max_index, T, panels", [
        (64, 256, 1e3, 20_000),  # the shape of the benchmark's extraction job
        (8, 8, 1e4, 200_000),  # the shape of the coefficient-extraction selftest
    ])
    def test_black_box_agrees_with_the_series_evaluator(self, terms, max_index, T, panels):
        """A plain callable is sampled at the nodes; series_evaluator's
        callable is summed on the grid by _grid_sum."""
        rng = random.Random(terms)
        D = random_series(rng, max_index, terms)
        ev = series_evaluator(D)

        def black_box(s):
            return ev(s)

        for j in sorted(rng.sample(sorted(D.terms), 3)) + [1]:
            fast = coefficient_extract(ev, j, 0.5, T, panels=panels).value
            slow = coefficient_extract(black_box, j, 0.5, T, panels=panels).value
            scale = sum(abs(a) * (j / n) ** 1.5 for n, a in D.terms.items())
            assert abs(fast - slow) <= 1e-13 * scale


def _direct_sum(F, c, lo, step, count):
    """The grid sum from one exponential per height and term."""
    return np.exp(1j * np.multiply.outer(lo + np.arange(count) * step, F)) @ c


def _route_gap(F, c, lo, step, count):
    """How far the direct and the blocked routes may differ: each rounds a
    phase F_k tau to within about eps |F_k| |tau| (the height once, the
    product once), so the two values differ by up to twice that per term,
    plus a few roundings of the sum."""
    reach = max(abs(lo), abs(lo + (count - 1) * step))
    return 2 * np.finfo(float).eps * reach * (np.abs(c) @ np.abs(F)) + 1e-13 * np.abs(c).sum()


def _random_sum(seed, terms):
    rng = np.random.default_rng(seed)
    F = np.log(rng.integers(1, 257, terms) / rng.integers(1, 257, terms))
    return F, rng.uniform(-1, 1, terms) + 1j * rng.uniform(-1, 1, terms)


class TestGridSum:
    def test_matches_the_direct_table(self):
        # heights over [-10^3, 10^3], where phases reach about 5e3 rad and
        # the direct table itself is good only to about 1e-12 sum |c_k|
        for terms in (1, 8, 64):
            F, c = _random_sum(terms, terms)
            got = _grid_sum(F, c, -1e3, 0.1, 20_001)
            want = _direct_sum(F, c, -1e3, 0.1, 20_001)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= _route_gap(F, c, -1e3, 0.1, 20_001)
            assert _route_gap(F, c, -1e3, 0.1, 20_001) <= 3e-12 * np.abs(c).sum()

    # one height, two, a perfect square (7 blocks of 7), one past it (the
    # 8th block holds one height), and a last block of 6 of 7 heights
    @pytest.mark.parametrize("count", [1, 2, 49, 50, 55])
    def test_edge_counts(self, count):
        F, c = _random_sum(count, 5)
        got = _grid_sum(F, c, -3.0, 0.37, count)
        assert got.shape == (count,)
        assert (np.abs(got - _direct_sum(F, c, -3.0, 0.37, count)).max()
                <= _route_gap(F, c, -3.0, 0.37, count))

    def test_no_terms(self):
        got = _grid_sum(np.zeros(0), np.zeros(0, dtype=complex), -1.0, 0.5, 10)
        assert got.shape == (10,) and not got.any()

    def test_as_accurate_as_the_direct_table_at_large_phases(self):
        """At T = 10^4 the phases reach about 5e4 rad, where every route is
        good to about 1e-12; the blocked route is no worse than twice the
        direct one against a 40-digit reference."""
        mpmath = pytest.importorskip("mpmath")
        F, c = _random_sum(5, 8)
        lo, step, count = -1e4, 20.0, 1001
        with mpmath.workdps(40):
            Fm, cm = [mpmath.mpf(f) for f in F], [mpmath.mpc(x) for x in c]
            ref = np.array([
                complex(mpmath.fsum(ck * mpmath.expj(fk * (mpmath.mpf(lo) + m * mpmath.mpf(step)))
                                    for fk, ck in zip(Fm, cm)))
                for m in range(count)])
        blocked = np.abs(_grid_sum(F, c, lo, step, count) - ref).max()
        direct = np.abs(_direct_sum(F, c, lo, step, count) - ref).max()
        assert blocked <= 2 * direct


class TestSemigroupIdentify:
    def test_single_frequency(self):
        # A(s) = 10^{-s} = 2^{-s} 5^{-s}, B(s) = 15^{-s}: common phi = 5^{-s}
        A = make_series([(10, 1)], 16)
        B = make_series([(15, 1)], 16)
        phi = semigroup_identify(A, B, 1, panels=20_000)
        assert set(phi.terms) == {5}
        assert abs(phi.coefficient(5) - 1) < 1e-12

    def test_constant_pair(self):
        c = 0.8 - 0.3j
        A = make_series([(4, c)], 8)
        B = make_series([(9, c)], 16)
        phi = semigroup_identify(A, B, 2, panels=20_000)
        assert set(phi.terms) == {1}
        assert abs(phi.coefficient(1) - c) < 1e-12

    def test_multi_term(self):
        rng = random.Random(13)
        coeffs = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in (1, 2, 5)}
        A = DirichletSeries({2 * n: a for n, a in coeffs.items()}, 16)
        B = DirichletSeries({3 * n: a for n, a in coeffs.items()}, 24)
        phi = semigroup_identify(A, B, 1, panels=20_000)
        assert all(abs(phi.coefficient(n) - a) < 1e-9 for n, a in coeffs.items())

    def test_corrupted_input_rejected(self):
        A = make_series([(2, 1)], 16)
        bad = DirichletSeries({3: 1 + 0j, 5: 0.1 + 0j}, 24)
        with pytest.raises(SemigroupError):
            semigroup_identify(A, bad, 1, panels=20_000)

    def test_mismatched_pair_rejected(self):
        A = make_series([(2, 1)], 16)
        B = make_series([(3, 0.5)], 24)
        with pytest.raises(SemigroupError):
            semigroup_identify(A, B, 1, panels=20_000)


class TestCoefficientBound:
    def test_single_term_equality(self):
        # sup over Re = eps of |m^-s n^-t| is m^-eps n^-eps, so the bound
        # holds with equality
        D = make_double_series([((2, 3), 1 + 0j)], (4, 4))
        rep = coefficient_bound_check(D, 0.5, samples=100)
        assert rep.holds
        assert abs(rep.worst_excess) < 1e-9

    def test_constant(self):
        D = make_double_series([((1, 1), 4 + 3j)], (1, 1))
        rep = coefficient_bound_check(D, 1.0, samples=64)
        assert rep.holds
        assert abs(rep.sup_estimate - 5.0) < 1e-9

    def test_random_holds(self):
        rng = random.Random(17)
        for _ in range(3):
            rep = coefficient_bound_check(random_double(rng), 0.7, samples=100)
            assert rep.holds

    def test_embedded_single(self):
        rng = random.Random(19)
        D = embed_single(random_series(rng, 8, 3))
        rep = coefficient_bound_check(D, 0.5, samples=100)
        assert rep.holds
