import cmath
import math
import random

import numpy as np
import pytest

from ddseries import bohr
from ddseries.bohr import (
    DoublePrimePolynomial,
    PrimePolynomial,
    TorusSample,
    _ascend,
    _climb,
    _even_moment,
    _exponent_matrix,
    _hp_sampled,
    eval_torus,
    hinf_norm_estimate,
    hp_norm_estimate,
    index_to_multiindex,
    kronecker_sample,
    lift,
    lift_double,
    multiindex_to_index,
    prime,
    unlift,
    unlift_double,
)
from ddseries.double import embed_single, make_double_series, mul2
from ddseries.series import constant_series, evaluate, make_series, mul, zero_series


def random_series(rng, max_index=32, n_terms=5):
    idx = rng.sample(range(1, max_index + 1), n_terms)
    return make_series(
        [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in idx], max_index
    )


class TestMultiIndex:
    def test_one(self):
        assert index_to_multiindex(1) == ()

    def test_twelve(self):
        assert index_to_multiindex(12) == ((1, 2), (2, 1))

    def test_roundtrip(self):
        for n in range(1, 2000):
            assert multiindex_to_index(index_to_multiindex(n)) == n
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 10**5)
            assert multiindex_to_index(index_to_multiindex(n)) == n

    def test_prime_positions(self):
        assert [prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]


class TestLift:
    def test_six(self):
        P = lift(make_series([(6, 1)], 8))
        assert P.terms == {((1, 1), (2, 1)): 1 + 0j}

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            D = random_series(rng)
            assert unlift(lift(D), D.truncation).terms == D.terms

    def test_multiplicativity(self):
        # lift of a convolution equals the polynomial product of the lifts
        rng = random.Random(7)
        for _ in range(5):
            A = random_series(rng, 64, 5)
            B = random_series(rng, 64, 5)
            direct = lift(mul(A, B, 64 * 64))
            prod = {}
            for a, ca in lift(A).terms.items():
                for b, cb in lift(B).terms.items():
                    merged = dict(a)
                    for pos, e in b:
                        merged[pos] = merged.get(pos, 0) + e
                    key = tuple(sorted(merged.items()))
                    prod[key] = prod.get(key, 0j) + ca * cb
            keys = set(direct.terms) | set(prod)
            assert all(
                abs(direct.terms.get(k, 0j) - prod.get(k, 0j)) <= 1e-13 for k in keys
            )

    def test_double_roundtrip(self):
        D = make_double_series([((2, 3), 1 + 2j), ((6, 1), -1 + 0j)], (8, 8))
        P = lift_double(D)
        assert P.terms == {
            (((1, 1),), ((2, 1),)): 1 + 2j,
            (((1, 1), (2, 1)), ()): -1 + 0j,
        }
        assert unlift_double(P, D.truncations).terms == D.terms

    def test_unlift_rejects_index_above_truncation(self):
        with pytest.raises(ValueError):
            unlift(PrimePolynomial({((1, 7),): 1 + 0j}), 64)
        with pytest.raises(ValueError):
            unlift_double(DoublePrimePolynomial({(((1, 7),), ()): 1 + 0j}), (64, 64))


class TestEvalTorus:
    def test_constant(self):
        P = PrimePolynomial({(): 2.5 + 1j})
        assert eval_torus(P, TorusSample((0.1, 0.9))) == 2.5 + 1j

    def test_quarter_phase(self):
        P = PrimePolynomial({((1, 1),): 1 + 0j})
        v = eval_torus(P, TorusSample((0.25,)))
        assert abs(v - 1j) < 1e-15

    def test_kronecker_flow_matches_line_evaluation(self):
        rng = random.Random(11)
        D = random_series(rng, 30, 5)
        positions = max(
            (pos for alpha in lift(D).terms for pos, _ in alpha), default=1
        )
        for t in (0.0, 1.7, -3.2, 12.9):
            sample = kronecker_sample(t, positions)
            want = evaluate(D, 1j * t)
            got = eval_torus(lift(D), sample)
            assert abs(got - want) < 1e-12

    def test_insufficient_phases(self):
        P = PrimePolynomial({((3, 1),): 1 + 0j})
        with pytest.raises(ValueError):
            eval_torus(P, TorusSample((0.5,)))


class TestHpNorm:
    def test_constant(self):
        for p in (1.0, 2.0, 4.0):
            est = hp_norm_estimate(constant_series(3 - 4j, 4), p, 100, 0)
            assert abs(est.value - 5.0) < 1e-12
            assert est.stderr == 0.0

    def test_parseval_two_terms(self):
        a, b = 1.0, 0.7
        D = make_series([(1, a), (2, b)], 4)
        est = _hp_sampled(D, 2.0, 50_000, 42)
        exact = math.sqrt(a * a + b * b)
        assert abs(est.moment - exact**2) <= 3 * est.moment_stderr

    def test_p4_against_circle_quadrature(self):
        # Bohr lift of 1 + 2^-s is 1 + z, one circle variable; oracle is a
        # 1-D trapezoid rule
        D = make_series([(1, 1), (2, 1)], 4)
        thetas = np.linspace(0.0, 1.0, 20001)
        oracle = np.trapezoid(
            np.abs(1 + np.exp(2j * np.pi * thetas)) ** 4, thetas
        )
        est = _hp_sampled(D, 4.0, 100_000, 7)
        assert abs(est.moment - oracle) <= 3 * est.moment_stderr

    def test_monotone_in_p(self):
        rng = random.Random(13)
        D = random_series(rng, 16, 4)
        e2 = _hp_sampled(D, 2.0, 20_000, 1)
        e4 = _hp_sampled(D, 4.0, 20_000, 2)
        assert e2.value <= e4.value + 3 * (e2.stderr + e4.stderr)

    def test_deterministic_given_seed(self):
        D = make_series([(2, 1), (3, 1j)], 4)
        a = hp_norm_estimate(D, 3.0, 1000, 9)
        b = hp_norm_estimate(D, 3.0, 1000, 9)
        assert a == b


def _brute_power(terms, k):
    """The untruncated k-th power of a term map, every pair product taken:
    an index is n or a pair (m, n), multiplied componentwise."""
    def times(a, b):
        return a * b if isinstance(a, int) else (a[0] * b[0], a[1] * b[1])

    out = dict(terms)
    for _ in range(k - 1):
        nxt = {}
        for d, a in out.items():
            for e, b in terms.items():
                key = times(d, e)
                nxt[key] = nxt.get(key, 0j) + a * b
        out = nxt
    return out


def _random_double(rng, max_index=12, n_terms=5):
    idx = rng.sample([(m, n) for m in range(1, max_index + 1) for n in range(1, max_index + 1)],
                     n_terms)
    return make_double_series(
        [(mn, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for mn in idx],
        (max_index, max_index))


class TestExactMoments:
    """An even p within the budget is exact: ||D||_p^p = ||D^{p/2}||_2^2."""

    @pytest.mark.parametrize("double", [False, True])
    def test_against_a_brute_force_power(self, double):
        rng = random.Random(23 + double)
        for _ in range(300):
            n_terms = rng.randint(1, 7)
            D = (_random_double(rng, 12, n_terms) if double
                 else random_series(rng, 64, n_terms))
            for p in (2, 4, 6, 8):
                est = hp_norm_estimate(D, float(p), 10**6, 0)
                want = sum(abs(c) ** 2 for c in _brute_power(D.terms, p // 2).values())
                assert est.kind == "hp-exact"
                assert est.moment == pytest.approx(want, rel=1e-12)
                assert est.value == pytest.approx(want ** (1 / p), rel=1e-12)
                assert est.stderr == est.moment_stderr == 0.0

    def test_within_the_sampled_errors(self):
        rng = random.Random(31)
        for seed in range(5):
            D = random_series(rng, 32, 6)
            for p in (2.0, 4.0):
                exact, sampled = hp_norm_estimate(D, p, 4000, seed), _hp_sampled(D, p, 4000, seed)
                assert (exact.kind, sampled.kind) == ("hp-exact", "hp")
                assert abs(exact.moment - sampled.moment) <= 5 * sampled.moment_stderr

    def test_budget_is_the_pair_products_of_the_power(self):
        rng = random.Random(37)
        for D in (random_series(rng, 64, 9), _random_double(rng, 12, 9)):
            for k in (2, 3, 4):
                # the product by D of D^j takes |D^j| * |D| pairs
                pairs = sum(len(_brute_power(D.terms, j)) * len(D.terms) for j in range(1, k))
                assert _even_moment(D, k, pairs) == pytest.approx(
                    sum(abs(c) ** 2 for c in _brute_power(D.terms, k).values()), rel=1e-12)
                assert _even_moment(D, k, pairs - 1) is None

    def test_over_the_budget_falls_back_to_the_sampler(self):
        D = random_series(random.Random(41), 64, 16)
        pairs = sum(len(_brute_power(D.terms, j)) * len(D.terms) for j in range(1, 4))
        # samples * terms / 8 pair products: the budget at these samples
        inside = -(-pairs * bohr._PAIR_COST // len(D.terms))
        assert hp_norm_estimate(D, 8.0, inside, 3).kind == "hp-exact"
        est = hp_norm_estimate(D, 8.0, inside - 1, 3)
        assert est.kind == "hp"
        assert est == _hp_sampled(D, 8.0, inside - 1, 3)

    def test_double_series_on_the_first_axis_is_its_single_series(self):
        rng = random.Random(43)
        for _ in range(20):
            D = random_series(rng, 48, rng.randint(1, 6))
            for p in (2.0, 4.0, 6.0):
                single = hp_norm_estimate(D, p, 1000, 0)
                double = hp_norm_estimate(embed_single(D), p, 1000, 0)
                assert single.kind == double.kind == "hp-exact"
                assert double.moment == pytest.approx(single.moment, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_no_samples_is_refused_on_both_routes(self, p):
        for D in (make_series([(1, 1), (2, 0.5)], 4),
                  make_double_series([((1, 1), 1), ((2, 3), 0.5)], (4, 4))):
            with pytest.raises(ValueError, match="^samples must be >= 1$"):
                hp_norm_estimate(D, p, 0, 0)

    def test_zero_series(self):
        for D in (zero_series(8), make_double_series([], (4, 4))):
            for p in (2.0, 4.0, 8.0):
                est = hp_norm_estimate(D, p, 10, 0)
                assert (est.value, est.moment, est.kind) == (0.0, 0.0, "hp-exact")

    def test_an_odd_or_fractional_p_is_sampled(self):
        D = make_series([(1, 1), (2, 0.5)], 4)
        for p in (1.0, 3.0, 2.5):
            assert hp_norm_estimate(D, p, 100, 0) == _hp_sampled(D, p, 100, 0)


class TestHinfNorm:
    def test_constant(self):
        est = hinf_norm_estimate(constant_series(2j, 4), 10, 0)
        assert abs(est.value - 2.0) < 1e-12

    def test_two_term_peak(self):
        D = make_series([(1, 1), (2, 1)], 4)
        est = hinf_norm_estimate(D, 2000, 3)
        assert abs(est.value - 2.0) < 1e-3
        assert est.value <= est.upper + 1e-12

    def test_lower_bound_below_l1(self):
        rng = random.Random(17)
        for _ in range(5):
            D = random_series(rng, 16, 4)
            est = hinf_norm_estimate(D, 500, 5)
            assert est.value <= D.l1_norm() + 1e-9
            assert est.kind == "hinf-lower"

    def test_value_is_a_python_float_in_every_branch(self):
        for D in (zero_series(4), constant_series(2j, 4), make_series([(2, 1), (3, 1j)], 4)):
            assert type(hinf_norm_estimate(D, 50, 1).value) is float

    def test_single_term(self):
        est = hinf_norm_estimate(make_series([(6, 0.5 - 0.5j)], 8), 10, 2)
        assert abs(est.value - abs(0.5 - 0.5j)) < 1e-12

    def test_zero(self):
        est = hinf_norm_estimate(zero_series(8), 10, 0)
        assert est.value == 0.0 and est.upper == 0.0


def nonnegative_series(rng, max_index=128, max_terms=64):
    idx = rng.sample(range(1, max_index + 1), rng.randint(2, max_terms))
    return make_series([(n, rng.uniform(0.01, 1.0)) for n in idx], max_index)


class TestHinfAscent:
    """Closed forms for the ascent: with non-negative coefficients the
    torus maximum is at the origin, where every monomial is 1, so the
    H^infty norm is the coefficient l1 norm."""

    def test_nonnegative_coefficients_reach_l1(self):
        rng = random.Random(2024)
        for seed in range(50):
            D = nonnegative_series(rng)
            est = hinf_norm_estimate(D, 1000, seed)
            assert est.value == pytest.approx(D.l1_norm(), rel=1e-9)

    def test_double_nonnegative_coefficients_reach_l1(self):
        rng = random.Random(7)
        pairs = rng.sample([(m, n) for m in range(1, 17) for n in range(1, 17)], 12)
        D = make_double_series([(p, rng.uniform(0.01, 1.0)) for p in pairs], (16, 16))
        est = hinf_norm_estimate(D, 1000, 3)
        assert est.value == pytest.approx(D.l1_norm(), rel=1e-9)
        assert est.upper == pytest.approx(D.l1_norm())

    def test_never_below_the_best_start(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 5):
            F = rng.integers(-3, 4, (12, d)) * 2 * np.pi
            c = rng.normal(size=12) + 1j * rng.normal(size=12)
            starts = rng.random((8, d))
            best_start = np.abs(np.exp(1j * (starts @ F.T)) @ c).max()
            value, x = _ascend(F, c, starts)
            assert value >= best_start * (1 - 1e-12)
            assert value == pytest.approx(abs(np.exp(1j * (F @ x)) @ c), rel=1e-12)

    def test_maximum_flat_in_most_directions(self):
        """9 terms on 26 primes with independent exponents: the maximum is
        ||D||_1, and |f| is flat there in 17 directions.  Without a floor on
        the damping, the step matrix at this seed turned singular to
        rounding and the solve raised."""
        D = make_series([
            (45, 0.5837425195503572 + 0.9040610623245418j),
            (50, -0.16581714516182844 + 0.9703153473785562j),
            (55, 0.604461339868605 - 0.47330307582992415j),
            (75, -0.9849325219346119 + 0.4003774909430027j),
            (78, 0.5818848609328267 + 0.9035751342124037j),
            (101, 0.35774964253190844 - 0.8012467027541443j),
            (111, 0.32050770800629147 - 0.31540971805711115j),
            (118, -0.3602819802525006 + 0.9251919172654286j),
            (122, 0.3635277698453967 - 0.4628738079654373j),
        ], 128)
        est = hinf_norm_estimate(D, 1000, 510216028)
        assert est.value == pytest.approx(D.l1_norm(), rel=1e-9)

    def test_blocks_of_starts_reach_the_same_best(self, monkeypatch):
        rng = np.random.default_rng(8)
        F = rng.integers(-3, 4, (20, 4)) * 2 * np.pi
        c = rng.normal(size=20) + 1j * rng.normal(size=20)
        starts = rng.random((10, 4))
        whole = _ascend(F, c, starts)
        monkeypatch.setattr(bohr, "_BLOCK_ENTRIES", 1)
        one_by_one = _ascend(F, c, starts)
        assert one_by_one[0] == whole[0] and list(one_by_one[1]) == list(whole[1])

    def test_large_series_climbs_from_fewer_starts(self, monkeypatch):
        """Past the work budget (terms x dimensions^2 per start) the ascent
        runs from fewer of the best samples, and reaches no higher."""
        seen = []
        ascend = bohr._ascend
        monkeypatch.setattr(bohr, "_ascend",
                            lambda F, c, starts: seen.append(len(starts)) or ascend(F, c, starts))
        D = make_series([(n, 1.0 + 0.1j * n) for n in range(1, 129)], 128)
        full = hinf_norm_estimate(D, 1000, 0).value
        monkeypatch.setattr(bohr, "_ASCENT_WORK", 4 * 128 * 31**2)
        assert hinf_norm_estimate(D, 1000, 0).value <= full
        assert seen == [64, 4]

    def test_constant_sum_is_not_climbed(self):
        value, x = _ascend(np.zeros((1, 3)), np.array([2j]), np.full((4, 3), 0.25))
        assert value == 2.0 and list(x) == [0.25] * 3


class TestUsedColumns:
    """hinf_norm_estimate climbs only the prime columns that some term uses."""

    def climbed_widths(self, monkeypatch, D):
        seen = []
        climb = bohr._climb

        def spy(F, c, points, values, count, also=None):
            seen.append((F.shape[1], points.shape[1]))
            return climb(F, c, points, values, count, also)

        monkeypatch.setattr(bohr, "_climb", spy)
        hinf_norm_estimate(D, 200, 0)
        return seen

    def test_a_series_on_two_distant_primes(self, monkeypatch):
        assert prime(25) == 97
        D = make_series([(2, 1.0), (97, 0.5j), (4 * 97, -0.25), (8, 0.3)], 4 * 97)
        assert _exponent_matrix(lift(D))[2] == 25
        assert self.climbed_widths(monkeypatch, D) == [(2, 2)]

    def test_a_double_series_on_one_prime_per_axis(self, monkeypatch):
        D = make_double_series([((5, 7), 1.0), ((25, 1), 0.5j), ((1, 49), -0.25)], (25, 49))
        assert _exponent_matrix(lift(D))[2] == 7  # alpha up to 5, beta up to 7
        assert self.climbed_widths(monkeypatch, D) == [(2, 2)]

    @staticmethod
    def full_width(D, samples, seed):
        """The climb over every column up to the largest prime in use, from
        as many starts as the work budget gives the columns in use."""
        phases, values, E, coeffs = bohr._torus_values(D, samples, seed)
        used = int(E.any(axis=0).sum())
        count = min(bohr._TORUS_STARTS, max(1, bohr._ASCENT_WORK // max(1, len(E) * used**2)))
        return _climb(2 * np.pi * E, coeffs, phases, np.abs(values), count)[0]

    @pytest.mark.parametrize("double", [False, True])
    def test_matches_the_full_width_climb(self, double):
        """Agreement of the best value, not of every start: with only 32 to
        256 samples, a few starts whose rounding changed ended at other local
        maxima, and a few values moved by up to 3%.  From the best 64 of 1000
        samples the best value is reached from many starts.  One single
        series in 30 has indices up to 1024: there the full width (up to 172
        columns) makes the reference climb take about a second."""
        rng = random.Random(2401 + double)
        for case in range(300):
            n_terms = rng.randint(8, 64)
            if double:
                D = _random_double(rng, 16, n_terms)
            else:
                D = random_series(rng, 1024 if case % 30 == 0 else 128, n_terms)
            est = hinf_norm_estimate(D, 1000, case)
            assert est.value == pytest.approx(self.full_width(D, 1000, case), rel=1e-12, abs=0)


class TestClimb:
    """_climb on |1 + 0.2 e^{ix} + 0.9 e^{2ix}|, whose local maxima are
    2.1 at x = 0 and 1.7 at x = pi."""

    F = np.array([[0.0], [1.0], [2.0]])
    c = np.array([1.0, 0.2, 0.9])
    points = np.array([[2.9], [3.0], [3.3]])  # all in the basin of pi

    def values(self, points):
        return np.abs(np.exp(1j * (points @ self.F.T)) @ self.c)

    def test_sampled_starts_reach_their_own_maximum(self):
        value, x = _climb(self.F, self.c, self.points, self.values(self.points), 2)
        assert value == pytest.approx(1.7, rel=1e-12)
        assert x[0] == pytest.approx(math.pi, rel=1e-6)

    def test_an_extra_start_is_climbed(self):
        value, x = _climb(self.F, self.c, self.points, self.values(self.points), 2,
                          also=np.array([0.4]))
        assert value == pytest.approx(2.1, rel=1e-12)
        assert abs(x[0]) < 1e-6

    def test_never_below_the_best_sample(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 5):
            F = rng.integers(-3, 4, (12, d)) * 2 * np.pi
            c = rng.normal(size=12) + 1j * rng.normal(size=12)
            points = rng.random((50, d))
            values = np.abs(np.exp(1j * (points @ F.T)) @ c)
            assert _climb(F, c, points, values, 4)[0] >= values.max()
        # a sample reported above anything the ascent reaches is returned as is
        values = self.values(self.points)
        values[1] = 5.0
        value, x = _climb(self.F, self.c, self.points, values, 2)
        assert value == 5.0 and list(x) == [3.0]

    def test_starts_are_the_largest_values_in_ascending_order(self, monkeypatch):
        seen = []
        monkeypatch.setattr(bohr, "_ascend", lambda F, c, starts: seen.append(starts) or (0.0, None))
        rng = np.random.default_rng(24)
        for size in (1, 2, 7, 100, 16384):
            values = rng.permutation(size) + rng.random(size)  # distinct
            points = rng.random((size, 2))
            for count in (1, 3, 32, max(size - 1, 1), size, size + 5):
                _climb(self.F, self.c, points, values, count)
                assert seen.pop().tolist() == points[np.argsort(values)[-count:]].tolist()

    def test_frequency_free_sum_is_not_climbed(self, monkeypatch):
        monkeypatch.setattr(bohr, "_trig_sum", None)
        c = np.array([1.0, 1j, 0.5])
        points = np.full((3, 2), 0.25)
        value, _ = _climb(np.zeros((3, 2)), c, points, np.full(3, abs(c.sum())), 2)
        assert value == abs(c.sum())


class TestDoubleTorusNorms:
    def test_double_series_on_the_first_axis_matches_its_single_series(self):
        rng = random.Random(11)
        for seed in range(5):
            D = random_series(rng, 32, 6)
            D2 = embed_single(D)
            for p in (2.0, 3.0):
                single = hp_norm_estimate(D, p, 500, seed)
                double = hp_norm_estimate(D2, p, 500, seed)
                assert double.value == pytest.approx(single.value, rel=1e-12)
                assert double.moment_stderr == pytest.approx(single.moment_stderr, rel=1e-9)
            single = hinf_norm_estimate(D, 300, seed)
            double = hinf_norm_estimate(D2, 300, seed)
            assert double.value == pytest.approx(single.value, rel=1e-12)
            assert double.upper == pytest.approx(single.upper)

    def test_parseval_for_a_double_series(self):
        D = make_double_series([((1, 1), 1.0), ((2, 3), 0.5j), ((4, 1), -0.25)], (4, 4))
        est = _hp_sampled(D, 2.0, 20000, 4)
        assert est.moment == pytest.approx(1 + 0.25 + 0.0625, abs=4 * est.moment_stderr)

    def test_exponent_columns_stack_alpha_then_beta(self):
        # (12, 5): 12 = 2^2 3 on the first axis, 5 = the third prime on the second
        E, coeffs, width = _exponent_matrix(lift(make_double_series([((12, 5), 1.0)], (12, 5))))
        assert width == 5
        assert E.tolist() == [[2, 1, 0, 0, 1]]

    def test_zero_double_series(self):
        D = make_double_series([], (4, 4))
        assert hinf_norm_estimate(D, 10, 0).value == 0.0
        assert hp_norm_estimate(D, 2.0, 10, 0).value == 0.0
