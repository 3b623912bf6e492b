import cmath
import functools
import math
import operator
import random

import numpy as np
import pytest

from ddseries.compose import (
    _char_power,
    DoubleSymbol,
    Symbol,
    SymbolRecoveryError,
    apply,
    apply_double,
    bohr_commutation_check,
    char_power,
    char_power_double,
    char_power_via_factorizations,
    compactness_check,
    exp2,
    positivity_check,
    range_check,
    recover_symbol,
    validate_symbol,
)
from ddseries.bohr import PrimePolynomial
from ddseries.double import (
    _make,
    add2,
    constant_double,
    evaluate2,
    make_double_series,
    mul2,
    zero_double,
)
from ddseries.grids import boundary_grid2, halfplane_grid, halfplane_grid2
from ddseries.formats import dumps_series
from ddseries.series import (
    _key,
    _parts,
    _pruned,
    add,
    constant_series,
    evaluate,
    exp_series,
    make_series,
    scale,
    zero_series,
)


def identity_symbol():
    return Symbol(1, zero_series(8))


def identity_double():
    return DoubleSymbol(1, 0, 0, 1, zero_double((1, 1)), zero_double((1, 1)))


def random_phi(rng, max_index=8, radius=0.3):
    idx = rng.sample(range(2, max_index + 1), 3)
    terms = [(1, complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)))]
    terms += [
        (n, complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)))
        for n in idx
    ]
    return make_series(terms, max_index)


class TestValidateSymbol:
    def test_identity_valid(self):
        rep = validate_symbol(identity_symbol(), halfplane_grid(1e-3))
        assert rep.ok

    def test_slopeless_interior_valid(self):
        phi = make_series([(1, 2), (3, 1)], 4)
        rep = validate_symbol(Symbol(0, phi), halfplane_grid(1e-3))
        assert rep.ok  # Re phi >= 2 - 1 > 0 on the half-plane

    def test_negative_constant_invalid(self):
        rep = validate_symbol(Symbol(0, constant_series(-1, 4)), halfplane_grid(1e-3))
        assert not rep.ok
        assert rep.failures

    def test_probes_may_be_an_iterator(self):
        # the second component must see the probes too
        sym = DoubleSymbol(1, 0, 0, 1, zero_double((1, 1)), constant_double(-1, (1, 1)))
        rep = validate_symbol(sym, iter(halfplane_grid2(1e-3, n_re=3, n_im=3)))
        assert not rep.ok
        assert rep.min_re["phi2"] == -1

    def test_imaginary_constant_is_boundary(self):
        rep = validate_symbol(Symbol(1, constant_series(2j, 4)), halfplane_grid(1e-3))
        assert rep.ok
        assert rep.boundary == ["phi"]


class TestSymbolConstructor:
    """Slopes are non-negative ints and every series has the symbol's arity."""

    def test_float_slope_rejected(self):
        # a float slope used to give float indices: [2.0, 4.0, 8.0, 16.0]
        with pytest.raises(ValueError):
            Symbol(1.0, make_series([(2, 0.1)], 16))

    def test_bool_slope_rejected(self):
        with pytest.raises(ValueError):
            Symbol(True, zero_series(8))

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            DoubleSymbol(1, 0, 0, -1, zero_double((1, 1)), zero_double((1, 1)))

    def test_series_of_the_other_arity_rejected(self):
        with pytest.raises(ValueError):
            Symbol(1, zero_double((4, 4)))
        with pytest.raises(ValueError):
            DoubleSymbol(1, 0, 0, 1, zero_series(4), zero_double((4, 4)))

    def test_slopes_stored_as_int(self):
        sym = Symbol(np.int64(2), zero_series(8))
        assert sym.slopes == ((2,),) and type(sym.c0) is int
        assert sorted(char_power(2, sym, 16).terms) == [4]

    def test_wrong_number_of_arguments(self):
        with pytest.raises(TypeError):
            Symbol(1, 0, zero_double((1, 1)), zero_double((1, 1)))


class TestCharPower:
    def test_pure_slope(self):
        assert char_power(2, identity_symbol(), 8).terms == {2: 1 + 0j}

    def test_single_term_phi(self):
        sym = Symbol(0, make_series([(2, 1)], 16))
        D = char_power(2, sym, 16)
        for r in range(5):
            want = (-math.log(2)) ** r / math.factorial(r)
            assert abs(D.coefficient(2**r) - want) < 1e-14

    def test_pointwise_oracle(self):
        rng = random.Random(3)
        for _ in range(10):
            sym = Symbol(rng.randint(0, 2), random_phi(rng, radius=0.1))
            k = rng.randint(2, 6)
            D = char_power(k, sym, 512)
            s = complex(2, rng.uniform(-5, 5))
            want = cmath.exp(-sym(s) * math.log(k))
            # only the tail beyond the truncation is lost
            assert abs(evaluate(D, s) - want) < 1e-6

    def test_min_support_is_shift(self):
        rng = random.Random(5)
        for c0 in (0, 1, 2):
            sym = Symbol(c0, random_phi(rng))
            for k in (2, 3, 5):
                assert min(char_power(k, sym, 512).terms) == k**c0


class TestCharPowerDouble:
    def test_slope_permutation(self):
        assert char_power_double(2, 3, identity_double(), (8, 8)).terms == {
            (2, 3): 1 + 0j
        }

    def test_pointwise_oracle(self):
        phi1 = make_double_series([((2, 3), 1 + 0j)], (8, 8))
        sym = DoubleSymbol(0, 0, 0, 0, phi1, constant_double(1, (8, 8)))
        D = char_power_double(2, 3, sym, (256, 256))
        s = t = complex(2, 0)
        w1 = evaluate2(phi1, s, t)
        want = cmath.exp(-w1 * math.log(2)) * cmath.exp(-1.0 * math.log(3))
        assert abs(evaluate2(D, s, t) - want) < 1e-8

    def test_components_with_different_truncations(self):
        # k^{-phi1} l^{-phi2} as one exp2 must keep phi1's terms beyond
        # phi2's truncation
        phi1 = make_double_series([((12, 1), 0.5 + 0j), ((2, 3), 0.25j)], (16, 16))
        phi2 = make_double_series([((1, 1), 0.5 + 0j), ((3, 2), -0.5 + 0j)], (4, 4))
        T = (16, 16)
        got = char_power_double(2, 3, DoubleSymbol(0, 0, 0, 0, phi1, phi2), T)
        want = mul2(
            exp2(scale(phi1, -math.log(2)), T), exp2(scale(phi2, -math.log(3)), T), T
        )
        assert set(got.terms) == set(want.terms)
        assert all(abs(got.terms[x] - want.terms[x]) <= 1e-14 for x in want.terms)

    def test_cross_algorithm(self):
        rng = random.Random(7)
        for _ in range(5):
            pairs = {(1, 1)}
            while len(pairs) < 4:
                pairs.add((rng.randint(1, 16), rng.randint(1, 16)))
            phi = make_double_series(
                [(p, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))) for p in sorted(pairs)],
                (16, 16),
            )
            k = rng.randint(2, 5)
            a = exp2(scale(phi, -math.log(k)), (16, 16))
            b = char_power_via_factorizations(k, phi, (16, 16))
            keys = set(a.terms) | set(b.terms)
            assert all(abs(a.terms.get(x, 0j) - b.terms.get(x, 0j)) <= 1e-12 for x in keys)


    def test_exp2_of_a_large_constant_raises(self):
        phi = make_double_series([((1, 1), 2000 + 0j), ((2, 3), 1 + 0j)], (8, 8))
        with pytest.raises(ValueError, match=r"^exp of the constant term \(2000\+0j\) overflows$"):
            exp2(phi, (8, 8))


class TestCharPowerViaFactorizations:
    def test_zero_phi(self):
        D = char_power_via_factorizations(3, zero_double((4, 4)), (4, 4))
        assert D.terms == {(1, 1): 1 + 0j}

    def test_embedded_square(self):
        b = 0.4 - 0.1j
        phi = make_double_series([((2, 1), b)], (4, 4))
        for k in (2, 3, 5):
            D = char_power_via_factorizations(k, phi, (4, 4))
            want = (-b * math.log(k)) ** 2 / 2
            assert abs(D.coefficient(4, 1) - want) < 1e-15

    def test_large_constant_raises(self):
        # as exp2 does: -ln 2 * -2000 = 1386.29... overflows exp
        phi = make_double_series([((1, 1), -2000 + 0j), ((2, 1), 1 + 0j)], (4, 4))
        with pytest.raises(ValueError, match=r"^exp of the constant term "
                                             r"\(1386\.2943611198905-0j\) overflows$"):
            char_power_via_factorizations(2, phi, (4, 4))


class TestApply:
    def test_monomial_slope(self):
        sym = Symbol(2, zero_series(8))
        out = apply(sym, make_series([(2, 1)], 8), 8)
        assert out.terms == {4: 1 + 0j}

    def test_single_term_phi(self):
        sym = Symbol(1, make_series([(3, 1)], 8))
        out = apply(sym, make_series([(2, 1)], 8), 512)
        for r in range(4):
            want = (-math.log(2)) ** r / math.factorial(r)
            assert abs(out.coefficient(2 * 3**r) - want) < 1e-14

    def test_constant_fixed(self):
        rng = random.Random(11)
        sym = Symbol(rng.randint(0, 2), random_phi(rng))
        out = apply(sym, constant_series(2.5 - 1j, 8), 64)
        assert out.terms == {1: 2.5 - 1j}

    def test_linearity(self):
        rng = random.Random(13)
        sym = Symbol(1, random_phi(rng))
        A = make_series([(2, 1 + 1j), (5, -0.3)], 8)
        B = make_series([(2, 0.5), (7, 2j)], 8)
        left = apply(sym, add(A, B), 256)
        right = add(apply(sym, A, 256), apply(sym, B, 256))
        keys = set(left.terms) | set(right.terms)
        assert all(abs(left.terms.get(n, 0j) - right.terms.get(n, 0j)) <= 1e-13 for n in keys)

    def test_double_swap(self):
        swap = DoubleSymbol(0, 1, 1, 0, zero_double((1, 1)), zero_double((1, 1)))
        D = make_double_series([((2, 3), 1 + 0j)], (8, 8))
        assert apply_double(swap, D, (8, 8)).terms == {(3, 2): 1 + 0j}


class TestRecoverSymbol:
    def test_identity(self):
        sym = recover_symbol(
            make_series([(2, 1)], 8), make_series([(3, 1)], 8), 8
        )
        assert sym.c0 == 1
        assert sym.phi.is_zero()

    def test_roundtrip_support_32(self):
        rng = random.Random(17)
        for _ in range(10):
            c0 = rng.randint(0, 2)
            idx = rng.sample(range(2, 33), 4)
            terms = [(1, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))]
            terms += [
                (n, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))) for n in idx
            ]
            sym = Symbol(c0, make_series(terms, 32))
            trunc = 32 * 3**c0
            rec = recover_symbol(
                char_power(2, sym, trunc), char_power(3, sym, trunc), trunc
            )
            assert rec.c0 == c0
            for n, c in sym.phi.terms.items():
                assert abs(rec.phi.terms.get(n, 0j) - c) <= 1e-9

    def test_rejects_non_power_first_index(self):
        with pytest.raises(SymbolRecoveryError):
            recover_symbol(make_series([(3, 1)], 8), make_series([(3, 1)], 8), 8)

    def test_rejects_inconsistent_pair(self):
        # series of 2^{-phi} paired with a series that is no 3-power
        sym = Symbol(0, make_series([(1, 1), (2, 0.4)], 8))
        D2 = char_power(2, sym, 64)
        fake = make_series([(1, 1), (2, 0.7)], 64)
        with pytest.raises(SymbolRecoveryError):
            recover_symbol(D2, fake, 64)


class TestRangeAndPositivity:
    def test_identity_range(self):
        rep = range_check(identity_double(), 0.5, halfplane_grid2(0.5, n_re=4, n_im=3))
        assert abs(rep.delta[0] - 0.5) < 1e-3
        assert abs(rep.delta[1] - 0.5) < 1e-3

    def test_constant_phi_delta(self):
        sym = DoubleSymbol(
            0, 0, 0, 0, constant_double(2, (1, 1)), constant_double(2, (1, 1))
        )
        rep = range_check(sym, 0.5, halfplane_grid2(0.5, n_re=4, n_im=3))
        assert min(rep.delta) >= 2 - 1e-12

    def test_negative_constant_reports_nonpositive(self):
        sym = DoubleSymbol(
            0, 0, 0, 0, constant_double(-1, (1, 1)), constant_double(1, (1, 1))
        )
        rep = range_check(sym, 0.5, halfplane_grid2(0.5, n_re=4, n_im=3))
        assert rep.delta[0] <= 0

    def test_positivity_zero(self):
        rep = positivity_check(zero_double((4, 4)), halfplane_grid2(1e-3, n_re=3, n_im=3))
        assert rep.verdict == "consistent"

    def test_positivity_dominant_constant(self):
        phi = make_double_series([((1, 1), 1 + 0j), ((2, 1), 1 + 0j)], (4, 4))
        rep = positivity_check(phi, halfplane_grid2(1e-3, n_re=5, n_im=5))
        assert rep.verdict == "consistent"
        assert rep.min_re >= 0

    def test_positivity_disproof(self):
        rep = positivity_check(
            constant_double(-0.1, (1, 1)), halfplane_grid2(1e-3, n_re=3, n_im=3)
        )
        assert rep.verdict == "disproof"


class TestCompactness:
    def test_affine_compact(self):
        sym = DoubleSymbol(
            1, 1, 1, 0, constant_double(2, (1, 1)), constant_double(1, (1, 1))
        )
        rep = compactness_check(sym, boundary_grid2())
        assert rep.compact
        assert abs(rep.delta - 1) < 1e-6

    def test_identity_noncompact(self):
        rep = compactness_check(identity_double(), boundary_grid2())
        assert not rep.compact

    def test_constant_phi_compact(self):
        sym = DoubleSymbol(
            0, 0, 0, 0, constant_double(1, (1, 1)), constant_double(1, (1, 1))
        )
        rep = compactness_check(sym, boundary_grid2())
        assert rep.compact
        assert abs(rep.delta - 1) < 1e-9


class TestBohrCommutation:
    def test_identity_monomial(self):
        f = PrimePolynomial({((1, 1),): 1 + 0j})
        probes = [complex(2, v) for v in (-3, 0, 3)]
        assert bohr_commutation_check(identity_symbol(), f, probes) < 1e-15

    def test_constant_polynomial(self):
        rng = random.Random(19)
        sym = Symbol(1, random_phi(rng))
        f = PrimePolynomial({(): 2 - 1j})
        probes = [complex(2, 1)]
        assert bohr_commutation_check(sym, f, probes) < 1e-15

    def test_random_symbol_two_primes(self):
        rng = random.Random(23)
        for _ in range(5):
            sym = Symbol(rng.randint(0, 2), random_phi(rng, radius=0.1))
            f = PrimePolynomial(
                {
                    ((1, 1), (2, 1)): complex(rng.uniform(-1, 1)),
                    ((1, 1),): complex(rng.uniform(-1, 1)),
                    (): complex(rng.uniform(-1, 1)),
                }
            )
            probes = [complex(2, v) for v in (-4, 0, 4)]
            assert bohr_commutation_check(sym, f, probes, 512) <= 1e-6


def _reference_char_power(ks, sym, truncations):
    """k^{-sym} as char_power built it when it scaled the whole of each
    phi_i and summed the components with add2: the route that _char_power
    must match bit for bit."""
    shifts = [math.prod(map(pow, ks, column)) for column in zip(*sym.slopes)]
    inner = tuple(map(operator.floordiv, truncations, shifts))
    if 0 in inner:
        return _make((), truncations)
    log_char = functools.reduce(add2, (scale(type(phi)._of(phi.terms, _key(inner)), -math.log(k))
                                       for k, phi in zip(ks, sym.phis)))
    if len(ks) == 1:
        E = exp_series(log_char, inner[0])
        terms = {n * shifts[0]: c for n, c in E.terms.items()}
    else:
        E = exp2(log_char, inner)
        terms = {(m * shifts[0], n * shifts[1]): c for (m, n), c in E.terms.items()}
    return type(log_char)(terms, _key(truncations))


def _reference_apply(sym, D, truncations):
    out = {}
    for k, a in sorted(D.terms.items()):
        for n, c in _reference_char_power(_parts(k), sym, truncations).terms.items():
            out[n] = out.get(n, 0j) + a * c
    return type(D)(_pruned(out), _key(truncations))


def _coefficient(rng):
    """A coefficient of modulus below 1, now and then a signed zero part
    or a modulus that scale prunes."""
    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pick = rng.random()
    if pick < 0.1:
        return complex(c.real, -0.0)
    if pick < 0.2:
        return complex(-0.0, c.imag)
    if pick < 0.25:
        return c * 1e-300
    return c


def _random_terms(rng, indices, dense):
    """Coefficients on all of indices (dense) or on at most 8 of them; in
    one case of three all are real, so that the results have zero parts
    whose signs show."""
    indices = list(indices)
    if not dense:
        indices = rng.sample(indices, min(len(indices), rng.randint(1, 8)))
    real = rng.random() < 1 / 3
    return [(n, complex(c.real, rng.choice([0.0, -0.0])) if real else c)
            for n, c in ((n, _coefficient(rng)) for n in indices)]


class TestCharPowerReadsTheInnerTerms:
    """_char_power reads only the terms of phi within the truncations left
    after the slope shift; every result is the one the whole-phi route
    gives, bit for bit, signed zeros included."""

    def test_single_symbols(self):
        rng = random.Random(2501)
        for case in range(300):
            c0 = case % 3
            T = rng.choice([8, 32, 64, 128])  # phi may reach past the truncation
            phi = make_series(_random_terms(rng, range(1, T + 1), case % 2 == 0), T)
            sym, N = Symbol(c0, phi), rng.choice([16, 64, 128])
            for k in (1, rng.randint(2, 4), rng.randint(5, 40)):
                got = _char_power((k,), sym, (N,))
                assert dumps_series(got) == dumps_series(_reference_char_power((k,), sym, (N,)))
            D = make_series(_random_terms(rng, range(1, 17), False), 16)
            assert dumps_series(apply(sym, D, N)) == dumps_series(_reference_apply(sym, D, (N,)))

    def test_double_symbols(self):
        rng = random.Random(2502)
        for case in range(300):
            if case % 2:  # off-diagonal slopes
                slopes = [rng.randint(0, 2) for _ in range(4)]
            else:
                slopes = [rng.randint(0, 2), 0, 0, rng.randint(0, 2)]
            phis = []
            for _ in range(2):
                T = (rng.choice([4, 8, 16]), rng.choice([4, 8, 16]))
                grid = [(m, n) for m in range(1, T[0] + 1) for n in range(1, T[1] + 1)]
                phis.append(make_double_series(_random_terms(rng, grid, case % 4 < 2), T))
            sym, N = DoubleSymbol(*slopes, *phis), (rng.choice([8, 16]), rng.choice([8, 16]))
            # bases of 1 on either axis, as bohr_commutation_check passes them
            for ks in ((1, 1), (rng.randint(2, 5), 1), (1, rng.randint(2, 5)),
                       (rng.randint(2, 5), rng.randint(2, 5))):
                got = _char_power(ks, sym, N)
                assert dumps_series(got) == dumps_series(_reference_char_power(ks, sym, N))
            grid = [(m, n) for m in range(1, 5) for n in range(1, 5)]
            D = make_double_series(_random_terms(rng, grid, False), (4, 4))
            assert dumps_series(apply(sym, D, N)) == dumps_series(_reference_apply(sym, D, N))

    @pytest.mark.parametrize("dense", [False, True])
    def test_a_term_past_the_truncation_cannot_overflow(self, dense):
        # 50 > 64 // 8: the term cannot reach the result, and -ln 8 * 1e308
        # is not finite; dense, phi has more terms than the 8 indices in
        # range
        far = [(n, 0.5) for n in range(9, 50)] if dense else []
        sym = Symbol(1, make_series([(1, 2.0)] + far + [(50, 1e308)], 64))
        got = apply(sym, make_series([(1, 1), (8, 1)], 64), 64)
        assert got.terms == {1: 1 + 0j, 8: 0.015625000000000007 + 0j}
        assert abs(got.terms[8] - 8.0 ** -2) < 1e-17

    @pytest.mark.parametrize("far", [(1, 50), (50, 1)])
    def test_a_double_term_past_the_truncation_cannot_overflow(self, far):
        phi = make_double_series([((1, 1), 2.0), (far, 1e308)], (64, 64))
        sym = DoubleSymbol(1, 0, 0, 1, phi, constant_double(2.0, (64, 64)))
        D = make_double_series([((1, 1), 1), ((8, 8), 1)], (64, 64))
        got = apply(sym, D, (64, 64))
        assert set(got.terms) == {(1, 1), (8, 8)}
        assert abs(got.terms[8, 8] - 8.0 ** -4) < 1e-18

    def test_a_term_in_range_still_overflows(self):
        sym = Symbol(1, make_series([(1, 2.0), (4, 1e308)], 64))
        with pytest.raises(ValueError, match=r"^non-finite coefficient: \(-inf\+0j\)$"):
            apply(sym, make_series([(1, 1), (8, 1)], 64), 64)

    def test_a_sum_of_components_that_overflows(self):
        # each component, -ln 2 * 1.5e308, is finite; their sum is not
        phi = make_double_series([((1, 1), 2.0), ((2, 2), 1.5e308)], (8, 8))
        sym = DoubleSymbol(0, 0, 0, 0, phi, phi)
        for route in (_char_power, _reference_char_power):
            with pytest.raises(ValueError, match=r"^non-finite coefficient: \(-inf\+0j\)$"):
                route((2, 2), sym, (8, 8))


class TestApplyArity:
    @pytest.mark.parametrize("sym, D, truncation", [
        (identity_symbol(), make_double_series([((2, 3), 1)], (8, 8)), (8, 8)),
        (identity_symbol(), make_series([(2, 1)], 8), (8, 8)),
        (identity_double(), make_series([(2, 1)], 8), (8, 8)),
        (identity_double(), make_double_series([((2, 3), 1)], (8, 8)), 8),
    ])
    def test_differing_arities_are_refused(self, sym, D, truncation):
        with pytest.raises(ValueError, match="^the symbol and the series differ "
                                             "in the number of variables$"):
            apply(sym, D, truncation)
