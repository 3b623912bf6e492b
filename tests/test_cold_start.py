"""What a cold start loads: numpy only for the commands that compute
numerically, every public name still importable, and probe grids in plain
Python that equal numpy's."""

import numpy as np
import pytest

from ddseries.compose import DoubleSymbol, Symbol, char_power
from ddseries.double import constant_double
from ddseries.formats import dumps_series, dumps_symbol
from ddseries.grids import boundary_grid2, halfplane_grid, halfplane_grid2
from ddseries.series import make_series

from fresh_process import run_fresh

# the verifiers ddseries/__init__.py binds on first access
ANALYZE = (
    "coefficient_bound_check", "coefficient_extract", "line_sup_estimate",
    "semigroup_identify", "series_evaluator", "sup_monotonicity_check", "three_lines_check",
)
# every name ddseries/__init__.py exported while it imported analyze eagerly
EXPORTS = ANALYZE + (
    "DirichletSeries", "add", "constant_series", "evaluate", "exp_series", "log_series",
    "make_series", "mul", "scale", "translate", "zero_series",
    "DoubleDirichletSeries", "add2", "constant_double", "embed_single", "evaluate2",
    "make_double_series", "mul2", "rectangular_partial_sum", "regular_check", "row_series",
    "scale2", "zero_double",
    "divisors", "factorize", "multiplicative_factorizations", "pair_factorizations",
    "DoublePrimePolynomial", "NormEstimate", "PrimePolynomial", "TorusSample", "eval_torus",
    "hinf_norm_estimate", "hp_norm_estimate", "index_to_multiindex", "kronecker_sample",
    "lift", "lift_double", "multiindex_to_index", "prime", "unlift", "unlift_double",
    "DoubleSymbol", "Symbol", "SymbolRecoveryError", "apply", "apply_double",
    "bohr_commutation_check", "char_power", "char_power_double",
    "char_power_via_factorizations", "compactness_check", "positivity_check", "range_check",
    "recover_symbol", "validate_symbol",
    "ScalarPolynomial", "degree_bound", "superpose", "superpose_entire", "young_bound_verify",
    "ParseError", "parse_expression", "print_expression",
)

# subcommand (with a label after it where one runs twice) -> its arguments,
# {name} standing for an input file of the `inputs` fixture, and whether it
# loads numpy: an even --p within the exact route's budget samples nothing
COMMANDS = {
    "eval": (["--in", "{d}", "--s", "2"], False),
    "mul": (["{d}", "{d}"], False),
    "lift": (["--in", "{d}"], False),
    "unlift": (["--in", "{poly}"], False),
    "compose": (["--in", "{d}", "--symbol", "{sym}"], False),
    "recover-symbol": (["{two}", "{three}"], False),
    "check-symbol": (["--symbol", "{sym}"], False),
    "check-compact": (["--symbol", "{sym2}"], False),
    "norm": (["--in", "{d}", "--p", "2", "--samples", "64", "--seed", "1"], False),
    "norm --p 4": (["--in", "{d}", "--p", "4", "--samples", "64", "--seed", "1"], False),
    "norm --p 3": (["--in", "{d}", "--p", "3", "--samples", "64", "--seed", "1"], True),
    "check-young": (["--in", "{d}", "--k", "2", "--p", "4", "--q", "1", "--seed", "1"], False),
}


@pytest.fixture
def inputs(tmp_path):
    sym = Symbol(1, make_series([(1, 2.0), (2, 0.3)], 16))
    texts = {
        "d": "1 + 0.5 * 2^-s + 0.25 * 6^-s",
        "poly": "bohr v1 single\n1:1 1.0 0.0\n",
        "sym": dumps_symbol(sym),
        "two": dumps_series(char_power(2, sym, 16)),
        "three": dumps_series(char_power(3, sym, 16)),
        # the affine symbol of the compactness check, delta = 1
        "sym2": dumps_symbol(DoubleSymbol(1, 1, 1, 0, constant_double(2.0, (1, 1)),
                                          constant_double(1.0, (1, 1)))),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in texts} | {"out": str(tmp_path / "out")}


@pytest.mark.parametrize("sub", COMMANDS)
def test_only_numerical_commands_load_numpy(sub, inputs):
    args, numerical = COMMANDS[sub]
    argv = sub.split()[:1] + [a.format(**inputs) for a in args] + ["--out", inputs["out"]]
    code = "import sys\nfrom ddseries.cli import main\nprint(main(%r), 'numpy' in sys.modules)"
    assert run_fresh(code % argv) == "0 %s" % numerical
    with open(inputs["out"], encoding="utf-8") as fh:
        assert fh.read()


def test_import_loads_no_numpy():
    assert run_fresh("import sys, ddseries; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("size, loaded", [(16, "False False"), (512, "True True")])
def test_small_algebra_loads_no_numpy(size, loaded):
    """Small dense kernels stay on the dict path: neither numpy nor the
    block kernels load until an input is large enough for them."""
    code = ("import sys, ddseries\nfrom ddseries.compose import exp2\n"
            "D = ddseries.make_series([(n, 1 / n) for n in range(1, %d)], %d)\n"
            "ddseries.mul(D, D, %d), ddseries.exp_series(D, %d), ddseries.log_series(D, %d)\n"
            "E = ddseries.make_double_series([((m, 1), 1 / m) for m in range(1, 5)], (4, 4))\n"
            "exp2(E, (4, 4)), ddseries.mul2(E, E, (4, 4))\n"
            "print('numpy' in sys.modules, 'ddseries._blocks' in sys.modules)"
            % ((size + 1,) + (size,) * 4))
    assert run_fresh(code) == loaded


def test_first_verifier_access_binds_all_seven():
    """The tracer finds the verifiers in vars(ddseries) once one is used."""
    code = ("import sys, ddseries\nfrom ddseries import line_sup_estimate\n"
            "from ddseries import analyze\n"
            "print(all(vars(ddseries)[n] is getattr(analyze, n) for n in %r),"
            " 'numpy' in sys.modules)" % (ANALYZE,))
    assert run_fresh(code) == "True True"


@pytest.mark.parametrize("name", EXPORTS)
def test_export_still_imports(name):
    scope = {}
    exec("from ddseries import %s" % name, scope)
    assert scope[name] is not None


def test_unknown_name_is_an_attribute_error():
    import ddseries

    with pytest.raises(AttributeError):
        ddseries.no_such_name


def _numpy_halfplane_grid(epsilon, n_re=8, n_im=9, re_span=10.0, im_span=50.0):
    res = epsilon + np.logspace(-6, np.log10(re_span), n_re)
    ims = np.linspace(-im_span, im_span, n_im)
    return [complex(r, i) for r in res for i in ims]


def _numpy_boundary_grid2(min_re=1e-8, n_re=12, n_im=7, re_span=10.0, im_span=50.0):
    res = np.logspace(np.log10(min_re), np.log10(re_span), n_re)
    ims = np.linspace(-im_span, im_span, n_im)
    pts = [complex(r, i) for r in res for i in ims]
    return [(s, t) for s in pts for t in pts]


@pytest.mark.parametrize("epsilon, n_re, n_im", [
    (1e-3, 8, 9),   # halfplane_grid's default, check-symbol's on one variable
    (1e-3, 5, 5),   # halfplane_grid2's default, check-symbol's on two
    (1e-3, 3, 3),
    (0.5, 4, 3),
])
def test_halfplane_grids_equal_numpy_bit_for_bit(epsilon, n_re, n_im):
    want = _numpy_halfplane_grid(epsilon, n_re, n_im)
    assert repr(halfplane_grid(epsilon, n_re, n_im)) == repr(want)
    assert repr(halfplane_grid2(epsilon, n_re, n_im)) == repr([(s, t) for s in want for t in want])


@pytest.mark.parametrize("args", [(), (1e-8,)])  # check-compact's default, the selftest's
def test_boundary_grid_equals_numpy_bit_for_bit(args):
    assert repr(boundary_grid2(*args)) == repr(_numpy_boundary_grid2(*args))
