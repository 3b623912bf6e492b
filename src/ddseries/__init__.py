"""Computer-algebra and numerical toolkit for truncated single and double
Dirichlet series: composition-operator symbol calculus, the Bohr transform
to prime-variable polynomials, superposition operators and numerical
verifiers for the supporting half-plane inequalities."""

from .series import (
    DirichletSeries,
    add,
    constant_series,
    evaluate,
    exp_series,
    log_series,
    make_series,
    mul,
    scale,
    translate,
    zero_series,
)
from .double import (
    DoubleDirichletSeries,
    add2,
    constant_double,
    embed_single,
    evaluate2,
    make_double_series,
    mul2,
    rectangular_partial_sum,
    regular_check,
    row_series,
    scale2,
    zero_double,
)
from .factor import divisors, factorize, multiplicative_factorizations, pair_factorizations
from .bohr import (
    DoublePrimePolynomial,
    NormEstimate,
    PrimePolynomial,
    TorusSample,
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
from .compose import (
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
    positivity_check,
    range_check,
    recover_symbol,
    validate_symbol,
)
from .superpose import (
    ScalarPolynomial,
    degree_bound,
    superpose,
    superpose_entire,
    young_bound_verify,
)
from .parser import ParseError, parse_expression, print_expression

__version__ = "0.1.0"

# The numerical verifiers load numpy, which the algebra never needs: they
# are bound on first access (PEP 562), all seven at once.
_ANALYZE = (
    "coefficient_bound_check",
    "coefficient_extract",
    "line_sup_estimate",
    "semigroup_identify",
    "series_evaluator",
    "sup_monotonicity_check",
    "three_lines_check",
)


def __getattr__(name):
    if name not in _ANALYZE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import analyze

    globals().update((n, getattr(analyze, n)) for n in _ANALYZE)
    return globals()[name]
