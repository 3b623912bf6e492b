"""Command-line surface: every library operation behind a subcommand.

Series inputs are either the `dirichlet v1` text format or an expression in
the grammar of the parser module (sniffed by the first word).  Commands
stream stdin -> stdout when --in/--out are omitted; randomized commands
require an explicit --seed.  Exit codes: 0 pass, 1 check failure, 2 usage
or input error.

Only `norm`, `coeff`, `check-young`, `check-suplines` and `selftest`
compute numerically, and only they load numpy: the verifier and
acceptance modules are imported inside the handlers that use them.  `norm`
at an even --p, and `check-young` where kq and p are even, take the exact
route in plain Python unless the power it builds is too large (see
bohr.hp_norm_estimate), and load none then.
"""

from __future__ import annotations

import argparse
import cmath
import sys

from .bohr import DoublePrimePolynomial, hinf_norm_estimate, hp_norm_estimate, lift, unlift
from .compose import (
    apply,
    compactness_check,
    recover_symbol,
    validate_symbol,
)
from .double import DoubleDirichletSeries, embed_single, evaluate2, mul2
from .formats import (
    check_line,
    dumps_polynomial,
    dumps_series,
    dumps_symbol,
    loads_polynomial,
    loads_series,
    loads_symbol,
    norm_estimate_line,
)
from .grids import halfplane_grid, halfplane_grid2, boundary_grid2
from .parser import parse_expression
from .series import DirichletSeries, evaluate, mul
from .superpose import young_bound_verify


# --samples sizes arrays with this many rows (each as long as the series
# has terms) and --panels a vector of this many nodes; a larger value is
# refused before anything is allocated
MAX_POINTS = 10**6
# --trunc bounds the indices a product or a composition may reach, and so
# how many it can fill: the indices 2^a 3^b that the symbol 2^-s + 3^-s
# generates number 1,303 up to this ceiling, and about 3.5 million up to a
# bound of a thousand digits, which int() still reads.  A larger --trunc is
# refused before anything is read; every index the prime table can lift
# is far below it.
MAX_TRUNC = 2**63 - 1


def _at_most(ceiling: int):
    """The argparse type of an integer flag that takes at most ceiling."""
    def parse(text: str) -> int:
        n = int(text)
        if n > ceiling:
            raise argparse.ArgumentTypeError("%d is above the ceiling %d" % (n, ceiling))
        return n
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_count = _at_most(MAX_POINTS)  # a flag that sizes an array


def _read(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_series(path: str | None, trunc: int):
    """The series read from path (see _read): format text when it starts
    with the format header, an expression otherwise."""
    text = _read(path)
    if text.lstrip().startswith("dirichlet"):
        return loads_series(text)
    return parse_expression(text, trunc)


def _read_single(path: str | None, args):
    """A single series, for the commands that take no double one."""
    D = _read_series(path, args.trunc)
    if not isinstance(D, DirichletSeries):
        raise ValueError("%s works on single series" % args.command)
    return D


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ValueError("cannot parse complex number %r" % text) from None
    if not cmath.isfinite(z):
        raise ValueError("point %r is not finite" % text)
    return z


def _cmd_eval(args) -> int:
    D = _read_series(args.infile, args.trunc)
    s = _parse_complex(args.s)
    if isinstance(D, DoubleDirichletSeries):
        if args.t is None:
            raise ValueError("double series needs --t")
        v = evaluate2(D, s, _parse_complex(args.t))
    else:
        v = evaluate(D, s)
    _write(args.out, "value %r %r\n" % (v.real, v.imag))
    return 0


def _cmd_mul(args) -> int:
    A = _read_series(args.a, args.trunc)
    B = _read_series(args.b, args.trunc)
    if isinstance(A, DirichletSeries) and isinstance(B, DirichletSeries):
        out = mul(A, B, args.trunc)
    else:  # a single factor joins a double one on the first axis
        A, B = (X if isinstance(X, DoubleDirichletSeries) else embed_single(X) for X in (A, B))
        out = mul2(A, B, (args.trunc, args.trunc))
    _write(args.out, dumps_series(out))
    return 0


def _cmd_compose(args) -> int:
    sym = loads_symbol(_read(args.symbol))
    D = _read_series(args.infile, args.trunc)
    _write(args.out, dumps_series(apply(sym, D, (args.trunc,) * len(sym.phis))))
    return 0


def _cmd_lift(args) -> int:
    _write(args.out, dumps_polynomial(lift(_read_series(args.infile, args.trunc))))
    return 0


def _cmd_unlift(args) -> int:
    P = loads_polynomial(_read(args.infile))
    trunc = (args.trunc, args.trunc) if isinstance(P, DoublePrimePolynomial) else args.trunc
    _write(args.out, dumps_series(unlift(P, trunc)))
    return 0


def _cmd_recover_symbol(args) -> int:
    sym = recover_symbol(_read_single(args.two, args), _read_single(args.three, args), args.trunc)
    _write(args.out, dumps_symbol(sym))
    return 0


def _cmd_norm(args) -> int:
    D = _read_series(args.infile, args.trunc)
    if args.p == "inf":
        est = hinf_norm_estimate(D, args.samples, args.seed)
    else:
        est = hp_norm_estimate(D, float(args.p), args.samples, args.seed)
    _write(args.out, norm_estimate_line(est) + "\n")
    return 0


def _cmd_coeff(args) -> int:
    from .analyze import coefficient_extract, series_evaluator

    D = _read_single(args.infile, args)
    ev = series_evaluator(D)
    got = coefficient_extract(
        ev, args.j, args.sigma, args.T, panels=args.panels, support=D.terms
    )
    bound = got.error_bound if got.error_bound is not None else float("nan")
    _write(
        args.out,
        "coeff %d %r %r %r\n" % (args.j, got.value.real, got.value.imag, bound),
    )
    return 0


def _cmd_check_symbol(args) -> int:
    sym = loads_symbol(_read(args.symbol))
    grid = (halfplane_grid, halfplane_grid2)[len(sym.phis) - 1]
    rep = validate_symbol(sym, grid(args.epsilon))
    lines = []
    for name, mn in sorted(rep.min_re.items()):
        failed = any(f.startswith(name) for f in rep.failures)
        lines.append(check_line("symbol-range-" + name, not failed, mn, 0.0))
    for name in rep.boundary:
        lines.append("# boundary case: %s has identically zero real part" % name)
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if rep.ok else 1


def _cmd_check_compact(args) -> int:
    sym = loads_symbol(_read(args.symbol))
    if len(sym.phis) != 2:
        raise ValueError("check-compact needs a two-variable symbol")
    rep = compactness_check(sym, boundary_grid2(args.min_re))
    line = check_line("compactness-delta", rep.compact, rep.delta, 1e-4)
    _write(args.out, line + "\n")
    return 0 if rep.compact else 1


def _cmd_check_young(args) -> int:
    D = _read_single(args.infile, args)
    rep = young_bound_verify(D, args.k, args.p, args.q, args.samples, args.seed)
    _write(args.out, check_line("young-slack", rep.holds, rep.slack, 0.0) + "\n")
    return 0 if rep.holds else 1


def _cmd_check_suplines(args) -> int:
    from .analyze import sup_monotonicity_check

    D = _read_single(args.infile, args)
    rep = sup_monotonicity_check(D, args.sigma, args.eta)
    margin = rep.lower_sup.value - rep.upper_sup.value
    lines = [
        check_line("suplines-nonstrict", rep.nonstrict_holds, margin, -1e-6),
        "# strictness: %s (lower %r upper %r)"
        % (rep.strictness, rep.lower_sup.value, rep.upper_sup.value),
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if rep.nonstrict_holds else 1


def _cmd_selftest(args) -> int:
    from . import acceptance

    names = args.only.split(",") if args.only else None
    results = acceptance.run_all(names)
    lines = []
    for r in results:
        lines.append(check_line(r.name, r.passed, r.value, r.tolerance))
        if args.verbose:
            lines.append("# %s: %.2fs %s" % (r.name, r.elapsed, r.detail))
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _add_io(p, with_in=True, with_trunc=True):
    if with_in:
        p.add_argument("--in", dest="infile", default=None, help="input file (default stdin)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if with_trunc:
        p.add_argument("--trunc", type=_at_most(MAX_TRUNC), default=64,
                       help="series truncation (default 64, at most 2^63 - 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ddseries",
        description="Truncated Dirichlet series algebra, symbol calculus and verifiers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a series at a point")
    _add_io(p)
    p.add_argument("--s", required=True, help="point, e.g. '2+3i'")
    p.add_argument("--t", default=None, help="second point for double series")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("mul", help="Dirichlet convolution of two series")
    _add_io(p, with_in=False)
    p.add_argument("a", help="first series file ('-' for stdin)")
    p.add_argument("b", help="second series file")
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("compose", help="apply a one- or two-variable symbol")
    _add_io(p)
    p.add_argument("--symbol", required=True, help="symbol file")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("lift", help="Bohr lift to a prime polynomial")
    _add_io(p)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("unlift", help="inverse Bohr lift")
    _add_io(p)
    p.set_defaults(fn=_cmd_unlift)

    p = sub.add_parser("recover-symbol", help="reconstruct a symbol from its 2- and 3-powers")
    _add_io(p, with_in=False)
    p.add_argument("two", help="series of 2^{-symbol}")
    p.add_argument("three", help="series of 3^{-symbol}")
    p.set_defaults(fn=_cmd_recover_symbol)

    p = sub.add_parser("norm", help="H^p norm: exact at an even p, else Monte Carlo")
    _add_io(p)
    p.add_argument("--p", required=True, help="exponent >= 1, or 'inf'")
    p.add_argument("--samples", type=_count, default=100_000, help="at most 10^6")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("coeff", help="mean-value coefficient extraction")
    _add_io(p)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--T", type=float, default=1e4)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--panels", type=_count, default=200_000, help="at most 10^6")
    p.set_defaults(fn=_cmd_coeff)

    p = sub.add_parser("check-symbol", help="sampled range check of a symbol")
    _add_io(p, with_in=False, with_trunc=False)
    p.add_argument("--symbol", required=True)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_check_symbol)

    p = sub.add_parser("check-compact", help="sampled compactness verdict")
    _add_io(p, with_in=False, with_trunc=False)
    p.add_argument("--symbol", required=True)
    p.add_argument("--min-re", dest="min_re", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_check_compact)

    p = sub.add_parser("check-young", help="check of ||P^k||_q <= ||P||_p^k, kq <= p")
    _add_io(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--samples", type=_count, default=10_000, help="at most 10^6")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_check_young)

    p = sub.add_parser("check-suplines", help="line-sup monotonicity check")
    _add_io(p)
    p.add_argument("--sigma", type=float, required=True, help="smaller abscissa")
    p.add_argument("--eta", type=float, required=True, help="larger abscissa")
    p.set_defaults(fn=_cmd_check_suplines)

    p = sub.add_parser("selftest", help="run the numbered verification checks")
    _add_io(p, with_in=False, with_trunc=False)
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # every input error of the package is a ValueError
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
