"""Probe grids on half-planes: log-spaced real parts, linear heights.

A grid has a few points per axis, so plain lists serve; the values are
computed as numpy's linspace and logspace compute them.
"""

from __future__ import annotations

import math


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced values from start to stop: start + i * step, and
    stop itself last."""
    if num < 2:  # no step: [] or [start], as numpy gives
        return [float(start)] * num
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [float(stop)]


def _logspace(start: float, stop: float, num: int) -> list[float]:
    """10 ** x for x in _linspace(start, stop, num)."""
    return [10.0 ** x for x in _linspace(start, stop, num)]


def halfplane_grid(epsilon: float, n_re: int = 8, n_im: int = 9,
                   re_span: float = 10.0, im_span: float = 50.0) -> list[complex]:
    """Points of C_epsilon with Re log-spaced in (epsilon, epsilon + re_span]
    and Im linear in [-im_span, im_span]; epsilon must be finite and >= 0."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0, got %r" % (epsilon,))
    res = [epsilon + r for r in _logspace(-6, math.log10(re_span), n_re)]
    ims = _linspace(-im_span, im_span, n_im)
    return [complex(r, i) for r in res for i in ims]


def halfplane_grid2(epsilon: float, n_re: int = 5, n_im: int = 5,
                    re_span: float = 10.0, im_span: float = 50.0) -> list[tuple[complex, complex]]:
    """Product grid on C_epsilon^2."""
    pts = halfplane_grid(epsilon, n_re, n_im, re_span, im_span)
    return [(s, t) for s in pts for t in pts]


def boundary_grid2(min_re: float = 1e-8, n_re: int = 12, n_im: int = 7,
                   re_span: float = 10.0, im_span: float = 50.0) -> list[tuple[complex, complex]]:
    """Grid on C_+^2 with real parts decaying to min_re, for sampled infs
    approaching the boundary; min_re must lie in (0, re_span)."""
    if not 0 < min_re < re_span:
        raise ValueError("min_re must lie in (0, %r), got %r" % (re_span, min_re))
    res = _logspace(math.log10(min_re), math.log10(re_span), n_re)
    ims = _linspace(-im_span, im_span, n_im)
    pts = [complex(r, i) for r in res for i in ims]
    return [(s, t) for s in pts for t in pts]
