"""Spans around the public functions of the ddseries layers.

The tracer wraps every public function of the layer modules from outside
the library and rebinds each wrapper in every loaded ``ddseries.*``
namespace that holds the original, so that nested calls such as
``apply -> char_power -> exp_series -> mul`` are recorded as child spans.
Spans stay in memory as ``[id, parent, name, start, end, job]`` and are
written out once, at the end of a run.  ``uninstall`` restores the
originals, so an untraced phase runs the library unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from bisect import bisect_right

import numpy as np

LAYERS = ("series", "double", "compose", "factor", "bohr", "superpose",
          "analyze", "parser", "formats")

# ``bohr.prime`` is a table lookup that ``_prime_position`` calls once per
# candidate position in a linear scan (12k calls for one index near 2^17);
# a span per call would cost more than the work it measures, so its time
# stays in the calling span.
EXCLUDED = frozenset({"bohr.prime"})

# calls whose arguments are kept for the size counts (pair shares, samples)
RECORDED = frozenset({"series.mul", "double.mul2", "bohr.hp_norm_estimate"})


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ddseries" or name.startswith("ddseries."))]


def rebind(originals: dict, replacements: dict) -> None:
    """Replace each original function object by its replacement in every
    loaded ddseries namespace that refers to it."""
    by_id = {id(fn): replacements[key] for key, fn in originals.items()}
    for module in _namespaces():
        for attr, value in list(vars(module).items()):
            new = by_id.get(id(value))
            if new is not None:
                setattr(module, attr, new)


def layer_functions() -> dict:
    """``{"layer.name": function}`` for every public function defined in a
    layer module, minus EXCLUDED."""
    out = {}
    for layer in LAYERS:
        module = sys.modules.get("ddseries." + layer)
        if module is None:
            continue
        for attr, value in vars(module).items():
            key = "%s.%s" % (layer, attr)
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__ and key not in EXCLUDED):
                out[key] = value
    return out


class Tracer:
    """Records one span per call of a wrapped function while installed.

    Spans are recorded only while ``active`` is set; ``job`` tags them with
    the job that caused them.  ``inputs`` keeps the
    arguments of the calls in RECORDED, so that their sizes can be counted
    after the job, outside its timed window; clear it after each job.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self.inputs: list[tuple] = []
        self.originals: dict = {}
        self.wrappers: dict = {}

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        inputs = self.inputs if key in RECORDED else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, key, 0.0, 0.0, tracer.job]
            spans.append(span)
            stack.append(sid)
            if inputs is not None:
                inputs.append((key, sid, args, kwargs))
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if not self.wrappers:
            self.originals = layer_functions()
            self.wrappers = {k: self._wrap(k, fn) for k, fn in self.originals.items()}
        rebind(self.originals, self.wrappers)

    def uninstall(self) -> None:
        rebind(self.wrappers, self.originals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "job"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations.
    """
    child_total = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_total[parent] += end - start
    return [end - start - child_total[sid] for sid, _, _, start, end, _ in spans]


def in_range_pairs(a_terms: dict, b_terms: dict, bound) -> tuple[int, int]:
    """(pairs whose product index lies within the truncation, all pairs)."""
    if isinstance(bound, int):
        keys = sorted(b_terms)
        return sum(bisect_right(keys, bound // d) for d in a_terms), len(a_terms) * len(b_terms)
    if not a_terms or not b_terms:
        return 0, 0
    M, N = bound
    a = np.array(list(a_terms), dtype=np.int64)
    b = np.array(list(b_terms), dtype=np.int64)
    inside = ((b[None, :, 0] <= (M // a[:, 0])[:, None])
              & (b[None, :, 1] <= (N // a[:, 1])[:, None])).sum()
    return int(inside), len(a) * len(b)
