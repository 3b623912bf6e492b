"""Tests of the benchmark's own oracles and parsers.

    python -m pytest -q perfbench/test_oracles.py

A kernel that silently drops one coefficient must make the benchmark
report failed jobs; the unmodified library must pass every oracle.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import ddseries  # noqa: E402
from ddseries import series  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _drop_last(mul):
    def patched(A, B, truncation):
        out = mul(A, B, truncation)
        terms = dict(out.terms)
        if terms:
            del terms[max(terms)]
        return series.DirichletSeries(terms, out.truncation)
    return patched


@pytest.mark.parametrize("name", ["dense-algebra", "sparse-algebra"])
def test_dropped_coefficient_is_reported(name):
    original = {"series.mul": series.mul}
    tracing.rebind(original, {"series.mul": _drop_last(series.mul)})
    try:
        phase = run.closed_loop(workloads.make(name, 7, ""), 1.0, time.perf_counter() + 60,
                                speed.SpeedLog())
    finally:
        tracing.rebind({"series.mul": ddseries.mul}, original)
    assert ddseries.mul is series.mul is original["series.mul"]
    assert phase.failures, "a kernel dropping a coefficient went unnoticed"
    assert phase.end_to_end()["ok_ratio"] < 1.0


@pytest.mark.parametrize("name, jobs", [("sparse-algebra", 28), ("torus-analysis", 9)])
def test_library_passes_its_oracles(name, jobs):
    wl = workloads.make(name, 3, "")
    for i in range(jobs):
        job = wl.job(i)
        assert job.check(job.run()) is None, (i, job.op)


def test_dense_oracles_on_the_smallest_jobs():
    wl = workloads.DenseAlgebra(5)
    for i in range(len(wl.ops)):  # the first job of each op is its smallest
        job = wl.job(i)
        assert job.check(job.run()) is None, job.op


def test_tail_keeps_ten_jobs_beyond():
    phase = run.Phase()
    phase.latency = phase.scaled = [i / 1000 for i in range(1, 101)]
    phase.busy = sum(phase.latency)
    e2e = phase.end_to_end()
    assert e2e["job_tail_ms"] == pytest.approx(90.0)
    assert e2e["tail_percentile"] == pytest.approx(90.0)


def test_importtime_counts_outermost_entries_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy",
        "import time:       200 |        300 |       scipy.optimize",
        "import time:        50 |        350 |     ddseries.analyze",
        "import time:        10 |        360 |   ddseries",
        "import time:         5 |          5 |   ddseries.cli",
    ])
    got = run.importtime_seconds(stderr)
    assert got["ddseries"] == pytest.approx(365e-6)
    assert got["scipy"] == pytest.approx(300e-6)


def test_self_time_subtracts_children():
    spans = [[0, None, "compose.apply", 0.0, 10.0, 0],
             [1, 0, "compose.char_power", 1.0, 4.0, 0],
             [2, 1, "series.exp_series", 1.5, 3.5, 0],
             [3, 0, "compose.char_power", 5.0, 9.0, 0]]
    assert tracing.self_times(spans) == [3.0, 1.0, 2.0, 4.0]
