"""One-time set-up of a ddseries process: the package import plus one
untimed warm-up pass that fills the lazy caches.

Run as a script (``python perfbench/warmup.py --workload NAME`` from the
checkout root, with ``src`` on PYTHONPATH) it sets up a fresh process and
prints its timings as one JSON line; ``perfbench/run.py`` starts it several
times to take the median set-up cost.  ``--reference`` instead times the
reference set-up, the same kind of work without ddseries (see
`reference`).
"""

from __future__ import annotations

import json
import sys
import time

# largest prime below 2^17, the top of the sparse-algebra index range;
# lifting it fills bohr's prime table up to every prime the workload meets
LARGEST_SPARSE_PRIME = 131071


def import_and_warm(workload: str) -> dict:
    """Import ddseries and fill what the workload's jobs would otherwise
    fill on first use.  Returns the timings in seconds."""
    clock = time.perf_counter
    t0 = clock()
    import ddseries
    t1 = clock()
    ddseries.factorize(2)  # the first call builds the 10^6 sieve
    t2 = clock()
    if workload == "sparse-algebra":
        ddseries.index_to_multiindex(LARGEST_SPARSE_PRIME)
    t3 = clock()
    import scipy.optimize  # noqa: F401  (a no-op while ddseries imports it eagerly)
    t4 = clock()
    _tiny_pass(ddseries)
    t5 = clock()
    return {"import_s": t1 - t0, "factor.first_call_s": t2 - t1,
            "bohr.prime_fill_s": t3 - t2, "scipy_s": t4 - t3,
            "pass_s": t5 - t4, "setup_s": t5 - t0}


def _tiny_pass(dd) -> None:
    """One call of every operation the workloads time, on fixed inputs of
    a few terms, so that no lazily imported module is left for a job."""
    from ddseries import compose, formats

    A = dd.make_series([(1, 1.0), (2, 0.5j), (3, -0.25)], 8)
    dd.exp_series(dd.log_series(dd.mul(A, A, 8), 8), 8)
    sym = dd.Symbol(1, A)
    dd.apply(sym, A, 8)
    A2 = dd.make_double_series([((1, 1), 1.0), ((2, 1), 0.5), ((1, 3), 0.25j)], (4, 4))
    compose.exp2(dd.mul2(A2, A2, (4, 4)), (4, 4))
    dd.apply_double(dd.DoubleSymbol(1, 0, 0, 1, A2, A2), A2, (4, 4))
    dd.unlift(dd.lift(A), 8)
    dd.unlift_double(dd.lift_double(A2), (4, 4))
    formats.loads_series(formats.dumps_series(A))
    dd.parse_expression(dd.print_expression(A2), 4)
    dd.hp_norm_estimate(A, 2.0, 16, 0)
    dd.hinf_norm_estimate(A, 16, 0)
    dd.young_bound_verify(A, 2, 4.0, 1.0, 16, 0)
    dd.sup_monotonicity_check(A, 0.5, 1.0, samples=16)
    dd.three_lines_check(A2, 0.5, 0.5, 2.0, 0.5, 0.5, samples=16)
    dd.coefficient_extract(dd.series_evaluator(A), 2, 0.5, 10.0, panels=64)


def reference() -> float:
    """Seconds of a set-up that shares no code with ddseries: the
    third-party imports ddseries makes, a pure-Python sieve and a
    trial-division prime list.  Timed in a fresh process next to each
    ddseries set-up, it gauges how fast the host starts processes just
    then; run.py scales set-up times by it."""
    clock = time.perf_counter
    t0 = clock()
    import cmath  # noqa: F401
    import dataclasses  # noqa: F401

    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    bound = 200_000
    spf = list(range(bound + 1))
    for p in range(2, int(bound ** 0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, bound + 1, p):
                if spf[m] == m:
                    spf[m] = p
    primes = [2]
    c = 3
    while len(primes) < 1500:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 2
    return clock() - t0


if __name__ == "__main__":
    if "--reference" in sys.argv:
        print(json.dumps({"reference_s": reference()}))
    else:
        name = sys.argv[sys.argv.index("--workload") + 1]
        print(json.dumps(import_and_warm(name)))
