"""One test per numbered verification check, each printing its report line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; every check uses a fixed seed, so the values are reproducible.
"""

import pytest

from ddseries import acceptance
from ddseries.formats import check_line

_RESULTS = {}


def _run(name):
    if name not in _RESULTS:
        (_RESULTS[name],) = acceptance.run_all([name])
    r = _RESULTS[name]
    print(check_line(r.name, r.passed, r.value, r.tolerance))
    return r


def test_available_checks_cover_all():
    names = acceptance.available_checks()
    assert len(names) == 13
    assert len(set(names)) == 13


def test_compose_single():
    r = _run("compose-single")
    assert r.passed, r.detail
    assert r.elapsed <= 10.0


def test_compose_double():
    r = _run("compose-double")
    assert r.passed, r.detail
    assert r.elapsed <= 60.0


def test_cross_algorithm():
    r = _run("cross-algorithm")
    assert r.passed, r.detail
    assert r.elapsed <= 30.0


def test_exp_log_roundtrip():
    r = _run("exp-log-roundtrip")
    assert r.passed, r.detail


def test_symbol_recovery():
    r = _run("symbol-recovery")
    assert r.passed, r.detail


def test_bohr_isomorphism():
    r = _run("bohr-isomorphism")
    assert r.passed, r.detail


def test_parseval():
    r = _run("parseval")
    assert r.passed, r.detail


class _Seen(Exception):
    pass


def test_parseval_samples_the_torus(monkeypatch):
    """The parseval check times the Monte Carlo H^2 moment: an estimate
    with zero stderr (the exact route) would compare l2 sums with themselves
    and leave its stderr cap nothing to test.  The check stops at its first
    estimate, whichever function makes it."""
    from ddseries import bohr

    real = bohr.NormEstimate

    def first(*args):
        raise _Seen(real(*args))

    monkeypatch.setattr(bohr, "NormEstimate", first)
    with pytest.raises(_Seen) as seen:
        acceptance.check_parseval()
    est = seen.value.args[0]
    assert est.kind == "hp"
    assert est.moment_stderr > 0


def test_young():
    r = _run("young")
    assert r.passed, r.detail


def test_sup_monotonicity():
    r = _run("sup-monotonicity")
    assert r.passed, r.detail


def test_three_lines():
    r = _run("three-lines")
    assert r.passed, r.detail


def test_coefficient_extraction():
    r = _run("coefficient-extraction")
    assert r.passed, r.detail


def test_compactness():
    r = _run("compactness")
    assert r.passed, r.detail


def test_semigroup():
    r = _run("semigroup")
    assert r.passed, r.detail


def test_run_all_rejects_unknown():
    with pytest.raises(ValueError):
        acceptance.run_all(["not-a-check"])
