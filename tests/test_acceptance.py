"""Acceptance gate: one test per built-in check, run in order.

Each test executes the corresponding check from growthlab.acceptance and
prints its PASS/FAIL line outside pytest's capture so all thirteen
verdict lines show up in the run log.  A test fails exactly when its
check fails.

Check 12 (dye-quantity) is expected to fail: it demands a strictly
decreasing running minimum for the rank-3 lattice, but the first two
values tie exactly (sigma(2)/beta(1) = 18/7 while sigma(4)/beta(2) =
66/25 > 18/7, so K=2 cannot improve on K=1).  The computation is exact;
the requirement itself is what the tie violates.  See README.
"""

import io
from itertools import count

import pytest

from growthlab import acceptance


def _run(ident: int, capsys) -> None:
    result = acceptance.run_check(ident)
    with capsys.disabled():
        print(result.line(), flush=True)
    assert result.passed, result.detail


def test_criterion_01_gauss_value(capsys):
    _run(1, capsys)


def test_criterion_02_gauss_bound(capsys):
    _run(2, capsys)


def test_criterion_03_z_growth_series(capsys):
    _run(3, capsys)


def test_criterion_04_zn_growth_series(capsys):
    _run(4, capsys)


def test_criterion_05_z2_random_generators(capsys):
    _run(5, capsys)


def test_criterion_06_catalan(capsys):
    _run(6, capsys)


def test_criterion_07_cross_polytope(capsys):
    _run(7, capsys)


def test_criterion_08_root_polytope(capsys):
    _run(8, capsys)


def test_criterion_09_theta_lattices(capsys):
    _run(9, capsys)


def test_criterion_10_free_group(capsys):
    _run(10, capsys)


def test_criterion_11_krause_degree(capsys):
    _run(11, capsys)


def test_criterion_12_dye_quantity(capsys):
    _run(12, capsys)


def test_criterion_13_s3_polynomial(capsys):
    _run(13, capsys)


def test_an_unknown_check_number_is_refused():
    with pytest.raises(ValueError, match="no acceptance check numbered 99"):
        acceptance.run_check(99)


def test_internal_error_is_a_failed_check(monkeypatch):
    def broken():
        return 1 // 0

    checks = list(acceptance.CHECKS)
    checks[0] = (1, "gauss-value", broken)
    monkeypatch.setattr(acceptance, "CHECKS", tuple(checks))
    results = acceptance.run_all([1, 6], stream=io.StringIO())
    assert [r.ident for r in results] == [1, 6]
    assert not results[0].passed
    assert "ZeroDivisionError" in results[0].detail
    assert results[1].passed


def test_budgeted_checks_fail_past_their_budgets(monkeypatch):
    # run_check's one timer, over the whole check, decides: a check that
    # takes its whole budget fails with a detail naming it, and one that
    # takes a hundredth of a second less passes, with the same detail as
    # an untimed run
    assert acceptance.BUDGETS == {1: 1, 2: 30, 4: 60, 9: 60}
    for ident, budget in acceptance.BUDGETS.items():
        detail = acceptance.run_check(ident).detail
        for step, passed in ((budget, False), (budget - 0.01, True)):
            clock = count(0, step)
            monkeypatch.setattr(acceptance.time, "perf_counter",
                                clock.__next__)
            result = acceptance.run_check(ident)
            assert result.passed is passed, (ident, step)
            assert result.elapsed == step
            if passed:
                assert result.detail == detail
            else:
                assert result.detail == \
                    f"{detail}; ran past its budget of {budget}s"
