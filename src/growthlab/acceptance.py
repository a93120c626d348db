"""Built-in verification suite.

Thirteen numbered checks, each tied to one headline quantitative claim
(Gauss circle values and bounds, closed-form growth series, Ehrhart and
theta identities, Catalan numbers, the growth diagnostics on the stock
families).  Each check runs standalone, reports PASS/FAIL with a short
human-readable detail string, and never raises: failures of any kind,
including internal errors, are folded into the result so the whole
suite always completes.

Checks with an explicit runtime budget (1, 2, 4, 9) include the elapsed
time in the pass condition, not just in the report.
"""

from __future__ import annotations

import random
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

from . import analysis, cayley, ehrhart, gauss, series, theta
from .errors import Record
from .groups import (FreeAbelian, MarkedGroup, free_abelian_standard,
                     free_group_standard, heisenberg_group,
                     symmetric_group_adjacent)
from .series import RationalFunction, closed_form_free_abelian


class CheckResult(Record):
    __slots__ = ("ident", "slug", "passed", "detail", "elapsed")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.ident:2d} {self.slug:<22} {self.detail}"


def _check_gauss_value():
    t0 = time.perf_counter()
    value = gauss.count_disc(100000)
    elapsed = time.perf_counter() - t0
    ok = value == 314197 and elapsed < 1.0
    return ok, f"R2(100000) = {value}, expected 314197 ({elapsed:.3f}s, budget 1s)"


def _check_gauss_bound():
    t0 = time.perf_counter()
    ts = list(range(0, 10001)) + gauss.dyadic_extension(10000, 10 ** 7)
    results = gauss.gauss_bound_check(ts)
    elapsed = time.perf_counter() - t0
    with localcontext() as ctx:
        ctx.prec = 60
        worst = min(r.bound - r.error
                    for r in gauss.near_least_slack(results))
    ok = elapsed < 30.0
    return ok, (f"bound holds at {len(results)} values of t"
                f" (worst slack {worst:.3E}, {elapsed:.2f}s, budget 30s)")


def _check_z_series():
    m = free_abelian_standard(1)
    table = cayley.enumerate_balls(m, 30)
    target = closed_form_free_abelian(1)
    if list(table.sphere_sizes) != target.expand(30):
        return False, "BFS spheres of Z disagree with (1+z)/(1-z)"
    found = series.recognize_rational(list(table.sphere_sizes))
    if found != target:
        return False, f"recognizer returned {found}"
    return True, f"sigma(0..30) matches and recognizer gives {target.display()}"


def _check_zn_series():
    t0 = time.perf_counter()
    for n, kmax in ((2, 25), (3, 25), (4, 15)):
        m = free_abelian_standard(n)
        table = cayley.enumerate_balls(m, kmax)
        want = closed_form_free_abelian(n).expand(kmax)
        if list(table.sphere_sizes) != want:
            return False, f"Z^{n} spheres disagree with ((1+z)/(1-z))^{n}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    return ok, (f"Z^2, Z^3 (k<=25) and Z^4 (k<=15) all match"
                f" ({elapsed:.2f}s, budget 60s)")


def _random_z2_group(rng: random.Random) -> MarkedGroup:
    fam = FreeAbelian(2)
    while True:
        count = rng.randint(2, 3)
        gens = []
        for _ in range(count):
            while True:
                v = (rng.randint(-2, 2), rng.randint(-2, 2))
                if v != (0, 0):
                    break
            gens.append(v)
        if len({fam.canonicalize(g) for g in gens}) < len(gens):
            continue
        m = MarkedGroup(fam, tuple(gens))
        if (cayley.word_length(m, (1, 0), 8) is not None
                and cayley.word_length(m, (0, 1), 8) is not None):
            return m


def _check_z2_random():
    rng = random.Random(20260814)
    cube = [1, -3, 3, -1]  # (1-z)^3
    for i in range(10):
        m = _random_z2_group(rng)
        table = cayley.enumerate_balls(m, 24)
        found = series.recognize_rational(list(table.sphere_sizes))
        if found is None:
            return False, f"set {i}: sigma-series not recognized as rational"
        # Q divides (1-z)^3 exactly when (1-z)^3/Q reduces to a polynomial
        quotient = RationalFunction.make(cube, found.denominator)
        if len(quotient.denominator) != 1:
            return False, (f"set {i}: denominator {found.denominator}"
                           " does not divide (1-z)^3")
    return True, "10 seeded generating sets, every denominator divides (1-z)^3"


def _check_catalan():
    c = series.catalan(20)
    if c[:8] != [1, 1, 2, 5, 14, 42, 132, 429]:
        return False, f"c_0..c_7 = {c[:8]}"
    for k in range(21):
        if c[k] != comb(2 * k, k) // (k + 1):
            return False, f"c_{k} != C(2k,k)/(k+1)"
    square = series.poly_mul(c, c)
    for k in range(1, 21):
        if c[k] != square[k - 1]:
            return False, f"C = 1 + zC^2 fails at order {k}"
    return True, "c_0..c_7 match, binomial formula and C = 1 + zC^2 hold to order 20"


def _check_cross_polytope():
    for n in (1, 2, 3):
        counts = ehrhart.ehrhart_sequence(ehrhart.cross_polytope(n), 8)
        want = ehrhart.cross_polytope_series(n).expand(8)
        if counts != want:
            return False, f"n={n}: counts {counts} vs series {want}"
    return True, "counts match (1/(1-z))((1+z)/(1-z))^n for n <= 3, k <= 8"


def _check_root_polytope():
    for n in (1, 2, 3):
        f = ehrhart.root_polytope_series(n)
        counts = ehrhart.ehrhart_sequence(ehrhart.root_polytope(n), 6)
        want = f.expand(6)
        if counts != want:
            return False, f"n={n}: counts {counts} vs series {want}"
    for n in range(1, 9):
        ehrhart.root_polytope_series(n)  # raises if the two forms differ
    return True, ("counts match for n <= 3, k <= 6;"
                  " Legendre and binomial forms identical for n <= 8")


def _check_theta():
    t0 = time.perf_counter()
    cases = [(f"Z^{n} vs theta3^{n}", n, theta.theta3_power(n, 100))
             for n in range(1, 5)]
    cases.append(("Z^2 vs r2", 2, gauss.r2_table(1000)))
    for label, n, want in cases:
        gram = [[int(i == j) for j in range(n)] for i in range(n)]
        lat = theta.IntegralLattice.make(gram)
        got = list(theta.theta_coefficients(lat, len(want) - 1).counts)
        if got != want:
            at = next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
            return False, f"{label} mismatch at {at}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    return ok, (f"Z^n = theta3^n (n<=4, rmax=100) and Z^2 = r2 (k<=1000)"
                f" ({elapsed:.2f}s, budget 60s)")


def _check_free_group():
    m = free_group_standard(2)
    table = cayley.enumerate_balls(m, 12)
    want = [1] + [4 * 3 ** (k - 1) for k in range(1, 13)]
    if list(table.sphere_sizes) != want:
        return False, "F_2 spheres are not 1, 4, 12, 36, ..."
    target = RationalFunction.make([1, 1], [1, -3])
    found = series.recognize_rational(list(table.sphere_sizes))
    if found != target:
        return False, f"recognizer returned {found}"
    rate = analysis.exponential_rate(table)
    est = rate.estimate(12)
    if not (Decimal("3.0") <= est <= Decimal("3.4")):
        return False, f"Fekete bound at k=12 is {est}"
    return True, (f"sigma matches, recognizer gives {target.display()},"
                  f" beta(12)^(1/12) = {str(est)[:6]} in [3.0, 3.4]")


def _check_krause():
    # pass/fail compares integers; the Decimal terminals are for display
    terminals = []
    tol = Fraction(3, 10)
    for n in (1, 2, 3):
        table = cayley.enumerate_balls(free_abelian_standard(n), 25)
        terminals.append(analysis.krause_degree(table).terminal)
        if not analysis.log_ratio_within(table.ball_sizes[25], 25,
                                         n - tol, n + tol):
            return False, f"Z^{n} terminal estimate {terminals[-1]} off by > 0.3"
    table = cayley.enumerate_balls(heisenberg_group(), 20)
    h = analysis.krause_degree(table).terminal
    if not analysis.log_ratio_within(table.ball_sizes[20], 20,
                                     Fraction(17, 5), Fraction(22, 5)):
        return False, f"Heisenberg terminal estimate {h} outside [3.4, 4.4]"
    shown = ", ".join(str(t)[:5] for t in terminals)
    return True, (f"Z^n terminals ({shown}) within 0.3 of rank;"
                  f" Heisenberg {str(h)[:5]} in [3.4, 4.4]")


def _check_dye():
    table = cayley.enumerate_balls(free_abelian_standard(1), 10)
    res = analysis.dye_quantity(table, 5)
    if res.value != Fraction(2, 11):
        return False, f"Z at K=5 gave {res.value}, expected 2/11"
    for n in (1, 2, 3):
        table = cayley.enumerate_balls(free_abelian_standard(n), 12)
        values = [analysis.dye_quantity(table, K).value for K in range(1, 7)]
        for i in range(5):
            if not values[i + 1] < values[i]:
                return False, (
                    f"Z^{n} minima not strictly decreasing at K={i + 1}->"
                    f"{i + 2}: {values[i]} then {values[i + 1]}")
    table = cayley.enumerate_balls(free_group_standard(2), 8)
    res = analysis.dye_quantity(table, 4)
    if res.value != Fraction(12, 5) or res.argmin != 1:
        return False, f"F_2 at K=4 gave {res.value} at k={res.argmin}"
    return True, ("Z value 2/11 at K=5; minima strictly decreasing for"
                  " Z^n, n <= 3; F_2 gives 12/5 at k=1")


def _check_s3():
    m = symmetric_group_adjacent(3)
    # the zero tail must be long enough for the recurrence fit to force
    # the polynomial (denominator-one) form before the guard band
    table = cayley.enumerate_balls(m, 12)
    sigma = list(table.sphere_sizes)
    poly = series.poly_trim(sigma)
    if poly != [1, 2, 2, 1]:
        return False, f"growth polynomial is {poly}"
    found = series.recognize_rational(sigma)
    if found != RationalFunction.make([1, 2, 2, 1], [1]):
        return False, f"recognizer returned {found}"
    total = found.evaluate(1)
    if total != 6:
        return False, f"value at 1 is {total}"
    return True, "growth polynomial 1 + 2z + 2z^2 + z^3, value 6 = |S_3| at z=1"


CHECKS = (
    (1, "gauss-value", _check_gauss_value),
    (2, "gauss-bound", _check_gauss_bound),
    (3, "z-growth-series", _check_z_series),
    (4, "zn-growth-series", _check_zn_series),
    (5, "z2-random-generators", _check_z2_random),
    (6, "catalan", _check_catalan),
    (7, "cross-polytope", _check_cross_polytope),
    (8, "root-polytope", _check_root_polytope),
    (9, "theta-lattices", _check_theta),
    (10, "free-group", _check_free_group),
    (11, "krause-degree", _check_krause),
    (12, "dye-quantity", _check_dye),
    (13, "s3-polynomial", _check_s3),
)

CHECK_IDS = tuple(ident for ident, _, _ in CHECKS)


def run_check(ident: int) -> CheckResult:
    for cid, slug, fn in CHECKS:
        if cid == ident:
            t0 = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:
                passed, detail = False, f"error: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            return CheckResult(cid, slug, passed, detail, elapsed)
    raise ValueError(f"no acceptance check numbered {ident}")


def run_all(selected=None, stream=None) -> list:
    """Run the selected checks (all by default), print one line per
    check to the stream, and return the results."""
    if stream is None:
        stream = sys.stdout
    picked = CHECK_IDS if selected is None else tuple(selected)
    results = []
    for ident in picked:
        result = run_check(ident)
        print(result.line(), file=stream)
        results.append(result)
    return results
