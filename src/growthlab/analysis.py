"""Growth-classification diagnostics computed from a ball table.

Four views of the same data:

* ``exponential_rate``  -- per-radius estimates beta(k)^(1/k) and their
  minimum, which by submultiplicativity of ball sizes is a rigorous
  upper bound for the exponential growth rate;
* ``krause_degree``     -- the polynomial-degree track ln beta(k)/ln k,
  like the rate estimates a decimal at DIGITS = 50 significant digits;
* ``dye_quantity``      -- the approximate-finiteness quantity
  min_k h_{2k}/(h_1+...+h_k) over shell sizes, exact rational; its
  as-given form ``dye_quantity_strict`` builds the product sets with
  the search's own frontier step, :func:`growthlab.cayley.expand`, and
  both forms take the one minimum over their shells;
* ``classify``          -- a conservative verdict (evidence-exponential,
  evidence-polynomial(d), or inconclusive) assembled from the tracks.

The verdict never claims more than finite data can show: exponential
evidence requires the per-radius log increments not to decay (they are
flat for genuinely exponential growth and halve under radius doubling
for polynomial growth), and polynomial evidence requires the degree
track to hug one integer over the last third of the radii.  Short
tables of slowly converging groups (the Heisenberg group at radius 8,
say) land in ``inconclusive``.  The thresholds are exact rationals and
every branch of the verdict is an integer inequality on the ball sizes,
so no rounding can tip it: the decimal tracks are shown, never used.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

from .cayley import BallTable, expand
from .config import (DEFAULT_ELEMENT_BUDGET, DIGITS, DYE_AS_GIVEN_CONVENTION,
                     DYE_IDENTITY_CONVENTION)
from .errors import ArgumentError, BudgetExceededError, Record
from .groups import MarkedGroup

TAU_EXP = Fraction(1, 10)
TAU_DEG = Fraction(3, 10)
RHO_EXP = Fraction(4, 5)


def _ln(x: int) -> Decimal:
    return Decimal(x).ln()


class RateEstimates(Record):
    """beta(k)^(1/k) for k = 1..radius_max plus the running minimum;
    the estimates are Decimals, index 0 holding k=1."""

    __slots__ = ("estimates", "minimum", "argmin")

    def estimate(self, k: int) -> Decimal:
        return self.estimates[k - 1]


class DegreeTrack(Record):
    """ln beta(k)/ln k for k = 2..radius_max, as Decimals with index 0
    holding k=2."""

    __slots__ = ("values", "terminal")


class DyeResult(Record):
    __slots__ = ("value", "argmin", "K", "convention")


def _track(f, ks) -> list:
    """f(k) for each k in ks, evaluated at DIGITS + 5 significant digits
    and rounded to DIGITS."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 5
        vals = [f(k) for k in ks]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return [+v for v in vals]


def exponential_rate(table: BallTable) -> RateEstimates:
    """Per-radius estimates of the exponential growth rate.

    The minimum over the computed radii is a true upper bound for
    omega = lim sigma(k)^(1/k) because ball sizes are submultiplicative.
    """
    if table.radius_max < 2:
        raise ArgumentError("need radius_max >= 2")
    beta = table.ball_sizes
    ests = _track(lambda k: (_ln(beta[k]) / k).exp(),
                  range(1, table.radius_max + 1))
    best = min(range(len(ests)), key=lambda i: ests[i])
    return RateEstimates(tuple(ests), ests[best], best + 1)


def krause_degree(table: BallTable) -> DegreeTrack:
    """Polynomial-degree track ln beta(k)/ln k; the terminal entry is the
    estimate at the largest radius.  No convergence claim is attached."""
    if table.radius_max < 4:
        raise ArgumentError("need radius_max >= 4")
    beta = table.ball_sizes
    vals = _track(lambda k: _ln(beta[k]) / _ln(k),
                  range(2, table.radius_max + 1))
    return DegreeTrack(tuple(vals), vals[-1])


def _dye_minimum(h, K: int, convention: str) -> DyeResult:
    """min over 1 <= k <= K of h_{2k}/(h_1 + ... + h_k), exact, for the
    shell sizes h = [h_1, ..., h_{2K}]; the first minimum wins a tie."""
    sums = list(accumulate(h[:K]))
    ratios = [Fraction(h[2 * k + 1], sums[k]) for k in range(K)]
    best = min(range(K), key=ratios.__getitem__)
    return DyeResult(ratios[best], best + 1, K, convention)


def dye_quantity(table: BallTable, K: int) -> DyeResult:
    """min over 1 <= k <= K of h_{2k}/(h_1 + ... + h_k), exact.

    Shells follow the identity-in-F convention: F is the effective
    generating set together with the identity, so F^k is the k-ball,
    h_1 = beta(1) and h_k = sigma(k) for k >= 2.  The partial sums then
    telescope to beta(k).
    """
    if K < 1:
        raise ArgumentError("K must be at least 1")
    if table.radius_max < 2 * K:
        raise ArgumentError(
            f"need radius_max >= {2 * K} for K={K}, table has {table.radius_max}")
    h = [table.ball_sizes[1], *table.sphere_sizes[2:2 * K + 1]]
    return _dye_minimum(h, K, DYE_IDENTITY_CONVENTION)


def dye_quantity_strict(m: MarkedGroup, K: int,
                        element_budget: int = DEFAULT_ELEMENT_BUDGET) -> DyeResult:
    """Dye quantity with F taken exactly as the effective generating set,
    identity not added.  F^k is then the set of products of exactly k
    factors, which need not be nested, so the shells are computed by
    honest set products instead of a ball table.  Each product set
    F^j = F^(j-1) F comes from one :func:`growthlab.cayley.expand` step
    into an empty set, so the element budget counts every product set
    stored."""
    if K < 1:
        raise ArgumentError("K must be at least 1")
    gens = m.effective_generating_set()
    acts = [m.family.right_multiplier(s) for s in gens]
    current = set(gens)  # F^1; generators never contain the identity
    stored = len(current)
    h = [len(current)]  # h_1 = |F|
    for j in range(2, 2 * K + 1):
        nxt = set()
        # no room is left when F alone outgrows the budget
        found = expand(acts, [current] * len(acts), nxt,
                       max(element_budget - stored, 0))
        if found is None:
            raise BudgetExceededError(
                "product-set enumeration exceeded budget "
                f"{element_budget}", last_radius=j - 1)
        stored += len(nxt)
        h.append(len(nxt - current))
        current = nxt
    return _dye_minimum(h, K, DYE_AS_GIVEN_CONVENTION)


class GrowthReport(Record):
    """All growth diagnostics of one ball table plus a verdict; the
    persistence is display only, the verdict compares integers."""

    __slots__ = ("rate", "degree", "dye", "persistence", "verdict",
                 "polynomial_degree")

    def to_json_dict(self) -> dict:
        return {
            "precision_digits": str(DIGITS),
            "rate_upper": {
                "estimates": [str(e) for e in self.rate.estimates],
                "minimum": str(self.rate.minimum),
                "argmin": str(self.rate.argmin),
            },
            "degree_track": {
                "values": [str(v) for v in self.degree.values],
                "terminal": str(self.degree.terminal),
            },
            "dye_quantity": {
                "value": str(self.dye.value),
                "argmin": str(self.dye.argmin),
                "K": str(self.dye.K),
                "convention": self.dye.convention,
            },
            "log_increment_persistence": repr(self.persistence),
            "verdict": self.verdict,
            "polynomial_degree": (None if self.polynomial_degree is None
                                  else str(self.polynomial_degree)),
            "thresholds": {
                name: str(Decimal(t.numerator) / t.denominator)
                for name, t in (("tau_exp", TAU_EXP), ("tau_deg", TAU_DEG),
                                ("rho_exp", RHO_EXP))
            },
        }


def log_ratio_within(x: int, k: int, lo: Fraction, hi: Fraction) -> bool:
    """Whether lo <= ln x / ln k <= hi, for integers x >= 1 and k >= 2,
    decided exactly: with q the common denominator of lo and hi this is
    k^(q lo) <= x^q <= k^(q hi), compared as rationals.  The powers grow
    with q, so the bounds are meant to be fixed thresholds like 3/10."""
    q = math.lcm(lo.denominator, hi.denominator)
    return Fraction(k) ** int(lo * q) <= x ** q <= Fraction(k) ** int(hi * q)


def classify(table: BallTable) -> GrowthReport:
    """Assemble a growth verdict from the ball sizes.

    evidence-exponential requires the Fekete upper bound to stay at or
    above 1 + TAU_EXP AND the terminal log increment of ln beta to
    persist at RHO_EXP of its half-radius value; for polynomial growth
    that ratio collapses to about one half, which keeps Z^n out of this
    branch at any radius.  evidence-polynomial(d) requires the degree
    track over the last third of the radii to stay within TAU_DEG of the
    integer d.  Everything else, in particular short tables whose degree
    track is still drifting, is inconclusive.  Every test is exact over
    the integers; the tracks and the persistence are display only.
    """
    n = table.radius_max
    if n < 6:
        raise ArgumentError("need radius_max >= 6 to classify")
    rate = exponential_rate(table)
    degree = krause_degree(table)
    dye = dye_quantity(table, n // 2)

    beta = table.ball_sizes
    if table.sphere_sizes[n] == 0:
        # the ball has stabilized: the group is finite, growth is bounded
        return GrowthReport(rate, degree, dye, 0.0, "evidence-polynomial(0)",
                            0)

    # no sphere refills after an empty one, so both increments are positive
    h = n // 2
    persistence = ((math.log(beta[n]) - math.log(beta[n - 1]))
                   / (math.log(beta[h]) - math.log(beta[h - 1])))
    # ln(a)/ln(b) >= RHO_EXP = r/s exactly when a^s >= b^r, as b > 1
    if (all(beta[k] >= (1 + TAU_EXP) ** k for k in range(1, n + 1))
            and Fraction(beta[n], beta[n - 1]) ** RHO_EXP.denominator
            >= Fraction(beta[h], beta[h - 1]) ** RHO_EXP.numerator):
        return GrowthReport(rate, degree, dye, persistence,
                            "evidence-exponential", None)

    # d is the integer nearest ln beta(n)/ln n, a tie at d + 1/2 rounding
    # down; a tie fails the window either way because TAU_DEG < 1/2
    d = 0
    while beta[n] ** 2 > n ** (2 * d + 1):
        d += 1
    if all(log_ratio_within(beta[k], k, d - TAU_DEG, d + TAU_DEG)
           for k in range(2 * n // 3, n + 1)):
        return GrowthReport(rate, degree, dye, persistence,
                            f"evidence-polynomial({d})", d)
    return GrowthReport(rate, degree, dye, persistence, "inconclusive", None)
