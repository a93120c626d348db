"""Growth-classification diagnostics computed from a ball table.

Four views of the same data:

* ``exponential_rate``  -- per-radius estimates beta(k)^(1/k) and their
  minimum, which by submultiplicativity of ball sizes is a rigorous
  upper bound for the exponential growth rate;
* ``krause_degree``     -- the polynomial-degree track ln beta(k)/ln k;
* ``dye_quantity``      -- the approximate-finiteness quantity
  min_k h_{2k}/(h_1+...+h_k) over shell sizes, exact rational;
* ``classify``          -- a conservative verdict (evidence-exponential,
  evidence-polynomial(d), or inconclusive) assembled from the tracks.

The verdict never claims more than finite data can show: exponential
evidence requires the per-radius log increments not to decay (they are
flat for genuinely exponential growth and halve under radius doubling
for polynomial growth), and polynomial evidence requires the degree
track to hug one integer over the last third of the radii.  Short
tables of slowly converging groups (the Heisenberg group at radius 8,
say) land in ``inconclusive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .cayley import BallTable, enumerate_balls
from .errors import ArgumentError, BudgetExceededError
from .groups import MarkedGroup

DEFAULT_PRECISION = 50
TAU_EXP = 0.1
TAU_DEG = 0.3
RHO_EXP = 0.8

DYE_IDENTITY_CONVENTION = "identity-in-F"
DYE_AS_GIVEN_CONVENTION = "as-given"


def _ln(x: int) -> Decimal:
    return Decimal(x).ln()


@dataclass(frozen=True)
class RateEstimates:
    """beta(k)^(1/k) for k = 1..radius_max plus the running minimum."""

    estimates: tuple  # Decimal, index 0 holds k=1
    minimum: Decimal
    argmin: int
    digits: int

    def estimate(self, k: int) -> Decimal:
        return self.estimates[k - 1]


@dataclass(frozen=True)
class DegreeTrack:
    """ln beta(k)/ln k for k = 2..radius_max."""

    values: tuple  # Decimal, index 0 holds k=2
    terminal: Decimal
    digits: int

    def value(self, k: int) -> Decimal:
        return self.values[k - 2]


@dataclass(frozen=True)
class DyeResult:
    value: Fraction
    argmin: int
    K: int
    convention: str


def exponential_rate(table: BallTable,
                     digits: int = DEFAULT_PRECISION) -> RateEstimates:
    """Per-radius estimates of the exponential growth rate.

    The minimum over the computed radii is a true upper bound for
    omega = lim sigma(k)^(1/k) because ball sizes are submultiplicative.
    """
    if table.radius_max < 2:
        raise ArgumentError("need radius_max >= 2")
    with localcontext() as ctx:
        ctx.prec = digits + 5
        ests = []
        for k in range(1, table.radius_max + 1):
            ests.append((_ln(table.ball_sizes[k]) / k).exp())
    with localcontext() as ctx:
        ctx.prec = digits
        ests = [+e for e in ests]
    best = min(range(len(ests)), key=lambda i: ests[i])
    return RateEstimates(tuple(ests), ests[best], best + 1, digits)


def krause_degree(table: BallTable,
                  digits: int = DEFAULT_PRECISION) -> DegreeTrack:
    """Polynomial-degree track ln beta(k)/ln k; the terminal entry is the
    estimate at the largest radius.  No convergence claim is attached."""
    if table.radius_max < 4:
        raise ArgumentError("need radius_max >= 4")
    with localcontext() as ctx:
        ctx.prec = digits + 5
        vals = []
        for k in range(2, table.radius_max + 1):
            vals.append(_ln(table.ball_sizes[k]) / _ln(k))
    with localcontext() as ctx:
        ctx.prec = digits
        vals = [+v for v in vals]
    return DegreeTrack(tuple(vals), vals[-1], digits)


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
    best: Fraction | None = None
    best_k = 0
    for k in range(1, K + 1):
        ratio = Fraction(table.sphere_sizes[2 * k], table.ball_sizes[k])
        if best is None or ratio < best:
            best, best_k = ratio, k
    return DyeResult(best, best_k, K, DYE_IDENTITY_CONVENTION)


def dye_quantity_strict(m: MarkedGroup, K: int,
                        element_budget: int = 1_000_000) -> DyeResult:
    """Dye quantity with F taken exactly as the effective generating set,
    identity not added.  F^k is then the set of products of exactly k
    factors, which need not be nested, so the shells are computed by
    honest set products instead of a ball table."""
    if K < 1:
        raise ArgumentError("K must be at least 1")
    fam = m.family
    gens = m.effective_generating_set()
    key = fam.canonical_key
    current = {key(g): g for g in gens}  # F^1; generators never contain id
    stored = len(current)
    h = [len(current)]  # h_1 = |F|
    for j in range(2, 2 * K + 1):
        nxt = {}
        for g in current.values():
            for s in gens:
                p = fam.multiply(g, s)
                kp = key(p)
                if kp not in nxt:
                    stored += 1
                    if stored > element_budget:
                        raise BudgetExceededError(
                            "product-set enumeration exceeded budget "
                            f"{element_budget}", last_radius=j - 1)
                    nxt[kp] = p
        h.append(len(set(nxt) - set(current)))
        current = nxt
    best: Fraction | None = None
    best_k = 0
    denom = 0
    for k in range(1, K + 1):
        denom += h[k - 1]
        ratio = Fraction(h[2 * k - 1], denom)
        if best is None or ratio < best:
            best, best_k = ratio, k
    return DyeResult(best, best_k, K, DYE_AS_GIVEN_CONVENTION)


@dataclass(frozen=True)
class GrowthReport:
    """All growth diagnostics of one ball table plus a verdict."""

    rate: RateEstimates
    degree: DegreeTrack
    dye: DyeResult
    persistence: float
    verdict: str
    polynomial_degree: int | None
    tau_exp: float
    tau_deg: float
    rho_exp: float
    digits: int

    def to_json_dict(self) -> dict:
        return {
            "precision_digits": str(self.digits),
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
                "tau_exp": repr(self.tau_exp),
                "tau_deg": repr(self.tau_deg),
                "rho_exp": repr(self.rho_exp),
            },
        }


def classify(table: BallTable, tau_exp: float = TAU_EXP,
             tau_deg: float = TAU_DEG, rho_exp: float = RHO_EXP,
             digits: int = DEFAULT_PRECISION) -> GrowthReport:
    """Assemble a growth verdict from the diagnostic tracks.

    evidence-exponential requires the Fekete upper bound to stay above
    1 + tau_exp AND the terminal log increment of ln beta to persist at
    rho_exp of its half-radius value; for polynomial growth that ratio
    collapses to about one half, which keeps Z^n out of this branch at
    any radius.  evidence-polynomial(d) requires the degree track over
    the last third of the radii to stay within tau_deg of the integer d.
    Everything else, in particular short tables whose degree track is
    still drifting, is inconclusive.
    """
    n = table.radius_max
    if n < 6:
        raise ArgumentError("need radius_max >= 6 to classify")
    rate = exponential_rate(table, digits)
    degree = krause_degree(table, digits)
    dye = dye_quantity(table, n // 2)

    beta = table.ball_sizes
    if table.sphere_sizes[n] == 0:
        # the ball has stabilized: the group is finite, growth is bounded
        return GrowthReport(rate, degree, dye, 0.0, "evidence-polynomial(0)",
                            0, tau_exp, tau_deg, rho_exp, digits)

    half = max(2, n // 2)
    g_term = math.log(beta[n]) - math.log(beta[n - 1])
    g_half = math.log(beta[half]) - math.log(beta[half - 1])
    persistence = g_term / g_half

    if float(rate.minimum) >= 1.0 + tau_exp and persistence >= rho_exp:
        return GrowthReport(rate, degree, dye, persistence,
                            "evidence-exponential", None,
                            tau_exp, tau_deg, rho_exp, digits)

    window_start = max(2, (2 * n) // 3)
    window = [float(degree.value(k)) for k in range(window_start, n + 1)]
    d = round(window[-1])
    if d >= 0 and all(abs(v - d) <= tau_deg for v in window):
        return GrowthReport(rate, degree, dye, persistence,
                            f"evidence-polynomial({d})", d,
                            tau_exp, tau_deg, rho_exp, digits)
    return GrowthReport(rate, degree, dye, persistence, "inconclusive",
                        None, tau_exp, tau_deg, rho_exp, digits)


def analyze_group(m: MarkedGroup, kmax: int, digits: int = DEFAULT_PRECISION,
                  element_budget: int = 10_000_000) -> GrowthReport:
    """BFS enumeration followed by classification, in one call."""
    table = enumerate_balls(m, kmax, element_budget)
    return classify(table, digits=digits)
