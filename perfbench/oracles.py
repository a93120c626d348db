"""Expected outputs of every benchmark job, computed without growthlab.

Each oracle is a closed form, a plain integer expansion or a value
pinned from a reviewed run; none of them imports or mirrors the code
under test.  ``check_cli`` compares one CLI JSON document against them
and returns a list of mismatches (empty when the job is correct).
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

# Sphere sizes of the discrete Heisenberg group H_3(Z) for the generators
# x = I + E12, y = I + E23, radii 0..20.  Pinned from growthlab and
# confirmed by a separate BFS on triples (a, b, c) with the product
# (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b').
HEISENBERG_SIGMA = (1, 4, 12, 36, 82, 164, 294, 476, 724, 1052, 1464, 1972,
                    2590, 3324, 4186, 5188, 6336, 7644, 9124, 10780, 12626)

# `analyze` output pinned by kmax.  The verdicts must not change when the
# classifier becomes float-free.
HEISENBERG_ANALYZE = {
    6: {"verdict": "inconclusive",
        "minimum": "2.8985165351258251419611914895115228820307319046022"},
    20: {"verdict": "inconclusive",
         "minimum": "1.7444183978309935699211585489500769596717752312799"},
}
ANALYZE_DIGITS = 50
ANALYZE_THRESHOLDS = {"tau_exp": "0.1", "tau_deg": "0.3", "rho_exp": "0.8"}

GAUSS_DIGITS = 50
GUARD = 4  # the CLI's default guard band for series recognition


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def free_sigma(rank: int, kmax: int) -> list:
    """Free group on a free basis: sigma(k) = 2r (2r-1)^(k-1)."""
    return [1] + [2 * rank * (2 * rank - 1) ** (k - 1)
                  for k in range(1, kmax + 1)]


def free_abelian_sigma(rank: int, kmax: int) -> list:
    """Z^n on a signed basis: sigma(k) = sum_i 2^i C(n,i) C(k-1,i-1)."""
    return [1] + [sum(2 ** i * comb(rank, i) * comb(k - 1, i - 1)
                      for i in range(1, rank + 1))
                  for k in range(1, kmax + 1)]


def heisenberg_sigma(kmax: int) -> list:
    return list(HEISENBERG_SIGMA[:kmax + 1])


def cross_counts(n: int, kmax: int) -> list:
    """Ehrhart polynomial of the n-cross-polytope: sum_i 2^i C(n,i) C(k,i)."""
    return [sum(2 ** i * comb(n, i) * comb(k, i) for i in range(n + 1))
            for k in range(kmax + 1)]


def root_counts(n: int, kmax: int) -> list:
    """Coefficients of sum_j C(n,j)^2 z^j / (1-z)^(n+1), expanded in
    integers: [z^k] = sum_j C(n,j)^2 C(k-j+n, n)."""
    return [sum(comb(n, j) ** 2 * comb(k - j + n, n)
                for j in range(min(n, k) + 1))
            for k in range(kmax + 1)]


def theta_zn(n: int, rmax: int) -> list:
    """(1 + 2q + 2q^4 + 2q^9 + ...)^n truncated at q^rmax, by int products."""
    base = [0] * (rmax + 1)
    i = 0
    while i * i <= rmax:
        base[i * i] = 1 if i == 0 else 2
        i += 1
    out = [1] + [0] * rmax
    for _ in range(n):
        out = [sum(out[a] * base[m - a] for a in range(m + 1))
               for m in range(rmax + 1)]
    return out


def partial_sums(seq) -> list:
    out, acc = [], 0
    for x in seq:
        acc += x
        out.append(acc)
    return out


def expand_series(num, den, kmax: int) -> list:
    """Taylor coefficients 0..kmax of num/den, exact."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    if not den or den[0] == 0:
        raise ValueError("denominator has no constant term")
    out = []
    for k in range(kmax + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def gauss_points(tmax: int, dyadic_to: int | None) -> list:
    """The radii the CLI's --check-bound visits: 0..tmax, then the powers
    of two above tmax up to dyadic_to."""
    ts = list(range(tmax + 1))
    if dyadic_to is not None:
        j = 1
        while 2 ** j <= dyadic_to:
            if 2 ** j > tmax:
                ts.append(2 ** j)
            j += 1
    return ts


def sequence_for(job) -> list:
    """The exact sequence a job must print: sphere sizes, lattice counts
    or theta coefficients; for the Gauss check, the radii it visits."""
    d = job.data
    if job.kind == "free":
        return free_sigma(d["rank"], job.size)
    if job.kind == "free-abelian":
        return free_abelian_sigma(d["rank"], job.size)
    if job.kind == "heisenberg":
        return heisenberg_sigma(job.size)
    if job.kind == "cross":
        return cross_counts(d["n"], job.size)
    if job.kind == "root":
        return root_counts(d["n"], job.size)
    if job.kind == "theta":
        return theta_zn(len(d["gram"]), job.size)
    if job.kind == "gauss":
        return gauss_points(job.size, d.get("dyadic_to"))
    raise ValueError(f"no oracle for job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# the Heisenberg `analyze` report
# ---------------------------------------------------------------------------

def _close(a: Decimal, b: Decimal, rel: Decimal) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_analyze(result: dict, kmax: int) -> list:
    """Every number of an `analyze` report on H_3(Z), recomputed from the
    pinned sphere sizes."""
    bad = []
    sigma = heisenberg_sigma(kmax)
    beta = partial_sums(sigma)
    rate = result["rate_upper"]
    ests = [Decimal(e) for e in rate["estimates"]]
    if len(ests) != kmax:
        return [f"rate_upper has {len(ests)} estimates, expected {kmax}"]
    with localcontext() as ctx:
        ctx.prec = ANALYZE_DIGITS + 20
        tol = Decimal(10) ** -(ANALYZE_DIGITS - 8)
        for k, e in enumerate(ests, start=1):
            if not _close(e ** k, Decimal(beta[k]), tol):
                bad.append(f"rate estimate at k={k} is not beta(k)^(1/k)")
        degs = [Decimal(v) for v in result["degree_track"]["values"]]
        if len(degs) != kmax - 1:
            bad.append(f"degree track has {len(degs)} values")
        for k, v in enumerate(degs, start=2):
            if not _close(v * Decimal(k).ln(), Decimal(beta[k]).ln(), tol):
                bad.append(f"degree track at k={k} is not ln beta/ln k")
    best = min(range(kmax), key=lambda i: ests[i])
    if Decimal(rate["minimum"]) != ests[best] or int(rate["argmin"]) != best + 1:
        bad.append("rate_upper minimum/argmin disagree with the estimates")
    pinned = HEISENBERG_ANALYZE.get(kmax)
    if pinned is not None:
        if rate["minimum"] != pinned["minimum"]:
            bad.append(f"rate_upper.minimum {rate['minimum']} != pinned")
        if result["verdict"] != pinned["verdict"]:
            bad.append(f"verdict {result['verdict']!r} != {pinned['verdict']!r}")
        if result["polynomial_degree"] is not None:
            bad.append("polynomial_degree set on an inconclusive verdict")
    if degs and Decimal(result["degree_track"]["terminal"]) != degs[-1]:
        bad.append("degree_track.terminal is not the last value")

    K = kmax // 2
    ratios = [Fraction(sigma[2 * k], beta[k]) for k in range(1, K + 1)]
    dye_min = min(ratios)
    dye = result["dye_quantity"]
    if (Fraction(dye["value"]) != dye_min
            or int(dye["argmin"]) != ratios.index(dye_min) + 1
            or int(dye["K"]) != K or dye["convention"] != "identity-in-F"):
        bad.append(f"dye quantity {dye} != {dye_min} at K={K}")

    half = max(2, kmax // 2)
    persistence = ((math.log(beta[kmax]) - math.log(beta[kmax - 1]))
                   / (math.log(beta[half]) - math.log(beta[half - 1])))
    got = float(result["log_increment_persistence"])
    if abs(got - persistence) > 1e-9 * abs(persistence):
        bad.append(f"persistence {got} != {persistence}")
    if int(result["precision_digits"]) != ANALYZE_DIGITS:
        bad.append("precision_digits changed")
    for key, value in ANALYZE_THRESHOLDS.items():
        if Decimal(result["thresholds"][key]) != Decimal(value):
            bad.append(f"threshold {key} changed")
    return bad


# ---------------------------------------------------------------------------
# whole CLI documents
# ---------------------------------------------------------------------------

def series_required(job) -> bool:
    """Whether the growth series must be recognized: the fit window (all
    terms but the guard band) holds twice the order of the known rational
    series plus two, so the recurrence is overdetermined."""
    order = 1 if job.kind == "free" else job.data["rank"]
    return job.size + 1 - GUARD >= 2 * order + 2


def _ints(values) -> list:
    return [int(v) for v in values]


def _check_series(series, want: list, kmax: int, required: bool) -> list:
    if series is None:
        return ["no series recognized"] if required else []
    got = expand_series(_ints(series["numerator"]),
                        _ints(series["denominator"]), kmax)
    return [] if got == want else ["recognized series does not expand to the oracle"]


def check_cli(job, payload: dict) -> list:
    """Mismatches between one CLI JSON document and the oracles."""
    bad = []
    if payload.get("command") != job.command:
        bad.append(f"command {payload.get('command')!r} != {job.command!r}")
    echoed = [(e["key"], e["value"]) for e in payload.get("job", ())]
    if echoed != list(job.entries()):
        bad.append("the echoed job options differ from the config document")
    result = payload["result"]
    want = sequence_for(job)
    kind = job.kind

    if kind in ("free", "free-abelian"):
        table = result["table"]
        if int(table["radius_max"]) != job.size:
            bad.append("radius_max differs from kmax")
        if _ints(table["sphere_sizes"]) != want:
            bad.append("sphere sizes differ from the closed form")
        if _ints(table["ball_sizes"]) != partial_sums(want):
            bad.append("ball sizes differ from the closed form")
        if result["partial"] is not False:
            bad.append("table flagged partial")
        bad += _check_series(result["recognized"], want, job.size,
                             required=series_required(job))
    elif kind == "heisenberg":
        bad += check_analyze(result, job.size)
    elif kind in ("cross", "root"):
        if _ints(result["counts"]) != want:
            bad.append("lattice counts differ from the closed form")
        if (result["polytope"] != "custom"
                or int(result["ambient_dim"]) != len(job.data["vertices"][0])
                or int(result["vertices"]) != len(job.data["vertices"])):
            bad.append("polytope shape fields changed")
        bad += _check_series(result["series"], want, job.size, required=False)
    elif kind == "theta":
        if _ints(result["counts"]) != want or int(result["rmax"]) != job.size:
            bad.append("theta coefficients differ from theta3^n")
        gram = job.data["gram"]
        if int(result["rank"]) != len(gram) or [_ints(r) for r in result["gram"]] != gram:
            bad.append("gram matrix echo changed")
    elif kind == "gauss":
        if result["holds"] is not True or int(result["checked"]) != len(want):
            bad.append(f"gauss bound check: holds={result['holds']} "
                       f"checked={result['checked']}, expected {len(want)}")
        if int(result["digits"]) != GAUSS_DIGITS:
            bad.append("gauss digits changed")
        if not Decimal(result["worst_slack"]) > Decimal(result["margin"]) > 0:
            bad.append("gauss worst slack is not above the margin")
    else:
        bad.append(f"no oracle for job kind {kind!r}")
    return bad


def check_traced(job, out: dict) -> list:
    """Mismatches between the numbers a traced in-process job returned and
    the oracles.  ``out`` holds plain lists and strings."""
    want = sequence_for(job)
    if job.kind == "gauss":
        got = out["checked"]
        return [] if got == len(want) else [f"checked {got} != {len(want)}"]
    bad = [] if out["sequence"] == want else ["sequence differs from the oracle"]
    if job.kind in ("free", "free-abelian"):
        series = out.get("series")
        if series is None and series_required(job):
            bad.append("no series recognized")
        elif series is not None and expand_series(*series, job.size) != want:
            bad.append("recognized series does not expand to the oracle")
    if job.kind == "heisenberg":
        pinned = HEISENBERG_ANALYZE.get(job.size)
        if pinned and (out["verdict"], out["minimum"]) != (pinned["verdict"],
                                                           pinned["minimum"]):
            bad.append(f"analysis {out['verdict']} {out['minimum']} != pinned")
    return bad
