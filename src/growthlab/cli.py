"""Command-line entry point.

Subcommands: growth, analyze, gauss, ehrhart, theta, catalan, verify.
Every command reads an optional config document (--config) whose values
inline flags override, and emits CSV or JSON to stdout or --output.
Once a command has read its inputs it refuses any key, from the file or
a flag, that it did not read, so every echoed job option was applied.
Outputs embed the tool version and the effective job options; the
timestamp is suppressed with --no-timestamp so outputs can be compared
byte for byte.

Exit codes: 0 success; 2 configuration or argument problems (with a
line/field diagnostic when the problem is in a config file) and output
files that cannot be written; 3 an
enumeration exceeded its element budget (partial results are emitted
when available, flagged as such); 4 a structural invariant or built-in
check failed, including any failing `verify` run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import accumulate

from . import __version__
from .config import (DIGITS, DYE_AS_GIVEN_CONVENTION, DYE_IDENTITY_CONVENTION,
                     build_lattice, build_marked_group, build_polytope,
                     empty_document, get_budget, get_choice, get_int,
                     load_config, refuse_over_budget, require_int)
from .errors import (ArgumentError, BudgetExceededError, CheckFailure,
                     ConfigError, StructuralError)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _merged_document(args, single_keys, multi_keys=()):
    """The config document with the inline flags applied.  The keys name
    every flag of the command that feeds the document, in echo order;
    whether the job reads them is for `refuse_unread` to say."""
    doc = load_config(args.config) if args.config else empty_document()
    single = {key: getattr(args, key.replace("-", "_"))
              for key in single_keys}
    multi = {key: getattr(args, key.replace("-", "_")) for key in multi_keys}
    return doc.override(single, multi)


def _emit(args, command: str, doc, csv_lines, json_result) -> None:
    stamp = None
    if not args.no_timestamp:
        from datetime import datetime, timezone
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.format == "json":
        payload = {
            "tool": {"name": "growthlab", "version": __version__},
            "command": command,
            "job": [{"key": e.key, "value": e.value} for e in doc.entries],
        }
        if stamp is not None:
            payload["timestamp"] = stamp
        payload["result"] = json_result
        text = json.dumps(payload, indent=2) + "\n"
    else:
        head = [f"# tool: growthlab {__version__}", f"# command: {command}"]
        head.extend(f"# option: {e.key} = {e.value}" for e in doc.entries)
        if stamp is not None:
            head.append(f"# timestamp: {stamp}")
        text = "\n".join(head + list(csv_lines)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_bound(doc, key: str, default: int, minimum: int) -> int:
    """An integer bound whose table holds bound + 1 entries, refused
    before anything is allocated when that exceeds the element budget."""
    value = get_int(doc, key, default=default, minimum=minimum)
    refuse_over_budget(doc, key, value + 1,
                       f"a table of {value + 1} entries exceeds")
    return value


# ---------------------------------------------------------------------------
# commands: each imports the kernels it runs, so a process loads no other
# ---------------------------------------------------------------------------

_GROUP_KEYS = ("family", "rank", "degree", "dim", "symmetrize")


def cmd_growth(args) -> int:
    from . import cayley, series
    doc = _merged_document(
        args, _GROUP_KEYS + ("kmax", "budget"), ("generator",))
    m = build_marked_group(doc)
    kmax = get_int(doc, "kmax", default=12, minimum=0)
    budget = get_budget(doc)
    doc.refuse_unread("growth")
    stopped = None
    try:
        table = cayley.enumerate_balls(m, kmax, budget)
    except BudgetExceededError as exc:
        if exc.partial is None:
            raise
        print(f"warning: budget exceeded, emitting radii 0..{exc.last_radius}",
              file=sys.stderr)
        table, stopped = exc.partial, exc
    partial = stopped is not None
    recognized = series.recognize_rational(table.sphere_sizes)
    shown = recognized.display() if recognized is not None else "none"
    csv_lines = [f"# group: {m.describe()}", f"# recognized: {shown}"]
    if partial:
        csv_lines.append("# partial: true")
    csv_lines.extend(table.to_csv_lines())
    json_result = {
        "group": m.describe(),
        "table": table.to_json_dict(),
        "recognized": None if recognized is None else recognized.to_json_dict(),
        "partial": partial,
    }
    _emit(args, "growth", doc, csv_lines, json_result)
    if partial:
        raise stopped
    return 0


def cmd_analyze(args) -> int:
    from . import analysis, cayley
    doc = _merged_document(
        args, _GROUP_KEYS + ("kmax", "budget", "dye-convention"),
        ("generator",))
    m = build_marked_group(doc)
    kmax = get_int(doc, "kmax", default=12, minimum=6)
    convention = get_choice(doc, "dye-convention",
                            {DYE_IDENTITY_CONVENTION, DYE_AS_GIVEN_CONVENTION},
                            default=DYE_IDENTITY_CONVENTION)
    budget = get_budget(doc)
    doc.refuse_unread("analyze")
    report = analysis.classify(cayley.enumerate_balls(m, kmax, budget))
    if convention == DYE_AS_GIVEN_CONVENTION:
        strict = analysis.dye_quantity_strict(m, max(1, kmax // 2),
                                              element_budget=budget)
        report = analysis.GrowthReport(
            report.rate, report.degree, strict, report.persistence,
            report.verdict, report.polynomial_degree)
    rows = []
    _flatten_for_csv("", report.to_json_dict(), rows)
    # the group description holds commas, so it rides in a comment line
    # and the data cells stay comma-free
    csv_lines = [f"# group: {m.describe()}", "key,value"]
    csv_lines.extend(f"{key},{value}" for key, value in rows)
    payload = report.to_json_dict()
    payload["group"] = m.describe()
    _emit(args, "analyze", doc, csv_lines, payload)
    return 0


def _flatten_for_csv(prefix: str, obj, rows) -> None:
    """Nested dicts become dotted keys; lists become space-joined cells
    so the values never carry commas."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            sub = f"{prefix}.{key}" if prefix else key
            _flatten_for_csv(sub, obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, " ".join(str(v) for v in obj)))
    else:
        rows.append((prefix, obj))


def _fit_grid_value(j: int) -> int:
    """round(2^(j/4)), the j-th value of the four-per-octave fit grid, in
    integers so that no j overflows a float: f = floor(2^(j/4)), plus 1
    when 2^(j/4) > f + 1/2, that is when (2f + 1)^4 < 2^(j+4) (never a
    tie, as the left side is odd)."""
    f = math.isqrt(math.isqrt(2 ** j))
    return f + ((2 * f + 1) ** 4 < 2 ** (j + 4))


def cmd_gauss(args) -> int:
    from . import gauss
    doc = _merged_document(
        args, ("tmax", "kmax", "dyadic-to", "budget"))
    modes = [m for m, on in (("table", args.table), ("check-bound", args.check_bound),
                             ("fit", args.fit)) if on]
    if len(modes) != 1:
        raise ArgumentError(
            "choose exactly one of --table, --check-bound, --fit")
    mode = modes[0]

    if mode == "table":
        kmax = _table_bound(doc, "kmax", default=100, minimum=0)
        doc.refuse_unread("gauss")
        r2s = gauss.r2_table(kmax)
        cumulative = list(accumulate(r2s))
        csv_lines = ["k,r2,R2"]
        csv_lines.extend(f"{k},{r2s[k]},{cumulative[k]}"
                         for k in range(kmax + 1))
        json_result = {
            "kmax": kmax,
            "r2": [str(v) for v in r2s],
            "R2": [str(v) for v in cumulative],
        }
        _emit(args, "gauss", doc, csv_lines, json_result)
        return 0

    if mode == "check-bound":
        tmax = _table_bound(doc, "tmax", default=10000, minimum=1)
        dyadic = gauss.dyadic_extension(tmax,
                                        get_int(doc, "dyadic-to", default=0,
                                                minimum=0))
        # a t beyond the sieve is counted alone, one disc row at a time
        rows = sum(len(gauss.disc_rows(t)) for t in dyadic)
        refuse_over_budget(doc, "dyadic-to", rows,
                           f"the {rows} disc rows of {len(dyadic)} dyadic "
                           "values exceed")
        doc.refuse_unread("gauss")
        ts = list(range(0, tmax + 1)) + dyadic
        results = gauss.gauss_bound_check(ts)
        worst = gauss.worst_slack(results)
        csv_lines = ["checked,digits,worst_slack",
                     f"{len(results)},{DIGITS},{worst:E}"]
        json_result = {
            "checked": len(results),
            "digits": DIGITS,
            "margin": str(gauss.MARGIN),
            "worst_slack": f"{worst:E}",
            "holds": True,
        }
        _emit(args, "gauss", doc, csv_lines, json_result)
        return 0

    # error-exponent fit on a four-per-octave grid up to tmax; each t is
    # counted alone, one disc row at a time, and the grid grows only
    # while its rows fit the budget
    tmax = get_int(doc, "tmax", default=10000, minimum=1)
    budget = get_budget(doc)
    grid, rows, j = [], 0, 0
    while rows <= budget:
        t = _fit_grid_value(j)
        if t > tmax:
            break
        if t >= 16:
            grid.append(t)
            rows += len(gauss.disc_rows(t))
        j += 1
    refuse_over_budget(doc, "tmax", rows,
                       f"the {rows} disc rows of {len(grid)} grid values "
                       "exceed")
    doc.refuse_unread("gauss")
    fit = gauss.error_exponent_fit(grid)
    csv_lines = ["alpha,residual,windows",
                 f"{fit.alpha:.4f},{fit.residual:.4f},{len(fit.windows)}"]
    json_result = {
        "alpha": round(fit.alpha, 6),
        "residual": round(fit.residual, 6),
        "windows": [[x, y] for x, y in fit.windows],
        "grid_size": len(grid),
    }
    _emit(args, "gauss", doc, csv_lines, json_result)
    return 0


def cmd_ehrhart(args) -> int:
    from . import ehrhart
    doc = _merged_document(
        args, ("polytope", "n", "kmax", "ambient-dim", "budget"),
        ("vertex", "basis"))
    kind = get_choice(doc, "polytope", {"cross", "root", "custom"},
                      default="custom")
    if kind == "custom":
        P = build_polytope(doc)
        vertices, dim = len(P.vertices), P.affine_dim()
    else:  # a stock polytope's shape is known before it is built
        n = dim = require_int(doc, "n", minimum=1)
        vertices, ambient = ehrhart.stock_shape(kind, n)
    kmax = get_int(doc, "kmax", default=6, minimum=0)
    # the count tries C(vertices, e) facet subsets, walks the lines of
    # dilates 1..min(kmax, e), then takes e + 1 steps of the series'
    # recurrence for each later dilate
    if kmax:
        subsets = math.comb(vertices, dim)
        refuse_over_budget(doc, "vertex" if kind == "custom" else "n",
                           subsets, f"the {subsets} facet subsets of "
                           f"{vertices} vertices exceed")
    if kind != "custom":
        entries = vertices * ambient
        refuse_over_budget(doc, "n", entries, f"the {entries} entries of "
                           f"the {vertices} stock vertices exceed")
        P = getattr(ehrhart, f"{kind}_polytope")(n)
    counted = min(kmax, dim)
    lines = sum(math.prod(map(len, ehrhart.box(P, k)))
                for k in range(1, counted + 1))
    steps = (dim + 1) * (kmax - counted)
    refuse_over_budget(doc, "kmax", lines + steps,
                       f"the {lines} lines of dilates 1..{counted} and "
                       f"{steps} recurrence steps to {kmax} exceed")
    doc.refuse_unread("ehrhart")
    counts = ehrhart.ehrhart_sequence(P, kmax)
    # a custom polytope reads its series off the counts once they reach
    # E(e); a stock one checks its closed form against them
    if kind == "custom":
        closed = (ehrhart.ehrhart_series(counts[:dim + 1]) if kmax >= dim
                  else None)
    else:
        closed = getattr(ehrhart, f"{kind}_polytope_series")(n)
        if closed.expand(kmax) != counts:
            raise CheckFailure("closed form disagrees with lattice counts",
                               context=kind)
    shown = closed.display() if closed is not None else "none"
    csv_lines = [f"# polytope: {kind}, ambient dim {P.ambient_dim},"
                 f" {len(P.vertices)} vertices",
                 f"# series: {shown}", "k,count"]
    csv_lines.extend(f"{k},{c}" for k, c in enumerate(counts))
    json_result = {
        "polytope": kind,
        "ambient_dim": P.ambient_dim,
        "vertices": len(P.vertices),
        "counts": [str(c) for c in counts],
        "series": None if closed is None else closed.to_json_dict(),
    }
    _emit(args, "ehrhart", doc, csv_lines, json_result)
    return 0


def cmd_theta(args) -> int:
    from . import theta
    doc = _merged_document(args, ("rank", "rmax", "budget"), ("gram",))
    lat = build_lattice(doc)
    rmax = _table_bound(doc, "rmax", default=20, minimum=0)
    doc.refuse_unread("theta")
    prefix = theta.theta_coefficients(lat, rmax)
    csv_lines = [f"# lattice rank: {lat.rank}"]
    csv_lines.extend(prefix.to_csv_lines())
    json_result = prefix.to_json_dict()
    json_result["rank"] = lat.rank
    json_result["gram"] = [list(row) for row in lat.gram]
    _emit(args, "theta", doc, csv_lines, json_result)
    return 0


def cmd_catalan(args) -> int:
    from . import series
    doc = _merged_document(args, ("kmax", "budget"))
    kmax = get_int(doc, "kmax", default=20, minimum=0)
    # c_k < 4^k, so c_0..c_kmax take fewer than kmax*(kmax+1) bits
    bits = kmax * (kmax + 1)
    refuse_over_budget(doc, "kmax", bits,
                       f"an output bound of {bits} bits exceeds")
    doc.refuse_unread("catalan")
    coeffs = series.catalan(kmax)
    csv_lines = ["k,catalan"]
    csv_lines.extend(f"{k},{c}" for k, c in enumerate(coeffs))
    json_result = {"kmax": kmax, "coefficients": [str(c) for c in coeffs]}
    _emit(args, "catalan", doc, csv_lines, json_result)
    return 0


def cmd_verify(args) -> int:
    from . import acceptance
    doc = _merged_document(args, ("budget",))
    doc.refuse_unread("verify")  # verify reads no config key
    selected = None
    if args.only is not None:
        selected = []
        for chunk in args.only.split(","):
            chunk = chunk.strip()
            try:
                ident = int(chunk)
            except ValueError:
                raise ArgumentError(f"--only takes check numbers, got {chunk!r}")
            if ident not in acceptance.CHECK_IDS:
                raise ArgumentError(f"no acceptance check numbered {ident}")
            selected.append(ident)
    # progress goes live to stderr; the result is emitted like any other
    results = acceptance.run_all(selected, stream=sys.stderr)
    json_result = [{
        "id": r.ident, "slug": r.slug, "passed": r.passed,
        "detail": r.detail, "elapsed": round(r.elapsed, 3),
    } for r in results]
    _emit(args, "verify", doc, [r.line() for r in results], json_result)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="Exact growth series, lattice point counts and "
                    "growth diagnostics.")
    parser.add_argument("--version", action="version",
                        version=f"growthlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config document (key = value lines)")
    common.add_argument("--output", help="write the result to this path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-stable output")
    common.add_argument("--budget", type=int,
                        help="element budget for enumerations and "
                             "table lengths")

    group_parent = argparse.ArgumentParser(add_help=False)
    group_parent.add_argument("--family",
                              help="free-abelian, free, heisenberg, "
                                   "symmetric, matrix or permutation")
    group_parent.add_argument("--rank", type=int)
    group_parent.add_argument("--degree", type=int)
    group_parent.add_argument("--dim", type=int)
    group_parent.add_argument("--generator", action="append",
                              help="repeatable; integers, matrix rows "
                                   "separated by ';'")
    group_parent.add_argument("--symmetrize",
                              action=argparse.BooleanOptionalAction,
                              default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", parents=[common, group_parent],
                       help="sphere/ball table of a marked group, with "
                            "rational-series recognition")
    p.add_argument("--kmax", type=int)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("analyze", parents=[common, group_parent],
                       help="growth diagnostics: rate, degree, verdict")
    p.add_argument("--kmax", type=int)
    p.add_argument("--dye-convention",
                   help=f"{DYE_IDENTITY_CONVENTION} (default) or "
                        f"{DYE_AS_GIVEN_CONVENTION}")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gauss", parents=[common],
                       help="circle counts, error bound checks, exponent fit")
    p.add_argument("--table", action="store_true",
                   help="emit the r2/R2 table up to --kmax")
    p.add_argument("--check-bound", action="store_true",
                   help="verify the error bound for all t <= --tmax")
    p.add_argument("--fit", action="store_true",
                   help="fit the error exponent on a grid up to --tmax")
    p.add_argument("--kmax", type=int)
    p.add_argument("--tmax", type=int)
    p.add_argument("--dyadic-to", type=int,
                   help="extend --check-bound with powers of two up to here")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("ehrhart", parents=[common],
                       help="lattice point counts of dilated polytopes")
    p.add_argument("--polytope", help="cross, root or custom (default)")
    p.add_argument("--n", type=int, help="index of the stock family")
    p.add_argument("--kmax", type=int)
    p.add_argument("--ambient-dim", type=int)
    p.add_argument("--vertex", action="append")
    p.add_argument("--basis", action="append")
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("theta", parents=[common],
                       help="theta coefficients of an integral lattice")
    p.add_argument("--rank", type=int,
                   help="identity gram of this rank (or give --gram rows)")
    p.add_argument("--gram", action="append",
                   help="repeatable gram matrix row")
    p.add_argument("--rmax", type=int)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("catalan", parents=[common],
                       help="Catalan numbers c_0..c_kmax")
    p.add_argument("--kmax", type=int)
    p.set_defaults(func=cmd_catalan)

    p = sub.add_parser("verify", parents=[common],
                       help="run the built-in acceptance checks")
    p.add_argument("--only", help="comma-separated check numbers")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc} (complete through radius "
              f"{exc.last_radius})", file=sys.stderr)
        return 3
    except (StructuralError, CheckFailure) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
