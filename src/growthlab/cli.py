"""Command-line entry point.

Subcommands: growth, analyze, gauss, ehrhart, theta, catalan, verify.
Every command reads an optional config document (--config) whose values
inline flags override, and emits CSV or JSON to stdout or --output.
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
import dataclasses
import json
import sys
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation

from . import __version__, acceptance, analysis, cayley, ehrhart, gauss, series, theta
from .config import (build_lattice, build_marked_group, build_polytope,
                     empty_document, get_choice, get_int, load_config)
from .errors import (ArgumentError, BudgetExceededError, CheckFailure,
                     ConfigError, StructuralError)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _merged_document(args, single_keys, multi_keys=()):
    doc = load_config(args.config) if args.config else empty_document()
    single = {}
    for key in single_keys:
        attr = key.replace("-", "_")
        value = getattr(args, attr, None)
        if value is not None:
            single[key] = value
    multi = {}
    for key in multi_keys:
        values = getattr(args, key.replace("-", "_"), None)
        if values:
            multi[key] = [str(v) for v in values]
    return doc.override(single, multi)


def _emit(args, command: str, doc, csv_lines, json_result) -> None:
    stamp = None
    if not args.no_timestamp:
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


def _budget(doc) -> int:
    return get_int(doc, "budget", default=cayley.DEFAULT_ELEMENT_BUDGET,
                   minimum=1)


def _precision(doc, default: int) -> int:
    return get_int(doc, "precision", default=default, minimum=1)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_GROUP_KEYS = ("family", "rank", "degree", "dim", "symmetrize")


def cmd_growth(args) -> int:
    doc = _merged_document(
        args, _GROUP_KEYS + ("kmax", "guard", "budget"), ("generator",))
    m = build_marked_group(doc)
    kmax = get_int(doc, "kmax", default=12, minimum=0)
    guard = get_int(doc, "guard", default=4, minimum=1)
    partial = False
    try:
        table = cayley.enumerate_balls(m, kmax, _budget(doc))
    except BudgetExceededError as exc:
        if exc.partial is None:
            raise
        print(f"warning: budget exceeded, emitting radii 0..{exc.last_radius}",
              file=sys.stderr)
        table, partial = exc.partial, True
    sigma = list(table.sphere_sizes)
    recognized = None
    if len(sigma) >= 2 * guard + 2:
        recognized = series.recognize_rational(sigma, guard=guard)
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
        raise BudgetExceededError("enumeration stopped early",
                                  last_radius=table.radius_max)
    return 0


def cmd_analyze(args) -> int:
    doc = _merged_document(
        args,
        _GROUP_KEYS + ("kmax", "budget", "precision", "dye-convention"),
        ("generator",))
    m = build_marked_group(doc)
    kmax = get_int(doc, "kmax", default=12, minimum=6)
    digits = _precision(doc, analysis.DEFAULT_PRECISION)
    convention = get_choice(doc, "dye-convention",
                            {analysis.DYE_IDENTITY_CONVENTION,
                             analysis.DYE_AS_GIVEN_CONVENTION},
                            default=analysis.DYE_IDENTITY_CONVENTION)
    budget = _budget(doc)
    report = analysis.analyze_group(m, kmax, digits=digits,
                                    element_budget=budget)
    if convention == analysis.DYE_AS_GIVEN_CONVENTION:
        strict = analysis.dye_quantity_strict(m, max(1, kmax // 2),
                                              element_budget=budget)
        report = dataclasses.replace(report, dye=strict)
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


def _dyadic_extension(tmax: int, upto: int) -> list:
    ts = []
    j = 1
    while 2 ** j <= upto:
        if 2 ** j > tmax:
            ts.append(2 ** j)
        j += 1
    return ts


def cmd_gauss(args) -> int:
    doc = _merged_document(
        args, ("tmax", "kmax", "dyadic-to", "precision", "margin"))
    modes = [m for m, on in (("table", args.table), ("check-bound", args.check_bound),
                             ("fit", args.fit)) if on]
    if len(modes) != 1:
        raise ArgumentError(
            "choose exactly one of --table, --check-bound, --fit")
    mode = modes[0]
    digits = _precision(doc, gauss.DEFAULT_PRECISION)

    if mode == "table":
        kmax = get_int(doc, "kmax", default=100, minimum=0)
        r2s = gauss.r2_table(kmax)
        cumulative = gauss.R2_table(kmax)
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

    tmax = get_int(doc, "tmax", default=10000, minimum=1)
    if mode == "check-bound":
        margin, entry = gauss.DEFAULT_MARGIN, doc.get("margin")
        if entry is not None:
            try:
                margin = Decimal(entry.value)
            except InvalidOperation:
                margin = Decimal("NaN")
            # a negative margin would weaken the bound check
            if not margin.is_finite() or margin < 0:
                raise ConfigError("expected a finite nonnegative number, "
                                  f"got {entry.value!r}",
                                  line=entry.line, field="margin")
        ts = list(range(0, tmax + 1))
        dyadic_to = get_int(doc, "dyadic-to", default=None)
        if dyadic_to is not None:
            ts.extend(_dyadic_extension(tmax, dyadic_to))
        results = gauss.gauss_bound_check(ts, digits=digits, margin=margin)
        worst = min(r.bound - r.error for r in results)
        csv_lines = ["checked,digits,worst_slack",
                     f"{len(results)},{digits},{worst:E}"]
        json_result = {
            "checked": len(results),
            "digits": digits,
            "margin": str(margin),
            "worst_slack": f"{worst:E}",
            "holds": True,
        }
        _emit(args, "gauss", doc, csv_lines, json_result)
        return 0

    # error-exponent fit on a four-per-octave grid up to tmax
    grid = []
    j = 0
    while True:
        t = round(2 ** (j / 4))
        if t > tmax:
            break
        if t >= 16:
            grid.append(t)
        j += 1
    fit = gauss.error_exponent_fit(grid, digits=digits)
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
    doc = _merged_document(
        args, ("polytope", "n", "kmax", "guard", "ambient-dim"),
        ("vertex", "basis"))
    P = build_polytope(doc)
    kmax = get_int(doc, "kmax", default=6, minimum=0)
    guard = get_int(doc, "guard", default=4, minimum=1)
    counts = ehrhart.ehrhart_sequence(P, kmax)
    kind = get_choice(doc, "polytope",
                      {"cross", "root", "custom"}, default="custom")
    closed = None
    if kind == "cross":
        closed = ehrhart.cross_polytope_series(get_int(doc, "n", minimum=1))
    elif kind == "root":
        closed = ehrhart.root_polytope_series(get_int(doc, "n", minimum=1))
    elif len(counts) >= 2 * guard + 2:
        closed = series.recognize_rational(counts, guard=guard)
    if closed is not None and series.expand(closed, kmax) != counts:
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
    doc = _merged_document(args, ("rank", "rmax"), ("gram",))
    lat = build_lattice(doc)
    rmax = get_int(doc, "rmax", default=20, minimum=0)
    prefix = theta.theta_coefficients(lat, rmax)
    csv_lines = [f"# lattice rank: {lat.rank}"]
    csv_lines.extend(prefix.to_csv_lines())
    json_result = prefix.to_json_dict()
    json_result["rank"] = lat.rank
    json_result["gram"] = [list(row) for row in lat.gram]
    _emit(args, "theta", doc, csv_lines, json_result)
    return 0


def cmd_catalan(args) -> int:
    doc = _merged_document(args, ("kmax",))
    kmax = get_int(doc, "kmax", default=20, minimum=0)
    coeffs = series.catalan(kmax)
    csv_lines = ["k,catalan"]
    csv_lines.extend(f"{k},{c}" for k, c in enumerate(coeffs))
    json_result = {"kmax": kmax, "coefficients": [str(c) for c in coeffs]}
    _emit(args, "catalan", doc, csv_lines, json_result)
    return 0


def cmd_verify(args) -> int:
    selected = None
    if args.only:
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
    results = acceptance.run_all(selected)
    if args.output:
        doc = empty_document()
        if args.format == "json":
            json_result = [{
                "id": r.ident, "slug": r.slug, "passed": r.passed,
                "detail": r.detail, "elapsed": round(r.elapsed, 3),
            } for r in results]
            _emit(args, "verify", doc, [], json_result)
        else:
            _emit(args, "verify", doc, [r.line() for r in results], None)
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
    common.add_argument("--precision", type=int,
                        help="significant digits for decimal outputs")
    common.add_argument("--budget", type=int,
                        help="element budget for enumerations")

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
    p.add_argument("--guard", type=int,
                   help="trailing terms held back for recognition")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("analyze", parents=[common, group_parent],
                       help="growth diagnostics: rate, degree, verdict")
    p.add_argument("--kmax", type=int)
    p.add_argument("--dye-convention",
                   choices=(analysis.DYE_IDENTITY_CONVENTION,
                            analysis.DYE_AS_GIVEN_CONVENTION))
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
    p.add_argument("--margin", help="required slack for the bound check")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("ehrhart", parents=[common],
                       help="lattice point counts of dilated polytopes")
    p.add_argument("--polytope", choices=("cross", "root", "custom"))
    p.add_argument("--n", type=int, help="index of the stock family")
    p.add_argument("--kmax", type=int)
    p.add_argument("--guard", type=int)
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
