"""One benchmark job run in-process, with a span around each layer call.

Run from the checkout root with ``PYTHONPATH=src``:

    python3 perfbench/tracing.py --workload lattice-count --seed 0 --job z8

It builds the same objects the CLI builds from the generated config
document, through growthlab's public constructors, and calls the same
public functions, each inside a span.  A span records its name, start,
end and parent; spans stay in memory and are printed, with the job's
results and the process's max-RSS before and after the job, as one JSON
object on the last line of stdout when the job ends.  Only names
exported in ``growthlab.__all__`` are called: when one disappears the
job stops with an error naming it instead of reporting a zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager

import growthlab
import oracles
import workloads


class Tracer:
    """Spans kept in memory; parents come from the stack of open spans."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class MissingApi(Exception):
    pass


def api(name: str):
    """A public growthlab name, or MissingApi when it is gone."""
    if name not in growthlab.__all__ or not hasattr(growthlab, name):
        raise MissingApi(f"growthlab.__all__ no longer exports {name!r}")
    return getattr(growthlab, name)


def _marked_group(job, t: Tracer):
    with t.span("MarkedGroup"):
        if job.kind == "free":
            family = api("FreeGroup")(job.data["rank"])
        elif job.kind == "free-abelian":
            family = api("FreeAbelian")(job.data["rank"])
        else:
            family = api("MatrixGroup")(3)
        return api("MarkedGroup")(family, tuple(job.data["generators"]))


def run_growth(job, t: Tracer) -> dict:
    m = _marked_group(job, t)
    with t.span("enumerate_balls"):
        table = api("enumerate_balls")(m, job.size)
    sigma = list(table.sphere_sizes)
    out = {"sequence": sigma, "series": None}
    if len(sigma) >= 2 * oracles.GUARD + 2:
        with t.span("recognize_rational", terms=len(sigma)):
            f = api("recognize_rational")(sigma, guard=oracles.GUARD)
        if f is not None:
            out["series"] = [list(f.numerator), list(f.denominator)]
    return out


def run_analyze(job, t: Tracer) -> dict:
    m = _marked_group(job, t)
    with t.span("enumerate_balls"):
        table = api("enumerate_balls")(m, job.size)
    with t.span("classify"):
        report = api("classify")(table).to_json_dict()
    return {"sequence": list(table.sphere_sizes), "verdict": report["verdict"],
            "minimum": report["rate_upper"]["minimum"]}


def run_ehrhart(job, t: Tracer) -> dict:
    d = job.data
    with t.span("LatticePolytope.make"):
        polytope = api("LatticePolytope").make(
            len(d["vertices"][0]), d["vertices"], d.get("basis"))
    with t.span("ehrhart_sequence"):
        counts = api("ehrhart_sequence")(polytope, job.size)
    return {"sequence": list(counts)}


def run_theta(job, t: Tracer) -> dict:
    with t.span("IntegralLattice.make"):
        lattice = api("IntegralLattice").make(job.data["gram"])
    with t.span("theta_coefficients"):
        prefix = api("theta_coefficients")(lattice, job.size)
    return {"sequence": list(prefix.counts)}


def run_gauss(job, t: Tracer) -> dict:
    ts = oracles.gauss_points(job.size, job.data.get("dyadic_to"))
    with t.span("gauss_bound_check"):
        results = api("gauss_bound_check")(ts)
    return {"checked": len(results)}


RUNNERS = {"free": run_growth, "free-abelian": run_growth,
           "heisenberg": run_analyze, "cross": run_ehrhart,
           "root": run_ehrhart, "theta": run_theta, "gauss": run_gauss}


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def traced_job(job) -> dict:
    t = Tracer()
    rss_before = _max_rss_kb()
    with t.span("job", job=job.name):
        output = RUNNERS[job.kind](job, t)
    return {"spans": t.spans, "output": output,
            "rss_kb_before": rss_before, "rss_kb_after": _max_rss_kb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", required=True)
    args = parser.parse_args(argv)
    jobs = {job.name: job for job in workloads.build(args.workload, args.seed)}
    if args.job not in jobs:
        parser.error(f"{args.workload} has no job {args.job!r}")
    try:
        result = traced_job(jobs[args.job])
    except MissingApi as exc:
        print(f"traced run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
