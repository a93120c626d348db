"""growthlab benchmark: whole CLI jobs checked against exact oracles.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload growth-free --seed 0 --seconds 36 --trace 0

Workloads and their jobs are in workloads.py; the seed only changes how
the same objects are presented.  Each job runs as a fresh
``python -m growthlab.cli <cmd> --config FILE --format json --no-timestamp``
process, one at a time (a closed loop with a single client), and every
number it prints is checked against oracles.py.

--trace 0 alternates passes over the jobs at their stated sizes with
passes at size zero until --seconds have been spent, and reports
  wall_s       time of one pass over the workload's jobs: the sum over
               the jobs of each job's median time in the run
  setup_s      median time of one pass at size zero: interpreter start,
               import, config parsing, object construction and output
  peak_rss_mb  median over passes of the largest job max-RSS (os.wait4)
--trace 1 makes one pass of each kind, then runs every workload's jobs
in-process with a span around each layer call (tracing.py), one process
per job, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count job runs, and
failed/attempted is the workload's failure share.  A job fails on a
nonzero exit, a timeout, output that does not parse, or any number that
disagrees with its oracle.  The line before it records the seed and the
run metadata, and the whole run (pass times, failures, spans) is written
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

RUN_LIMIT_S = 170      # a run must end within 180 s, builds aside
JOB_TIMEOUT_S = 150
SETUP_REPEATS = 2      # size-zero passes between two full passes
MIN_PASSES = 2         # full passes per run, however long they take

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobRun:
    job: workloads.Job
    seconds: float
    rss_kb: int
    errors: list = field(default_factory=list)


class Runner:
    """Runs CLI jobs one at a time and keeps the failure tally."""

    def __init__(self, workdir: Path, deadline: float, timeout: float = JOB_TIMEOUT_S):
        self.workdir = workdir
        self.deadline = deadline
        self.timeout = timeout
        self.attempted = 0
        self.failures = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def config_path(self, job) -> Path:
        path = self.workdir / f"{job.name}-{job.size}.cfg"
        if not path.exists():
            path.write_text(job.document(), encoding="utf-8")
        return path

    def argv(self, job) -> list:
        return [sys.executable, "-m", "growthlab.cli", job.command, *job.flags,
                "--config", str(self.config_path(job)),
                "--format", "json", "--no-timestamp"]

    def run(self, job) -> JobRun:
        argv = self.argv(job)
        timeout = max(0.1, min(self.timeout, self.deadline - time.monotonic()))
        out_path = self.workdir / f"{job.name}.out"
        err_path = self.workdir / f"{job.name}.err"
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no job running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = JobRun(job, seconds, usage.ru_maxrss)
        if killed.is_set():
            result.errors.append(f"timed out after {timeout:.1f} s")
        elif proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            result.errors.append(f"exit code {proc.returncode}: {' '.join(tail)}")
        else:
            result.errors += check_output(job, out_path)
        self.attempted += 1
        if result.errors:
            self.failures.append({"job": job.name, "size": job.size,
                                  "errors": result.errors})
        return result

    def run_pass(self, jobs) -> list:
        return [self.run(job) for job in jobs]

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def check_output(job, path: Path) -> list:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return oracles.check_cli(job, payload)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return [f"output lacks an expected field: {exc!r}"]


def pass_seconds(runs) -> float:
    return sum(r.seconds for r in runs)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measure(runner: Runner, jobs, seconds: float) -> tuple:
    """Alternate size-zero and full passes for `seconds`; returns the
    metrics and the per-pass record."""
    zero = [job.at_size_zero() for job in jobs]
    runner.run_pass(zero)  # warm-up: bytecode and file caches, not timed
    walls, setups, rss, per_job = [], [], [], {job.name: [] for job in jobs}
    started = time.monotonic()
    while True:
        for _ in range(SETUP_REPEATS):
            setups.append(pass_seconds(runner.run_pass(zero)))
        full = runner.run_pass(jobs)
        walls.append(pass_seconds(full))
        rss.append(max(r.rss_kb for r in full))
        for r in full:
            per_job[r.job.name].append(r.seconds)
        step = statistics.median(walls) + SETUP_REPEATS * statistics.median(setups)
        if 2 * step > runner.time_left():
            break
        if (len(walls) >= MIN_PASSES
                and time.monotonic() - started + step > seconds):
            break
    for _ in range(SETUP_REPEATS):
        setups.append(pass_seconds(runner.run_pass(zero)))
    # a slow phase of the host that hits one job of one pass is dropped
    # by the job's median; the median of pass totals would keep part of it
    metrics = {"wall_s": sum(statistics.median(t) for t in per_job.values()),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss) / 1024}
    return metrics, {"wall_s": walls, "setup_s": setups, "peak_rss_kb": rss,
                     "job_s": per_job}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# The ball search runs on two workloads of opposite character (most
# products are new elements on growth-free, most were seen before on
# growth-nilpotent), so its metrics are kept apart per workload.
CAYLEY_SCOPES = {"growth-free": "cayley.free",
                 "growth-nilpotent": "cayley.nilpotent"}
CAYLEY = {"bfs_s": "s", "products": "count", "elements": "count",
          "new_ratio": "ratio", "ns_per_product": "ns",
          "bytes_per_element": "B"}

PER_LAYER = {f"{scope}.{name}": unit for scope in CAYLEY_SCOPES.values()
             for name, unit in CAYLEY.items()}
PER_LAYER.update({
    "series.recognize_s": "s", "series.terms": "count",
    "analysis.classify_s": "s",
    "ehrhart.count_s": "s", "ehrhart.box_points": "count",
    "ehrhart.lattice_points": "count", "ehrhart.hit_ratio": "ratio",
    "ehrhart.us_per_box_point": "us",
    "theta.descent_s": "s", "theta.vectors": "count",
    "theta.us_per_vector": "us",
    "gauss.bound_check_s": "s", "gauss.t_checked": "count",
    "construct.make_s": "s", "trace.gap_s": "s",
})

# span name -> the metric its self time adds to
SPAN_METRIC = {
    "enumerate_balls": "{cayley}.bfs_s",
    "recognize_rational": "series.recognize_s",
    "classify": "analysis.classify_s",
    "ehrhart_sequence": "ehrhart.count_s",
    "theta_coefficients": "theta.descent_s",
    "gauss_bound_check": "gauss.bound_check_s",
    "MarkedGroup": "construct.make_s",
    "LatticePolytope.make": "construct.make_s",
    "IntegralLattice.make": "construct.make_s",
}


def self_times(spans) -> list:
    """(span, duration minus the durations of its direct children)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [(s, s["end"] - s["start"] - child[s["id"]]) for s in spans]


def box_points(coords, kmax: int) -> int:
    """Lattice points of the bounding boxes of kP, summed over k = 1..kmax."""
    widths = [max(c[j] for c in coords) - min(c[j] for c in coords)
              for j in range(len(coords[0]))]
    total = 0
    for k in range(1, kmax + 1):
        n = 1
        for w in widths:
            n *= k * w + 1
        total += n
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(traced) -> dict:
    """Per-layer metrics from (workload, job, traced result) triples; the
    counts come from the job inputs and the oracle-checked outputs."""
    m = dict.fromkeys(PER_LAYER, 0)
    new = dict.fromkeys(CAYLEY_SCOPES.values(), 0)
    rss = dict.fromkeys(CAYLEY_SCOPES.values(), 0)
    for workload, job, result in traced:
        scope = CAYLEY_SCOPES.get(workload)
        for span, own in self_times(result["spans"]):
            if span["name"] in SPAN_METRIC:
                m[SPAN_METRIC[span["name"]].format(cayley=scope)] += own
            m["series.terms"] += span.get("terms", 0)
        seq = oracles.sequence_for(job)
        if scope is not None:
            beta = oracles.partial_sums(seq)
            m[f"{scope}.products"] += beta[job.size - 1] * seq[1]
            m[f"{scope}.elements"] += beta[job.size]
            new[scope] += beta[job.size] - 1
            rss[scope] += 1024 * (result["rss_kb_after"] - result["rss_kb_before"])
        elif job.kind in ("cross", "root"):
            m["ehrhart.box_points"] += box_points(job.data["coords"], job.size)
            m["ehrhart.lattice_points"] += sum(seq[1:])
        elif job.kind == "theta":
            m["theta.vectors"] += sum(seq)
        elif job.kind == "gauss":
            m["gauss.t_checked"] += len(seq)
    for scope in CAYLEY_SCOPES.values():
        m[f"{scope}.new_ratio"] = _ratio(new[scope], m[f"{scope}.products"])
        m[f"{scope}.ns_per_product"] = _ratio(1e9 * m[f"{scope}.bfs_s"],
                                              m[f"{scope}.products"])
        m[f"{scope}.bytes_per_element"] = _ratio(rss[scope], m[f"{scope}.elements"])
    m["ehrhart.hit_ratio"] = _ratio(m["ehrhart.lattice_points"], m["ehrhart.box_points"])
    m["ehrhart.us_per_box_point"] = _ratio(1e6 * m["ehrhart.count_s"], m["ehrhart.box_points"])
    m["theta.us_per_vector"] = _ratio(1e6 * m["theta.descent_s"], m["theta.vectors"])
    return m


def trace_job(runner: Runner, workload: str, seed: int, job) -> dict:
    """One job in its own traced process (tracing.py); a failure to run
    it at all stops the benchmark rather than reporting zeros."""
    argv = [sys.executable, str(HERE / "tracing.py"), "--workload", workload,
            "--seed", str(seed), "--job", job.name]
    try:
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                               env=runner.env, timeout=max(1.0, runner.time_left()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"traced run failed: {job.name} timed out")
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"traced run failed: {job.name} exited with code "
                         f"{child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    runner.attempted += 1
    errors = oracles.check_traced(job, result["output"])
    if errors:
        runner.failures.append({"job": job.name, "traced": True, "errors": errors})
    return result


def traced_run(runner: Runner, workload: str, seed: int, jobs) -> tuple:
    """Trace every workload's jobs, so each per-layer metric is measured in
    every traced run; trace.gap_s compares the named workload's own CLI
    pass with its traced jobs."""
    zero = [job.at_size_zero() for job in jobs]
    runner.run_pass(zero)  # warm-up, as in the end-to-end run
    setup_s = pass_seconds(runner.run_pass(zero))
    wall_s = pass_seconds(runner.run_pass(jobs))
    traced = [(w, job, trace_job(runner, w, seed, job))
              for w in workloads.WORKLOADS for job in workloads.build(w, seed)]
    metrics = layer_metrics(traced)
    own = sum(s["end"] - s["start"] for w, _, result in traced if w == workload
              for s in result["spans"] if s["name"] == "job")
    metrics["trace.gap_s"] = wall_s - setup_s - own
    return metrics, {"traced": [{"workload": w, "job": job.name, **result}
                                for w, job, result in traced]}


# ---------------------------------------------------------------------------
# metadata and entry point
# ---------------------------------------------------------------------------

def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((SRC / "growthlab").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    begun = time.monotonic()
    # a terminated run unwinds like an interrupted one and kills its job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "growthlab" / "cli.py").is_file():
        print(f"no growthlab sources under {SRC}; run from the root of a "
              f"growthlab checkout", file=sys.stderr)
        return 2
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "git_sha": git_sha(),
            "src_lines": src_lines(), "loadavg_start": loadavg()}

    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, begun + RUN_LIMIT_S)
    jobs = workloads.build(args.workload, args.seed)
    try:
        if args.trace:
            values, record = traced_run(runner, args.workload, args.seed, jobs)
            units = PER_LAYER
        else:
            values, record = measure(runner, jobs, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["loadavg_end"] = loadavg()
    meta["elapsed_s"] = time.monotonic() - begun

    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record.update(meta=meta, failures=runner.failures, result=result)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"# {args.workload:<17} {name:<26} {values[name]:>14.6g} {unit}")
    print(f"# fail_share {failed}/{runner.attempted}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
