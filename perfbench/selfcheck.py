"""Self-check of the benchmark harness, at tiny sizes (about 20 s).

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs every workload's jobs at tiny sizes through the CLI and through
the traced pass and expects no failure.  Then it injects one fault of
each kind -- an oracle value that is off by one, a nonzero exit, a
timeout, output that is not JSON, a public name missing from
``growthlab.__all__`` -- and expects each to be counted as a failed job
(or, for the missing name, to stop the traced pass) without the harness
itself crashing.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import time
from unittest import mock

import oracles
import run
import workloads

TINY = {"free": 9, "free-abelian": 9, "heisenberg": 8, "cross": 3,
        "root": 2, "theta": 4, "gauss": 100}


def tiny(job):
    data = dict(job.data)
    if "dyadic_to" in data:
        data["dyadic_to"] = 1000
    return dataclasses.replace(job, size=TINY[job.kind], data=data)


def main() -> int:
    if not (run.SRC / "growthlab" / "cli.py").is_file():
        print(f"no growthlab sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import growthlab
    import tracing

    problems = []

    def expect(what, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    workdir = run.OUT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    try:
        for workload in workloads.WORKLOADS:
            jobs = [tiny(j) for j in workloads.build(workload, seed=1)]
            runner = run.Runner(workdir, deadline)
            metrics, _ = run.measure(runner, jobs, seconds=0)
            expect(f"{workload}: {runner.attempted} CLI jobs at tiny sizes pass"
                   f" (wall_s {metrics['wall_s']:.2f}) {runner.failures or ''}",
                   not runner.failures)
            bad = [e for j in jobs for e in
                   oracles.check_traced(j, tracing.traced_job(j)["output"])]
            expect(f"{workload}: traced pass at tiny sizes passes {bad or ''}",
                   not bad)

        free = workloads.free_job(seed=1)
        runner = run.Runner(workdir, deadline)

        def off_by_one(job):
            seq = list(true_sequence(job))
            seq[-1] += 1
            return seq

        true_sequence = oracles.sequence_for
        with mock.patch.object(oracles, "sequence_for", off_by_one):
            runner.run(tiny(free))
        expect("a corrupted oracle value counts as a failure",
               len(runner.failures) == 1)

        runner.run(dataclasses.replace(tiny(free), size=-1))
        expect("a nonzero exit counts as a failure",
               len(runner.failures) == 2
               and "exit code 2" in runner.failures[-1]["errors"][0])

        hurried = run.Runner(workdir, deadline, timeout=0.5)
        hurried.run(free)  # the full F_2 job needs seconds, not 0.5 s
        expect("a timeout counts as a failure",
               len(hurried.failures) == 1
               and "timed out" in hurried.failures[0]["errors"][0])

        plain = run.Runner.argv
        with mock.patch.object(run.Runner, "argv",
                               lambda self, job: plain(self, job) + ["--format", "csv"]):
            runner.run(tiny(free))
        expect("output that is not JSON counts as a failure",
               len(runner.failures) == 3)
        expect("failed/attempted counts every job",
               (runner.attempted, len(runner.failures)) == (3, 3))

        exported = [n for n in growthlab.__all__ if n != "enumerate_balls"]
        with mock.patch.object(growthlab, "__all__", exported):
            try:
                tracing.traced_job(tiny(free))
                stopped = False
            except tracing.MissingApi as exc:
                stopped = "enumerate_balls" in str(exc)
        expect("a missing public name stops the traced pass", stopped)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
