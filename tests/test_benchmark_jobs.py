"""The benchmark's own jobs, run in process through the CLI and checked by
the benchmark's own oracles.  A change that breaks what the benchmark
reads of the program (a config key, an echoed option, a JSON field)
fails here, not only when the benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from growthlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
oracles = _load("oracles")

JOBS = [(workload, job) for workload in workloads.WORKLOADS
        for job in workloads.build(workload, seed=1)]


@pytest.mark.parametrize("workload, job", JOBS,
                         ids=[f"{w}-{job.name}" for w, job in JOBS])
def test_benchmark_job_passes_its_oracles(capsys, tmp_path, workload, job):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(job.document())
    rc = main([job.command, *job.flags, "--config", str(cfg),
               "--format", "json", "--no-timestamp"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert oracles.check_cli(job, json.loads(out)) == []
