"""The benchmark's own jobs, run in process through the CLI and checked by
the benchmark's own oracles, at full size and at the size-zero set-up
pass the benchmark also times.  A change that breaks what the benchmark
reads of the program (a config key, an echoed option, a JSON field)
fails here, not only when the benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from growthlab.cayley import enumerate_balls
from growthlab.cli import _recognized, main
from growthlab.config import build_marked_group, parse_config_text
from growthlab.series import binomial_row

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

JOBS = [pytest.param(job.at_size_zero() if zero else job,
                     id=f"{workload}-{job.name}" + "-size-zero" * zero)
        for zero in (False, True) for workload in workloads.WORKLOADS
        for job in workloads.build(workload, seed=1)]


@pytest.mark.parametrize("job", JOBS)
def test_benchmark_job_passes_its_oracles(capsys, tmp_path, job):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(job.document())
    rc = main([job.command, *job.flags, "--config", str(cfg),
               "--format", "json", "--no-timestamp"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert oracles.check_cli(job, json.loads(out)) == []


def _marking(job):
    return build_marked_group(parse_config_text(job.document()))


@pytest.mark.parametrize("seed", range(6))
def test_every_free_job_marks_a_tree(seed):
    # growth-free's gain comes from the search keeping no visited set,
    # which a tree marking allows at every seed, not only the stock one
    m = _marking(workloads.free_job(seed))
    assert m.family.free_basis(m.effective_generating_set())


@pytest.mark.parametrize("seed", range(6))
def test_every_z3_job_marks_a_free_basis(seed):
    # growth-nilpotent's Z^3 job keeps no visited set at every seed
    m = _marking(workloads.z3_job(seed))
    assert m.family.free_basis(m.effective_generating_set())


def test_z3_job_keeps_its_series():
    # the series rule for free-abelian markings keeps (1 + z)^3 / (1 - z)^3
    m = _marking(workloads.z3_job(seed=1))
    fit = _recognized(m, enumerate_balls(m, 60).sphere_sizes)
    assert list(fit.denominator) == binomial_row(3, -1)
