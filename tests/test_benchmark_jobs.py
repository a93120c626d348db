"""The benchmark's own jobs, run in process through the CLI and checked by
the benchmark's own oracles, at full size and at the size-zero set-up
pass the benchmark also times.  A change that breaks what the benchmark
reads of the program (a config key, an echoed option, a JSON field)
fails here, not only when the benchmark runs.  The jobs, mutated, and
mutated stock command lines of every command also seed a fuzz of the
CLI's error paths."""

import importlib.util
import json
import random
import re
import sys
from pathlib import Path

import pytest

from growthlab.cayley import enumerate_balls
from growthlab.cli import _recognized, main
from growthlab.config import build_marked_group, parse_config_text
from growthlab.groups import MatrixGroup, UnitriangularGroup
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
    # growth-free's spheres are counted, not searched, which a tree
    # marking allows at every seed, not only the stock one
    m = _marking(workloads.free_job(seed))
    assert m.family.free_basis(m.effective_generating_set())


@pytest.mark.parametrize("seed", range(4))
def test_heisenberg_job_prints_what_its_flat_rows_print(capsys, monkeypatch,
                                                       tmp_path, seed):
    # growth-nilpotent's Heisenberg rows are all upper unitriangular, so
    # they are searched in Mal'cev coordinates; stdout, CSV and JSON, is
    # byte for byte that of the same rows searched as flat matrices
    job = workloads.heisenberg_job(seed)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(job.document())

    def outputs():
        return [(main([job.command, *job.flags, "--config", str(cfg),
                       "--format", fmt, "--no-timestamp"]),
                 capsys.readouterr()) for fmt in ("csv", "json")]
    assert type(_marking(job).family) is UnitriangularGroup
    coordinates = outputs()
    assert [rc for rc, _ in coordinates] == [0, 0]
    monkeypatch.setattr(MatrixGroup, "coordinates", lambda self, a: None)
    assert type(_marking(job).family) is MatrixGroup
    assert outputs() == coordinates


@pytest.mark.parametrize("seed", range(6))
def test_every_z3_job_marks_a_free_basis(seed):
    # growth-nilpotent's Z^3 job is counted, not searched, at every seed
    m = _marking(workloads.z3_job(seed))
    assert m.family.free_basis(m.effective_generating_set())


def test_z3_job_keeps_its_series():
    # the series rule for free-abelian markings keeps (1 + z)^3 / (1 - z)^3
    m = _marking(workloads.z3_job(seed=1))
    fit = _recognized(m, enumerate_balls(m, 60).sphere_sizes)
    assert list(fit.denominator) == binomial_row(3, -1)


# what a mutation puts in place of a value: huge, zero, negative,
# non-numeric, empty and non-ASCII (int() reads the Arabic-Indic and
# full-width digits, not the superscript)
BAD_VALUES = ("9" * 40, "0", "-1", "-12", "x", "1.5", "",
              "\u0663", "\uff11\uff12", "\u00b2", "caf\u00e9", "1\u00a00")
# what a mutation adds: a key no job reads, and keys of another family
# or command, each with a value it could take there
STRAY = (("colour", "blue"), ("dim", "3"), ("degree", "4"), ("rank", "2"),
         ("generator", "1 0"), ("symmetrize", "false"), ("family", "free"),
         ("polytope", "cross"), ("n", "3"), ("rmax", "4"), ("tmax", "100"),
         ("gram", "1"), ("dye-convention", "as-given"))
TEN_TO_40 = str(10 ** 40)
# stock command lines: the command and its mode, then flag-value pairs
STOCK = ((("growth",), ("--family", "free", "--rank", "2", "--kmax", "12")),
         (("analyze",), ("--family", "free", "--rank", "3", "--kmax", "8")),
         (("growth",), ("--family", "free-abelian", "--rank", "3",
                        "--kmax", "60")),
         (("analyze",), ("--family", "free-abelian", "--rank", "2",
                         "--kmax", "20", "--dye-convention", "as-given")),
         (("ehrhart",), ("--polytope", "cross", "--n", "3", "--kmax", "8")),
         (("ehrhart",), ("--polytope", "root", "--n", "3", "--kmax", "6")),
         (("theta",), ("--rank", "8", "--rmax", "12")),
         (("gauss", "--table"), ("--kmax", "100")),
         (("gauss", "--check-bound"), ("--tmax", "10000",
                                       "--dyadic-to", "10000000")),
         (("gauss", "--fit"), ("--tmax", "10000")),
         (("catalan",), ("--kmax", "20")),
         (("growth",), ("--family", "symmetric", "--degree", "4",
                        "--kmax", "8")),
         (("growth",), ("--family", "matrix", "--dim", "3",
                        "--generator", "1 1 0 ; 0 1 0 ; 0 0 1",
                        "--generator", "1 0 0 ; 0 1 1 ; 0 0 1",
                        "--kmax", "8")),
         (("growth",), ("--family", "permutation", "--degree", "4",
                        "--generator", "2 1 3 4", "--generator", "2 3 4 1",
                        "--kmax", "8")),
         # finite groups, exhausted long before their table ends
         (("growth",), ("--family", "symmetric", "--degree", "4",
                        "--kmax", TEN_TO_40)),
         (("growth",), ("--family", "permutation", "--degree", "4",
                        "--generator", "2 1 3 4", "--generator", "2 3 4 1",
                        "--kmax", TEN_TO_40)))


def _mutated(rng, items):
    """items with one value replaced, one item dropped, repeated or
    added from STRAY; an item is a config (key, value) line or a
    command-line flag and its value."""
    items = list(items)
    i = rng.randrange(len(items))
    kind = rng.choice(("value", "value", "drop", "repeat", "stray"))
    if kind == "drop":
        del items[i]
    elif kind == "repeat":
        items.insert(rng.randrange(len(items) + 1), items[i])
    elif kind == "stray":
        key, value = rng.choice(STRAY)
        if items[i][0].startswith("--"):
            key = f"--{key}"
        items.insert(rng.randrange(len(items) + 1), (key, value))
    else:
        key, value = items[i]
        if " " in value and rng.random() < 0.5:  # one entry of a row
            row = value.split(" ")
            row[rng.randrange(len(row))] = rng.choice(BAD_VALUES)
            items[i] = (key, " ".join(row))
        else:
            items[i] = (key, rng.choice(BAD_VALUES))
    return items


def _cases(rng, per_base):
    """(argv head, config lines or None) for mutated benchmark jobs at
    seeds 0-3 and mutated stock command lines."""
    for seed in range(4):
        for workload in workloads.WORKLOADS:
            for job in workloads.build(workload, seed):
                for _ in range(per_base):
                    yield ([job.command, *job.flags],
                           _mutated(rng, job.entries()))
    for head, flags in STOCK:
        pairs = list(zip(flags[::2], flags[1::2]))
        for _ in range(per_base):
            mutated = [x for pair in _mutated(rng, pairs) for x in pair]
            yield [*head, *mutated], None


def test_mutated_runs_exit_with_a_documented_code(capsys, tmp_path):
    # no traceback reaches a user: every run of a mutated job or command
    # line exits 0, 2, 3 or 4, a run that exits 0 prints JSON, and a
    # config error names the line or the field at fault.  The small
    # budget refuses a huge mutated size, or the rows of a finite
    # group's table, before it runs long
    cfg = tmp_path / "job.cfg"
    cases = list(_cases(random.Random(31), 6))
    assert len(cases) == 264  # 6 of each of 7 jobs at 4 seeds, 16 lines
    codes = set()
    for head, lines in cases:
        argv = head + ["--budget", "20000", "--format", "json",
                       "--no-timestamp"]
        if lines is not None:
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines),
                           encoding="utf-8")
            argv += ["--config", str(cfg)]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses a flag's value
            rc = exc.code
        out, err = capsys.readouterr()
        case = f"{argv} {lines}"
        assert rc in (0, 2, 3, 4), case
        if rc == 0:
            json.loads(out)
        else:
            assert err, case
        if "config error:" in err:
            assert re.search(r"config error: (line \d+: |field ')", err), case
        codes.add(rc)
    assert {0, 2, 3} <= codes
