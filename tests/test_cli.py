import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal, localcontext
from math import comb
from pathlib import Path

import pytest

import growthlab
from growthlab import gauss
from growthlab.cli import _fit_grid_value, build_parser, main
from growthlab.errors import CheckFailure
from lattice_oracle import machin_pi


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_growth_csv_example(capsys):
    rc, out, err = run(capsys, "growth", "--family", "free-abelian",
                       "--rank", "2", "--kmax", "10", "--no-timestamp")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# tool: growthlab 0.1.0"
    assert lines[1] == "# command: growth"
    assert "# recognized: (1 + 2z + z^2) / (1 - 2z + z^2)" in lines
    assert "k,sigma,beta" in lines
    assert lines[-1] == "10,40,221"


def test_growth_json(capsys):
    rc, out, err = run(capsys, "growth", "--family", "free", "--rank", "2",
                       "--kmax", "10", "--format", "json", "--no-timestamp")
    assert rc == 0
    payload = json.loads(out)
    assert payload["tool"] == {"name": "growthlab", "version": "0.1.0"}
    assert payload["command"] == "growth"
    assert "timestamp" not in payload
    table = payload["result"]["table"]
    # integers travel as decimal strings
    assert table["sphere_sizes"][:7] == ["1", "4", "12", "36", "108", "324",
                                         "972"]
    rec = payload["result"]["recognized"]
    assert rec["numerator"] == ["1", "1"]
    assert rec["denominator"] == ["1", "-3"]
    assert payload["result"]["partial"] is False


def test_growth_skips_recognition_on_short_tables(capsys):
    rc, out, err = run(capsys, "growth", "--family", "free-abelian",
                       "--rank", "1", "--kmax", "3", "--no-timestamp")
    assert rc == 0
    assert "# recognized: none" in out


def test_byte_identical_reruns(capsys):
    args = ("growth", "--family", "free-abelian", "--rank", "1",
            "--kmax", "8", "--no-timestamp")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_timestamp_present_by_default(capsys):
    rc, out, _ = run(capsys, "catalan", "--kmax", "3")
    assert rc == 0
    assert "# timestamp: " in out


def test_config_file_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "family = free-abelian\n"
        "rank = 2\n"
        "generator = 1 0\n"
        "generator = 0 1\n"
        "kmax = 4\n")
    rc, out, _ = run(capsys, "growth", "--config", str(cfg), "--no-timestamp")
    assert rc == 0
    assert "4,16,41" in out.splitlines()

    # a single flag replaces the file value, and only it is echoed
    rc, out, _ = run(capsys, "growth", "--config", str(cfg),
                     "--kmax", "2", "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "2,8,13"
    assert [l for l in out.splitlines() if l.startswith("# option: kmax")] \
        == ["# option: kmax = 2"]

    # a repeatable flag replaces the whole generator block
    rc, out, _ = run(capsys, "growth", "--config", str(cfg),
                     "--generator", "1 1", "--no-timestamp")
    assert rc == 0
    assert "1,2,3" in out.splitlines()  # one symmetrized generator pair


def test_missing_config_file(capsys):
    rc, out, err = run(capsys, "growth", "--config", "/nonexistent.cfg")
    assert rc == 2
    assert "config error" in err


def test_bad_family_is_config_error(capsys):
    rc, out, err = run(capsys, "growth", "--family", "dihedral")
    assert rc == 2
    assert "config error" in err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--bogus"])
    assert exc.value.code == 2


def test_budget_exhaustion_emits_partial(capsys):
    rc, out, err = run(capsys, "growth", "--family", "free", "--rank", "2",
                       "--kmax", "12", "--budget", "10", "--no-timestamp")
    assert rc == 3
    assert "# partial: true" in out
    assert out.splitlines()[-1] == "1,4,5"
    assert "budget exceeded" in err


def test_growth_budget_error_names_what_was_reached(capsys):
    # the partial table is emitted, then the ball search's own message
    rc, out, err = run(capsys, "growth", "--family", "free", "--rank", "2",
                       "--kmax", "12", "--budget", "200", "--no-timestamp")
    assert rc == 3
    assert "# partial: true" in out
    assert out.splitlines()[-1] == "4,108,161"
    assert "200 elements stored" in err
    assert "frontier |S(4)| = 108" in err
    assert err.rstrip().endswith("(complete through radius 4)")


def test_bad_generator_row_is_config_error(capsys, tmp_path):
    cases = [
        ("--family", "free-abelian", "--rank", "2", "--generator", "0 0"),
        ("--family", "free", "--rank", "2", "--generator", "1 -1"),
        ("--family", "matrix", "--dim", "2", "--generator", "2 0; 0 1"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, "growth", *argv)
        assert rc == 2, argv
        assert err.startswith("config error: field 'generator': ")
        assert out == ""
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = matrix\ndim = 2\n"
                   "generator = 1 1; 0 1\ngenerator = 2 0; 0 1\n")
    rc, out, err = run(capsys, "growth", "--config", str(cfg))
    assert rc == 2
    assert "line 4: field 'generator': matrix has determinant 2" in err


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    rc, out, _ = run(capsys, "catalan", "--kmax", "7",
                     "--output", str(target), "--no-timestamp")
    assert rc == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[-1] == "7,429"
    assert "k,catalan" in lines


def test_catalan_budget_counts_output_bits(capsys):
    # c_k < 4^k, so c_0..c_kmax take fewer than kmax*(kmax+1) bits, and
    # that bound counts against the budget before any work
    for kmax in (0, 1, 7, 20):
        bits = kmax * (kmax + 1)
        rc, out, err = run(capsys, "catalan", "--kmax", str(kmax),
                           "--budget", str(max(bits, 1)), "--no-timestamp")
        assert rc == 0, err
        assert len(out.splitlines()) == 6 + kmax
        total = sum(int(line.split(",")[1]).bit_length()
                    for line in out.splitlines()[-(kmax + 1):])
        assert total <= max(bits, 1)
        if bits > 1:
            rc, out, err = run(capsys, "catalan", "--kmax", str(kmax),
                               "--budget", str(bits - 1))
            assert rc == 2
            assert out == ""
            assert (f"field 'kmax': an output bound of {bits} bits exceeds "
                    f"the budget of {bits - 1}") in err
    # at the default budget of 10^7 the largest kmax is 3161
    rc, out, err = run(capsys, "catalan", "--kmax", "3162")
    assert rc == 2
    assert "field 'kmax'" in err
    assert out == ""


def test_output_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, "catalan", "--kmax", "7",
                       "--output", str(target), "--no-timestamp")
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not target.exists()


def test_analyze_csv_and_convention(capsys):
    rc, out, _ = run(capsys, "analyze", "--family", "free-abelian",
                     "--rank", "1", "--kmax", "6", "--no-timestamp")
    assert rc == 0
    lines = out.splitlines()
    assert "key,value" in lines
    row = next(l for l in lines if l.startswith("dye_quantity.convention,"))
    assert row.endswith("identity-in-F")
    # no cell may smuggle in extra commas
    data = lines[lines.index("key,value"):]
    assert all(l.count(",") == 1 for l in data[1:])

    rc, out, _ = run(capsys, "analyze", "--family", "free-abelian",
                     "--rank", "1", "--kmax", "6", "--format", "json",
                     "--dye-convention", "as-given", "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["dye_quantity"]["convention"] == "as-given"
    assert result["dye_quantity"]["value"] == "7/9"
    assert result["verdict"] == "inconclusive"

    # --budget also bounds the as-given product sets: Z^2 to radius 6
    # stores a ball of 85 elements but 139 product-set elements
    rc, out, err = run(capsys, "analyze", "--family", "free-abelian",
                       "--rank", "2", "--kmax", "6", "--budget", "100",
                       "--dye-convention", "as-given", "--no-timestamp")
    assert rc == 3
    assert "budget exceeded" in err


def test_default_dye_convention_can_be_named(capsys):
    args = ("analyze", "--family", "heisenberg", "--kmax", "8",
            "--no-timestamp")
    rc, plain, _ = run(capsys, *args)
    assert rc == 0
    rc, named, _ = run(capsys, *args, "--dye-convention", "identity-in-F")
    assert rc == 0
    echo = "# option: dye-convention = identity-in-F"
    assert echo in named.splitlines()
    assert named.replace(echo + "\n", "") == plain


@pytest.mark.parametrize("command, job, key, value", [
    ("analyze", {"family": "heisenberg", "kmax": "6", "dye-convention": None},
     "dye-convention", "as-given"),
    ("ehrhart", {"polytope": None, "n": "2", "kmax": "3"},
     "polytope", "cross"),
])
def test_choice_spellings_agree_in_flag_and_file(capsys, tmp_path, command,
                                                 job, key, value):
    # flags and config files share one validator, so a choice matches in
    # any case in both forms, and an unknown one is refused by name; the
    # job lists its keys in the order the output echoes them
    cfg = tmp_path / "job.cfg"

    def both_forms(given):
        fields = {**job, key: given}
        flags = [part for k, v in fields.items() for part in (f"--{k}", v)]
        from_flags = run(capsys, command, *flags, "--no-timestamp")
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        from_file = run(capsys, command, "--config", str(cfg),
                        "--no-timestamp")
        return from_flags, from_file

    outputs = []
    for given in (value, value.upper()):
        (rc, out, _), from_file = both_forms(given)
        assert rc == 0
        assert from_file == (rc, out, "")
        outputs.append(out.replace(f"# option: {key} = {given}\n", ""))
    assert outputs[0] == outputs[1]

    (rc, _, err), (file_rc, _, file_err) = both_forms("bogus")
    assert (rc, file_rc) == (2, 2)
    assert f"config error: field '{key}': unknown value 'bogus'" in err
    line = list(job).index(key) + 1
    assert f"line {line}: field '{key}': unknown value 'bogus'" in file_err


def test_gauss_modes(capsys):
    rc, out, err = run(capsys, "gauss")
    assert rc == 2
    assert "argument error" in err

    rc, out, err = run(capsys, "gauss", "--table", "--fit")
    assert rc == 2

    rc, out, _ = run(capsys, "gauss", "--table", "--kmax", "10",
                     "--no-timestamp")
    assert rc == 0
    lines = out.splitlines()
    assert "k,r2,R2" in lines
    assert "1,4,5" in lines
    assert lines[-1] == "10,8,37"

    rc, out, _ = run(capsys, "gauss", "--check-bound", "--tmax", "50",
                     "--no-timestamp")
    assert rc == 0
    assert "checked,digits,worst_slack" in out
    # the worst slack, 2 pi - 1 at t = 0, shows all of its 50 digits
    assert out.splitlines()[-1] == \
        "51,50,5.2831853071795864769252867665590057683943387987502E+0"

    rc, out, _ = run(capsys, "gauss", "--fit", "--tmax", "2000",
                     "--format", "json", "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert isinstance(result["alpha"], float)
    assert all(len(w) == 2 for w in result["windows"])


WORST_SLACK = "5.2831853071795864769252867665590057683943387987502E+0"


@pytest.mark.parametrize("tmax,checked", [(1, 25), (50, 69), (10000, 10011)])
def test_check_bound_bytes(capsys, tmax, checked):
    # the worst slack, 2 pi - 1 at t = 0, is shown at all of its 50
    # digits; the dyadics 2^1..2^23 that tmax does not cover are added
    argv = ("gauss", "--check-bound", "--tmax", str(tmax),
            "--dyadic-to", "10000000", "--no-timestamp")
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out == (
        "# tool: growthlab 0.1.0\n# command: gauss\n"
        f"# option: tmax = {tmax}\n# option: dyadic-to = 10000000\n"
        f"checked,digits,worst_slack\n{checked},50,{WORST_SLACK}\n")
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert (rc, err) == (0, "")
    assert out == json.dumps({
        "tool": {"name": "growthlab", "version": "0.1.0"},
        "command": "gauss",
        "job": [{"key": "tmax", "value": str(tmax)},
                {"key": "dyadic-to", "value": "10000000"}],
        "result": {"checked": checked, "digits": 50, "margin": "1E-20",
                   "worst_slack": WORST_SLACK, "holds": True},
    }, indent=2) + "\n"


def test_verify_gauss_bound_bytes(capsys):
    rc, out, err = run(capsys, "verify", "--only", "2", "--no-timestamp")
    assert rc == 0
    detail = out.splitlines()[-1]
    head, _, tail = detail.partition(", ")
    assert head == ("PASS  2 gauss-bound            bound holds at 10011 "
                    "values of t (worst slack 5.283E+0")
    assert re.fullmatch(r"\d+\.\d\ds, budget 30s\)", tail)


def test_ehrhart_stock_and_custom(capsys):
    rc, out, _ = run(capsys, "ehrhart", "--polytope", "cross", "--n", "2",
                     "--kmax", "5", "--no-timestamp")
    assert rc == 0
    lines = out.splitlines()
    assert "k,count" in lines
    assert lines[-1] == "5,61"
    assert not any("# series: none" in l for l in lines)

    rc, out, _ = run(capsys, "ehrhart", "--ambient-dim", "2",
                     "--vertex", "0 0", "--vertex", "1 0", "--vertex", "0 1",
                     "--kmax", "10", "--format", "json", "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["counts"] == [str((k + 1) * (k + 2) // 2)
                                for k in range(11)]
    assert result["series"] is not None


def test_theta_command(capsys):
    rc, out, _ = run(capsys, "theta", "--gram", "2 1", "--gram", "1 2",
                     "--rmax", "8", "--no-timestamp")
    assert rc == 0
    lines = out.splitlines()
    assert "# lattice rank: 2" in lines
    assert "2,6" in lines
    assert "1,0" in lines

    rc, out, _ = run(capsys, "theta", "--rank", "2", "--rmax", "5",
                     "--format", "json", "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["counts"] == ["1", "4", "4", "0", "4", "8"]
    assert result["gram"] == [[1, 0], [0, 1]]

    rc, out, err = run(capsys, "theta", "--gram", "0")
    assert rc == 2
    assert "config error: field 'gram': gram matrix is not positive" in err


def test_verify_selection(capsys):
    rc, out, _ = run(capsys, "verify", "--only", "13")
    assert rc == 0
    assert "PASS 13" in out

    rc, out, err = run(capsys, "verify", "--only", "junk")
    assert rc == 2
    assert "argument error" in err

    rc, out, err = run(capsys, "verify", "--only", "99")
    assert rc == 2


def test_verify_known_failure(capsys):
    # the strict-decrease check is an honest open failure: the running
    # minimum for rank 3 ties exactly at K=1 and K=2
    rc, out, err = run(capsys, "verify", "--only", "12")
    assert rc == 4
    assert "FAIL 12" in out
    assert "1 of 1 checks failed" in err


def test_verify_output_file(capsys, tmp_path):
    target = tmp_path / "verify.csv"
    rc, out, _ = run(capsys, "verify", "--only", "13",
                     "--output", str(target), "--no-timestamp")
    assert rc == 0
    assert "PASS 13" in target.read_text()


def test_oversized_tables_are_config_errors(capsys):
    # refused before anything is allocated: the default budget is far
    # below 10**20, and a small --budget bounds a small table
    huge = str(10 ** 20)
    cases = [
        (("theta", "--gram", "1", "--rmax", huge), "rmax"),
        (("gauss", "--table", "--kmax", huge), "kmax"),
        (("gauss", "--check-bound", "--tmax", huge), "tmax"),
        (("theta", "--rank", "2", "--rmax", "10", "--budget", "10"), "rmax"),
        (("gauss", "--table", "--kmax", "10", "--budget", "10"), "kmax"),
        (("gauss", "--check-bound", "--tmax", "10", "--budget", "10"), "tmax"),
    ]
    for argv, field in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert f"field '{field}'" in err
        assert "Traceback" not in err
        assert out == ""


def test_oversized_stock_rank_is_config_error(capsys, tmp_path):
    # the 2*rank stock generators and inverses are refused before any is
    # built, so a huge rank returns at once instead of hanging
    huge = str(10 ** 11)
    cases = [
        ("growth", "--family", "free", "--rank", huge, "--kmax", "0"),
        ("growth", "--family", "free-abelian", "--rank", huge),
        ("analyze", "--family", "free", "--rank", "6", "--budget", "11"),
        ("growth", "--family", "free-abelian", "--rank", "6", "--budget", "11",
         "--no-symmetrize"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert "field 'rank'" in err
        assert "Traceback" not in err
        assert out == ""
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = free\nrank = 6\nbudget = 11\n")
    rc, out, err = run(capsys, "growth", "--config", str(cfg))
    assert rc == 2
    assert "line 2: field 'rank'" in err

    # 2*rank equal to the budget is allowed, and explicit generators are
    # not stock ones
    rc, out, err = run(capsys, "growth", "--family", "free", "--rank", "5",
                       "--budget", "10", "--kmax", "0", "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "0,1,1"
    rc, out, err = run(capsys, "growth", "--family", "free", "--rank", huge,
                       "--generator", "1", "--kmax", "3", "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "3,2,7"


def test_stock_free_abelian_counts_rank_squared_entries(capsys):
    # each of the rank stock generators is a vector of rank entries, so
    # rank 5 takes 25 units of the budget where a free group takes 10
    argv = ("growth", "--family", "free-abelian", "--rank", "5", "--kmax",
            "1", "--no-timestamp")
    rc, out, err = run(capsys, *argv, "--budget", "25")
    assert rc == 0
    assert out.splitlines()[-1] == "1,10,11"
    rc, out, err = run(capsys, *argv, "--budget", "24")
    assert rc == 2
    assert "field 'rank'" in err
    assert "the 25 entries of the 5 stock generators exceed the budget " \
        "of 24" in err
    assert out == ""


def test_oversized_stock_degree_is_config_error(capsys, tmp_path):
    # the degree - 1 stock transpositions of degree points each are
    # counted entry by entry before any is built: S_4 has 3 * 4 = 12
    sym = ("growth", "--family", "symmetric", "--degree", "4", "--kmax", "1",
           "--no-timestamp")
    rc, out, err = run(capsys, *sym, "--budget", "12")
    assert rc == 0
    assert out.splitlines()[-1] == "1,3,4"
    rc, out, err = run(capsys, *sym, "--budget", "11")
    assert rc == 2
    assert "field 'degree'" in err
    assert "12 entries of the 3 stock generators" in err
    assert "Traceback" not in err
    assert out == ""
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = symmetric\ndegree = 4\nbudget = 11\n")
    rc, out, err = run(capsys, "analyze", "--config", str(cfg))
    assert rc == 2
    assert "line 2: field 'degree'" in err


def test_ehrhart_work_counts_against_the_budget(capsys, tmp_path):
    # cross n=3 at kmax 8 counts sum (2k + 1)^2 = 968 lines over k = 1..8
    # after C(6, 3) = 20 facet subsets
    cross = ("ehrhart", "--polytope", "cross", "--n", "3", "--kmax", "8",
             "--no-timestamp")
    rc, out, err = run(capsys, *cross, "--budget", "968")
    assert rc == 0
    assert out.splitlines()[-1] == "8,833"
    rc, out, err = run(capsys, *cross, "--budget", "967")
    assert rc == 2
    assert "field 'kmax'" in err
    assert "at least 968 lines of dilates 1..8" in err
    assert out == ""
    # each dilate is a line at least, so a huge kmax is refused at once
    rc, out, err = run(capsys, "ehrhart", "--ambient-dim", "1", "--vertex",
                       "0", "--vertex", "1", "--kmax", str(10 ** 12))
    assert rc == 2
    assert f"at least {10 ** 12} lines" in err
    # the cuboctahedron tries C(12, 3) = 220 subsets, and kmax 0 none:
    # then only its 12 vertices of 4 entries each count
    root = ("ehrhart", "--polytope", "root", "--n", "3", "--no-timestamp")
    rc, out, err = run(capsys, *root, "--kmax", "1", "--budget", "219")
    assert rc == 2
    assert "field 'n'" in err
    assert "220 facet subsets of 12 vertices" in err
    rc, out, err = run(capsys, *root, "--kmax", "0", "--budget", "48")
    assert rc == 0
    assert out.splitlines()[-1] == "0,1"
    rc, out, err = run(capsys, *root, "--kmax", "0", "--budget", "47")
    assert rc == 2
    assert "field 'n': the 48 entries of the 12 stock vertices exceed " \
        "the budget of 47" in err
    assert out == ""
    # a custom polytope names its first vertex row
    cfg = tmp_path / "job.cfg"
    cfg.write_text("ambient-dim = 2\nbudget = 2\nvertex = 0 0\n"
                   "vertex = 1 0\nvertex = 0 1\nkmax = 1\n")
    rc, out, err = run(capsys, "ehrhart", "--config", str(cfg))
    assert rc == 2
    assert "line 3: field 'vertex'" in err
    assert "3 facet subsets of 3 vertices" in err


def test_stock_polytope_is_refused_before_it_is_built(capsys, monkeypatch):
    # a stock polytope's vertex count and dimension follow from n, so
    # its facet subsets are refused without building it
    from growthlab import ehrhart

    def unbuilt(n):
        raise AssertionError(f"polytope of n={n} built before the refusal")
    monkeypatch.setattr(ehrhart, "cross_polytope", unbuilt)
    monkeypatch.setattr(ehrhart, "root_polytope", unbuilt)
    # 2n vertices of the cross-polytope, n(n+1) of the root polytope
    for kind, n, vertices in (("cross", 80, 160), ("root", 30, 930)):
        rc, out, err = run(capsys, "ehrhart", "--polytope", kind, "--n",
                           str(n), "--kmax", "1")
        assert rc == 2
        assert f"field 'n': the {comb(vertices, n)} facet subsets of " \
            f"{vertices} vertices exceed the budget of 10000000" in err
        assert out == ""


def test_stock_polytope_counts_its_vertex_entries(capsys, tmp_path):
    # the 6 vertices of the octahedron have 3 entries each
    cross = ("ehrhart", "--polytope", "cross", "--n", "3", "--kmax", "0",
             "--no-timestamp")
    rc, out, err = run(capsys, *cross, "--budget", "18")
    assert rc == 0
    assert out.splitlines()[-1] == "0,1"
    rc, out, err = run(capsys, *cross, "--budget", "17")
    assert rc == 2
    assert "field 'n': the 18 entries of the 6 stock vertices exceed " \
        "the budget of 17" in err
    assert out == ""
    cfg = tmp_path / "job.cfg"
    cfg.write_text("polytope = cross\nkmax = 0\nn = 3\nbudget = 17\n")
    rc, out, err = run(capsys, "ehrhart", "--config", str(cfg))
    assert rc == 2
    assert "line 3: field 'n'" in err
    # the vertices are written down, not solved for, so n = 80 at kmax 0
    # builds at once and prints E(0) = 1 with the closed form
    rc, out, err = run(capsys, "ehrhart", "--polytope", "cross", "--n", "80",
                       "--kmax", "0", "--no-timestamp")
    assert rc == 0
    lines = out.splitlines()
    assert "# polytope: cross, ambient dim 80, 160 vertices" in lines
    assert lines[-2:] == ["k,count", "0,1"]


def test_dyadic_rows_and_identity_gram_count_against_the_budget(capsys,
                                                               tmp_path):
    # --dyadic-to 64 past --tmax 10 adds t = 16, 32, 64, whose discs
    # span 9 + 11 + 17 = 37 rows
    dyadic = ("gauss", "--check-bound", "--tmax", "10", "--dyadic-to", "64",
              "--no-timestamp")
    rc, out, err = run(capsys, *dyadic, "--budget", "37")
    assert rc == 0
    assert out.splitlines()[-1].startswith("14,50,")
    rc, out, err = run(capsys, *dyadic, "--budget", "36")
    assert rc == 2
    assert "field 'dyadic-to'" in err
    assert "37 disc rows of 3 dyadic values" in err
    assert out == ""
    cfg = tmp_path / "job.cfg"
    cfg.write_text("tmax = 10\nbudget = 36\ndyadic-to = 64\n")
    rc, out, err = run(capsys, "gauss", "--check-bound", "--config", str(cfg))
    assert rc == 2
    assert "line 3: field 'dyadic-to'" in err
    # a negative --dyadic-to would extend nothing, so it is refused
    rc, out, err = run(capsys, "gauss", "--check-bound", "--tmax", "5",
                       "--dyadic-to", "-3")
    assert rc == 2
    assert "field 'dyadic-to': value must be at least 0" in err
    assert out == ""
    cfg.write_text("tmax = 5\ndyadic-to = -3\n")
    rc, out, err = run(capsys, "gauss", "--check-bound", "--config", str(cfg))
    assert rc == 2
    assert "line 2: field 'dyadic-to': value must be at least 0" in err
    assert out == ""

    # the --fit grid up to 100 is t = 16, 19, 23, 27, 32, 38, 45, 54, 64,
    # 76, 91, each counted alone over 2 isqrt(t) + 1 rows: 143 in all
    fit = ("gauss", "--fit", "--tmax", "100", "--no-timestamp")
    rc, out, err = run(capsys, *fit, "--budget", "143")
    assert rc == 0
    assert out.splitlines()[-1].endswith(",3")
    rc, out, err = run(capsys, *fit, "--budget", "142")
    assert rc == 2
    assert "field 'tmax'" in err
    assert "143 disc rows of 11 grid values" in err
    assert out == ""

    # a gram matrix of rank 3 takes 27 elimination steps, whether it is
    # the identity of --rank or given as rows
    rc, out, err = run(capsys, "theta", "--rank", "3", "--rmax", "2",
                       "--budget", "27", "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "2,12"
    rc, out, err = run(capsys, "theta", "--rank", "3", "--rmax", "2",
                       "--budget", "26")
    assert rc == 2
    assert "field 'rank': the 27 elimination steps of a rank 3 gram " \
        "matrix exceed the budget of 26" in err
    assert out == ""
    cfg.write_text("rank = 3\nbudget = 26\n")
    rc, out, err = run(capsys, "theta", "--config", str(cfg))
    assert rc == 2
    assert "line 1: field 'rank'" in err
    cfg.write_text("budget = 26\ngram = 1 0 0\ngram = 0 1 0\n"
                   "gram = 0 0 1\n")
    rc, out, err = run(capsys, "theta", "--config", str(cfg))
    assert rc == 2
    assert "line 2: field 'gram': the 27 elimination steps" in err
    rc, out, err = run(capsys, "theta", "--config", str(cfg), "--budget",
                       "27", "--rmax", "2", "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "2,12"


def test_unread_config_key_is_config_error(capsys, tmp_path):
    # a misspelt or foreign key used to be echoed as an option and ignored
    cfg = tmp_path / "job.cfg"
    cfg.write_text("polytope = cross\nn = 2\nkmaxx = 99\n")
    rc, out, err = run(capsys, "ehrhart", "--config", str(cfg))
    assert rc == 2
    assert "line 3: field 'kmaxx'" in err
    assert out == ""
    cfg.write_text("kmax = 5\nbudget = 30\n")  # catalan reads its budget
    rc, out, err = run(capsys, "catalan", "--config", str(cfg),
                       "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "5,42"
    cfg.write_text("kmax = 5\n")
    rc, out, err = run(capsys, "verify", "--only", "13", "--config", str(cfg))
    assert rc == 2
    assert "line 1: field 'kmax'" in err
    rc, out, err = run(capsys, "catalan", "--config", str(cfg),
                       "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "5,42"


def test_unread_budget_flags_are_config_errors(capsys):
    rc, out, err = run(capsys, "verify", "--only", "13", "--budget", "1")
    assert rc == 2
    assert "field 'budget'" in err
    assert "Traceback" not in err
    assert out == ""
    # the commands that read it still take it
    rc, out, err = run(capsys, "ehrhart", "--polytope", "cross", "--n", "2",
                       "--budget", "1000")
    assert rc == 0
    rc, out, err = run(capsys, "catalan", "--kmax", "2", "--budget", "6")
    assert rc == 0
    rc, out, err = run(capsys, "theta", "--rank", "2", "--rmax", "4",
                       "--budget", "8")
    assert rc == 0
    rc, out, err = run(capsys, "gauss", "--check-bound", "--tmax", "4",
                       "--budget", "5")
    assert rc == 0
    rc, out, err = run(capsys, "gauss", "--fit", "--tmax", "100",
                       "--budget", "1000")
    assert rc == 0


def test_rounding_decides_no_check(capsys, monkeypatch):
    # the Gauss bound check decides in integers: at t = 0 the true slack
    # is 2 pi - 1, and a margin 1e-45 below it passes while one 1e-45
    # above it fails, so no rounding of the 50 digits shown decides it
    lo, _ = machin_pi(100)      # pi * 10^100 lies in (lo, lo + 2)
    with localcontext() as ctx:
        ctx.prec = 110
        slack = 2 * Decimal(lo).scaleb(-100) - 1
        below, above = slack - Decimal("1e-45"), slack + Decimal("1e-45")
    monkeypatch.setattr(gauss, "MARGIN", below)
    rc, out, err = run(capsys, "gauss", "--check-bound", "--tmax", "3",
                       "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == \
        "4,50,5.2831853071795864769252867665590057683943387987502E+0"
    monkeypatch.setattr(gauss, "MARGIN", above)
    with pytest.raises(CheckFailure) as exc:
        gauss.gauss_bound_check([3, 2, 0, 1])
    assert exc.value.context == 0
    assert "t=0" in str(exc.value)
    rc, out, err = run(capsys, "gauss", "--check-bound", "--tmax", "3",
                       "--no-timestamp")
    assert rc == 4
    assert "Gauss bound violated at t=0" in err
    assert "Traceback" not in err

    # beta(8)^(1/8) = 2.5509... is the smallest rate estimate; rounded
    # to one digit radius 4 would tie with it at 3 and win
    rc, out, err = run(capsys, "analyze", "--family", "heisenberg",
                       "--kmax", "8", "--format", "json", "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["precision_digits"] == "50"
    assert result["rate_upper"]["argmin"] == "8"
    assert result["rate_upper"]["minimum"].startswith("2.5509")


def test_table_within_budget(capsys):
    # a table of exactly --budget entries is allowed, and the budget is
    # echoed as a job option (rank 2 takes 8 elimination steps)
    rc, out, err = run(capsys, "theta", "--rank", "2", "--rmax", "8",
                       "--budget", "9", "--no-timestamp")
    assert rc == 0
    assert "Traceback" not in err
    assert "# option: budget = 9" in out
    assert out.splitlines()[-1] == "8,4"

    rc, out, err = run(capsys, "gauss", "--table", "--kmax", "10",
                       "--budget", "11", "--no-timestamp")
    assert rc == 0
    assert "Traceback" not in err
    assert out.splitlines()[-1] == "10,8,37"

    rc, out, err = run(capsys, "gauss", "--check-bound", "--tmax", "10",
                       "--budget", "11", "--no-timestamp")
    assert rc == 0
    assert "Traceback" not in err
    assert "11,50," in out


def _stock_payload(command, job, result):
    payload = {"tool": {"name": "growthlab", "version": "0.1.0"},
               "command": command,
               "job": [{"key": k, "value": v} for k, v in job],
               "result": result}
    return json.dumps(payload, indent=2) + "\n"


def _ehrhart_series(numerator, kmax):
    # sum_j h_j z^j / (1 - z)^(n+1) with n = len(h) - 1:
    # E(k) = sum_j h_j C(k - j + n, n)
    n = len(numerator) - 1
    return [sum(h * comb(k - j + n, n) for j, h in enumerate(numerator)
                if k >= j) for k in range(kmax + 1)]


def _series_json(numerator, denominator):
    # the series record as printed, its display written out here term by
    # term: signs between terms, no unit coefficient before z
    def shown(p):
        terms = []
        for k, c in enumerate(p):
            if c:
                var = "" if k == 0 else "z" if k == 1 else f"z^{k}"
                mag = "" if abs(c) == 1 and k else str(abs(c))
                sign = ("- " if c < 0 else "+ ") if terms else "-" * (c < 0)
                terms.append(sign + mag + var)
        return " ".join(terms)
    return {"numerator": [str(c) for c in numerator],
            "denominator": [str(c) for c in denominator],
            "display": f"({shown(numerator)}) / ({shown(denominator)})"}


def _custom_argv(vertices, basis, kmax):
    return ("ehrhart", *(a for v in vertices for a in ("--vertex", v)),
            *(a for b in basis for a in ("--basis", b)),
            "--ambient-dim", str(len(vertices[0].split())),
            "--kmax", str(kmax))


def _custom_job(vertices, basis, kmax):
    # flags are echoed as job options: rows first, then single values
    return ([("vertex", v) for v in vertices] + [("basis", b) for b in basis]
            + [("kmax", str(kmax)),
               ("ambient-dim", str(len(vertices[0].split())))])


def test_stock_ehrhart_and_theta_bytes(capsys):
    # the slow stock runs and custom polytopes, pinned byte for byte
    # against closed forms computed here: the l1-ball sum, C(n, j)^2
    # over (1 - z)^(n+1) and the eight-squares formula
    # r_8(m) = 16 sum_{d | m} (-1)^(m+d) d^3
    quartic = ["1", "-4", "6", "-4", "1"]
    cross = [sum(comb(3, i) * comb(k, i) * 2 ** i for i in range(4))
             for k in range(9)]
    assert cross == _ehrhart_series([1, 3, 3, 1], 8)
    root = _ehrhart_series([comb(3, j) ** 2 for j in range(4)], 6)
    cross3 = ["1 0 0", "-1 0 0", "0 0 -1", "0 0 1", "0 -1 0", "0 1 0"]
    root3 = ["1 1 0 0", "0 1 -1 0", "0 1 0 -1", "-1 -1 0 0", "-1 0 -1 0",
             "-1 0 0 -1", "0 -1 1 0", "1 0 1 0", "0 0 1 -1", "0 -1 0 1",
             "1 0 0 1", "0 0 -1 1"]
    root3_basis = ["1 1 0 0", "-1 0 -1 0", "0 0 1 -1"]
    triangle = ["1 0 0", "0 1 0", "0 0 1"]
    r8 = [1] + [16 * sum((-1) ** (m + d) * d ** 3
                         for d in range(1, m + 1) if m % d == 0)
                for m in range(1, 13)]
    # at n = 12 and kmax 0: (1 + z)^12 and C(12, j)^2 over (1 - z)^13
    den13 = [(-1) ** j * comb(13, j) for j in range(14)]
    expected = {
        ("ehrhart", "--polytope", "cross", "--n", "12", "--kmax", "0"):
            _stock_payload("ehrhart", [("polytope", "cross"), ("n", "12"),
                                       ("kmax", "0")], {
                "polytope": "cross", "ambient_dim": 12, "vertices": 24,
                "counts": ["1"],
                "series": _series_json([comb(12, j) for j in range(13)],
                                       den13)}),
        ("ehrhart", "--polytope", "root", "--n", "12", "--kmax", "0"):
            _stock_payload("ehrhart", [("polytope", "root"), ("n", "12"),
                                       ("kmax", "0")], {
                "polytope": "root", "ambient_dim": 13, "vertices": 156,
                "counts": ["1"],
                "series": _series_json([comb(12, j) ** 2 for j in range(13)],
                                       den13)}),
        ("ehrhart", "--polytope", "cross", "--n", "3", "--kmax", "8"):
            _stock_payload("ehrhart", [("polytope", "cross"), ("n", "3"),
                                       ("kmax", "8")], {
                "polytope": "cross", "ambient_dim": 3, "vertices": 6,
                "counts": [str(c) for c in cross],
                "series": {"numerator": ["1", "3", "3", "1"],
                           "denominator": quartic,
                           "display": "(1 + 3z + 3z^2 + z^3) / "
                                      "(1 - 4z + 6z^2 - 4z^3 + z^4)"}}),
        ("ehrhart", "--polytope", "root", "--n", "3", "--kmax", "6"):
            _stock_payload("ehrhart", [("polytope", "root"), ("n", "3"),
                                       ("kmax", "6")], {
                "polytope": "root", "ambient_dim": 4, "vertices": 12,
                "counts": [str(c) for c in root],
                "series": {"numerator": ["1", "9", "9", "1"],
                           "denominator": quartic,
                           "display": "(1 + 9z + 9z^2 + z^3) / "
                                      "(1 - 4z + 6z^2 - 4z^3 + z^4)"}}),
        # the lattice-count presentations at seed 1: the cross-polytope
        # under a signed permutation, the root polytope with a permuted
        # basis; too few counts for the recognizer, so no series
        _custom_argv(cross3, (), 8):
            _stock_payload("ehrhart", _custom_job(cross3, (), 8), {
                "polytope": "custom", "ambient_dim": 3, "vertices": 6,
                "counts": [str(c) for c in cross], "series": None}),
        _custom_argv(root3, root3_basis, 6):
            _stock_payload("ehrhart", _custom_job(root3, root3_basis, 6), {
                "polytope": "custom", "ambient_dim": 4, "vertices": 12,
                "counts": [str(c) for c in root], "series": None}),
        # a triangle in Z^3 with C(k + 2, 2) points in its k-th dilate
        _custom_argv(triangle, (), 9):
            _stock_payload("ehrhart", _custom_job(triangle, (), 9), {
                "polytope": "custom", "ambient_dim": 3, "vertices": 3,
                "counts": [str(comb(k + 2, 2)) for k in range(10)],
                "series": {"numerator": ["1"],
                           "denominator": ["1", "-3", "3", "-1"],
                           "display": "(1) / (1 - 3z + 3z^2 - z^3)"}}),
        ("theta", "--rank", "8", "--rmax", "12"):
            _stock_payload("theta", [("rank", "8"), ("rmax", "12")], {
                "rmax": 12, "counts": [str(c) for c in r8], "rank": 8,
                "gram": [[int(i == j) for j in range(8)]
                         for i in range(8)]}),
    }
    for argv, text in expected.items():
        rc, out, err = run(capsys, *argv, "--format", "json",
                           "--no-timestamp")
        assert rc == 0, argv
        assert err == ""
        assert out == text, argv


def test_root_closed_form_at_n30(capsys):
    # written down, not reduced, so n = 30 at kmax 0 prints E(0) = 1 at
    # once; the numerator sums to the normalized volume C(60, 30)
    rc, out, err = run(capsys, "ehrhart", "--polytope", "root", "--n", "30",
                       "--kmax", "0", "--format", "json", "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["counts"] == ["1"]
    assert sum(map(int, result["series"]["numerator"])) == comb(60, 30)


def test_root_closed_form_mismatch_exits_4(capsys, monkeypatch):
    from growthlab import ehrhart
    legendre = ehrhart.legendre
    monkeypatch.setattr(ehrhart, "legendre",
                        lambda n: (legendre(n)[0] + 1, *legendre(n)[1:]))
    rc, out, err = run(capsys, "ehrhart", "--polytope", "root", "--n", "3")
    assert rc == 4
    assert out == ""
    assert "check failed: root polytope closed forms disagree at n=3" in err


@pytest.mark.parametrize("argv, field", [
    (("growth", "--family", "heisenberg", "--rank", "7"), "rank"),
    (("growth", "--family", "heisenberg", "--generator", "1"), "generator"),
    (("growth", "--family", "symmetric", "--degree", "3", "--generator", "1"),
     "generator"),
    (("gauss", "--table", "--kmax", "3", "--tmax", "99"), "tmax"),
    (("gauss", "--table", "--kmax", "3", "--dyadic-to", "64"), "dyadic-to"),
    (("gauss", "--fit", "--tmax", "100", "--kmax", "5"), "kmax"),
    (("gauss", "--check-bound", "--tmax", "10", "--kmax", "5"), "kmax"),
    (("gauss", "--fit", "--tmax", "100", "--dyadic-to", "1000"), "dyadic-to"),
    (("theta", "--rank", "3", "--gram", "1"), "rank"),
    (("ehrhart", "--polytope", "cross", "--n", "2", "--basis", "1 0"),
     "basis"),
    (("ehrhart", "--polytope", "cross", "--n", "2", "--ambient-dim", "5"),
     "ambient-dim"),
    (("ehrhart", "--polytope", "root", "--n", "2", "--vertex", "1"), "vertex"),
    (("ehrhart", "--ambient-dim", "2", "--vertex", "0 0", "--vertex", "1 0",
      "--vertex", "0 1", "--n", "7"), "n"),
])
def test_key_read_only_by_another_family_or_mode_is_refused(capsys, argv,
                                                           field):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert f"field '{field}'" in err


def test_unread_key_in_file_names_its_line(capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("kmax = 3\ntmax = 99\n")
    rc, out, err = run(capsys, "gauss", "--table", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert "line 2: field 'tmax'" in err


def _spheres(capsys, *argv):
    rc, out, err = run(capsys, "growth", *argv, "--format", "json",
                       "--no-timestamp")
    assert rc == 0, err
    result = json.loads(out)["result"]
    assert result["group"].endswith("(as-given)")
    return [int(s) for s in result["table"]["sphere_sizes"]]


def test_stock_markings_honour_as_given(capsys):
    # the free monoid on two letters: 2^k words of length k, all distinct
    assert _spheres(capsys, "--family", "free", "--rank", "2", "--kmax", "8",
                    "--no-symmetrize") == [2 ** k for k in range(9)]

    # positive words in x = I + E12 and y = I + E23: every word for an
    # element has the same length, so the k-sphere holds the distinct
    # products of the 2^k words of length k
    def mul(a, b):
        return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(3))
                           for j in range(3)) for i in range(3))
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    layer = {((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    expected = []
    for _ in range(7):
        expected.append(len(layer))
        layer = {mul(w, g) for w in layer for g in (x, y)}
    assert _spheres(capsys, "--family", "heisenberg", "--kmax", "6",
                    "--no-symmetrize") == expected


def test_verify_json_on_stdout(capsys):
    rc, out, err = run(capsys, "verify", "--only", "13", "--format", "json",
                       "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert len(result) == 1
    assert result[0]["id"] == 13
    assert "PASS 13" in err  # progress goes to stderr


# a minimal job per command, and a valid value for every option that feeds
# the job document (None for a switch)
_BASE_JOBS = {
    "growth": {"--family": "free-abelian", "--rank": "1", "--kmax": "2"},
    "analyze": {"--family": "free-abelian", "--rank": "1", "--kmax": "6"},
    "gauss": {"--table": None, "--kmax": "2"},
    "ehrhart": {"--polytope": "cross", "--n": "1", "--kmax": "2"},
    "theta": {"--gram": "1", "--rmax": "2"},
    "catalan": {"--kmax": "2"},
    "verify": {"--only": "13"},
}
_OPTION_VALUES = {
    "family": "free-abelian", "rank": "1", "degree": "2", "dim": "1",
    "generator": "1", "symmetrize": None, "kmax": "6",
    "budget": "1000", "dye-convention": "as-given",
    "tmax": "10", "dyadic-to": "64", "polytope": "cross",
    "n": "1", "ambient-dim": "1", "vertex": "0", "basis": "1", "gram": "1",
    "rmax": "2",
}


def _flags(job: dict) -> list:
    """The argv of a job given as {flag: value}, None marking a switch."""
    return [part for flag, value in job.items()
            for part in ((flag,) if value is None else (flag, value))]


_PLUMBING = {"help", "config", "output", "format", "no_timestamp", "only",
             "table", "check_bound", "fit"}


def _job_options():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            if action.dest not in _PLUMBING:
                yield command, action.option_strings[0], action.dest


@pytest.mark.parametrize("command, option, dest", list(_job_options()))
def test_no_flag_is_silently_dropped(capsys, command, option, dest):
    # every option either lands in the echoed job or is refused by name
    key = dest.replace("_", "-")
    job = dict(_BASE_JOBS[command])
    job[option] = _OPTION_VALUES[key]  # replaces the base job's own value
    rc, out, err = run(capsys, command, *_flags(job), "--no-timestamp")
    if rc == 0:
        shown = job[option] if job[option] is not None else "True"
        assert f"# option: {key} = {shown}" in out.splitlines()
    else:
        assert rc == 2, err
        assert f"field '{key}'" in err


@pytest.mark.parametrize("command", sorted(_BASE_JOBS))
def test_precision_is_no_option(capsys, tmp_path, command):
    # decimals are shown at one fixed precision: the flag is a usage
    # error and the config key is refused like any key no job reads
    argv = _flags(_BASE_JOBS[command])
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--precision", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--precision" in err
    assert "Traceback" not in err
    assert out == ""

    cfg = tmp_path / "job.cfg"
    cfg.write_text("precision = 5\n")
    rc, out, err = run(capsys, command, *argv, "--config", str(cfg))
    assert rc == 2
    assert "line 1: field 'precision'" in err
    assert out == ""


@pytest.mark.parametrize("argv, key, value", [
    (("growth", "--family", "free-abelian", "--rank", "1", "--kmax", "11"),
     "guard", "4"),
    (("ehrhart", "--ambient-dim", "1", "--vertex", "0", "--vertex", "1",
      "--kmax", "9"), "guard", "4"),
    (("gauss", "--check-bound", "--tmax", "10"), "margin", "1e-20"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_guard_and_margin_are_no_options(capsys, tmp_path, argv, key, value):
    # recognition holds back a fixed 4 terms and the bound check demands
    # a fixed margin: the flag is a usage error and the config key is
    # refused like any key no job reads
    command, *argv = argv
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, f"--{key}", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"--{key}" in err
    assert "Traceback" not in err
    assert out == ""

    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"budget = 1000\n{key} = {value}\n")
    rc, out, err = run(capsys, command, *argv, "--config", str(cfg))
    assert rc == 2
    assert f"line 2: field '{key}'" in err
    assert out == ""


# (config file bytes or None, argv after the command, field named or None);
# the config file, when given, is passed as --config
MALFORMED = {
    "non-utf8-config": (b"family = free\nrank = \xff2\n", ["growth"], None),
    "repeated-key": (b"family = free\nrank = 2\nkmax = 3\nkmax = 4\n",
                     ["growth"], "kmax"),
    "non-pd-gram": (None, ["theta", "--gram", "1 2", "--gram", "2 1"], "gram"),
    "asymmetric-gram": (b"gram = 1 2\ngram = 0 1\n", ["theta"], "gram"),
    "non-numeric-file-value": (b"family = free\nrank = two\n", ["growth"],
                               "rank"),
    "non-numeric-flag": (None, ["theta", "--rank", "2", "--rmax", "x"],
                         "rmax"),
    "negative-value": (None, ["growth", "--family", "free", "--rank", "2",
                              "--kmax", "-1"], "kmax"),
    "negative-budget": (b"budget = -5\n", ["catalan"], "budget"),
    "unwritable-output": (None, ["catalan", "--output",
                                 "{tmp}/missing/out.csv"], None),
    # refused before any work: 2 isqrt(t) + 1 disc rows per dyadic t,
    # and the rank^3 elimination steps of the identity gram
    "huge-dyadic-to": (None, ["gauss", "--check-bound", "--tmax", "10",
                              "--dyadic-to", str(10 ** 30)], "dyadic-to"),
    "huge-theta-rank": (None, ["theta", "--rank", "100000"], "rank"),
    # the (degree - 1) * degree entries of the stock transpositions
    "huge-symmetric-degree": (None, ["growth", "--family", "symmetric",
                                     "--degree", "100000", "--kmax", "1"],
                              "degree"),
    # and the 2 isqrt(t) + 1 disc rows of each value of the --fit grid
    "huge-fit-tmax": (None, ["gauss", "--fit", "--tmax", str(10 ** 20)],
                      "tmax"),
    # kmax*(kmax+1) bits bound the Catalan numbers c_0..c_kmax
    "huge-catalan-kmax": (None, ["catalan", "--kmax", str(10 ** 8)], "kmax"),
    # C(80, 40) facet subsets of the 40-dimensional cross-polytope
    "huge-cross-n": (None, ["ehrhart", "--polytope", "cross", "--n", "40",
                            "--kmax", "1"], "n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_cleanly(tmp_path, case):
    data, argv, field = MALFORMED[case]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if data is not None:
        cfg = tmp_path / "job.cfg"
        cfg.write_bytes(data)
        argv += ["--config", str(cfg)]
    src = str(Path(growthlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "growthlab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode in (2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    if field is not None:
        # a config diagnostic, or argparse's for a flag of the wrong type
        assert (f"field '{field}'" in proc.stderr
                or f"argument --{field}:" in proc.stderr), proc.stderr


# a child that runs one CLI command in-process and prints its exit code
# and the modules it loaded, as JSON on its last stdout line
IMPORTS = """
import json, sys
from growthlab.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(sys.modules)]))
"""


def _loaded_modules(*argv, rc=0):
    """The growthlab submodules a command loads, without the package
    prefix, and the top-level names of every other module it loads."""
    src = str(Path(growthlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORTS, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == rc, proc.stderr
    ours = {m.removeprefix("growthlab.") for m in loaded
            if m.startswith("growthlab.")}
    others = {m.partition(".")[0] for m in loaded
              if m.partition(".")[0] != "growthlab"}
    return ours, others


@pytest.mark.parametrize("argv", [
    ("theta", "--rank", "8", "--rmax", "4"),
    ("gauss", "--check-bound", "--tmax", "100"),
    ("ehrhart", "--polytope", "cross", "--n", "2", "--kmax", "3"),
], ids=lambda argv: argv[0])
def test_lattice_commands_load_no_group_kernel(argv):
    loaded, _ = _loaded_modules(*argv, "--no-timestamp")
    assert argv[0] in loaded
    assert loaded.isdisjoint({"groups", "cayley", "analysis", "acceptance"})


def test_growth_loads_no_lattice_kernel():
    loaded, _ = _loaded_modules("growth", "--family", "free", "--rank", "2",
                                "--kmax", "3", "--no-timestamp")
    assert "cayley" in loaded
    assert loaded.isdisjoint({"ehrhart", "theta", "gauss", "acceptance"})


def test_analyze_loads_no_lattice_kernel():
    # the digit count of its decimals lives in config, not in gauss
    loaded, _ = _loaded_modules("analyze", "--family", "heisenberg",
                                "--kmax", "6", "--no-timestamp")
    assert "analysis" in loaded
    assert loaded.isdisjoint({"gauss", "ehrhart", "theta", "acceptance"})


@pytest.mark.parametrize("argv,loads", [
    (("gauss", "--check-bound", "--tmax", "100"), False),
    (("gauss", "--table", "--kmax", "5"), False),
    (("verify", "--only", "2"), False),
    (("gauss", "--fit", "--tmax", "200"), True),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, tuple) else None)
def test_only_the_fit_loads_statistics(argv, loads):
    # the bound check decides in integers; only the fit's regression
    # needs statistics, which also loads fractions
    _, others = _loaded_modules(*argv, "--no-timestamp")
    assert ("statistics" in others) is loads


def test_version_loads_no_kernel():
    loaded, _ = _loaded_modules("--version")
    assert loaded == {"cli", "config", "errors"}


@pytest.mark.parametrize("argv", [
    ("growth", "--family", "free-abelian", "--rank", "3", "--kmax", "4"),
    ("analyze", "--family", "heisenberg", "--kmax", "6",
     "--dye-convention", "as-given"),
    ("ehrhart", "--polytope", "root", "--n", "2", "--kmax", "3"),
    ("theta", "--rank", "8", "--rmax", "4"),
    ("gauss", "--check-bound", "--tmax", "100"),
    ("gauss", "--fit", "--tmax", "200"),
    ("catalan", "--kmax", "5"),
    ("verify",),
    ("--version",),
], ids=lambda argv: " ".join(argv[:2]))
def test_no_command_loads_dataclasses_or_inspect(argv):
    # building a dataclass needs inspect, which loads ast, dis and
    # tokenize: about 20 ms of every process, so records are plain
    # classes (errors.Record).  verify exits 4: check 12 fails as designed
    _, others = _loaded_modules(*argv, rc=4 if argv == ("verify",) else 0)
    assert others.isdisjoint({"dataclasses", "inspect", "ast", "dis",
                              "tokenize"})


def test_fit_grid_is_rounded_in_integers():
    assert [_fit_grid_value(j) for j in range(201)] == \
        [round(2 ** (j / 4)) for j in range(201)]
    # past j = 4096 the float 2^(j/4) overflows; each integer value t
    # still satisfies t - 1/2 < 2^(j/4) < t + 1/2
    with pytest.raises(OverflowError):
        round(2 ** (4100 / 4))
    for j in (4097, 4100, 5003):
        t = _fit_grid_value(j)
        assert (2 * t - 1) ** 4 < 2 ** (j + 4) < (2 * t + 1) ** 4


def _readme_commands():
    """The argv of every `growthlab ...` line in README.md's fenced
    blocks, with a shell prompt and trailing comment dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    fenced = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.removeprefix("$ ").startswith("growthlab "):
            yield shlex.split(line.removeprefix("$ "), comments=True)[1:]


def test_readme_commands_parse():
    # parsed only, never run: a flag the parser no longer has fails here
    commands = list(_readme_commands())
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README shows growthlab {shlex.join(argv)}")
