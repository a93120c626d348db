import json

import pytest

from growthlab.cli import main


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

    # a single flag overrides the file value
    rc, out, _ = run(capsys, "growth", "--config", str(cfg),
                     "--kmax", "2", "--no-timestamp")
    assert rc == 0
    assert out.splitlines()[-1] == "2,8,13"

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


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    rc, out, _ = run(capsys, "catalan", "--kmax", "7",
                     "--output", str(target), "--no-timestamp")
    assert rc == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[-1] == "7,429"
    assert "k,catalan" in lines


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
    assert "51,50," in out

    rc, out, _ = run(capsys, "gauss", "--check-bound", "--tmax", "20",
                     "--margin", "10")
    assert rc == 4

    # a margin must be a finite nonnegative number: a negative one would
    # weaken the check
    for bad in ("abc", "-5", "NaN", "Infinity", "-inf"):
        rc, out, err = run(capsys, "gauss", "--check-bound", "--tmax", "20",
                           f"--margin={bad}")
        assert rc == 2, bad
        assert "field 'margin'" in err
        assert out == ""

    rc, out, _ = run(capsys, "gauss", "--fit", "--tmax", "2000",
                     "--format", "json", "--no-timestamp")
    assert rc == 0
    result = json.loads(out)["result"]
    assert isinstance(result["alpha"], float)
    assert all(len(w) == 2 for w in result["windows"])


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
    assert rc == 4
    assert "check failed" in err


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
