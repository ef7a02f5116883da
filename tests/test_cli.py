"""CLI behaviour: reports, exit codes, determinism, schema round-trip."""

import json
import subprocess
import sys

import jsonschema
import pytest
from click.testing import CliRunner

from ncbundles import REPORT_SCHEMA, WindowInstabilityError, cli
from ncbundles.cli import main


runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(main, list(args), env=env)


def report_of(result):
    assert result.stdout, result.stderr
    rep = json.loads(result.stdout)
    jsonschema.validate(rep, REPORT_SCHEMA)
    return rep


def test_h1_empty_for_w1():
    res = invoke("h1", "--k", "1")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["kind"] == "h1"
    assert rep["result"]["count"] == 0


def test_h1_nonempty_for_w3():
    res = invoke("h1", "--k", "3", "--max-l", "1", "--max-i", "1",
                 "--max-s", "4")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["result"]["count"] > 0
    assert "z^-1*u2^2" in rep["result"]["monomials"]


def test_stalk_frozen_example():
    res = invoke("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
                 "--point", "1,0,1,0")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["result"]["stalk"] == 3


def test_stalk_emit_matrix():
    res = invoke("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
                 "--point", "1,1,0,0", "--emit-matrix")
    rep = report_of(res)
    mat = rep["result"]["matrix"]
    assert mat["rows"] == ["z^3*u1", "z^2*u1", "z^3*u2", "z^2*u2"]
    assert len(mat["entries_rowmajor"]) == 4
    assert ["lambda", 0] in mat["columns"]


def test_stalk_error_paths():
    assert invoke("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
                  "--point", "1,oops,0,0").exit_code == 1
    # bad input the package rejects is reported as a usage error
    for k, sigma, point in (("1", "gen9", "1,0,0,0"),
                            ("3", "gen1", "1,0,0,0"),
                            ("1", "u1*gen1", "0,0,0,0"),
                            ("1", "u1*gen1", "1,0,0")):
        res = invoke("stalk", "--k", k, "--j", "2", "--sigma", sigma,
                     "--point", point)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error (usage): "), res.stderr


@pytest.mark.parametrize("exc, kind", [
    (AssertionError("identity shift column mismatch"), "invariant"),
    (KeyError("row"), "invariant"),
    (WindowInstabilityError("rank moved under window bump"), "instability"),
])
def test_error_kind_engine_failure(monkeypatch, exc, kind):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "stalk_dimension", broken)
    res = invoke("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
                 "--point", "1,0,1,0")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"error ({kind}): {exc}\n"


def test_star_check_passes():
    res = invoke("star-check", "--k", "1", "--trials", "2", "--seed", "3")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["result"]["status"] == "PASS"
    assert rep["result"]["failures"] == []
    assert rep["seed"] == 3


def test_normalize_command(tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("z^-1\nz\n")
    res = invoke("normalize", "--k", "1", "--sigma", "gen1", "--f", str(f))
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["result"]["normalized"] is True
    assert rep["result"]["a"] == "1 ; -z^2"
    assert rep["result"]["residuals"] == ["0"]


def test_normalize_missing_file():
    res = invoke("normalize", "--k", "1", "--sigma", "gen1",
                 "--f", "/nonexistent/f.txt")
    assert res.exit_code == 1


def test_verify_extremal_pass():
    res = invoke("verify", "--k", "1", "--j", "3", "--sigma", "u1*gen1",
                 "--trials", "3")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["result"]["status"] == "PASS"


def test_verify_basic_flags_axis_exceedance():
    res = invoke("verify", "--k", "1", "--j", "2", "--sigma", "gen1",
                 "--trials", "3")
    assert res.exit_code == 2
    rep = report_of(res)
    assert rep["result"]["status"] == "EXCEEDS"
    names = {c["name"]: c["status"] for c in rep["result"]["claims"]}
    assert names["generic-rigidity"] == "PASS"
    assert names["single-coordinate-rigidity"] == "EXCEEDS"


def test_stratify_deterministic_bytes():
    args = ("stratify", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
            "--seed", "5", "--draws", "2")
    a = invoke(*args)
    b = invoke(*args)
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.stdout == b.stdout
    rep = report_of(a)
    assert set(rep["result"]["strata"]) == {"2", "3"}


def test_stratify_worker_count_invariant():
    base = ("stratify", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
            "--seed", "5", "--draws", "2")
    a = invoke(*base, "--workers", "1")
    b = invoke(*base, "--workers", "2")
    sa, sb = json.loads(a.stdout), json.loads(b.stdout)
    assert sa["result"] == sb["result"]


def test_oracle_check_command():
    res = invoke("oracle-check", "--trials", "1", "--seed", "11")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["result"]["status"] == "PASS"
    assert rep["result"]["total_mismatches"] == 0
    assert len(rep["result"]["per_config"]) == 8


def test_seed_env_override():
    res = invoke("star-check", "--k", "1", "--trials", "1",
                 env={"NCBUNDLES_SEED": "123"})
    rep = report_of(res)
    assert rep["seed"] == 123
    bad = invoke("star-check", "--k", "1", "--trials", "1",
                 env={"NCBUNDLES_SEED": "not-a-number"})
    assert bad.exit_code == 1


def test_default_seed_when_unset():
    res = invoke("star-check", "--k", "2", "--trials", "1",
                 env={"NCBUNDLES_SEED": None})
    rep = report_of(res)
    assert rep["seed"] == 97


def test_usage_error_exit_code():
    assert invoke("stalk", "--k", "1").exit_code == 1      # missing options
    assert invoke("no-such-command").exit_code == 1


def test_console_script_wiring():
    out = subprocess.run(
        [sys.executable, "-m", "ncbundles.cli", "h1", "--k", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["tool"] == "ncbundles" and rep["result"]["count"] == 0
