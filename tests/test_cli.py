"""CLI behaviour: reports, exit codes, determinism, schema round-trip."""

import json
import subprocess
import sys

import jsonschema
import pytest
from click.testing import CliRunner

from ncbundles import WindowInstabilityError, cli, engine
from ncbundles.cli import REPORT_SCHEMA, main
from ncbundles.engine import stalk_dimension
from ncbundles.poisson import parse_sigma_spec

from conftest import plant_row


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


@pytest.mark.parametrize("option", ["--max-l", "--max-i", "--max-s"])
def test_h1_rejects_negative_bounds(option):
    res = invoke("h1", "--k", "3", option, "-1")
    assert res.exit_code == 1
    assert res.stdout == ""
    name = option[2:].replace("-", "_")
    assert res.stderr == f"error (usage): {name} must be at least 0, got -1\n"


def test_h1_accepts_zero_bounds():
    res = invoke("h1", "--k", "3", "--max-l", "0", "--max-i", "0",
                 "--max-s", "0")
    assert res.exit_code == 0
    assert report_of(res)["result"]["count"] == 0


def test_version_needs_no_package_metadata(monkeypatch):
    # a checkout run with PYTHONPATH=src has no installed metadata
    import importlib.metadata

    def missing(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", missing)
    res = invoke("--version")
    assert res.exit_code == 0
    assert res.stdout.rstrip().endswith("version 0.1.0")


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


def test_point_with_zero_denominator_names_the_coordinate():
    # as --sigma names the factor '1/0', --point names the coordinate
    res = invoke("stalk", "--k", "1", "--j", "2", "--sigma", "gen1",
                 "--point", "1, 1/0 ,1,1")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.endswith("Error: bad point '1, 1/0 ,1,1': zero "
                               "denominator in coordinate '1/0'\n")


@pytest.mark.parametrize("args", [
    ("stratify", "--k", "1", "--j", "1", "--sigma", "gen1"),
    ("stalk", "--k", "1", "--j", "1", "--sigma", "gen1", "--point", "1"),
    ("verify", "--k", "1", "--j", "1", "--sigma", "gen1"),
])
def test_j_below_two_is_usage_error(args):
    # j = 1 has no moduli directions; a scan over none would pass vacuously
    res = invoke(*args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == ("error (usage): no moduli directions below "
                          "j = 2, got j=1\n")


@pytest.mark.parametrize("command", ["stalk", "star-check", "normalize"])
def test_zero_denominator_is_usage_error(tmp_path, command):
    f = tmp_path / "f.txt"
    f.write_text("1/0*z\n")
    args = {
        "stalk": ("stalk", "--k", "1", "--j", "2", "--sigma", "1/0*gen1",
                  "--point", "1,1,1,1"),
        "star-check": ("star-check", "--k", "1", "--sigma", "1/0*gen1"),
        "normalize": ("normalize", "--k", "1", "--sigma", "gen1",
                      "--f", str(f)),
    }[command]
    res = invoke(*args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error (usage): "), res.stderr


ENGINE_FAILURES = [
    (AssertionError("identity shift column mismatch"), "invariant"),
    (KeyError("row"), "invariant"),
    (WindowInstabilityError("rank moved under window bump"), "instability"),
]


@pytest.mark.parametrize("exc, kind", ENGINE_FAILURES)
def test_error_kind_engine_failure(monkeypatch, exc, kind):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "stalk_dimension", broken)
    res = invoke("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
                 "--point", "1,0,1,0")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"error ({kind}): {exc}\n"


def test_instability_names_the_point_as_stalk_takes_it(monkeypatch):
    # the plant of test_stability_check_can_fail: a column past the bump-0
    # window that enlarges the span at the point; the error names the
    # point in --point syntax, so it can be pasted back into stalk
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stalk_dimension(1, 2, sigma, ["1/2", 1, 0, 0])
    master = engine.cached(engine._build_master, 1, 2, sigma, "derived")
    row = master.rows[[m.render() for m in master.rows].index(
        rep.quotient_rows[0])]
    monkeypatch.setattr(engine, "_MASTERS", {})
    plant_row(monkeypatch, master.tags[master.narrow], row)
    res = invoke("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
                 "--point", "1/2,1,0,0")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == ("error (instability): rank moved 2 -> 3 under "
                          "window bump (k=1, j=2, point=1/2,1,0,0)\n")


@pytest.mark.parametrize("name, args", [
    ("h1_obstruction_basis", ("h1", "--k", "1")),
    ("jacobi_defect", ("star-check", "--k", "1", "--trials", "1")),
    ("normalize_line_bundle",
     ("normalize", "--k", "1", "--sigma", "gen1", "--f", "f.txt")),
    ("stratify", ("stratify", "--k", "1", "--j", "2", "--sigma", "gen1")),
    ("verify_claims", ("verify", "--k", "1", "--j", "2", "--sigma", "gen1")),
    ("oracle_check", ("oracle-check", "--trials", "1")),
], ids=["h1", "star-check", "normalize", "stratify", "verify",
        "oracle-check"])
@pytest.mark.parametrize("exc, kind", ENGINE_FAILURES)
def test_error_kind_of_every_command(monkeypatch, tmp_path, name, args, exc,
                                     kind):
    # every command reports a failure of the package, wherever it is raised
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("z^-1\nz\n")
    monkeypatch.setattr(cli, name, broken)
    res = invoke(*args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"error ({kind}): {exc}\n"


def test_emit_matrix_failure_is_reported(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("identity shift column mismatch")

    monkeypatch.setattr(cli, "build_cancellation_system", broken)
    res = invoke("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
                 "--point", "1,0,1,0", "--emit-matrix")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error (invariant): ")


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


def test_normalize_negative_order_is_usage_error(tmp_path):
    # an order below 0 leaves no classical coefficient to normalize; the
    # message names the option
    f = tmp_path / "f.txt"
    f.write_text("z^-1\n")
    res = invoke("normalize", "--k", "1", "--sigma", "gen1", "--f", str(f),
                 "--order", "-1")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == "error (usage): order must be at least 0, got -1\n"


@pytest.mark.parametrize("f_text, sigma", [
    ("z - - u1\n", "gen1"),
    ("z^-1\n", "--u1*gen1"),
], ids=["f", "sigma"])
def test_normalize_rejects_a_sign_with_no_term(tmp_path, f_text, sigma):
    # a run of signs once parsed, "z - - u1" with the wrong sign
    f = tmp_path / "f.txt"
    f.write_text(f_text)
    res = invoke("normalize", "--k", "1", "--sigma", sigma, "--f", str(f))
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error (usage): no term after '-'")


def test_verify_extremal_pass():
    res = invoke("verify", "--k", "1", "--j", "3", "--sigma", "u1*gen1")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["result"]["status"] == "PASS"


def test_verify_basic_flags_axis_exceedance():
    res = invoke("verify", "--k", "1", "--j", "2", "--sigma", "gen1")
    assert res.exit_code == 2
    rep = report_of(res)
    assert rep["result"]["status"] == "EXCEEDS"
    names = {c["name"]: c["status"] for c in rep["result"]["claims"]}
    assert names["generic-rigidity"] == "PASS"
    assert names["single-coordinate-rigidity"] == "EXCEEDS"


def test_stratify_deterministic_bytes():
    args = ("stratify", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
            "--seed", "5")
    a = invoke(*args)
    b = invoke(*args)
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.stdout == b.stdout
    rep = report_of(a)
    assert set(rep["result"]["strata"]) == {"2", "3"}


def test_stratify_samples_past_the_longest_range():
    # at j = 17 there are 2^64 - 1 masks, more than a range can count
    # (len() overflows), so the sample is drawn mask by mask; the top
    # corank 4j - 5 lies on mask 1 and the generic stalk is 2j - k - 1
    res = invoke("stratify", "--k", "1", "--j", "17", "--sigma", "u1*gen1",
                 "--pattern-cap", "2")
    assert res.exit_code == 0, res.stderr
    rep = report_of(res)["result"]
    assert rep["patterns_total"] == 2 ** 64 - 1
    assert rep["patterns_scanned"] == 1 + 1 + 64
    assert (rep["max_corank"], rep["max_corank_witness"]["mask"]) == (63, 1)
    assert min(map(int, rep["strata"])) == 32
    assert rep["certificate"]["certified"]


STRATIFY = ("stratify", "--k", "1", "--j", "2", "--sigma", "u1*gen1")


# explicit ids keep each case's name fixed when a case is added or dropped
@pytest.mark.parametrize("args, name", [
    pytest.param(STRATIFY + ("--pattern-cap", "0"), "pattern_cap",
                 id="args2-pattern_cap"),
    pytest.param(("oracle-check", "--trials", "0"), "trials",
                 id="args3-trials"),
    pytest.param(("star-check", "--k", "1", "--trials", "0"), "trials",
                 id="args4-trials"),
])
def test_count_below_one_is_usage_error(args, name):
    # a count of 0 would check nothing and still report PASS
    res = invoke(*args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"error (usage): {name} must be at least 1, got 0\n"


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
