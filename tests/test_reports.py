"""Pinned report corpus: every CLI command's bytes, checked against a record.

tests/reports.json holds, for each invocation in CASES, its exit code, the
SHA-256 of its stdout and the first line of its stderr.  The invocations
run in-process through click's CliRunner, each in an empty directory that
holds only FILES.  A change that means to alter a report re-records the
file by running this module as a script, which prints the args of every
entry it adds, changes or drops, so a re-record can be reviewed from its
output:

    PYTHONPATH=src python tests/test_reports.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ncbundles.cli import main

CORPUS = Path(__file__).with_name("reports.json")
FILES = {"poly.txt": "z^-1\nz\n", "bad.txt": "1/0*z\n"}

# the configurations of perfbench's claims-cold workload
VERIFY = ([(1, 3, f"gen{n}") for n in range(1, 5)]
          + [(2, 3, f"gen{n}") for n in range(1, 6)]
          + [(1, 3, "u1*gen1"), (2, 3, "u1*gen4"),
             (1, 4, "gen1"), (2, 4, "gen4")])
STRATIFY = ("stratify", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
            "--seed", "5")

CASES = [
    ("h1", "--k", "1"),
    ("h1", "--k", "3", "--max-l", "1", "--max-i", "1", "--max-s", "4"),
    ("star-check", "--k", "1", "--trials", "2", "--seed", "3"),
    ("star-check", "--k", "2", "--sigma", "u1*gen4", "--trials", "2",
     "--seed", "5"),
    ("normalize", "--k", "1", "--sigma", "gen1", "--f", "poly.txt"),
    ("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
     "--point", "1,0,1,0"),
    ("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
     "--point", "1,1,0,0", "--emit-matrix"),
    ("stalk", "--k", "2", "--j", "3", "--sigma", "gen4",
     "--point", "1,0,2/3,0,0,-1,0,1", "--formula", "printed"),
    STRATIFY,
    ("stratify", "--k", "1", "--j", "3", "--sigma", "gen1", "--seed", "5"),
    # 4,095 support masks, 498 of them open strata (not proved by bounds)
    ("stratify", "--k", "1", "--j", "4", "--sigma", "gen1", "--seed", "5"),
    # a sample of 4,096 of the 65,535 support masks and the 16
    # single-coordinate ones: max corank 15, the top stratum at mask 1
    ("stratify", "--k", "2", "--j", "5", "--sigma", "u1*gen4", "--seed", "1"),
    # two certificates: a rank-16 minor whose leading pivots the modular
    # echelon proves, and one that the exact span decides
    ("stratify", "--k", "1", "--j", "5", "--sigma", "gen1", "--seed", "1",
     "--pattern-cap", "1"),
    ("stratify", "--k", "1", "--j", "4", "--sigma", "gen3", "--seed", "1",
     "--pattern-cap", "1"),
    *[("verify", "--k", str(k), "--j", str(j), "--sigma", spec,
       "--seed", "1") for k, j, spec in VERIFY],
    ("verify", "--k", "1", "--j", "2", "--sigma", "gen1", "--seed", "1"),
    # extremal at j = 4: corank 11 lies on 3 of the 4,095 support masks
    ("verify", "--k", "2", "--j", "4", "--sigma", "u1*gen4", "--seed", "1"),
    # j = 6, past every scan: the single-coordinate stratum of mask 1 has
    # corank 19, past the bound 18 (exit code 2)
    ("verify", "--k", "2", "--j", "6", "--sigma", "u1*gen4", "--seed", "1"),
    # j = 7: corank 23 at mask 1, past the bound 22 (exit code 2), and
    # for u1*gen1 on W_1 every corank of 12..23, the top one on the bound
    ("verify", "--k", "2", "--j", "7", "--sigma", "u1*gen4", "--seed", "1"),
    ("verify", "--k", "1", "--j", "7", "--sigma", "u1*gen1", "--seed", "1"),
    ("oracle-check", "--trials", "1", "--seed", "11"),
    ("oracle-check",),
    # usage errors
    ("no-such-command",),
    ("stalk", "--k", "1"),
    ("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
     "--point", "1,oops,0,0"),
    ("stalk", "--k", "1", "--j", "2", "--sigma", "gen9",
     "--point", "1,0,0,0"),
    ("stalk", "--k", "1", "--j", "2", "--sigma", "u1*gen1",
     "--point", "0,0,0,0"),
    ("stalk", "--k", "1", "--j", "1", "--sigma", "gen1", "--point", "1"),
    ("oracle-check", "--trials", "0"),
    ("star-check", "--k", "1", "--sigma", "1/0*gen1"),
    ("normalize", "--k", "1", "--sigma", "gen1", "--f", "bad.txt"),
    ("normalize", "--k", "1", "--sigma", "gen1", "--f", "missing.txt"),
    ("h1", "--k", "x"),
]


def run(args):
    """The corpus entry of one invocation."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in FILES.items():
            Path(name).write_text(text, encoding="utf-8")
        res = runner.invoke(main, list(args), env={"NCBUNDLES_SEED": None})
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        raise res.exception
    return {"args": list(args), "exit_code": res.exit_code,
            "stdout_sha256": hashlib.sha256(res.stdout_bytes).hexdigest(),
            "stderr_first_line": next(iter(res.stderr.splitlines()), "")}


@pytest.fixture(scope="module")
def corpus():
    return {tuple(e["args"]): e
            for e in json.loads(CORPUS.read_text(encoding="utf-8"))}


def test_corpus_covers_the_cases(corpus):
    assert list(corpus) == CASES


@pytest.mark.parametrize("args", CASES, ids=" ".join)
def test_report_matches_the_corpus(corpus, args):
    assert run(args) == corpus[args]


def changes(old, new):
    """One line per entry that a re-record adds, changes or drops, from
    the old and new lists of corpus entries."""
    before = {tuple(e["args"]): e for e in old}
    after = {tuple(e["args"]): e for e in new}
    lines = [f"{'added' if args not in before else 'changed'}: "
             f"{' '.join(args)}"
             for args, e in after.items() if before.get(args) != e]
    return lines + [f"dropped: {' '.join(args)}"
                    for args in before if args not in after]


def test_changes_names_every_entry_that_moved():
    old = [{"args": ["a"], "exit_code": 0}, {"args": ["b"], "exit_code": 0},
           {"args": ["c"], "exit_code": 0}]
    new = [{"args": ["a"], "exit_code": 0}, {"args": ["b"], "exit_code": 1},
           {"args": ["d", "--x"], "exit_code": 0}]
    assert changes(old, new) == ["changed: b", "added: d --x", "dropped: c"]
    assert changes(new, new) == []


if __name__ == "__main__":
    old = (json.loads(CORPUS.read_text(encoding="utf-8"))
           if CORPUS.exists() else [])
    new = [run(args) for args in CASES]
    print("\n".join(changes(old, new)) or "no entry changed")
    CORPUS.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
