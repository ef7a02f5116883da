"""Committed mutants: each one must be caught by the tests it names.

mutants.json lists mutants of the package.  Each entry has a `name`, a
`file` under src/, the exact `old` text (it must occur exactly once in
that file), its replacement `new`, and the pytest node ids (`tests`)
expected to catch it.  For each mutant this script copies src/ to a
temporary directory, applies the mutant there, and runs the suite's
named tests against the copy (pytest's `pythonpath` pointed at it; the
suite's CLI tests follow it through PYTHONPATH).  The working tree is
never edited.

    python tests/mutants/run.py                 # every mutant
    python tests/mutants/run.py NAME [NAME ...]  # the named ones

The exit status is 1 when a mutant survives (one of its tests passes),
when its old text is missing or not unique (a stale mutant checks
nothing), or when its tests cannot run; 0 when every mutant is caught
by every test it names.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MUTANTS = Path(__file__).with_name("mutants.json")


def apply(src, mutant):
    """Write the mutant into the copy src; an error text if it is stale."""
    path = src / mutant["file"]
    text = path.read_text()
    count = text.count(mutant["old"])
    if count != 1:
        return f"stale: its old text occurs {count} times in {mutant['file']}"
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    return None


def run(mutant):
    """(ok, message) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        stale = apply(src, mutant)
        if stale:
            return False, stale
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", "-o", f"pythonpath={src}",
             *mutant["tests"]],
            cwd=ROOT, env=env, capture_output=True, text=True)
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    if proc.returncode not in (0, 1):
        tail = "\n".join(proc.stdout.splitlines()[-15:])
        return False, f"tests did not run (exit {proc.returncode}):\n{tail}"
    survived = [t for t in mutant["tests"] if t not in failed]
    if survived:
        return False, "survived " + ", ".join(survived)
    return True, f"caught by {len(failed)} of {len(mutant['tests'])} tests"


def main(names):
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        sys.exit(f"no mutant named {', '.join(sorted(unknown))}")
    bad = 0
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        start = time.perf_counter()
        ok, message = run(mutant)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant['name']}: {message} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
