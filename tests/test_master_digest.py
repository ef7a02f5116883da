"""Pinned masters: one SHA-256 over every master of the claims table's
catalog at j = 2..7, both formulas.

Each master is built cold (an empty master cache) with
engine._build_master.  The digest takes, master by master, the repr of
(k, spec, j, formula, tags, narrow, nonzero), then every entry, column
by column, as its type name, ":", its render (ParamPoly) or str, and
";", then the repr of the master's FormTable.  So it pins the entries,
their coefficient types and the compiled table, form and monomial order
included.  A change that means to alter a master re-records the digest
by running this module as a script, which prints the old and the new
digest:

    PYTHONPATH=src python tests/test_master_digest.py
"""

import hashlib
import json
from pathlib import Path

from ncbundles import engine
from ncbundles.poisson import parse_sigma_spec
from ncbundles.ring import ParamPoly

from test_claims_table import SIGMAS

DIGEST = Path(__file__).with_name("master_digest.json")
JS = range(2, 8)
FORMULAS = ("derived", "printed")


def master_digest():
    """The SHA-256 of every master, j by j, then sigma by sigma in
    SIGMAS' order, derived before printed."""
    h = hashlib.sha256()
    saved = engine._MASTERS
    try:
        for j in JS:
            for k, spec in SIGMAS:
                sigma = parse_sigma_spec(spec, k)
                for formula in FORMULAS:
                    engine._MASTERS = {}
                    master = engine._build_master(k, j, sigma, formula)
                    h.update(repr((k, spec, j, formula, master.tags,
                                   master.narrow, master.nonzero)).encode())
                    for col in master.columns:
                        for e in col:
                            text = (e.render() if isinstance(e, ParamPoly)
                                    else str(e))
                            h.update(f"{type(e).__name__}:{text};".encode())
                    h.update(repr(tuple(master.table)).encode())
    finally:
        engine._MASTERS = saved
    return h.hexdigest()


def test_masters_match_the_digest():
    want = json.loads(DIGEST.read_text(encoding="utf-8"))["sha256"]
    assert master_digest() == want


if __name__ == "__main__":
    old = (json.loads(DIGEST.read_text(encoding="utf-8"))["sha256"]
           if DIGEST.exists() else None)
    new = master_digest()
    print(f"{old} -> {new}" if old != new else "digest unchanged")
    DIGEST.write_text(json.dumps({"sha256": new}) + "\n", encoding="utf-8")
