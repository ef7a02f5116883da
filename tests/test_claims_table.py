"""Pinned claims table: verify's verdicts on the whole catalog up to j = 10.

tests/claims_table.json holds one row per (k, j, sigma) for the catalog
generators of W_1 and W_2 and their u1 and u2 multiples, at j = 2..10 and
seed 1, each built cold (an empty master cache): every claim's status
from verify_claims, the max corank and its witness mask, the achieved
coranks, and the generic-rank certificate's rank, upper bound and
`certified` flag.  A row's corank fields are null where verify_claims
makes no corank claim (the basic generators).  A change that means to
alter a verdict re-records the file by running this module as a script,
which prints every row it adds, changes or drops:

    PYTHONPATH=src python tests/test_claims_table.py
"""

import json
from pathlib import Path

import pytest

from ncbundles import certify_generic_rank, engine, verify_claims
from ncbundles.poisson import parse_sigma_spec

TABLE = Path(__file__).with_name("claims_table.json")
SEED = 1
JS = range(2, 11)
GENERATORS = ([(1, f"gen{n}") for n in range(1, 5)]
              + [(2, f"gen{n}") for n in range(1, 6)])
SIGMAS = GENERATORS + [(k, m + gen) for k, gen in GENERATORS
                       for m in ("u1*", "u2*")]


def claims_row(k, j, spec):
    """The table row of one configuration, built from an empty cache."""
    saved = engine._MASTERS
    engine._MASTERS = {}
    try:
        sigma = parse_sigma_spec(spec, k)
        rep = verify_claims(k, j, sigma, seed=SEED)
        cert = certify_generic_rank(k, j, sigma, seed=SEED)
    finally:
        engine._MASTERS = saved
    by_name = {c["name"]: c for c in rep["claims"]}
    bound = by_name.get("max-corank-bound", {}).get("detail")
    achieved = by_name.get("corank-contiguity", {}).get("detail")
    return {
        "k": k,
        "j": j,
        "sigma": spec,
        "status": rep["status"],
        "claims": {c["name"]: c["status"] for c in rep["claims"]},
        "max_corank": bound["max_corank"] if isinstance(bound, dict)
        else None,
        "witness_mask": bound["witness"]["mask"] if isinstance(bound, dict)
        else None,
        "achieved": achieved["achieved"] if isinstance(achieved, dict)
        else None,
        "rank": cert["rank_observed"],
        "upper": cert["structural_upper"],
        "certified": cert["certified"],
    }


def claims_table():
    """The rows of every configuration, keyed "k,j,sigma"."""
    return {f"{k},{j},{spec}": claims_row(k, j, spec)
            for k, spec in SIGMAS for j in JS}


def render(table):
    """The bytes of the file: one row per line, keys sorted."""
    lines = [f"  {json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
             for key, row in table.items()]
    return ("{\n" + ",\n".join(lines) + "\n}\n").encode()


def test_claims_table_is_pinned():
    want = TABLE.read_bytes()
    got = render(claims_table())
    if got != want:
        old = json.loads(want)
        new = json.loads(got)
        diff = [key for key in old.keys() | new.keys()
                if old.get(key) != new.get(key)]
        pytest.fail(f"claims table differs at {sorted(diff)}")


if __name__ == "__main__":
    old = json.loads(TABLE.read_bytes()) if TABLE.exists() else {}
    table = claims_table()
    for key in old.keys() | table.keys():
        if old.get(key) != table.get(key):
            print(f"{key}: {old.get(key)} -> {table.get(key)}")
    TABLE.write_bytes(render(table))
