"""The three benchmark workloads, one closed-loop client each.

Every op input is generated here from the seed, so the package only ever
receives the generated inputs.  A workload is a fixed cycle of ops; runs
are made of whole cycles, so each run has the same mix of configurations
and the op-time percentiles fall at the same place in that mix.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction


def rand_fraction(rng):
    """Nonzero rational with numerator and denominator in [-97, 97]."""
    num = den = 0
    while num == 0:
        num = rng.randint(-97, 97)
    while den == 0:
        den = rng.randint(-97, 97)
    return Fraction(num, den)


def direction_dimension(j):
    """Number of first-order deformation directions, 4j - 4."""
    return 4 * j - 4


def serialize(nc, kind, config, seed, result):
    """Report bytes exactly as the CLI prints them."""
    return nc.cli.canonical_json(
        nc.cli.make_report(kind, config, seed, result)).encode()


def clear_master_caches(nc):
    """Empty the package's master caches, as in a fresh process."""
    caches = [mod._MASTERS for name, mod in list(sys.modules.items())
              if name.split(".")[0] == nc.__name__
              and isinstance(getattr(mod, "_MASTERS", None), dict)]
    if not caches:
        raise RuntimeError("no _MASTERS cache found in the package")
    for cache in caches:
        cache.clear()


def expected_stalk(k, j, spec, point):
    """Closed-form (lowest, highest) stalk at a nonzero base point.

    Basic generators are rigid (stalk 0) at full-support points; the
    extremal u1*genN families have generic stalk 2j - k - 1, and
    (1, 2, u1*gen1) has stalk 3 exactly on the p1 = p3 = 0 locus.  Away
    from full support only semicontinuity is known: the stalk can only
    grow.
    """
    if (k, j, spec) == (1, 2, "u1*gen1"):
        stalk = 3 if point[1] == point[3] == 0 else 2
        return stalk, stalk
    generic = 2 * j - k - 1 if spec.startswith("u1*") else 0
    if all(point):
        return generic, generic
    return generic, direction_dimension(j)


class StalkStream:
    """One op: stalk_dimension at a point, plus serializing its report."""

    # (1, 5, gen1) three times and (2, 4, gen4) twice per cycle put the
    # op-time median inside the (2, 4, gen4) full-support mode and the
    # p90 inside the (1, 5, gen1) one, instead of between two modes.
    VISITS = ((1, 5, "gen1"), (2, 4, "gen4"), (1, 2, "u1*gen1"),
              (1, 5, "gen1"), (2, 3, "u1*gen4"), (2, 4, "gen4"),
              (1, 5, "gen1"))
    digest_cycles = 4
    min_cycles = 1

    def setup(self, nc):
        sigmas = {}
        for k, j, spec in sorted(set(self.VISITS)):
            sigma = nc.parse_sigma_spec(spec, k)
            for bump in (0, 2):  # bump 2 serves the stability check
                nc.build_cancellation_system(k, j, sigma, point=None,
                                             formula="derived", bump=bump)
            sigmas[k, j, spec] = sigma
        return sigmas

    def cycle(self, seed, c):
        """Per visit a full-support point, then a support-mask point."""
        rng = random.Random(seed * 1_000_003 + c)
        ops = []
        for k, j, spec in self.VISITS:
            dim = direction_dimension(j)
            ops.append((k, j, spec, [rand_fraction(rng) for _ in range(dim)]))
            if rng.random() < 0.25:
                mask = 1 << rng.randrange(dim)  # axis point
            else:
                mask = rng.randrange(1, 1 << dim)
            ops.append((k, j, spec, [rand_fraction(rng) if mask >> r & 1
                                     else Fraction(0) for r in range(dim)]))
        return ops

    def run(self, nc, sigmas, op):
        k, j, spec, point = op
        rep = nc.stalk_dimension(k, j, sigmas[k, j, spec], point)
        config = {"k": k, "j": j, "sigma": spec,
                  "point": ",".join(str(c) for c in point),
                  "formula": "derived"}
        data = serialize(nc, "stalk", config, None, rep.as_dict())
        errors = []
        lo, hi = expected_stalk(k, j, spec, point)
        if not lo <= rep.stalk <= hi:
            errors.append(f"stalk {rep.stalk} outside [{lo}, {hi}]")
        if (rep.rank + rep.stalk != direction_dimension(j)
                or len(rep.quotient_rows) != rep.stalk
                or not rep.stability_checked):
            errors.append("inconsistent stalk report")
        return data, errors


class OracleBattery:
    """One op: one direction decision, engine against full-gauge oracle."""

    # the package's STANDARD_ORACLE_CONFIGS
    CONFIGS = ((1, 2, "gen1"), (1, 3, "gen1"), (1, 2, "u1*gen1"),
               (1, 3, "u1*gen1"), (2, 2, "gen4"), (2, 3, "gen4"),
               (2, 2, "u1*gen4"), (2, 3, "u1*gen4"))
    # j = 3 twice per cycle, so the op-time median lies inside the j = 3
    # decisions instead of on the border between j = 2 and j = 3
    VISITS = CONFIGS + tuple(c for c in CONFIGS if c[1] == 3)
    digest_cycles = 1
    min_cycles = 1

    def setup(self, nc):
        sigmas = {}
        for k, j, spec in self.CONFIGS:
            sigma = nc.parse_sigma_spec(spec, k)
            nc.build_cancellation_system(k, j, sigma, point=None)
            sigmas[k, j, spec] = sigma
        return sigmas

    def cycle(self, seed, c):
        """Per visit a mix of two engine columns, then a raw direction.

        The mix is drawn as column indices and coefficients; the op
        combines the columns the engine evaluates at the point, as
        oracle_check does.
        """
        rng = random.Random(seed * 1_000_003 + c)
        ops = []
        for k, j, spec in self.VISITS:
            dim = direction_dimension(j)
            point = [rand_fraction(rng) for _ in range(dim)]
            mix = ("mix", rng.randrange(1 << 30), rng.randrange(1 << 30),
                   rand_fraction(rng), rand_fraction(rng))
            ops.append((k, j, spec, point, mix))
            point = [rand_fraction(rng) for _ in range(dim)]
            raw = ("raw", [rand_fraction(rng) for _ in range(dim)])
            ops.append((k, j, spec, point, raw))
        return ops

    def run(self, nc, sigmas, op):
        k, j, spec, point, direction = op
        sigma = sigmas[k, j, spec]
        matrix = nc.build_cancellation_system(k, j, sigma, point)
        cols = matrix.columns
        space = nc.linalg.ColumnSpace(len(matrix.rows))
        for col in cols:
            space.add(col)
        if direction[0] == "mix":
            _, i1, i2, c1, c2 = direction
            a, b = cols[i1 % len(cols)], cols[i2 % len(cols)]
            delta = [c1 * x + c2 * y for x, y in zip(a, b)]
        else:
            delta = direction[1]
        engine = space.contains(delta)
        rep = nc.full_gauge_oracle(k, j, sigma, point, delta,
                                   check_stability=True)
        data = serialize(nc, "oracle-check", {"k": k, "j": j, "sigma": spec},
                         None, dict(rep.as_dict(), engine=engine))
        errors = []
        if engine != rep.decision:
            errors.append(f"engine {engine} != oracle {rep.decision}")
        if direction[0] == "mix" and not engine:
            errors.append("mix of engine columns left the engine span")
        return data, errors


class ClaimsCold:
    """One op: a fresh `verify` of one configuration, plus its certificate.

    The master cache is emptied first, so both masters are built cold.
    """

    CONFIGS = (tuple((1, 3, f"gen{n}") for n in range(1, 5))
               + tuple((2, 3, f"gen{n}") for n in range(1, 6))
               + ((1, 3, "u1*gen1"), (2, 3, "u1*gen4"),
                  (1, 4, "gen1"), (2, 4, "gen4")))
    digest_cycles = 1
    # a cycle takes about 10 s; from two cycles on the op-time p90 falls
    # inside the (2, 4, gen4) mode, and a third steadies the throughput
    min_cycles = 3

    def __init__(self, expected):
        self.expected = expected  # None: record the verdicts instead
        self.recorded = {}

    def setup(self, nc):
        return None

    def cycle(self, seed, c):
        rng = random.Random(seed * 1_000_003 + c)
        return [(k, j, spec, rng.randrange(1 << 31))
                for k, j, spec in self.CONFIGS]

    def run(self, nc, _, op):
        k, j, spec, seed = op
        clear_master_caches(nc)
        sigma = nc.parse_sigma_spec(spec, k)
        for formula in ("derived", "printed"):
            nc.build_cancellation_system(k, j, sigma, point=None,
                                         formula=formula)
        rep = nc.verify_claims(k, j, sigma, seed=seed)
        cert = nc.certify_generic_rank(k, j, sigma, seed=seed)
        config = {"k": k, "j": j, "sigma": spec, "trials": 20}
        data = serialize(nc, "verify", config, seed,
                         dict(rep, certificate=cert))
        got = claims_summary(rep, cert)
        key = f"{k},{j},{spec}"
        if self.expected is None:
            self.recorded[key] = got
            return data, []
        want = self.expected.get(key)
        return data, [] if got == want else [f"claims {got} != {want}"]


def claims_summary(rep, cert):
    """What a claims-cold op must reproduce: statuses, flag, max corank."""
    claims = {c["name"]: c for c in rep["claims"]}
    bound = claims.get("max-corank-bound")
    return {
        "status": rep["status"],
        "claims": {name: c["status"] for name, c in claims.items()},
        "certified": cert["certified"],
        "max_corank": bound["detail"]["max_corank"] if bound else None,
    }
