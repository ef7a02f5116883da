"""Cancellation systems, stalk dimensions, stratification, oracle."""

import json
import random
from fractions import Fraction

import jsonschema
import pytest

from ncbundles import (
    LaurentPoly,
    Monomial,
    REPORT_SCHEMA,
    WindowInstabilityError,
    build_cancellation_system,
    certify_generic_rank,
    compute_windows,
    full_gauge_oracle,
    generic_rank,
    is_extremal,
    obstruction_basis,
    oracle_check,
    parse_sigma_spec,
    stalk_dimension,
    stratify,
    verify_claims,
)
from ncbundles import linalg, moduli
from ncbundles.moduli import (
    DEFAULT_SEED,
    canonical_json,
    direction_dimension,
    make_report,
    rand_fraction,
    random_point,
    single_coordinate_points,
)


def sym(entry):
    """Uniform text for ParamPoly or plain Fraction entries."""
    return entry.render() if hasattr(entry, "render") else str(entry)


def sym_matrix(k, j, spec, formula="derived"):
    sigma = parse_sigma_spec(spec, k)
    return build_cancellation_system(k, j, sigma, point=None, formula=formula)


def test_obstruction_basis_frozen():
    assert obstruction_basis(1, 2) == [
        Monomial(3, 1, 0), Monomial(2, 1, 0),
        Monomial(3, 0, 1), Monomial(2, 0, 1),
    ]
    assert set(obstruction_basis(2, 2)) == {
        Monomial(3, 1, 0),
        Monomial(1, 0, 1), Monomial(2, 0, 1), Monomial(3, 0, 1),
    }
    b23 = obstruction_basis(2, 3)
    assert {m for m in b23 if m.i} == {Monomial(l, 1, 0) for l in (3, 4, 5)}
    assert {m for m in b23 if m.s} == {Monomial(l, 0, 1)
                                      for l in (1, 2, 3, 4, 5)}
    assert len(b23) == 8


def test_obstruction_basis_rejects():
    with pytest.raises(ValueError):
        obstruction_basis(1, 1)
    with pytest.raises(ValueError):
        obstruction_basis(3, 2)


def test_direction_dimension():
    for k in (1, 2):
        for j in (2, 3, 4, 5):
            assert direction_dimension(k, j) == 4 * j - 4


def test_m2u_symbolic_fidelity():
    mat = sym_matrix(1, 2, "u1*gen1")
    assert [m.render() for m in mat.rows] == \
        ["z^3*u1", "z^2*u1", "z^3*u2", "z^2*u2"]
    cols = {tag: [sym(e) for e in col]
            for tag, col in zip(mat.tags, mat.columns)}
    assert cols[("lambda", 0)] == ["p0", "p1", "p2", "p3"]
    assert cols[("lambda", 1)] == ["p1", "0", "p3", "0"]
    assert cols[("lambda", 2)] == ["0", "0", "0", "0"]
    for tag, col in cols.items():
        if tag[0] != "lambda":
            assert col == ["0"] * 4


def test_e1_symbolic_fidelity():
    mat = sym_matrix(1, 3, "u1*gen1")
    assert [m.render() for m in mat.rows] == [
        "z^5*u1", "z^4*u1", "z^3*u1", "z^2*u1",
        "z^5*u2", "z^4*u2", "z^3*u2", "z^2*u2",
    ]
    cols = {tag: [sym(e) for e in col]
            for tag, col in zip(mat.tags, mat.columns)}
    block = [["p0", "p1", "p2", "p3"],
             ["p1", "p2", "p3", "0"],
             ["p2", "p3", "0", "0"],
             ["p3", "0", "0", "0"]]
    for m in range(4):
        expect = [block[r][m] for r in range(4)]
        shifted = [e.replace("p0", "p4").replace("p1", "p5")
                   .replace("p2", "p6").replace("p3", "p7") for e in expect]
        assert cols[("lambda", m)] == expect + shifted
    assert cols[("lambda", 4)] == ["0"] * 8
    for tag, col in cols.items():
        if tag[0] != "lambda":
            assert col == ["0"] * 8


def test_e2_symbolic_fidelity():
    mat = sym_matrix(2, 3, "u1*gen4")
    assert [m.render() for m in mat.rows] == [
        "z^5*u1", "z^4*u1", "z^3*u1",
        "z^5*u2", "z^4*u2", "z^3*u2", "z^2*u2", "z*u2",
    ]
    cols = {tag: [sym(e) for e in col]
            for tag, col in zip(mat.tags, mat.columns)}
    assert cols[("lambda", 0)] == ["p0", "p1", "p2",
                                   "p3", "p4", "p5", "p6", "p7"]
    assert cols[("lambda", 1)] == ["p1", "p2", "0",
                                   "p4", "p5", "p6", "p7", "0"]
    assert cols[("lambda", 2)] == ["p2", "0", "0",
                                   "p5", "p6", "p7", "0", "0"]
    assert cols[("lambda", 3)] == ["0", "0", "0",
                                   "p6", "p7", "0", "0", "0"]
    assert cols[("lambda", 4)] == ["0", "0", "0",
                                   "p7", "0", "0", "0", "0"]
    for tag, col in cols.items():
        if tag[0] != "lambda":
            assert col == ["0"] * 8


def test_e2_reduced_generic_block():
    # rows {0,1,2,5,6,7} x lambda_{0,1,2} of the full system
    mat = sym_matrix(2, 3, "u1*gen4")
    cols = {tag: [sym(e) for e in col]
            for tag, col in zip(mat.tags, mat.columns)}
    rows = (0, 1, 2, 5, 6, 7)
    reduced = [[cols[("lambda", m)][r] for m in range(3)] for r in rows]
    assert reduced == [
        ["p0", "p1", "p2"],
        ["p1", "p2", "0"],
        ["p2", "0", "0"],
        ["p5", "p6", "p7"],
        ["p6", "p7", "0"],
        ["p7", "0", "0"],
    ]


CONFIGS = [(1, 2, "gen1"), (1, 2, "u1*gen1"), (2, 2, "gen4"),
           (2, 3, "u1*gen4"), (1, 3, "gen3")]


@pytest.mark.parametrize("k,j,spec", CONFIGS)
def test_lambda0_column_is_base_point(k, j, spec):
    rng = random.Random(61)
    sigma = parse_sigma_spec(spec, k)
    pt = random_point(k, j, rng)
    mat = build_cancellation_system(k, j, sigma, pt)
    assert mat.column(("lambda", 0)) == pt


@pytest.mark.parametrize("k,j,spec", CONFIGS)
def test_scaling_invariance(k, j, spec):
    rng = random.Random(67)
    sigma = parse_sigma_spec(spec, k)
    pt = random_point(k, j, rng)
    scaled = [Fraction(-5, 7) * c for c in pt]
    m1 = build_cancellation_system(k, j, sigma, pt)
    m2 = build_cancellation_system(k, j, sigma, scaled)
    assert m1.rank == m2.rank


@pytest.mark.parametrize("k,j,spec", CONFIGS)
def test_printed_formula_agrees(k, j, spec):
    a = sym_matrix(k, j, spec, formula="derived")
    b = sym_matrix(k, j, spec, formula="printed")
    assert a.tags == b.tags
    for ca, cb in zip(a.columns, b.columns):
        assert all(x == y for x, y in zip(ca, cb))


def test_stalk_frozen_m2u():
    sigma = parse_sigma_spec("u1*gen1", 1)
    assert stalk_dimension(1, 2, sigma, [1, 1, 0, 0]).stalk == 2
    assert stalk_dimension(1, 2, sigma, [1, 0, 1, 0]).stalk == 3
    rep = stalk_dimension(1, 2, sigma, ["1/2", 0, 0, "-3"])
    assert rep.stalk == 2
    assert rep.stability_checked


def test_stalk_frozen_w2_extremal():
    sigma = parse_sigma_spec("u1*gen4", 2)
    assert stalk_dimension(2, 2, sigma, [0, 1, 1, 0]).stalk == 2
    rng = random.Random(71)
    assert stalk_dimension(2, 2, sigma, random_point(2, 2, rng)).stalk == 1


def test_stalk_rejects_zero_point():
    sigma = parse_sigma_spec("gen1", 1)
    with pytest.raises(ValueError):
        stalk_dimension(1, 2, sigma, [0, 0, 0, 0])


def test_stalk_report_contents():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stalk_dimension(1, 2, sigma, [1, 0, 1, 0])
    d = rep.as_dict()
    assert d["rank"] + d["stalk"] == 4
    assert len(d["quotient_rows"]) == d["stalk"]
    assert set(d["windows"]) == {"lambda", "unit", "shift"}
    assert d["sigma"]["generator"] == 1 and d["sigma"]["multiplier"] == "u1"


def test_generic_rank_values():
    assert generic_rank(1, 3, parse_sigma_spec("u1*gen1", 1), trials=5)[0] == 4
    assert generic_rank(2, 3, parse_sigma_spec("u1*gen4", 2), trials=5)[0] == 5
    assert generic_rank(1, 4, parse_sigma_spec("gen1", 1), trials=5)[0] == 12


def test_is_extremal_catalog():
    assert is_extremal(parse_sigma_spec("u1*gen1", 1), 2)
    assert is_extremal(parse_sigma_spec("u1*gen1", 1), 3)
    assert is_extremal(parse_sigma_spec("u1*gen4", 2), 3)
    assert not is_extremal(parse_sigma_spec("gen1", 1), 2)
    assert not is_extremal(parse_sigma_spec("gen4", 2), 2)


def test_windows_bump():
    sigma = parse_sigma_spec("u1*gen1", 1)
    w0 = compute_windows(1, 2, sigma, bump=0)
    w2 = compute_windows(1, 2, sigma, bump=2)
    assert w0.lambda_hi == 2 and w2.lambda_hi == 4
    assert w2.unit_hi == w0.unit_hi + 2
    assert w0.shift_hi == w2.shift_hi == 4
    assert w0.as_dict() == {"lambda": [0, 2], "unit": [0, w0.unit_hi],
                            "shift": [0, 4]}


def test_window_instability_is_runtime_error():
    assert issubclass(WindowInstabilityError, RuntimeError)


def test_stratify_m2u_strata():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stratify(1, 2, sigma, draws=3)
    assert rep["patterns_scanned"] == 15
    assert set(rep["strata"]) == {"2", "3"}
    assert rep["max_corank"] == 3
    wit = rep["max_corank_witness"]["point"]
    got = stalk_dimension(1, 2, sigma, [Fraction(c) for c in wit])
    assert got.stalk == 3


def test_stratify_e1_coranks():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stratify(1, 3, sigma, draws=2, check_stability=False)
    assert set(rep["strata"]) == {"4", "5", "6", "7"}
    for corank, rec in rep["strata"].items():
        pt = [Fraction(c) for c in rec["witness"]["point"]]
        assert stalk_dimension(1, 3, sigma, pt,
                               check_stability=False).stalk == int(corank)


def test_stratify_deterministic_and_worker_invariant():
    sigma = parse_sigma_spec("u1*gen1", 1)
    a = stratify(1, 2, sigma, draws=2, seed=5)
    b = stratify(1, 2, sigma, draws=2, seed=5)
    assert canonical_json(a) == canonical_json(b)
    c = stratify(1, 2, sigma, draws=2, seed=5, workers=2)
    assert canonical_json(a) == canonical_json(c)


def test_stratify_symbolic_minors_certificate():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stratify(1, 2, sigma, strategy="symbolic-minors", draws=2)
    cert = rep["certificate"]
    assert cert["rank_observed"] == 2
    assert cert["certified"] and cert["minor_nonzero"]

    basic = certify_generic_rank(1, 2, parse_sigma_spec("gen1", 1))
    assert basic["rank_observed"] == 4
    assert basic["certified"]


def test_stratify_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        stratify(1, 2, parse_sigma_spec("gen1", 1), strategy="exhaustive")


def test_oracle_trivial_direction():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = full_gauge_oracle(1, 2, sigma, [1, 1, 0, 0], [0, 0, 0, 0])
    assert rep.decision


def test_oracle_lambda0_direction():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = full_gauge_oracle(1, 2, sigma, [1, 1, 0, 0], [1, 1, 0, 0])
    assert rep.decision and rep.stability_checked


def test_oracle_matches_engine_span_membership():
    sigma = parse_sigma_spec("u1*gen1", 1)
    pt = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    delta = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    mat = build_cancellation_system(1, 2, sigma, pt)
    engine = linalg.in_column_span(mat.columns, delta)
    assert engine  # lambda_1 column is exactly (p1, 0, p3, 0) = delta
    assert full_gauge_oracle(1, 2, sigma, pt, delta).decision


def test_oracle_rejects_outside_span():
    sigma = parse_sigma_spec("u1*gen1", 1)
    pt = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    delta = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
    assert not full_gauge_oracle(1, 2, sigma, pt, delta).decision


def unit(dim, r, c=1):
    return [Fraction(c) if n == r else Fraction(0) for n in range(dim)]


@pytest.mark.parametrize("k, j, spec, point, delta, decision, unknowns", [
    (1, 2, "gen1", unit(4, 0), unit(4, 3), False, 482),
    (2, 3, "u1*gen4", unit(8, 4), unit(8, 7), False, 630),
    (1, 3, "gen1", unit(8, 1, Fraction(2, 3)), unit(8, 0), True, 630),
])
def test_oracle_degenerate_points(k, j, spec, point, delta, decision,
                                  unknowns):
    # zero coordinates make symbolic entries of the oracle system vanish;
    # the decision and the count of nonempty unknown columns are pinned
    rep = full_gauge_oracle(k, j, parse_sigma_spec(spec, k), point, delta)
    assert (rep.decision, rep.unknowns) == (decision, unknowns)


def test_oracle_rational_multiplier():
    # the symbolic oracle coefficients have denominator 3 here, so the
    # compiled system is scaled to integer forms
    rep = oracle_check(configs=((1, 2, "2/3*u1*gen1"),), trials_point=2,
                       trials_delta=4)
    assert rep["total_decisions"] == 8
    assert rep["status"] == "PASS", rep["mismatches"][:3]


def test_oracle_cold_equals_warm(monkeypatch):
    sigma = parse_sigma_spec("u1*gen4", 2)
    rng = random.Random(17)
    pt = random_point(2, 3, rng)
    delta = random_point(2, 3, rng)
    # an empty cache for this test only, as in a fresh process
    monkeypatch.setattr(moduli, "_MASTERS", {})
    cold = full_gauge_oracle(2, 3, sigma, pt, delta)
    assert ("oracle", 2, 3, sigma.cache_key()) in moduli._MASTERS
    warm = full_gauge_oracle(2, 3, sigma, pt, delta)
    assert cold == warm


def test_oracle_check_small_battery():
    rep = oracle_check(configs=((1, 2, "gen1"), (2, 2, "u1*gen4")),
                       trials_point=2, trials_delta=2,
                       check_stability=False)
    assert rep["status"] == "PASS"
    assert rep["total_decisions"] == 8
    assert rep["total_mismatches"] == 0


def test_verify_claims_statuses():
    basic = verify_claims(1, 2, parse_sigma_spec("gen1", 1), trials=4)
    by_name = {c["name"]: c["status"] for c in basic["claims"]}
    assert by_name["generic-rigidity"] == "PASS"
    assert by_name["closed-form-agreement"] == "PASS"
    assert by_name["scaling-invariance"] == "PASS"
    assert by_name["single-coordinate-rigidity"] == "EXCEEDS"
    assert basic["status"] == "EXCEEDS"

    ex1 = verify_claims(1, 3, parse_sigma_spec("u1*gen1", 1), trials=4)
    names1 = {c["name"]: c for c in ex1["claims"]}
    assert names1["extremal-generic-stalk"]["status"] == "PASS"
    assert names1["max-corank-bound"]["status"] == "PASS"
    assert names1["corank-contiguity"]["detail"]["achieved"] == [4, 5, 6, 7]
    assert ex1["status"] == "PASS"

    ex2 = verify_claims(2, 3, parse_sigma_spec("u1*gen4", 2), trials=4)
    names2 = {c["name"]: c for c in ex2["claims"]}
    assert names2["max-corank-bound"]["status"] == "EXCEEDS"
    assert names2["max-corank-bound"]["detail"]["max_corank"] == 7
    assert names2["max-corank-bound"]["detail"]["bound"] == 6
    assert ex2["status"] == "EXCEEDS"


def test_single_coordinate_points_shape():
    pts = single_coordinate_points(1, 2)
    assert len(pts) == 4
    assert pts[2] == [0, 0, 1, 0]


def test_rand_fraction_range():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(200):
        q = rand_fraction(rng)
        assert q != 0
        assert abs(q.numerator) <= 97 * 97


def test_report_envelope_schema():
    rep = make_report("stalk", {"k": 1}, 97, {"rank": 4})
    jsonschema.validate(rep, REPORT_SCHEMA)
    bad = make_report("nope", {}, None, {})
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)


def test_canonical_json_bytes():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    json.loads(a)
