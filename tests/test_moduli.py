"""Cancellation systems, stalk dimensions, stratification, oracle."""

import dataclasses
import json
import random
import re
from fractions import Fraction
from functools import partial

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from ncbundles import (
    FormalFunction,
    LaurentPoly,
    Monomial,
    WindowInstabilityError,
    build_cancellation_system,
    canonical_right_inverse,
    certify_generic_rank,
    compute_windows,
    extension_basis,
    full_gauge_oracle,
    is_extremal,
    obstruction_basis,
    oracle_check,
    parse_sigma_spec,
    stalk_dimension,
    stratify,
    transition_matrix,
    verify_claims,
)
from ncbundles import claims, engine, linalg, oracle
from ncbundles.cli import REPORT_SCHEMA, canonical_json, main, make_report
from ncbundles.engine import (
    DEFAULT_SEED,
    STABILITY_BUMP,
    _coerce_point,
    direction_dimension,
    rand_fraction,
    random_point,
    single_coordinate_points,
)
from ncbundles.oracle import STANDARD_ORACLE_CONFIGS
from ncbundles.bundles import Matrix2
from ncbundles.poisson import Bivector
from ncbundles.ring import Evaluation, FormTable, ParamPoly

from conftest import (
    CATALOG_SIGMAS,
    form_values,
    fractions,
    lowest_basis_degree,
    plant_in_pair,
    plant_row,
    reference_certificate,
    reference_extremal_columns,
    reference_extremal_counts,
    reference_extremal_rank,
    reference_form_numerators,
    reference_leibniz_pieces,
    reference_master_columns,
    reference_strata,
    reference_stratum_bounds,
    reference_verify_claims,
    reference_windows,
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
        for j in range(1, 13):
            assert direction_dimension(k, j) == len(extension_basis(k, j, 1))


@pytest.mark.parametrize("k, j, match", [
    (3, 2, "only on W_1 and W_2"), (0, 2, "only on W_1 and W_2"),
    (1, 0, "need j >= 1"), (2, -1, "need j >= 1"),
])
def test_direction_dimension_rejects(k, j, match):
    with pytest.raises(ValueError, match=match):
        extension_basis(k, j, 1)
    with pytest.raises(ValueError, match=match):
        direction_dimension(k, j)


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

LEIBNIZ_SPECS = (
    [(1, s) for s in ("gen1", "gen2", "gen3", "gen4", "u1*gen1",
                      "2/3*u1*gen1")]
    + [(2, s) for s in ("gen1", "gen2", "gen3", "gen4", "gen5", "u1*gen4",
                        "3/7*gen4")])


@pytest.mark.parametrize("k,j,spec", CONFIGS)
def test_lambda0_column_is_base_point(k, j, spec):
    rng = random.Random(61)
    sigma = parse_sigma_spec(spec, k)
    pt = random_point(k, j, rng)
    mat = build_cancellation_system(k, j, sigma, pt)
    assert mat.columns[mat.tags.index(("lambda", 0))] == pt


@pytest.mark.parametrize("k,j,spec", CONFIGS)
def test_scaling_invariance(k, j, spec):
    rng = random.Random(67)
    sigma = parse_sigma_spec(spec, k)
    pt = random_point(k, j, rng)
    scaled = [Fraction(-5, 7) * c for c in pt]
    r1 = stalk_dimension(k, j, sigma, pt).rank
    assert stalk_dimension(k, j, sigma, scaled).rank == r1


@pytest.mark.parametrize("k,j,spec", [(k, j, spec) for j in (2, 3, 4, 5)
                                      for k, spec in LEIBNIZ_SPECS])
def test_printed_formula_agrees(k, j, spec):
    a = sym_matrix(k, j, spec, formula="derived")
    b = sym_matrix(k, j, spec, formula="printed")
    assert a.tags == b.tags
    for ca, cb in zip(a.columns, b.columns):
        assert all(x == y for x, y in zip(ca, cb))


def printed_by_brackets(sigma, j, p_poly, tag):
    """A printed column by the bracket calls of its closed form."""
    zj = LaurentPoly.monomial(j, 0, 0)
    fam, n = tag
    if fam == "lambda":
        out = p_poly * LaurentPoly.monomial(n + j, 0, 0)
    elif fam == "c0":
        out = (p_poly * LaurentPoly.monomial(n - j, 0, 0)
               * sigma.bracket(zj, p_poly)).scale(2)
    else:
        e = LaurentPoly.monomial(n, *((1, 0) if fam[1] == "1" else (0, 1)))
        sign = 1 if fam[0] == "a" else -1
        out = (zj * sigma.bracket(p_poly, e) - p_poly * sigma.bracket(zj, e)
               + (e * sigma.bracket(zj, p_poly)).scale(sign))
    return out.truncate_neighborhood(1)


@pytest.mark.parametrize("j", [2, 3, 4, 5])
@pytest.mark.parametrize("k, spec", LEIBNIZ_SPECS)
def test_printed_master_matches_bracket_formula(k, j, spec):
    # the printed master pairs bracket pieces of p and z^j; the closed
    # form with one bracket call per term must give the same columns
    sigma = parse_sigma_spec(spec, k)
    _, coeffs = engine._symbolic_point(k, j)
    p_poly = LaurentPoly(dict(zip(extension_basis(k, j, 1), coeffs)))
    master = engine.cached(engine._build_master, k, j, sigma, "printed")
    for tag, col in zip(master.tags, master.columns):
        ent = printed_by_brackets(sigma, j, p_poly, tag)
        assert [(type(e), e) for e in col] == [
            (type(e), e) for e in (ent.coefficient(m) for m in master.rows)
        ], tag


@pytest.mark.parametrize("j", [2, 3, 4, 5])
@pytest.mark.parametrize("k, spec", LEIBNIZ_SPECS)
def test_masters_are_built_in_integers(k, j, spec):
    # the build never divides, so a bivector with int coefficients gives
    # int master coefficients; a Fraction comes only from a rational
    # multiplier, and then the form table has a denominator to clear
    sigma = parse_sigma_spec(spec, k)
    integral = all(type(c) is int for h, _ in sigma.terms
                   for _, c in h.terms())
    for formula in ("derived", "printed"):
        master = engine.cached(engine._build_master, k, j, sigma, formula)
        types = {type(c) for col in master.columns for e in col if e
                 for _, c in (e.terms() if hasattr(e, "terms")
                              else [((), e)])}
        assert (types == {int}) if integral else (types <= {int, Fraction})
        assert (master.table.scale == 1) == (types == {int})


@pytest.mark.parametrize("k, j, spec", STANDARD_ORACLE_CONFIGS)
def test_oracle_systems_are_built_in_integers(monkeypatch, k, j, spec):
    entries = []
    compile_forms = FormTable.compile

    def compile_recorded(columns):
        columns = list(columns)
        entries.extend(e for col in columns for e in col.values())
        return compile_forms(columns)

    monkeypatch.setattr(FormTable, "compile", compile_recorded)
    system = oracle._build_oracle_system(k, j, parse_sigma_spec(spec, k))
    assert {type(c) for e in entries
            for _, c in (e.terms() if hasattr(e, "terms") else [((), e)])
            if c} == {int}
    assert system.table.scale == 1


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
    for k, j, spec, rank in ((1, 3, "u1*gen1", 4), (2, 3, "u1*gen4", 5),
                             (1, 4, "gen1", 12)):
        cert = certify_generic_rank(k, j, parse_sigma_spec(spec, k))
        assert (cert["rank_observed"], cert["certified"]) == (rank, True)


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


@pytest.mark.parametrize("j", range(2, 13))
def test_windows_match_the_basis(j):
    # compute_windows reads l_min off in closed form; the reference takes
    # it from the built basis
    for sigma in CATALOG_SIGMAS:
        for bump in (0, STABILITY_BUMP):
            assert compute_windows(sigma.k, j, sigma, bump) == (
                reference_windows(sigma.k, j, sigma, bump))


@pytest.mark.parametrize("k", [1, 2])
def test_lowest_basis_degree_is_closed(k):
    # l_min = 3 - k - j: the u2 block starts lowest, at every j
    sigma = parse_sigma_spec("gen1", k)
    for j in range(2, 65):
        assert lowest_basis_degree(k, j) == 3 - k - j
        assert compute_windows(k, j, sigma) == reference_windows(k, j, sigma)


def test_windows_reject_a_k_without_basis():
    sigma = Bivector(3, [(LaurentPoly.const(1), ("z", "u1"))])
    with pytest.raises(ValueError, match=re.escape(
            "extension bases exist only on W_1 and W_2, got k=3")):
        compute_windows(3, 4, sigma)


def test_window_instability_is_runtime_error():
    assert issubclass(WindowInstabilityError, RuntimeError)


def test_one_master_per_configuration(monkeypatch):
    sigma = parse_sigma_spec("gen1", 1)
    monkeypatch.setattr(engine, "_MASTERS", {})
    stalk_dimension(1, 2, sigma, [1, 2, 3, 4])
    # the frame that every formula of the configuration reads, and the
    # one master
    assert list(engine._MASTERS) == [
        ("_build_frame", 1, 2, sigma.cache_key()),
        ("_build_master", 1, 2, sigma.cache_key(), "derived")]


@pytest.mark.parametrize("k, j, spec", [
    (1, 3, "gen1"), (2, 4, "gen4"), (1, 3, "u1*gen1"),
])
def test_cold_builds_take_each_polynomials_bracket_pieces_once(
        monkeypatch, k, j, spec):
    # a cold configuration takes Bivector.bracket_pieces 4 times: once in
    # the frame's R, and once for each classical entry of T, z^j, p and
    # z^-j, whose pieces the T * R = 1 check (star_matrix_mul) pairs and
    # the two builds pair again from the frame; R_01 is -p, whose pieces
    # are p's negated (7 calls when the check took its own, 14 when each
    # build took its own too)
    sigma = parse_sigma_spec(spec, k)
    bracket_pieces, calls, in_check = Bivector.bracket_pieces, [], []

    def counted(self, f):
        calls.append((in_check[-1] if in_check else None, f))
        return bracket_pieces(self, f)

    def checking(name, fn):
        def run(*args):
            in_check.append(name)
            try:
                return fn(*args)
            finally:
                in_check.pop()
        return run

    monkeypatch.setattr(Bivector, "bracket_pieces", counted)
    for name in ("canonical_right_inverse", "star_matrix_mul"):
        monkeypatch.setattr(engine, name,
                            checking(name, getattr(engine, name)))
    counts = []
    for _ in range(2):
        monkeypatch.setattr(engine, "_MASTERS", {})
        calls.clear()
        for formula in ("derived", "printed"):
            build_cancellation_system(k, j, sigma, formula=formula)
        counts.append(len(calls))
        assert [name for name, _ in calls].count(
            "canonical_right_inverse") == 1
        assert "star_matrix_mul" not in [name for name, _ in calls]
        paired = [f for name, f in calls if name is None]
        assert paired == [LaurentPoly.monomial(j, 0, 0),
                          engine.cached(engine._build_frame, k, j,
                                        sigma).p_poly,
                          LaurentPoly.monomial(-j, 0, 0)]
    assert counts == [4, 4]


def test_unknown_formula_is_rejected(monkeypatch):
    # an unknown formula is neither built as the printed one nor cached
    sigma = parse_sigma_spec("gen1", 1)
    monkeypatch.setattr(engine, "_MASTERS", {})
    for build in (
            lambda: stalk_dimension(1, 2, sigma, [1, 2, 3, 4],
                                    formula="bogus"),
            lambda: build_cancellation_system(1, 2, sigma, formula="bogus")):
        with pytest.raises(ValueError, match="formula must be 'derived' "
                                             "or 'printed', got 'bogus'"):
            build()
    assert engine._MASTERS == {}


@pytest.mark.parametrize("k,j,spec", CONFIGS)
def test_bump0_system_is_master_prefix(k, j, spec):
    sigma = parse_sigma_spec(spec, k)
    narrow = build_cancellation_system(k, j, sigma)
    wide = build_cancellation_system(k, j, sigma, bump=2)
    assert narrow.tags == engine._column_tags(compute_windows(k, j, sigma))
    assert wide.tags[:len(narrow.tags)] == narrow.tags
    assert wide.columns[:len(narrow.columns)] == narrow.columns
    assert narrow.nonzero == tuple(c for c in wide.nonzero
                                   if c < len(narrow.tags))
    assert narrow.windows == compute_windows(k, j, sigma)
    assert wide.windows == compute_windows(k, j, sigma, bump=2)


def test_systems_at_points_read_the_cached_table(monkeypatch):
    # the master's form table is compiled once, on its first read, and
    # a window at a point evaluates it instead of compiling its own
    monkeypatch.setattr(engine, "_MASTERS", {})
    compile_forms = FormTable.compile
    compiled = []

    def compile_counted(columns):
        compiled.append(1)
        return compile_forms(columns)

    monkeypatch.setattr(FormTable, "compile", compile_counted)
    sigma = parse_sigma_spec("gen1", 1)
    symbolic = build_cancellation_system(1, 2, sigma)
    assert compiled == []
    master = engine.cached(engine._build_master, 1, 2, sigma, "derived")
    for bump in (0, 2, 0):
        at = build_cancellation_system(1, 2, sigma, [1, 2, 3, 4], bump=bump)
        assert len(at.columns) == len(symbolic.columns if bump == 0
                                      else master.columns)
    assert compiled == [1]
    assert master._table is not None


def test_bump_outside_stability_window_rejected():
    with pytest.raises(ValueError, match="bump must be 0 or 2"):
        build_cancellation_system(1, 2, parse_sigma_spec("gen1", 1), bump=1)


def test_stability_check_can_fail(monkeypatch):
    sigma = parse_sigma_spec("u1*gen1", 1)
    pt = [1, 1, 0, 0]
    rep = stalk_dimension(1, 2, sigma, pt)
    master = engine.cached(engine._build_master, 1, 2, sigma, "derived")
    # the first column past the bump-0 window leaves the span at pt; it
    # is planted in the build, so it reaches the master's form table
    tag = master.tags[master.narrow]
    row = [m.render() for m in master.rows].index(rep.quotient_rows[0])
    monkeypatch.setattr(engine, "_MASTERS", {})
    plant_row(monkeypatch, tag, master.rows[row])
    with pytest.raises(WindowInstabilityError,
                       match=f"rank moved {rep.rank} -> {rep.rank + 1} "):
        stalk_dimension(1, 2, sigma, pt)


def star_route_entry(sigma, T, R, tag):
    """A derived column by two star products, (T_0a * W) * R_b1."""
    zero = LaurentPoly.zero()
    fam, n = tag
    if fam == "lambda":
        a = b = 1
        W = FormalFunction([zero, LaurentPoly.monomial(n, 0, 0)])
    elif fam == "c0":
        a, b = 1, 0
        W = FormalFunction([LaurentPoly.monomial(n, 0, 0)])
    else:
        a = b = 0 if fam[0] == "a" else 1
        g = (1, 0) if fam[1] == "1" else (0, 1)
        W = FormalFunction([LaurentPoly.monomial(n, *g)])
    M = sigma.star(sigma.star(T.entry(0, a), W, 1), R.entry(b, 1), 1)
    assert M[0].truncate_neighborhood(1).is_zero(), tag
    return M[1].truncate_neighborhood(1)


@pytest.mark.parametrize("j", [2, 3, 4, 5])
@pytest.mark.parametrize("k, spec", LEIBNIZ_SPECS)
def test_derived_master_matches_star_route(k, j, spec):
    sigma = parse_sigma_spec(spec, k)
    params, coeffs = engine._symbolic_point(k, j)
    p_poly = LaurentPoly(dict(zip(extension_basis(k, j, 1), coeffs)))
    T = transition_matrix(j, p_poly)
    R = canonical_right_inverse(sigma, j, FormalFunction([p_poly]))
    points = [random_point(k, j, random.Random(j)),
              single_coordinate_points(k, j)[-1]]
    want = {}
    for bump in (0, 2):
        master = build_cancellation_system(k, j, sigma, bump=bump)
        for tag, col in zip(master.tags, master.columns):
            if tag not in want:
                ent = star_route_entry(sigma, T, R, tag)
                want[tag] = [ent.coefficient(m) for m in master.rows]
            assert [(type(e), e) for e in col] == [
                (type(e), e) for e in want[tag]], tag
        # the form table against ParamPoly.evaluate, entry by entry
        for pt in points:
            env = dict(zip(params, pt))
            assert [[(type(v), v) for v in col]
                    for col in master.evaluate(pt)] == [
                [(Fraction, e.evaluate(env) if hasattr(e, "evaluate") else e)
                 for e in want[tag]] for tag in master.tags]


def star_route_unit_product(sigma):
    """oracle._unit_product by one star product per unit and entry."""
    def product(side, t0, t1, pieces, hord, w):
        t = FormalFunction([t0, t1])
        mono = LaurentPoly.monomial(*w)
        W = FormalFunction([LaurentPoly.zero(), mono] if hord else [mono])
        d = sigma.star(t, W, 1) if side == "U" else sigma.star(W, t, 1)
        return d[0].truncate_neighborhood(1), d[1].truncate_neighborhood(1)

    return product


@pytest.mark.parametrize("k, j, spec", [
    (1, 2, "gen3"), (1, 3, "2/3*u1*gen1"), (2, 2, "gen5"), (2, 3, "3/7*gen4"),
])
def test_oracle_system_matches_star_route(monkeypatch, k, j, spec):
    sigma = parse_sigma_spec(spec, k)
    system = oracle._build_oracle_system(k, j, sigma)
    monkeypatch.setattr(oracle, "_unit_product",
                        star_route_unit_product(sigma))
    assert oracle._build_oracle_system(k, j, sigma) == system


@pytest.mark.parametrize("k, j, spec", [(1, 3, "gen1"), (2, 3, "u1*gen4")])
def test_oracle_collects_only_first_neighbourhood_terms(monkeypatch, k, j,
                                                        spec):
    # _collect cuts nothing: the unit products come cut at u-degree 1, and
    # Tp - Tq = [[0, -hbar delta], [0, 0]] with delta in the basis of the
    # first neighbourhood
    collect = oracle._collect

    def checked(poly, *args):
        assert all(m.degree_u() <= 1 for m in poly.monomials())
        return collect(poly, *args)

    monkeypatch.setattr(oracle, "_collect", checked)
    oracle._build_oracle_system(k, j, parse_sigma_spec(spec, k))


def test_stratify_m2u_strata():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stratify(1, 2, sigma)
    assert rep["patterns_scanned"] == 15
    assert set(rep["strata"]) == {"2", "3"}
    assert rep["max_corank"] == 3
    wit = rep["max_corank_witness"]["point"]
    got = stalk_dimension(1, 2, sigma, [Fraction(c) for c in wit])
    assert got.stalk == 3


def test_stratify_e1_coranks():
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stratify(1, 3, sigma)
    assert set(rep["strata"]) == {"4", "5", "6", "7"}
    for corank, rec in rep["strata"].items():
        pt = [Fraction(c) for c in rec["witness"]["point"]]
        assert stalk_dimension(1, 3, sigma, pt).stalk == int(corank)


def test_stratify_deterministic():
    sigma = parse_sigma_spec("u1*gen1", 1)
    a = stratify(1, 2, sigma, seed=5)
    b = stratify(1, 2, sigma, seed=5)
    assert canonical_json(a) == canonical_json(b)


def test_stratify_reports_when_it_sampled():
    # 15 nonzero support patterns at (k, j) = (1, 2): a cap below that
    # scans a sample, and the report counts the patterns it could scan
    sigma = parse_sigma_spec("u1*gen1", 1)
    sampled = stratify(1, 2, sigma, seed=5, pattern_cap=4)
    assert sampled["patterns_scanned"] < sampled["patterns_total"] == 15
    assert sum(s["count"] for s in sampled["strata"].values()) == (
        sampled["patterns_scanned"])
    every = stratify(1, 2, sigma, seed=5)
    assert every["patterns_scanned"] == every["patterns_total"] == 15


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_a_sampled_scan_holds_pattern_cap_masks(seed):
    # the seeded sample is drawn from the masks below the full-support
    # one, which is then added: a sample that already held it scanned
    # one mask short of the cap (21 of these 70 scans did); the four
    # single-coordinate masks, where the top corank lies, join it
    sigma = parse_sigma_spec("u1*gen1", 1)
    for cap in range(1, 15):
        masks, _, _ = claims._scan(1, 2, sigma, seed, cap)
        sample = {*random.Random(seed).sample(range(1, 15), cap - 1), 15}
        assert len(sample) == cap
        assert masks == sorted(sample | {1, 2, 4, 8})


# the j = 3 configurations of perfbench's claims-cold workload
CLAIMS_J3 = ([(1, f"gen{n}") for n in range(1, 5)]
             + [(2, f"gen{n}") for n in range(1, 6)]
             + [(1, "u1*gen1"), (2, "u1*gen4")])


@pytest.mark.parametrize("k, spec", CLAIMS_J3)
def test_stratify_matches_a_scan_of_every_draw(k, spec):
    # closed strata take their proved rank and draw no point, open ones
    # rank one point; a scan that draws two points on every mask, ranks
    # each exactly and formats it finds the same strata, witnesses and
    # max corank, and counts at draw 0 the masks stratify counts
    sigma = parse_sigma_spec(spec, k)
    rep = stratify(k, 3, sigma, seed=1)
    assert rep["patterns_scanned"] == 255
    assert sum(s["count"] for s in rep["strata"].values()) == 255
    assert (rep["strata"], rep["max_corank"], rep["max_corank_witness"]) == (
        reference_strata(k, 3, sigma, 1, 2))
    master = engine.cached(engine._build_master, k, 3, sigma, "derived")
    opened = [m for m in range(1, 256)
              if len(set(engine.stratum_bounds(master, m))) == 2]
    if spec == "gen1":
        assert opened  # both paths are compared


def test_stratify_symbolic_minors_certificate():
    # every stratify report ends with the certificate
    sigma = parse_sigma_spec("u1*gen1", 1)
    rep = stratify(1, 2, sigma)
    cert = rep["certificate"]
    assert cert["rank_observed"] == 2
    assert cert["certified"] and cert["minor_nonzero"]

    basic = certify_generic_rank(1, 2, parse_sigma_spec("gen1", 1))
    assert basic["rank_observed"] == 4
    assert basic["certified"]

    # past the former 12x12 cap of the symbolic expansion
    for k, spec in ((1, "gen1"), (2, "gen4")):
        cert = certify_generic_rank(k, 5, parse_sigma_spec(spec, k))
        assert cert["rank_observed"] == cert["structural_upper"] == 16
        assert cert["certified"] and cert["minor_nonzero"]
        assert len(cert["minor_rows"]) == len(cert["minor_cols"]) == 16


class SpanCalls:
    """Records the points at which the exact span of point_space runs."""

    def __init__(self, monkeypatch):
        self.points = []
        real = engine._span

        def spied(master, ev, point):
            self.points.append(point)
            return real(master, ev, point)

        monkeypatch.setattr(engine, "_span", spied)


# the configurations whose certificate the exact span decides at every
# seed: a bump-0 column that does not enlarge it comes before the last one
# that does
CERTIFICATE_FALLBACKS = {(1, 4, "gen3"), (1, 4, "gen4"), (1, 5, "gen3"),
                         (1, 5, "gen4")}


@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_certificate_matches_the_exact_span_route(monkeypatch, j):
    # the certificate read off one modular echelon is the one the pivot
    # rows and grown columns of point_space give; the exact span runs
    # only where the echelon's leading pivots do not prove them
    spans = SpanCalls(monkeypatch)
    fell_back = set()
    for k, count in ((1, 4), (2, 5)):
        for spec in [f"{m}gen{n}" for n in range(1, count + 1)
                     for m in ("", "u1*")]:
            sigma = parse_sigma_spec(spec, k)
            for seed in range(1, 6):
                spans.points.clear()
                cert = certify_generic_rank(k, j, sigma, seed=seed)
                assert len(spans.points) <= 1
                if spans.points:
                    fell_back.add((k, j, spec, seed))
                assert cert == reference_certificate(k, j, sigma, seed)
    assert fell_back == {(*c, seed) for c in CERTIFICATE_FALLBACKS
                         if c[1] == j for seed in range(1, 6)}


def test_certificate_rejects_minor_singular_at_witness(monkeypatch):
    real = engine.point_pivots

    def repeated_pick(k, j, sigma, point):
        master, ev, pivots, picked = real(k, j, sigma, point)
        # the first grown column in place of the last: a minor with a
        # repeated column is singular
        return master, ev, pivots, picked[:-1] + picked[:1]

    monkeypatch.setattr(claims, "point_pivots", repeated_pick)
    spans = SpanCalls(monkeypatch)
    sigma = parse_sigma_spec("gen1", 1)
    with pytest.raises(AssertionError, match="singular at its witness"):
        certify_generic_rank(1, 2, sigma)
    assert spans.points == []  # read off the modular echelon

    res = CliRunner().invoke(main, [
        "stratify", "--k", "1", "--j", "2", "--sigma", "gen1"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error (invariant): "), res.stderr

    # where the prime kills every pivot, the exact span gives the pick
    pt = times3_point(1, 2)
    monkeypatch.setattr(claims, "random_point", lambda k, j, rng: pt)
    monkeypatch.setattr(engine, "_PRIME", 3)
    spans.points.clear()
    with pytest.raises(AssertionError, match="singular at its witness"):
        certify_generic_rank(1, 2, sigma)
    assert spans.points == [pt]


def times3_point(k, j):
    """A full-support integer point with every coordinate divisible by 3,
    where every master entry, and so every minor, vanishes modulo 3."""
    rng = random.Random(10 * k + j)
    return [Fraction(3 * rng.choice([-2, -1, 1, 2]))
            for _ in range(direction_dimension(k, j))]


class MinorRanks:
    """Records the modular and the exact ranks taken through linalg: per
    modular echelon, the columns it read, its rows, its prime and its
    rank."""

    def __init__(self, monkeypatch):
        self.modular, self.exact = [], []
        rank_mod, rank = linalg.rank_mod, linalg.rank

        def spied_rank_mod(columns, nrows, prime):
            read = []

            def reading():
                for col in columns:
                    read.append(col)
                    yield col

            pivots, grew = rank_mod(reading(), nrows, prime)
            self.modular.append((len(read), nrows, prime, len(pivots)))
            return pivots, grew

        def spied_rank(columns, nrows):
            got = rank(columns, nrows)
            self.exact.append((len(columns), nrows, got))
            return got

        monkeypatch.setattr(linalg, "rank_mod", spied_rank_mod)
        monkeypatch.setattr(linalg, "rank", spied_rank)


@pytest.mark.parametrize("k, j, spec", [
    (1, 2, "gen1"), (2, 3, "gen1"), (1, 3, "u1*gen1"), (1, 5, "gen1")])
def test_certificate_checks_its_minor_modulo_a_prime(monkeypatch, k, j,
                                                     spec):
    # one modular echelon of the point's columns gives the minor, and an
    # r x r integer minor of full rank modulo the prime has a nonzero
    # determinant, so no exact rank is taken, of the columns or the minor
    ranks = MinorRanks(monkeypatch)
    spans = SpanCalls(monkeypatch)
    cert = certify_generic_rank(k, j, parse_sigma_spec(spec, k))
    r = cert["rank_observed"]
    master = engine.cached(engine._build_master, k, j,
                           parse_sigma_spec(spec, k), "derived")
    n = len(master.rows)
    (read, *point), minor = ranks.modular
    assert point == [n, engine._PRIME, r]
    assert r <= read <= len(master.nonzero_narrow())
    assert minor == (r, r, engine._PRIME, r)
    assert ranks.exact == [] and spans.points == []


@pytest.mark.parametrize("k, j, spec", [(1, 2, "gen1"), (2, 3, "gen1")])
def test_certificate_falls_back_to_the_exact_minor_rank(monkeypatch, k, j,
                                                        spec):
    # at a point where every minor vanishes modulo 3, the modular echelon
    # of the columns has rank 0, so the exact span gives the minor, whose
    # modular rank is 0 too, and one exact rank proves it nonsingular;
    # the certificate is the one the exact span route gives at that point
    sigma = parse_sigma_spec(spec, k)
    monkeypatch.setattr(claims, "random_point",
                        lambda k, j, rng: times3_point(k, j))
    monkeypatch.setattr(engine, "random_point",
                        lambda k, j, rng: times3_point(k, j))
    want = reference_certificate(k, j, sigma, DEFAULT_SEED)
    assert certify_generic_rank(k, j, sigma) == want
    monkeypatch.setattr(engine, "_PRIME", 3)
    ranks = MinorRanks(monkeypatch)
    spans = SpanCalls(monkeypatch)
    assert certify_generic_rank(k, j, sigma) == want
    r = want["rank_observed"]
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    assert ranks.modular == [
        (len(master.nonzero_narrow()), len(master.rows), 3, 0), (r, r, 3, 0)]
    assert ranks.exact == [(r, r, r)]
    assert len(spans.points) == 1


@pytest.mark.parametrize("prime, point, pivots", [
    # modulo the prime the third leading minor vanishes, though the rank
    # is full
    (3, [2, 2, -2, 1], [0, 1, 3, 2]),
    (5, [-1, 1, -2, 2], [0, 1, 3, 2]),
])
def test_certificate_falls_back_where_the_prime_kills_a_leading_minor(
        monkeypatch, prime, point, pivots):
    # the modular echelon reaches full rank with its pivots out of step
    # order, so they prove nothing about the exact pivots: the exact span
    # gives the minor, and the certificate is the one it gives at the
    # point with the default prime
    sigma = parse_sigma_spec("gen1", 1)
    pt = [Fraction(c) for c in point]
    monkeypatch.setattr(claims, "random_point", lambda k, j, rng: pt)
    monkeypatch.setattr(engine, "random_point", lambda k, j, rng: pt)
    want = reference_certificate(1, 2, sigma, DEFAULT_SEED)
    assert certify_generic_rank(1, 2, sigma) == want
    monkeypatch.setattr(engine, "_PRIME", prime)
    master = engine.cached(engine._build_master, 1, 2, sigma, "derived")
    ev = Evaluation(master.table, pt)
    n = len(master.rows)
    got, grew = linalg.rank_mod(
        [ev.column(c, n) for c in master.nonzero_narrow()], n, prime)
    assert (got, grew) == (pivots, list(range(n)))
    spans = SpanCalls(monkeypatch)
    assert certify_generic_rank(1, 2, sigma) == want
    assert spans.points == [pt]


@pytest.mark.parametrize("prime", ["default", 3])
def test_certificate_rejects_a_dependent_column_on_both_paths(monkeypatch,
                                                              prime):
    # a bump-0 column that did not enlarge the span, before the last one
    # that did, lies in the span of the grown columns before it; in place
    # of the last one it makes the minor singular, which neither the
    # modular check nor the exact fallback accepts, whether the modular
    # echelon or, where the prime kills every pivot, the exact span gave
    # the minor
    real = engine.point_pivots
    picks = []

    def dependent_pick(k, j, sigma, point):
        master, ev, pivots, picked = real(k, j, sigma, point)
        last = picked[-1]
        dependent = next(c for c in range(last) if c not in picked)
        picks.append(dependent)
        return master, ev, pivots, picked[:-1] + [dependent]

    monkeypatch.setattr(claims, "point_pivots", dependent_pick)
    if prime != "default":
        monkeypatch.setattr(claims, "random_point",
                            lambda k, j, rng: times3_point(k, j))
        monkeypatch.setattr(engine, "_PRIME", prime)
    ranks = MinorRanks(monkeypatch)
    spans = SpanCalls(monkeypatch)
    with pytest.raises(AssertionError, match="singular at its witness"):
        certify_generic_rank(1, 2, parse_sigma_spec("gen1", 1))
    assert len(picks) == 1
    # the columns' echelon, then the minor's
    assert [got for *_, got in ranks.modular] == (
        [4, 3] if prime == "default" else [0, 0])
    assert [got for *_, got in ranks.exact] == [3]
    assert len(spans.points) == (0 if prime == "default" else 1)


@pytest.mark.parametrize("formula", ["derived", "printed"])
@pytest.mark.parametrize("residue, tag, message", [
    # z^-1 planted in the Y of a unit family's pair: Y enters from n = 1,
    # so column (a1, 1) holds it as z^0
    pytest.param(Monomial(0, 0, 0), ("a1", 1), "u-free residue",
                 id="residue0-u-free residue"),
    # z^3 u1^2 planted in the X of a lambda column: no column is cut at
    # u-degree 1, so content past it is checked too
    pytest.param(Monomial(3, 2, 0), ("lambda", 0), "unabsorbable residue",
                 id="residue1-unabsorbable residue"),
])
def test_build_rejects_stray_content(monkeypatch, formula, residue, tag,
                                     message):
    # a term outside the obstruction rows must be one the gauge absorbs:
    # u-free content, or content with a negative xi-exponent below z^2j,
    # is not (at (1,2) the rows are z^2..3 u1 and z^2..3 u2, and
    # z^3 u1^2 has xi-exponent -1)
    sigma = parse_sigma_spec("gen1", 1)
    assert residue not in obstruction_basis(1, 2)
    n = tag[1]
    stray = LaurentPoly.monomial(residue.l - n, residue.i, residue.s)
    monkeypatch.setattr(engine, "_MASTERS", {})
    if n:
        plant_in_pair(monkeypatch, tag, y=stray.scale(Fraction(1, n)))
    else:
        plant_in_pair(monkeypatch, tag, x=stray)
    with pytest.raises(AssertionError, match=re.escape(
            f"{message} {residue} in direction column {tag}")):
        engine.cached(engine._build_master, 1, 2, sigma, formula)


@pytest.mark.parametrize("formula", ["derived", "printed"])
@pytest.mark.parametrize("tag", [("a1", 1), ("lambda", 2)])
def test_stray_content_that_cancels_is_accepted(monkeypatch, formula, tag):
    # the residue of a column is summed over its two parts before it is
    # checked: a stray term planted in X and its negative in n Y cancel,
    # so the master is unchanged (Y does not enter at n = 0, and at n = 2
    # its terms are scaled as they are added)
    sigma = parse_sigma_spec("gen1", 1)
    want = engine._build_master(1, 2, sigma, formula)
    stray = Monomial(0, 0, 0) if tag[0] == "a1" else Monomial(3, 2, 0)
    n = tag[1]
    x = LaurentPoly.monomial(stray.l - n, stray.i, stray.s, 3)
    monkeypatch.setattr(engine, "_MASTERS", {})
    plant_in_pair(monkeypatch, tag, x=x, y=x.scale(Fraction(-1, n)))
    got = engine.cached(engine._build_master, 1, 2, sigma, formula)
    assert (got.columns, got.nonzero) == (want.columns, want.nonzero)


@pytest.mark.parametrize("entry, fam", [((0, 0), "a1"), ((1, 1), "d1"),
                                        ((1, 0), "c0")])
def test_unit_families_reject_a_classical_residue(monkeypatch, entry, fam):
    # a term of t0 r0 that the unit u_g leaves at u-degree 1 or less stays
    # in w t0 r0 for every unit w = z^n u_g, so the pair of the entry's
    # first family raises, naming its first column, before any column is
    # summed; the planted term has the largest such u-degree, 0 for a
    # unit family and 1 for c0 (u_g = 1)
    sigma = parse_sigma_spec("gen1", 1)
    frame = engine._build_frame(1, 3, sigma)
    assert set(engine._derived_pairs(frame)) == {
        "lambda", "a1", "a2", "d1", "d2", "c0"}
    real = engine._leibniz_pieces

    def planted(frame, a, b):
        t0r0, A, B = real(frame, a, b)
        if (a, b) == entry:
            t0r0 = t0r0 + LaurentPoly.monomial(5, int(fam == "c0"), 0)
        return t0r0, A, B

    monkeypatch.setattr(engine, "_leibniz_pieces", planted)
    with pytest.raises(AssertionError, match=re.escape(
            f"classical upper-right residue for column {(fam, 0)}")):
        engine._derived_pairs(frame)


def test_frame_rejects_a_right_inverse_off_minus_p(monkeypatch):
    # R_01 = -p classically is what lets the frame take p's bracket
    # pieces negated for R_01's; planted past a T * R = 1 check that is
    # made to pass, it raises
    sigma = parse_sigma_spec("gen1", 1)
    real = engine.canonical_right_inverse

    def shifted(sigma, j, q):
        R = real(sigma, j, q)
        rows = [list(row) for row in R.rows]
        rows[0][1] = rows[0][1] + FormalFunction(
            [LaurentPoly.monomial(-j, 0, 0)])
        return type(R)(rows)

    one, zero = FormalFunction([LaurentPoly.const(1)]), FormalFunction(
        [LaurentPoly.zero()])
    monkeypatch.setattr(engine, "canonical_right_inverse", shifted)
    monkeypatch.setattr(engine, "star_matrix_mul", lambda *args: Matrix2(
        [[one, zero], [zero, one]]))
    with pytest.raises(AssertionError,
                       match="right inverse failed: R_01 is not -p"):
        engine._build_frame(1, 2, sigma)


@pytest.mark.parametrize("order, message", [
    (0, "right inverse failed classically"),
    (1, "right inverse failed at order 1"),
])
def test_build_rejects_a_failing_right_inverse(monkeypatch, order, message):
    # R's upper-right entry moved by z^-j at one hbar-order leaves T * R
    # off the identity at that order, which both formulas' frame rejects
    sigma = parse_sigma_spec("gen1", 1)
    real = engine.canonical_right_inverse

    def shifted(sigma, j, q):
        R = real(sigma, j, q)
        terms = [LaurentPoly.zero(), LaurentPoly.zero()]
        terms[order] = LaurentPoly.monomial(-j, 0, 0)
        rows = [list(row) for row in R.rows]
        rows[0][1] = rows[0][1] + FormalFunction(terms)
        return type(R)(rows)

    monkeypatch.setattr(engine, "_MASTERS", {})
    monkeypatch.setattr(engine, "canonical_right_inverse", shifted)
    for formula in ("derived", "printed"):
        with pytest.raises(AssertionError, match=message):
            engine.cached(engine._build_master, 1, 2, sigma, formula)
    assert engine._MASTERS == {}


@pytest.mark.parametrize("k, j, spec", [
    (1, 2, "gen1"), (2, 3, "gen5"), (1, 3, "u1*gen1")])
def test_t_times_r_check_rejects_a_wrong_piece(monkeypatch, k, j, spec):
    # the check pairs the frame's pieces of T's classical entries; p's
    # pieces given for entry (0, 0), z^j, leave T * R off the identity
    # at order 1, where the brackets enter
    real = engine.star_matrix_mul

    def swapped(sigma, A, B, order, pieces):
        (_, pp), row1 = pieces
        return real(sigma, A, B, order, ((pp, pp), row1))

    monkeypatch.setattr(engine, "star_matrix_mul", swapped)
    with pytest.raises(AssertionError,
                       match="right inverse failed at order 1"):
        engine._build_frame(k, j, parse_sigma_spec(spec, k))


@pytest.mark.parametrize("point", ["full-support", "axis"])
def test_point_space_stops_at_full_rank(monkeypatch, point):
    k, j, sigma = 1, 5, parse_sigma_spec("gen1", 1)
    pt = (random_point(k, j, random.Random(3)) if point == "full-support"
          else single_coordinate_points(k, j)[0])
    plain_add = linalg.ColumnSpace.add
    calls = []

    def spy(space, vec):
        assert space.rank < space.nrows, "column added to a full span"
        calls.append(vec)
        return plain_add(space, vec)

    monkeypatch.setattr(linalg.ColumnSpace, "add", spy)
    master, _, space, grew = engine.point_space(k, j, sigma, "derived", pt)
    monkeypatch.setattr(linalg.ColumnSpace, "add", plain_add)
    # the stop leaves grew and the span as a plain pass over every bump-0
    # column of values has them
    full = linalg.ColumnSpace(len(master.rows))
    values = master.evaluate(pt)[:master.narrow]
    assert grew == [i for i, col in enumerate(values) if full.add(col)]
    assert space.pivot_rows() == full.pivot_rows()
    if point == "full-support":
        assert space.rank == len(master.rows)
        assert len(calls) < len(master.nonzero_narrow())


@pytest.mark.parametrize("k, j, spec", [(1, 3, "gen1"), (2, 4, "u1*gen4")])
def test_bump0_system_at_a_point_evaluates_only_its_columns(monkeypatch, k,
                                                             j, spec):
    # the bump-0 system at a point evaluates the master's table once and
    # builds only its own columns, the full window's first ones
    sigma = parse_sigma_spec(spec, k)
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    pt = _coerce_point(k, j, random_point(k, j, random.Random(5)))
    want = master.evaluate(pt)[:master.narrow]
    built = []
    column = FormTable.column

    def spied_column(table, values, c, nrows, zero):
        built.append(c)
        return column(table, values, c, nrows, zero)

    spy = EvaluationSpy(monkeypatch)
    monkeypatch.setattr(FormTable, "column", spied_column)
    mat = build_cancellation_system(k, j, sigma, pt)
    assert built == list(range(master.narrow))
    spy.evaluated_once(pt)
    assert master.narrow < len(master.columns)
    assert mat.columns == want
    assert all(type(v) is Fraction for col in mat.columns for v in col)


def special_points(dim):
    """Random full-support, axis and support-mask points."""
    full_support = st.lists(fractions, min_size=dim, max_size=dim)
    return st.one_of(
        full_support,
        st.builds(unit, st.just(dim), st.integers(0, dim - 1), fractions),
        st.builds(lambda mask, pt: [c if mask >> r & 1 else Fraction(0)
                                    for r, c in enumerate(pt)],
                  st.integers(1, (1 << dim) - 1), full_support))


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("k, spec", LEIBNIZ_SPECS)
@settings(max_examples=6)
@given(data=st.data())
def test_point_space_reduces_only_nonzero_columns(k, j, spec, data):
    # at random full-support, axis and support-mask points, the span of
    # the nonzero columns is the span of a plain pass over every column
    sigma = parse_sigma_spec(spec, k)
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    assert list(master.nonzero) == [c for c, col in enumerate(master.columns)
                                    if any(col)]
    point = data.draw(special_points(direction_dimension(k, j)))
    ps = engine.point_space(k, j, sigma, "derived", point)
    cols = master.evaluate(_coerce_point(k, j, point))
    plain = linalg.ColumnSpace(len(master.rows))
    grew = [c for c, col in enumerate(cols) if plain.add(col)]
    # the integer columns are the columns of values, each scaled by the
    # one common denominator, zero columns too
    n = len(master.rows)
    ints = [ps.ev.column(c, n) for c in range(len(cols))]
    assert ints == [[v * ps.ev.den for v in col] for col in cols]
    assert all(type(v) is int for col in ints for v in col)
    assert ps.grew == grew
    assert ps.space.rank == plain.rank
    assert ps.space.pivot_rows() == plain.pivot_rows()
    assert ps.space.non_pivot_rows() == plain.non_pivot_rows()


def rank_points(k, j):
    """Random full-support, every axis and random support-mask points,
    and a full-support integer point with every coordinate divisible by
    3, where each master entry vanishes modulo 3."""
    rng = random.Random(100 * k + j)
    dim = direction_dimension(k, j)
    masked = [[c if mask >> r & 1 else Fraction(0)
               for r, c in enumerate(random_point(k, j, rng))]
              for mask in rng.sample(range(1, (1 << dim) - 1), 3)]
    times3 = [Fraction(3 * rng.choice([-2, -1, 1, 2])) for _ in range(dim)]
    return ([random_point(k, j, rng) for _ in range(3)]
            + single_coordinate_points(k, j) + masked + [times3])


def pattern_rank(master, point):
    """The term rank of the master's nonzero columns on the support
    pattern of the point, by another route than engine.stratum_bounds.

    An entry counts when one of its symbolic terms has no parameter
    outside the support.  Each counted entry gets a random integer below
    2^64 and every other entry 0; the rank of that matrix is the term
    rank of the pattern (Edmonds), unless one of its minors of that size
    vanishes, which these few fixed draws do not hit.
    """
    rng = random.Random(0)
    outside = [r for r, c in enumerate(point) if not c]

    def live(entry):
        terms = entry.terms() if isinstance(entry, ParamPoly) else [((), 1)]
        return any(not any(ev[r] for r in outside if ev) for ev, _ in terms)

    return linalg.rank(
        [[rng.randrange(1, 1 << 64) if e and live(e) else 0 for e in col]
         for c, col in enumerate(master.columns) if c in master.nonzero],
        len(master.rows))


def support(point):
    return sum(1 << r for r, c in enumerate(point) if c)


@pytest.mark.parametrize("prime", ["default", 3])
@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("k, spec", LEIBNIZ_SPECS)
def test_point_rank_is_the_point_space_rank(monkeypatch, k, j, spec, prime):
    # a closed stratum (lower bound = term rank) answers with nothing
    # evaluated; on an open one the certificate answers where the modular
    # rank meets the row count or the term rank, the exact span where it
    # falls short of both, and all give point_space's rank
    sigma = parse_sigma_spec(spec, k)
    if prime != "default":
        monkeypatch.setattr(engine, "_PRIME", prime)
    span = engine._span
    fell_back = []

    def spied_span(master, ev, point):
        fell_back.append(point)
        return span(master, ev, point)

    monkeypatch.setattr(engine, "_span", spied_span)
    spy = EvaluationSpy(monkeypatch)
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    upper = min(len(master.rows), len(master.nonzero))
    points = rank_points(k, j)
    for pt in points:
        rank = engine.point_space(k, j, sigma, "derived", pt).space.rank
        lower, bound = engine.stratum_bounds(master, support(pt))
        assert lower <= rank <= bound == pattern_rank(master, pt) <= upper
        fell_back.clear()
        spy.clear()
        assert engine.point_rank(k, j, sigma, pt) == rank
        if lower == bound:
            assert spy.made == [] and fell_back == []
            continue
        spy.evaluated_once(pt)
        if prime == "default":
            assert bool(fell_back) == (rank != bound)
        elif pt is points[-1]:
            # every entry vanishes modulo 3 there
            assert fell_back == [pt] and rank == upper
    if (k, j, spec) == (2, 3, "gen1"):
        # full support is open there: lower 7, term rank 8
        assert engine.stratum_bounds(master, support(points[-1])) == (7, 8)


class EvaluationSpy:
    """Records every Evaluation made."""

    def __init__(self, monkeypatch):
        self.made = []
        self.init = init = Evaluation.__init__

        def spied_init(ev, table, coords):
            init(ev, table, coords)
            self.made.append((tuple(coords), ev))

        monkeypatch.setattr(Evaluation, "__init__", spied_init)

    def clear(self):
        self.made.clear()

    def evaluated_once(self, coords):
        """The one evaluation made, at coords, after checking that it
        holds one numerator per form, each the numerator that an unspied
        evaluation of its table gives, and reads its columns off them."""
        assert [c for c, _ in self.made] == [tuple(coords)]
        _, ev = self.made[0]
        full = Evaluation.__new__(Evaluation)
        self.init(full, ev.table, coords)
        assert ev.den == full.den and ev.ints == full.ints
        assert len(ev.ints) == len(ev.table.forms)
        nrows = max(ev.table.rows, default=-1) + 1
        for c in range(len(ev.table.start) - 1):
            assert ev.column(c, nrows) == ev.table.column(ev.ints, c, nrows,
                                                          0)
        return ev


def test_point_rank_falls_back_on_one_evaluation(monkeypatch):
    # on (2,3,gen1) an axis stratum is closed and evaluates nothing; the
    # stratum of coordinates 0 and 4 is open (lower bound 5, term rank 6)
    # and below full rank, where the full-rank certificate could not
    # answer, and the term rank certifies it with no exact span; full
    # support is open too (lower bound 7, term rank 8), and where the
    # prime kills every pivot there, the exact span reduces the columns
    # of the same evaluation up to full rank
    sigma = parse_sigma_spec("gen1", 2)
    master = engine.cached(engine._build_master, 2, 3, sigma, "derived")
    n = len(master.rows)
    axis = _coerce_point(2, 3, single_coordinate_points(2, 3)[0])
    pair = _coerce_point(2, 3, [1, 0, 0, 0, 2, 0, 0, 0])
    times3 = _coerce_point(2, 3, [3, -6, 3, 3, 6, -3, 3, 3])
    want = {pt: engine.point_space(2, 3, sigma, "derived", pt).space.rank
            for pt in (axis, pair, times3)}
    assert engine.stratum_bounds(master, 1) == (want[axis],) * 2
    assert engine.stratum_bounds(master, 0b10001) == (5, 6) == (5, want[pair])
    assert want[pair] < n
    assert engine.stratum_bounds(master, 0xff) == (7, 8)
    span = engine._span
    fell_back = []

    def spied_span(master, ev, point):
        fell_back.append(point)
        return span(master, ev, point)

    def evaluate(master, point):
        raise AssertionError("point_rank evaluated the Fraction master")

    plain_add = linalg.ColumnSpace.add
    reduced = []

    def add(space, vec):
        reduced.append(vec)
        return plain_add(space, vec)

    spy = EvaluationSpy(monkeypatch)
    monkeypatch.setattr(engine, "_span", spied_span)
    monkeypatch.setattr(engine.MasterSystem, "evaluate", evaluate)
    monkeypatch.setattr(linalg.ColumnSpace, "add", add)
    assert engine.point_rank(2, 3, sigma, axis) == want[axis]
    assert spy.made == [] and fell_back == [] and reduced == []
    assert engine.point_rank(2, 3, sigma, pair) == want[pair]
    assert fell_back == [] and reduced == []
    spy.evaluated_once(pair)

    monkeypatch.setattr(engine, "_PRIME", 3)
    spy.clear()
    assert engine.point_rank(2, 3, sigma, times3) == want[times3]
    assert fell_back == [times3]
    ev = spy.evaluated_once(times3)
    # the modular pass read every nonzero bump-0 column, as a pass that
    # falls back always does (it stops early only at full rank); the
    # exact span reduced them only up to full rank
    narrow = master.nonzero_narrow()
    assert want[times3] == n
    assert len(reduced) < len(narrow)
    assert reduced == [ev.column(c, n) for c in narrow[:len(reduced)]]


def test_exact_queries_evaluate_integer_numerators_once(monkeypatch):
    # every exact span and solve reads one evaluation of integer
    # numerators per point and builds no Fraction view of the table; a
    # rank on a closed stratum evaluates nothing
    sigma = parse_sigma_spec("gen1", 1)
    points = [random_point(1, 2, random.Random(7)),
              single_coordinate_points(1, 2)[0]]
    delta = random_point(1, 2, random.Random(8))
    # full support is an open stratum of (2,3,gen1)
    sigma23 = parse_sigma_spec("gen1", 2)
    open_pt = random_point(2, 3, random.Random(7))
    # a build evaluates nothing, but is done before the spies go in
    master = engine.cached(engine._build_master, 1, 2, sigma, "derived")
    master23 = engine.cached(engine._build_master, 2, 3, sigma23, "derived")
    engine.cached(oracle._build_oracle_system, 1, 2, sigma)
    spy = EvaluationSpy(monkeypatch)

    def fraction_view(*args):
        raise AssertionError("an exact query built Fraction values")

    monkeypatch.setattr(engine.MasterSystem, "evaluate", fraction_view)
    lower, upper = engine.stratum_bounds(master23, support(open_pt))
    assert lower < upper == len(master23.rows)
    for query in (partial(engine.point_space, 2, 3, sigma23, "derived"),
                  partial(engine.point_rank, 2, 3, sigma23)):
        spy.clear()
        query(open_pt)
        spy.evaluated_once(open_pt)
    for pt in points:
        spy.clear()
        engine.point_space(1, 2, sigma, "derived", pt)
        spy.evaluated_once(pt)
        spy.clear()
        lower, upper = engine.stratum_bounds(master, support(pt))
        assert lower == upper
        assert engine.point_rank(1, 2, sigma, pt) == lower
        assert spy.made == []
        full_gauge_oracle(1, 2, sigma, pt, delta)
        spy.evaluated_once(tuple(pt) + tuple(delta))
    spy.clear()
    certify_generic_rank(1, 2, sigma, seed=3)
    spy.evaluated_once(random_point(1, 2, random.Random(3)))


CATALOG = ([(1, f"gen{n}") for n in range(1, 5)]
           + [(2, f"gen{n}") for n in range(1, 6)])
PLANTED = {}


@pytest.mark.parametrize("formula", ["derived", "printed"])
@pytest.mark.parametrize("j", [2, 3, 4, 5])
@pytest.mark.parametrize("multiple", ["", "u1*", "u2*"])
@pytest.mark.parametrize("k, gen", CATALOG)
def test_master_columns_match_the_shifted_sum_route(k, gen, multiple, j,
                                                    formula):
    # each column summed straight into its rows from its family's pair,
    # against the shifted sum of its parts built tag by tag and walked
    # term by term: the same coefficients, of the same types
    sigma = parse_sigma_spec(multiple + gen, k)
    master = engine.cached(engine._build_master, k, j, sigma, formula)
    point, columns = reference_master_columns(k, j, sigma, formula)
    assert [[(type(e), e) for e in col] for col in master.columns] == [
        [(type(e), e) for e in col] for col in columns]
    assert master.nonzero == tuple(c for c, col in enumerate(columns)
                                   if any(col))
    assert columns[master.tags.index(("lambda", 0))] == point


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("multiple", ["", "u1*"])
@pytest.mark.parametrize("k, gen", CATALOG)
def test_master_form_tables_match_dense_exponent_vectors(k, gen, multiple,
                                                         j):
    # FormTable.compile reads the ParamPoly monomial keys as they are: its
    # degree, its scale and the numerator of every entry at a point are
    # those that the dense exponent vectors give
    sigma = parse_sigma_spec(multiple + gen, k)
    points = [random_point(k, j, random.Random(j)),
              single_coordinate_points(k, j)[0]]
    for formula in ("derived", "printed"):
        master = engine.cached(engine._build_master, k, j, sigma, formula)
        table = master.table
        for pt in points:
            degree, scale, want = reference_form_numerators(
                [dict(enumerate(col)) for col in master.columns], pt)
            assert (table.degree, table.scale) == (degree, scale)
            ints = Evaluation(table, pt).ints
            assert {(c, r): ints[f] for c in range(len(master.columns))
                    for r, f in table.segment(c)} == want


def leibniz_mismatches(frame):
    """The gauge entries whose engine._leibniz_pieces differ from the
    full route's (reference_leibniz_pieces), or take the shortcut (B
    returned empty) other than exactly where r0 = -t0."""
    bad = []
    for ab in ((0, 0), (1, 1), (1, 0)):
        t, r = frame.T.entry(0, ab[0]), frame.R.entry(ab[1], 1)
        got = engine._leibniz_pieces(frame, *ab)
        want = reference_leibniz_pieces(frame, *ab)
        # the shortcut returns B empty, the full route every B_d
        skipped = got[2] == {}
        if (got[:2] != want[:2] or skipped != (r[0] == -t[0])
                or {d: p for d, p in got[2].items() if p}
                != {d: p for d, p in want[2].items() if p}):
            bad.append(ab)
    return bad


@pytest.mark.parametrize("j", [2, 3, 4, 5])
@pytest.mark.parametrize("multiple", ["", "u1*"])
@pytest.mark.parametrize("k, gen", CATALOG)
def test_leibniz_shortcut_matches_the_full_route(k, gen, multiple, j):
    # B and {t0, r0} are skipped exactly where r0 = -t0, the c0 entry
    # (1, 0), and the pieces and derived columns are the full route's
    sigma = parse_sigma_spec(multiple + gen, k)
    frame = engine.cached(engine._build_frame, k, j, sigma)
    assert leibniz_mismatches(frame) == []
    t, r = frame.T.entry(0, 1), frame.R.entry(0, 1)
    assert r[0] == -t[0]
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    _, columns = reference_master_columns(k, j, sigma, "derived")
    assert [[(type(e), e) for e in col] for col in master.columns] == [
        [(type(e), e) for e in col] for col in columns]


def planted_frame(k, j, spec):
    """The frame of a configuration with R_01 = -T_01 + z/7 classically,
    its bracket pieces recomputed: r0 = -t0 fails by one term."""
    sigma = parse_sigma_spec(spec, k)
    frame = engine._build_frame(k, j, sigma)
    r = frame.R.entry(0, 1)
    r0 = r[0] + LaurentPoly.monomial(1, 0, 0, Fraction(1, 7))
    R = Matrix2([[frame.R.entry(0, 0), FormalFunction([r0, r[1]])],
                 [frame.R.entry(1, 0), frame.R.entry(1, 1)]])
    return frame._replace(R=R, r_pieces=(sigma.bracket_pieces(r0),
                                         frame.r_pieces[1]))


@pytest.mark.parametrize("k, spec", [(1, "gen1"), (1, "gen3"), (2, "gen4"),
                                     (2, "gen5")])
def test_leibniz_pieces_off_the_shortcut_take_the_full_route(k, spec):
    frame = planted_frame(k, 3, spec)
    assert leibniz_mismatches(frame) == []
    # B is not zero there, so skipping it would change the columns
    _, _, B = engine._leibniz_pieces(frame, 1, 0)
    assert any(B.values())


def test_leibniz_check_catches_a_skip_of_b_everywhere(monkeypatch):
    # a mutant that skips B and {t0, r0} on every entry is caught on the
    # catalog, where (0, 0) and (1, 1) need them, and on a planted frame
    def skip(frame, a, b):
        t, r = frame.T.entry(0, a), frame.R.entry(b, 1)
        return (t[0].mul_truncated(r[0], 1),
                t[1].mul_truncated(r[0], 1) + t[0].mul_truncated(r[1], 1),
                {})

    monkeypatch.setattr(engine, "_leibniz_pieces", skip)
    for k, gen in CATALOG:
        frame = engine._build_frame(k, 3, parse_sigma_spec(gen, k))
        assert leibniz_mismatches(frame) != []
    assert (1, 0) in leibniz_mismatches(planted_frame(2, 3, "gen4"))


def planted_master(k, j, spec, row):
    """The derived master with the unit vector of row planted in its
    first zero column past the bump-0 window, built once per row."""
    if (k, j, spec, row) not in PLANTED:
        sigma = parse_sigma_spec(spec, k)
        master = engine.cached(engine._build_master, k, j, sigma, "derived")
        tag = next(master.tags[c] for c in range(master.narrow,
                                                 len(master.tags))
                   if c not in master.nonzero)
        with pytest.MonkeyPatch.context() as mp:
            plant_row(mp, tag, master.rows[row])
            PLANTED[k, j, spec, row] = engine._build_master(
                k, j, sigma, "derived")
    return PLANTED[k, j, spec, row]


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("multiple", ["", "u1*"])
@pytest.mark.parametrize("k, gen", CATALOG)
@settings(max_examples=4)
@given(data=st.data())
def test_term_rank_certificate_on_support_patterns(k, gen, multiple, j,
                                                   data):
    # at axis points and random support masks (lower strata among them):
    # the exact rank is at most the term rank, point_rank is the exact
    # rank, and a nonzero column planted past the bump-0 window that
    # enlarges the span still raises in both queries
    spec = multiple + gen
    sigma = parse_sigma_spec(spec, k)
    dim = direction_dimension(k, j)
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    mask = data.draw(st.one_of(
        st.builds(lambda r: 1 << r, st.integers(0, dim - 1)),
        st.integers(1, (1 << dim) - 1)))
    point = [data.draw(fractions) if mask >> r & 1 else Fraction(0)
             for r in range(dim)]
    space = engine.point_space(k, j, sigma, "derived", point).space
    assert space.rank <= engine.stratum_bounds(master, mask)[1] == (
        pattern_rank(master, point))
    assert engine.point_rank(k, j, sigma, point) == space.rank
    if space.rank == len(master.rows):
        return  # no column can enlarge a full span
    row = data.draw(st.sampled_from(space.non_pivot_rows()))
    key = ("_build_master", k, j, sigma.cache_key(), "derived")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_MASTERS", {key: planted_master(k, j, spec,
                                                            row)})
        for query in (partial(engine.point_rank, k, j, sigma),
                      partial(engine.point_space, k, j, sigma, "derived")):
            with pytest.raises(WindowInstabilityError,
                               match=f"rank moved {space.rank} -> "
                                     f"{space.rank + 1} "):
                query(point)


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("multiple", ["", "u1*"])
@pytest.mark.parametrize("k, gen", CATALOG)
@settings(max_examples=6)
@given(data=st.data())
def test_stratum_bounds_hold_at_every_draw(k, gen, multiple, j, data):
    # on a random support mask (axes among them), the exact rank at every
    # draw lies between the stratum's lower bound and its term rank, and
    # on a closed stratum it is the lower bound at every draw
    sigma = parse_sigma_spec(multiple + gen, k)
    dim = direction_dimension(k, j)
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    mask = data.draw(st.one_of(
        st.builds(lambda r: 1 << r, st.integers(0, dim - 1)),
        st.integers(1, (1 << dim) - 1)))
    lower, upper = engine.stratum_bounds(master, mask)
    for _ in range(3):
        point = [data.draw(fractions) if mask >> r & 1 else Fraction(0)
                 for r in range(dim)]
        rank = engine.point_space(k, j, sigma, "derived", point).space.rank
        assert lower <= rank <= upper
        if lower == upper:
            assert rank == lower


# the open masks of every j = 3 catalog configuration, out of 255: the
# masks whose lower bound stays below the term rank
OPEN_MASKS_J3 = {(1, "gen1"): 22, (1, "gen2"): 22, (1, "gen3"): 47,
                 (1, "gen4"): 47, (2, "gen1"): 77, (2, "gen2"): 6,
                 (2, "gen3"): 14, (2, "gen4"): 0, (2, "gen5"): 35}


@pytest.mark.parametrize("multiple", ["", "u1*"])
@pytest.mark.parametrize("k, gen", CATALOG)
def test_bitset_bounds_match_the_list_bounds_at_j3(k, gen, multiple):
    # every mask of the stratum bounds from bitsets is the pair that the
    # per-entry lists give, and a u1-multiple has no open mask
    sigma = parse_sigma_spec(multiple + gen, k)
    master = engine.cached(engine._build_master, k, 3, sigma, "derived")
    opened = 0
    for mask in range(1, 256):
        got = engine.stratum_bounds(master, mask)
        assert got == reference_stratum_bounds(master, mask), mask
        opened += got[0] != got[1]
    assert opened == (OPEN_MASKS_J3[k, gen] if not multiple else 0)


@pytest.mark.parametrize("multiple", ["", "u1*"])
@pytest.mark.parametrize("k, gen", CATALOG)
@settings(max_examples=4)
@given(masks=st.lists(st.integers(1, 4095), min_size=1, max_size=16))
def test_bitset_bounds_match_the_list_bounds_at_j4(k, gen, multiple, masks):
    sigma = parse_sigma_spec(multiple + gen, k)
    master = engine.cached(engine._build_master, k, 4, sigma, "derived")
    for mask in masks:
        assert engine.stratum_bounds(master, mask) == (
            reference_stratum_bounds(master, mask))


def test_two_live_monomials_make_no_diagonal(monkeypatch):
    # p0 + p1 is nonzero at most points of the stratum of p0 and p1 but
    # vanishes at (1, -1), so only its term rank bounds the stratum, which
    # stays open; alone on the stratum of p0 it is p0, which proves rank 1
    # (the toy's table is compiled from its columns when first read)
    p0, p1 = (ParamPoly.variable(("p0", "p1"), v) for v in ("p0", "p1"))
    toy = engine.MasterSystem(
        k=1, j=2, rows=["r0"], tags=[("lambda", 0)], windows=None,
        columns=[[p0 + p1]], narrow=1, nonzero=(0,))
    assert engine.stratum_bounds(toy, 0b11) == (0, 1)
    assert engine.stratum_bounds(toy, 0b01) == (1, 1)
    sigma = parse_sigma_spec("gen1", 1)
    key = ("_build_master", 1, 2, sigma.cache_key(), "derived")
    monkeypatch.setattr(engine, "_MASTERS", {key: toy})
    for pt, rank in (((1, -1), 0), ((1, 2), 1), ((3, 0), 1)):
        pt = tuple(map(Fraction, pt))
        assert engine.point_rank(1, 2, sigma, pt) == rank
        assert engine.point_space(1, 2, sigma, "derived", pt).space.rank == (
            rank)


def test_clearing_the_masters_drops_every_bound(monkeypatch):
    # the bounds live on the cached master, so a cold cache is cold for
    # them too
    monkeypatch.setattr(engine, "_MASTERS", {})
    sigma = parse_sigma_spec("u1*gen1", 1)
    points = single_coordinate_points(1, 3)
    for pt in points:
        engine.point_rank(1, 3, sigma, pt)
    master = engine.cached(engine._build_master, 1, 3, sigma, "derived")
    assert sorted(master.bounds) == [1 << r for r in range(len(points))]
    engine._MASTERS.clear()
    fresh = engine.cached(engine._build_master, 1, 3, sigma, "derived")
    assert master.pattern is not None
    assert fresh is not master and fresh.bounds == {}
    # the zero pattern is built with the first bounds, not with the master
    assert fresh.pattern is None
    assert fresh == master  # bounds and pattern take no part in equality


def test_point_rank_keeps_the_stability_check(monkeypatch):
    # a column planted past the bump-0 window that enlarges the span below
    # full rank raises, as in point_space; at full rank it cannot enlarge
    sigma = parse_sigma_spec("gen1", 1)
    pt = single_coordinate_points(1, 2)[2]
    rep = stalk_dimension(1, 2, sigma, pt)
    master = engine.cached(engine._build_master, 1, 2, sigma, "derived")
    tag = master.tags[master.narrow]
    row = [m.render() for m in master.rows].index(rep.quotient_rows[0])
    monkeypatch.setattr(engine, "_MASTERS", {})
    plant_row(monkeypatch, tag, master.rows[row])
    with pytest.raises(WindowInstabilityError,
                       match=f"rank moved {rep.rank} -> {rep.rank + 1} "):
        engine.point_rank(1, 2, sigma, pt)
    generic = random_point(1, 2, random.Random(5))
    assert engine.point_rank(1, 2, sigma, generic) == 4 == (
        engine.point_space(1, 2, sigma, "derived", generic).space.rank)


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("k, spec", LEIBNIZ_SPECS)
@settings(max_examples=6)
@given(data=st.data())
def test_master_evaluate_matches_symbolic_columns(k, j, spec, data):
    # evaluate reads only the nonzero columns from the form table; every
    # column, zero ones included, must be its symbolic column at the point
    sigma = parse_sigma_spec(spec, k)
    params, _ = engine._symbolic_point(k, j)
    pt = _coerce_point(k, j, data.draw(special_points(len(params))))
    env = dict(zip(params, pt))
    for bump in (0, 2):
        master = build_cancellation_system(k, j, sigma, bump=bump)
        cols = master.evaluate(pt)
        assert [[(type(v), v) for v in col] for col in cols] == [
            [(Fraction, e.evaluate(env) if hasattr(e, "evaluate") else e)
             for e in col] for col in master.columns]
        assert len({id(col) for col in cols}) == len(cols)


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
    space = linalg.ColumnSpace(len(mat.rows))
    for col in mat.columns:
        space.add(col)
    # lambda_1 column is exactly (p1, 0, p3, 0) = delta
    assert space.contains(delta)
    assert full_gauge_oracle(1, 2, sigma, pt, delta).decision


def test_oracle_rejects_j_below_2():
    # no directions below j = 2, as at every engine entry point
    with pytest.raises(ValueError, match="no moduli directions below j = 2"):
        full_gauge_oracle(1, 1, parse_sigma_spec("gen1", 1), [], [])


@pytest.mark.parametrize("entry", [
    lambda sigma: certify_generic_rank(1, 1, sigma),
    lambda sigma: build_cancellation_system(1, 1, sigma),
    lambda sigma: compute_windows(1, 1, sigma),
    lambda sigma: oracle_check(configs=[(1, 1, "gen1")]),
], ids=["certify_generic_rank", "build_cancellation_system",
        "compute_windows", "oracle_check"])
def test_entry_points_reject_j_below_2(entry):
    # j = 1 has an empty extension basis, so its windows are rejected
    # before a minimum is taken over it, with the message that names j
    with pytest.raises(ValueError,
                       match="no moduli directions below j = 2, got j=1"):
        entry(parse_sigma_spec("gen1", 1))


@pytest.mark.parametrize("entry", [
    lambda sigma: build_cancellation_system(1, 3, sigma),
    lambda sigma: stalk_dimension(1, 3, sigma, [1] * 8),
    lambda sigma: verify_claims(1, 3, sigma, seed=1),
    lambda sigma: certify_generic_rank(1, 3, sigma, seed=1),
    lambda sigma: stratify(1, 3, sigma, seed=1),
    lambda sigma: full_gauge_oracle(1, 3, sigma, [1] * 8, [1] * 8),
], ids=["build_cancellation_system", "stalk_dimension", "verify_claims",
        "certify_generic_rank", "stratify", "full_gauge_oracle"])
def test_entry_points_reject_sigma_of_the_other_k(monkeypatch, entry):
    # a bivector of W_2 on W_1 would give a full report (verify EXCEEDS,
    # stalk 0, a certified rank); every master, frame and oracle system
    # is built through engine.cached, which names both k
    monkeypatch.setattr(engine, "_MASTERS", {})
    with pytest.raises(ValueError, match=re.escape(
            "sigma is a bivector on W_2, not on W_1")):
        entry(parse_sigma_spec("gen4", 2))
    assert engine._MASTERS == {}


def test_oracle_rejects_outside_span():
    sigma = parse_sigma_spec("u1*gen1", 1)
    pt = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    delta = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
    assert not full_gauge_oracle(1, 2, sigma, pt, delta).decision


def unit(dim, r, c=1):
    return [Fraction(c) if n == r else Fraction(0) for n in range(dim)]


def presolve_of_values(k, j, sigma, point, delta):
    """The oracle's bump-0 decision, its unknowns and whether every
    unknown solves the system, each by one presolve of the support of
    the entries' values at the point and a solve of the survivors, with
    no presolve plan."""
    system = engine.cached(oracle._build_oracle_system, k, j, sigma)
    table = system.table
    values = form_values(
        table, _coerce_point(k, j, point) + _coerce_point(k, j, delta))
    segments = [{r: values[f] for r, f in table.segment(c) if values[f]}
                for c in range(len(table.start) - 1)]

    def solve(ncols):
        columns = {c: col for c, col in enumerate(segments[:ncols]) if col}
        cols, rhs = linalg.presolve_singletons(columns, segments[-1])
        survivors = {c: {r: columns[c][r] for r in rows}
                     for c, rows in cols.items()}
        return (linalg.solvable_sparse(
            survivors, {r: segments[-1][r] for r in rhs}), len(columns))

    decision, unknowns = solve(system.narrow)
    return decision, unknowns, solve(len(segments) - 1)[0]


def bump0_yes_stays_yes(k, j, sigma, point, delta):
    """Whether the oracle's bump-0 decision, when solvable, is solvable
    with all unknowns too; full_gauge_oracle only re-solves a "no"."""
    decision, _, wide = presolve_of_values(k, j, sigma, point, delta)
    return not decision or wide


@pytest.mark.parametrize("k, j, spec, point, delta, decision, unknowns", [
    (1, 2, "gen1", unit(4, 0), unit(4, 3), False, 482),
    (2, 3, "u1*gen4", unit(8, 4), unit(8, 7), False, 630),
    (1, 3, "gen1", unit(8, 1, Fraction(2, 3)), unit(8, 0), True, 630),
])
def test_oracle_degenerate_points(k, j, spec, point, delta, decision,
                                  unknowns):
    # zero coordinates make symbolic entries of the oracle system vanish;
    # the decision and the count of nonempty unknown columns are pinned
    sigma = parse_sigma_spec(spec, k)
    rep = full_gauge_oracle(k, j, sigma, point, delta)
    assert (rep.decision, rep.unknowns) == (decision, unknowns)
    assert bump0_yes_stays_yes(k, j, sigma, point, delta)


@pytest.mark.parametrize("k, j, spec", STANDARD_ORACLE_CONFIGS)
@settings(max_examples=10)
@given(data=st.data())
def test_oracle_bump0_yes_stays_yes(k, j, spec, data):
    # at random and axis points, directions in and outside the engine's
    # bump-0 span; a "yes" padded with zeros solves the wider system
    sigma = parse_sigma_spec(spec, k)
    dim = direction_dimension(k, j)
    point = data.draw(st.one_of(
        st.lists(fractions, min_size=dim, max_size=dim),
        st.builds(unit, st.just(dim), st.integers(0, dim - 1), fractions)))
    cols = st.sampled_from(
        build_cancellation_system(k, j, sigma, point).columns)
    mix = st.builds(lambda a, b, c1, c2: [c1 * x + c2 * y
                                          for x, y in zip(a, b)],
                    cols, cols, fractions, fractions)
    delta = data.draw(st.one_of(
        mix, st.lists(fractions, min_size=dim, max_size=dim),
        st.builds(unit, st.just(dim), st.integers(0, dim - 1))))
    assert bump0_yes_stays_yes(k, j, sigma, point, delta)


@pytest.mark.parametrize("k, j, spec", STANDARD_ORACLE_CONFIGS)
@settings(max_examples=10)
@given(data=st.data())
def test_oracle_plan_matches_presolve_of_values(k, j, spec, data):
    # the cached presolve plan of a support against a presolve of the
    # values, at random and axis points, for engine-column mixes, random,
    # unit and zero directions, and again at (c p, c delta), which has the
    # same support (every table form is homogeneous) and other values
    sigma = parse_sigma_spec(spec, k)
    dim = direction_dimension(k, j)
    point = data.draw(st.one_of(
        st.lists(fractions, min_size=dim, max_size=dim),
        st.builds(unit, st.just(dim), st.integers(0, dim - 1), fractions)))
    cols = st.sampled_from(
        build_cancellation_system(k, j, sigma, point).columns)
    mix = st.builds(lambda a, b, c1, c2: [c1 * x + c2 * y
                                          for x, y in zip(a, b)],
                    cols, cols, fractions, fractions)
    delta = data.draw(st.one_of(
        mix, st.lists(fractions, min_size=dim, max_size=dim),
        st.builds(unit, st.just(dim), st.integers(0, dim - 1)),
        st.just(unit(dim, 0, 0))))
    scale = data.draw(fractions.filter(lambda c: c != 1))
    system = engine.cached(oracle._build_oracle_system, k, j, sigma)
    supports, plans = set(), None
    for pt, dl in ((point, delta),
                   ([scale * c for c in point], [scale * c for c in delta])):
        coords = _coerce_point(k, j, pt) + _coerce_point(k, j, dl)
        values = form_values(system.table, coords)
        ints = Evaluation(system.table, coords).ints
        zero = frozenset(f for f, v in enumerate(values) if not v)
        assert zero == frozenset(f for f, v in enumerate(ints) if not v)
        supports.add(zero)
        decision, unknowns, wide = presolve_of_values(k, j, sigma, pt, dl)
        plan = system.plan(zero, system.narrow)
        assert plan.solvable(values) == plan.solvable(ints) == decision
        rep = full_gauge_oracle(k, j, sigma, pt, dl, check_stability=False)
        assert (rep.decision, rep.unknowns) == (decision, unknowns)
        if not decision and wide:
            with pytest.raises(WindowInstabilityError):
                full_gauge_oracle(k, j, sigma, pt, dl)
        else:
            checked = full_gauge_oracle(k, j, sigma, pt, dl)
            assert checked == dataclasses.replace(rep,
                                                  stability_checked=True)
        if plans is None:
            plans = len(system.plans)
    assert len(supports) == 1
    assert len(system.plans) == plans


def test_oracle_stability_check_can_fail(monkeypatch):
    # the decision of test_oracle_rejects_outside_span, with one column
    # equal to the right-hand side planted past the bump-0 prefix: only
    # the stability window's unknowns solve the system
    sigma = parse_sigma_spec("u1*gen1", 1)
    pt, delta = unit(4, 0), unit(4, 2)
    real = engine.cached(oracle._build_oracle_system, 1, 2, sigma)
    table = real.table
    a, b = table.start[-2], table.start[-1]
    planted = dataclasses.replace(real, table=table._replace(
        start=table.start + (2 * b - a,),
        rows=table.rows + table.rows[a:b], ids=table.ids + table.ids[a:b]))
    monkeypatch.setitem(engine._MASTERS,
                        ("_build_oracle_system", 1, 2, sigma.cache_key()),
                        planted)
    assert not full_gauge_oracle(1, 2, sigma, pt, delta,
                                 check_stability=False).decision
    # the error names both points as oracle-check and stalk take them
    with pytest.raises(WindowInstabilityError, match=re.escape(
            "oracle decision flipped under window bump "
            "(k=1, j=2, point=1,0,0,0, delta=0,0,1,0)")):
        full_gauge_oracle(1, 2, sigma, pt, delta)


def test_oracle_rational_multiplier():
    # the symbolic oracle coefficients have denominator 3 here, so the
    # compiled system is scaled to integer forms
    rep = oracle_check(configs=((1, 2, "2/3*u1*gen1"),), trials=3)
    assert rep["total_decisions"] == 9
    assert rep["status"] == "PASS", rep["mismatches"][:3]


def test_oracle_cold_equals_warm(monkeypatch):
    sigma = parse_sigma_spec("u1*gen4", 2)
    rng = random.Random(17)
    pt = random_point(2, 3, rng)
    delta = random_point(2, 3, rng)
    # an empty cache for this test only, as in a fresh process
    monkeypatch.setattr(engine, "_MASTERS", {})
    cold = full_gauge_oracle(2, 3, sigma, pt, delta)
    assert list(engine._MASTERS) == [
        ("_build_oracle_system", 2, 3, sigma.cache_key())]
    warm = full_gauge_oracle(2, 3, sigma, pt, delta)
    assert cold == warm


def test_oracle_check_small_battery():
    rep = oracle_check(configs=((1, 2, "gen1"), (2, 2, "u1*gen4")),
                       trials=2)
    assert rep["status"] == "PASS"
    assert rep["total_decisions"] == 8
    assert rep["total_mismatches"] == 0


def test_oracle_check_mixes_the_value_columns(monkeypatch):
    # the mixes read off the integer numerators are, direction for
    # direction, the mixes of the bump-0 columns at their values
    configs = [(1, 2, "gen1"), (2, 3, "u1*gen4")]
    seen = []
    real = oracle.full_gauge_oracle

    def spy(k, j, sigma, point, delta):
        seen.append((list(point), list(delta)))
        return real(k, j, sigma, point, delta)

    monkeypatch.setattr(oracle, "full_gauge_oracle", spy)
    oracle_check(configs, trials=4, seed=11)
    want = []
    for idx, (k, j, spec) in enumerate(configs):
        sigma = parse_sigma_spec(spec, k)
        rng = random.Random(11 + 7919 * idx)
        for _ in range(4):
            pt = random_point(k, j, rng)
            cols = build_cancellation_system(k, j, sigma, pt).columns
            for t in range(4):
                if t % 2:
                    delta = [rand_fraction(rng) for _ in pt]
                else:
                    a = cols[rng.randrange(len(cols))]
                    b = cols[rng.randrange(len(cols))]
                    c1, c2 = rand_fraction(rng), rand_fraction(rng)
                    delta = [c1 * x + c2 * y for x, y in zip(a, b)]
                want.append((pt, delta))
    assert seen == want


def test_verify_claims_statuses():
    basic = verify_claims(1, 2, parse_sigma_spec("gen1", 1))
    by_name = {c["name"]: c["status"] for c in basic["claims"]}
    assert by_name["generic-rigidity"] == "PASS"
    assert by_name["closed-form-agreement"] == "PASS"
    assert by_name["scaling-invariance"] == "PASS"
    assert by_name["single-coordinate-rigidity"] == "EXCEEDS"
    assert basic["status"] == "EXCEEDS"

    ex1 = verify_claims(1, 3, parse_sigma_spec("u1*gen1", 1))
    names1 = {c["name"]: c for c in ex1["claims"]}
    assert names1["extremal-generic-stalk"]["status"] == "PASS"
    assert names1["max-corank-bound"]["status"] == "PASS"
    assert names1["corank-contiguity"]["detail"]["achieved"] == [4, 5, 6, 7]
    assert ex1["status"] == "PASS"

    ex2 = verify_claims(2, 3, parse_sigma_spec("u1*gen4", 2))
    names2 = {c["name"]: c for c in ex2["claims"]}
    assert names2["max-corank-bound"]["status"] == "EXCEEDS"
    assert names2["max-corank-bound"]["detail"]["max_corank"] == 7
    assert names2["max-corank-bound"]["detail"]["bound"] == 6
    assert ex2["status"] == "EXCEEDS"


def test_verify_claims_match_the_sampled_route():
    # the generic claims read off the base point's rank and the
    # full-support stratum give the reports that 20 sampled points per
    # claim give, also for (2,5,gen1), whose full-support stratum is open;
    # the u1 multiples at j = 3, 4 are left to
    # test_the_corank_lattice_matches_the_scan_of_every_mask, which
    # compares them with the same reference at the same seeds
    cases = [(k, j, m + gen, seed) for k, gen in CATALOG
             for m, js in (("", (2, 3, 4)), ("u1*", (2,))) for j in js
             for seed in (1, 2, 3, 4, 5, 97)]
    for k, j, spec, seed in cases + [(2, 5, "gen1", 1)]:
        sigma = parse_sigma_spec(spec, k)
        got = canonical_json(verify_claims(k, j, sigma, seed=seed))
        assert got == canonical_json(
            reference_verify_claims(k, j, sigma, seed)), (k, j, spec, seed)
    master = engine.cached(engine._build_master, 2, 5,
                           parse_sigma_spec("gen1", 2), "derived")
    assert master.bounds[(1 << 16) - 1] == (15, 16)


@pytest.mark.parametrize("k, spec", [
    (1, "gen1"), (1, "u1*gen1"), (2, "gen1"), (2, "u1*gen4"),
])
def test_verify_draws_only_its_base_point(monkeypatch, k, spec):
    # one random point, the base point, decides every generic claim, also
    # for (2,3,gen1), whose full-support bounds are (7, 8); a full-support
    # stratum forced open leaves the report as it is
    sigma = parse_sigma_spec(spec, k)
    full = (1 << direction_dimension(k, 3)) - 1
    calls = []

    def counted(*args):
        calls.append(args)
        return random_point(*args)

    bounds = engine.stratum_bounds

    def opened(master, support):
        lower, upper = bounds(master, support)
        return (None, upper) if support == full else (lower, upper)

    monkeypatch.setattr(engine, "_MASTERS", {})
    monkeypatch.setattr(claims, "random_point", counted)
    rep = verify_claims(k, 3, sigma)
    assert len(calls) == 1
    monkeypatch.setattr(engine, "stratum_bounds", opened)
    assert verify_claims(k, 3, sigma) == rep
    assert len(calls) == 2


def _planted_full_support(monkeypatch, k, j, sigma, bounds):
    """The claims of verify_claims, by name, with the bounds of the
    full-support stratum planted, and the base point as text."""
    dim = direction_dimension(k, j)
    monkeypatch.setattr(engine, "_MASTERS", {})
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    master.bounds[(1 << dim) - 1] = bounds
    pt = random_point(k, j, random.Random(DEFAULT_SEED))
    rep = verify_claims(k, j, sigma)
    return {c["name"]: c for c in rep["claims"]}, [str(c) for c in pt]


def test_a_proved_rank_that_fails_rigidity_draws_its_witnesses(monkeypatch):
    # a full-support stratum closed at a rank below dim fails
    # generic-rigidity, with the base point its witness
    k, j, sigma = 1, 3, parse_sigma_spec("gen1", 1)
    dim = direction_dimension(k, j)
    by_name, pt = _planted_full_support(monkeypatch, k, j, sigma,
                                        (dim - 1, dim - 1))
    assert by_name["generic-rigidity"] == {
        "name": "generic-rigidity", "status": "FAIL",
        "detail": f"rank drop witnesses: {[pt]}"}


@pytest.mark.parametrize("bounds, detail", [
    # the expected stalk 2j - k - 1 = 4 at the base point (rank 4 of 8),
    # but up to rank 5 on the stratum: the generic stalk is not proved
    ((4, 5), "rank 4 at p, full-support upper bound 5: generic stalk open"),
    # closed at rank 3: stalk 5 at the base point, and generically
    ((3, 3), "unexpected stalks at {}"),
], ids=["open", "closed-below"])
def test_an_unproved_extremal_stalk_does_not_pass(monkeypatch, bounds,
                                                  detail):
    k, j, sigma = 1, 3, parse_sigma_spec("u1*gen1", 1)
    by_name, pt = _planted_full_support(monkeypatch, k, j, sigma, bounds)
    assert by_name["extremal-generic-stalk"] == {
        "name": "extremal-generic-stalk", "status": "FAIL",
        "detail": detail.format([pt])}


@pytest.mark.parametrize("k, spec, seed, status, achieved", [
    (2, "u1*gen4", 97, "EXCEEDS", [5, 6, 7, 8, 9, 10, 11]),
    (2, "u1*gen4", 1, "EXCEEDS", [5, 6, 7, 8, 9, 10, 11]),
    (1, "u1*gen1", 1, "PASS", [6, 7, 8, 9, 10, 11]),
])
def test_verify_reads_the_corank_lattice_at_j4(k, spec, seed, status,
                                               achieved):
    # corank 11 lies only on 3 of the 4,095 support masks at j = 4 (masks
    # 1, 32, 33 for W_2 and 1, 64, 65 for W_1), which a sample of 512
    # masks missed at these seeds; the lattice reads it off mask 1
    rep = verify_claims(k, 4, parse_sigma_spec(spec, k), seed=seed)
    by_name = {c["name"]: c for c in rep["claims"]}
    bound = by_name["max-corank-bound"]
    assert bound["status"] == status
    assert bound["detail"]["bound"] == 12 - k
    assert bound["detail"]["max_corank"] == 11
    assert bound["detail"]["witness"]["mask"] == 1
    assert by_name["corank-contiguity"]["detail"]["achieved"] == achieved
    assert rep["status"] == status


def test_verify_lattice_agrees_with_the_stratify_scan(monkeypatch):
    # verify's lattice route gives the max corank, witness and coranks of
    # stratify's scan of all 4,095 support masks at j = 4 (one rank each,
    # as verify's fallback takes); verify never builds the certificate
    sigma = parse_sigma_spec("u1*gen4", 2)
    rep = stratify(2, 4, sigma, seed=1)
    assert rep["patterns_scanned"] == 4095

    def no_certificate(*args, **kwargs):
        raise AssertionError("verify built the certificate")

    monkeypatch.setattr(claims, "certify_generic_rank", no_certificate)
    by_name = {c["name"]: c for c in verify_claims(2, 4, sigma, seed=1)[
        "claims"]}
    bound = by_name["max-corank-bound"]["detail"]
    assert (bound["max_corank"], bound["witness"]) == (
        rep["max_corank"], rep["max_corank_witness"])
    assert by_name["corank-contiguity"]["detail"]["achieved"] == [
        int(c) for c in rep["strata"]]


@pytest.mark.parametrize("k, spec, status, achieved", [
    (2, "u1*gen4", "EXCEEDS", list(range(7, 16))),
    (1, "u1*gen1", "PASS", list(range(8, 16))),
])
def test_verify_reads_the_corank_lattice_at_j5(k, spec, status, achieved):
    # corank 15 lies on 3 of the 65,535 support masks at j = 5, which a
    # sample of 512 masks missed at seed 1 (max corank 12, so W_2 passed
    # its bound 14); the lattice reads it off mask 1, and one chain the
    # coranks below it
    rep = verify_claims(k, 5, parse_sigma_spec(spec, k), seed=1)
    by_name = {c["name"]: c for c in rep["claims"]}
    bound = by_name["max-corank-bound"]
    assert bound["status"] == status
    assert bound["detail"]["bound"] == 16 - k
    assert bound["detail"]["max_corank"] == 15
    assert bound["detail"]["witness"]["mask"] == 1
    assert by_name["corank-contiguity"]["detail"]["achieved"] == achieved
    assert rep["status"] == status


# the u1 and u2 multiples of the catalog generators: all 18 are extremal
# at every j tested, 2 to 12
EXTREMAL = [(k, m + gen) for k, gen in CATALOG for m in ("u1*", "u2*")]


@pytest.mark.parametrize("k, spec", EXTREMAL)
def test_extremal_masters_are_the_shift_matrix(k, spec):
    # the lambda family symbolically, against a reference built without
    # the engine: at j = 2..12 the nonzero bump-0 columns of an extremal
    # multiple are lambda_0 .. lambda_(max(L1, L2) - 1), entry by entry
    sigma = parse_sigma_spec(spec, k)
    for j in range(2, 13):
        master = engine.cached(engine._build_master, k, j, sigma, "derived")
        narrow = master.nonzero_narrow()
        want = reference_extremal_columns(k, j)
        assert [master.tags[c] for c in narrow] == [
            ("lambda", m) for m in range(len(want))], j
        assert [[(type(e), e) for e in master.columns[c]]
                for c in narrow] == [[(type(e), e) for e in col]
                                     for col in want], j


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("k, spec", EXTREMAL)
def test_extremal_strata_are_closed_at_the_shift_rank(k, spec, j):
    # every support stratum of an extremal multiple is closed, at the rank
    # of the closed form: 1 + the deepest in-block position of a set bit
    sigma = parse_sigma_spec(spec, k)
    assert is_extremal(sigma, j)
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    for mask in range(1, 1 << direction_dimension(k, j)):
        rank = reference_extremal_rank(k, j, mask)
        assert engine.stratum_rank(master, mask) == (rank, rank), mask


def check_extremal_closed_form(k, spec, j):
    # past the exhaustive range: every single-coordinate mask, the chain
    # of masks 2^i - 1 and the full mask; mask 1 has the top corank
    # 4j - 5 and the full mask the generic stalk 2j - k - 1
    sigma = parse_sigma_spec(spec, k)
    assert is_extremal(sigma, j)
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    dim = direction_dimension(k, j)
    masks = [1 << r for r in range(dim)] + [(1 << i) - 1
                                            for i in range(2, dim + 1)]
    for mask in masks:
        rank = reference_extremal_rank(k, j, mask)
        assert engine.stratum_rank(master, mask) == (rank, rank), mask
    assert dim - engine.stratum_rank(master, 1)[0] == 4 * j - 5
    assert dim - engine.stratum_rank(master, (1 << dim) - 1)[0] == (
        2 * j - k - 1)


@pytest.mark.parametrize("j", range(5, 13))
@pytest.mark.parametrize("k, spec", EXTREMAL)
def test_extremal_closed_form_holds_to_j12(k, spec, j):
    check_extremal_closed_form(k, spec, j)


@pytest.mark.parametrize("j", range(13, 17))
@pytest.mark.parametrize("k, spec", EXTREMAL)
def test_extremal_closed_form_holds_to_j16(k, spec, j):
    # the masks of CI's j = 16 verify, in Tier-1
    check_extremal_closed_form(k, spec, j)


@pytest.mark.parametrize("k, spec", EXTREMAL)
def test_exhaustive_stratify_counts_match_the_closed_form(k, spec):
    # at j = 3 stratify scans all 255 masks, and corank dim - d holds
    # 2^c(d) - 2^c(d - 1) of them, c(d) = min(d, L1) + min(d, L2)
    rep = stratify(k, 3, parse_sigma_spec(spec, k), seed=1)
    assert rep["patterns_scanned"] == rep["patterns_total"] == 255
    assert {int(c): s["count"] for c, s in rep["strata"].items()} == (
        reference_extremal_counts(k, 3))


def test_the_corank_lattice_matches_the_scan_of_every_mask(monkeypatch):
    # the lattice route gives the reports of a scan that draws two
    # points on every support mask at the seeds of
    # test_verify_claims_match_the_sampled_route, and never falls back
    cases = [(k, j, spec, seed) for j in (3, 4) for k, spec in EXTREMAL
             for seed in (1, 2, 3, 4, 5, 97)] + [(2, 5, "u1*gen4", 1)]
    scans = []
    real = claims._scan
    monkeypatch.setattr(claims, "_scan",
                        lambda *a, **kw: scans.append(a) or real(*a, **kw))
    got = {}
    for k, j, spec, seed in cases:
        sigma = parse_sigma_spec(spec, k)
        assert is_extremal(sigma, j), (k, j, spec)
        got[k, j, spec, seed] = canonical_json(
            verify_claims(k, j, sigma, seed=seed))
    assert scans == []
    monkeypatch.setattr(claims, "_scan", real)
    for (k, j, spec, seed), rep in got.items():
        assert rep == canonical_json(reference_verify_claims(
            k, j, parse_sigma_spec(spec, k), seed)), (k, j, spec, seed)


def _plant_chain(monkeypatch, k, j, spec, planted):
    """The master of (k, j, spec), cold, with the bounds of every mask one
    coordinate above mask 1, the top corank's mask, planted as
    planted(g), g the proved rank of mask 1."""
    sigma = parse_sigma_spec(spec, k)
    monkeypatch.setattr(engine, "_MASTERS", {})
    master = engine.cached(engine._build_master, k, j, sigma, "derived")
    dim = direction_dimension(k, j)
    g = engine.stratum_bounds(master, 1)[0]
    assert g == min(engine.stratum_bounds(master, 1 << b)[0]
                    for b in range(dim))
    for b in range(1, dim):
        master.bounds[1 | 1 << b] = planted(g)
    return sigma


# a chain mask open, or every first step of the chain 2
PLANTED_CHAINS = {"open": lambda g: (g, g + 1),
                  "two-step": lambda g: (g + 2, g + 2)}


@pytest.mark.parametrize("kind", PLANTED_CHAINS)
def test_an_undecided_lattice_falls_back_to_the_scan(monkeypatch, kind):
    # up to dimension 16 the scan of every mask decides, and its report is
    # the scan's, planted bounds and all; at j = 5 the spy stops before
    # the scan of all 65,535 masks
    scans = []
    real = claims._scan

    def spy(k, j, *args, **kwargs):
        scans.append((k, j, *args, kwargs))
        if j == 5:
            raise LookupError("scanned")
        return real(k, j, *args, **kwargs)

    sigma = _plant_chain(monkeypatch, 2, 3, "u1*gen4", PLANTED_CHAINS[kind])
    monkeypatch.setattr(claims, "_scan", spy)
    rep = canonical_json(verify_claims(2, 3, sigma, seed=1))
    assert scans == [(2, 3, sigma, 1, {"pattern_cap": 255})]
    assert rep == canonical_json(reference_verify_claims(2, 3, sigma, 1))
    sigma = _plant_chain(monkeypatch, 2, 5, "u1*gen4", PLANTED_CHAINS[kind])
    scans.clear()
    with pytest.raises(LookupError, match="scanned"):
        verify_claims(2, 5, sigma, seed=1)
    assert scans == [(2, 5, sigma, 1, {"pattern_cap": 65535})]


@pytest.mark.parametrize("kind, detail", [
    ("open", "stratum of mask 3 open"),
    ("two-step", "every step from mask 1 raises the rank by 2 or more"),
])
def test_an_undecided_lattice_fails_contiguity_at_j6(monkeypatch, kind,
                                                     detail):
    # past dimension 16 nothing is scanned: contiguity FAILs as open, and
    # the max corank, read off the closed single-coordinate masks, stands
    sigma = _plant_chain(monkeypatch, 2, 6, "u1*gen4", PLANTED_CHAINS[kind])
    monkeypatch.setattr(claims, "_scan", None)
    rep = verify_claims(2, 6, sigma, seed=1)
    by_name = {c["name"]: c for c in rep["claims"]}
    assert by_name["corank-contiguity"] == {
        "name": "corank-contiguity", "status": "FAIL",
        "detail": f"{detail}: contiguity open"}
    bound = by_name["max-corank-bound"]
    assert bound["status"] == "EXCEEDS"
    assert (bound["detail"]["max_corank"],
            bound["detail"]["witness"]["mask"]) == (19, 1)
    assert rep["status"] == "FAIL"


def test_an_open_single_coordinate_mask_fails_both_corank_claims(
        monkeypatch):
    # the top corank may lie on an open single-coordinate stratum: past
    # dimension 16 neither corank claim is decided
    sigma = parse_sigma_spec("u1*gen4", 2)
    monkeypatch.setattr(engine, "_MASTERS", {})
    master = engine.cached(engine._build_master, 2, 6, sigma, "derived")
    master.bounds[4] = (0, 1)
    monkeypatch.setattr(claims, "_scan", None)
    by_name = {c["name"]: c for c in verify_claims(2, 6, sigma)["claims"]}
    for name, what in (("max-corank-bound", "max corank"),
                       ("corank-contiguity", "contiguity")):
        assert by_name[name] == {
            "name": name, "status": "FAIL",
            "detail": f"stratum of mask 4 open: {what} open"}


@pytest.mark.parametrize("k, spec", [(1, "gen1"), (2, "gen5"),
                                     (1, "u1*gen1"), (2, "u1*gen4")])
@given(mask=st.integers(1, 4095), bit=st.integers(0, 11))
def test_the_generic_rank_is_monotone_on_closed_masks(k, spec, mask, bit):
    # lower semicontinuity: a closed sub-mask m - b has a proved rank no
    # larger than the closed mask m
    master = engine.cached(engine._build_master, k, 4,
                           parse_sigma_spec(spec, k), "derived")
    mask |= 1 << bit
    sub = mask & ~(1 << bit)
    assume(sub)
    lower, upper = engine.stratum_bounds(master, mask)
    sub_lower, sub_upper = engine.stratum_bounds(master, sub)
    assume(lower == upper and sub_lower == sub_upper)
    assert sub_lower <= lower


def test_single_coordinate_points_shape():
    pts = single_coordinate_points(1, 2)
    assert len(pts) == 4
    assert pts[2] == [0, 0, 1, 0]


def test_rand_fraction_range():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(200):
        q = rand_fraction(rng)
        assert 1 <= abs(q.numerator) <= 97
        assert 1 <= q.denominator <= 97


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
