"""The full gauge oracle: the second, independent route to triviality.

It solves the complete 2x2 intertwining equation
A_V * T_q = T_p * A_U mod hbar^2, mod u^2, with independent windowed
unknowns on both sides and no manual elimination, and is used to
cross-check the engine's decisions on whether a direction is trivial.
One system per configuration is built, bump-0 unknowns first, as the
engine's masters are; a decision only evaluates its ring.FormTable, and
its stability check solves again, with all unknowns, only a bump-0 "no".
The singleton presolve depends only on which entries vanish, which the
set of vanishing forms fixes, so the system keeps one presolve plan per
such set and window, and a decision makes one dense check of the
plan's few surviving columns at its values.

The star product of a transition entry with a monomial unit is built
from the bracket pieces of the entry ({f, w} = sum_d dw/dd P_d(f), an
exact identity) as one shifted sum per hbar-order (_unit_product), not
by a star product per unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from . import linalg
from .bundles import extension_basis, transition_matrix
from .engine import (
    DEFAULT_SEED,
    FAIL,
    PASS,
    STABILITY_BUMP,
    Report,
    WindowInstabilityError,
    _coerce_point,
    cached,
    direction_dimension,
    point_space,
    _point_text,
    rand_fraction,
    random_point,
    require_directions,
    require_positive,
)
from .poisson import pairing_shifts, parse_sigma_spec
from .ring import Evaluation, FormTable, LaurentPoly, Monomial, ParamPoly


def _oracle_hi(j, bump):
    """Top z-degree of the oracle's unit window."""
    return 4 * j + 4 + bump


# gauge slots: U name, V name, matrix entry, hbar-order, u-grades g
_SLOTS = (
    ("a", "al", (0, 0), 0, (1, 2)),
    ("d", "de", (1, 1), 0, (1, 2)),
    ("c", "g", (1, 0), 0, (0, 1, 2)),
    ("ap", "alp", (0, 0), 1, (0, 1, 2)),
    ("dp", "dep", (1, 1), 1, (0, 1, 2)),
    ("cp", "gp", (1, 0), 1, (0, 1, 2)),
    ("b", "be", (0, 1), 1, (0, 1, 2)),
)


def _oracle_families(k, j, bump):
    """Unknown inventory of the full intertwining system.

    U-side units are z^n times a u-grade; V-side units are xi^n times a
    fibre coordinate of the other chart, written in U-coordinates:
    z^(vdeg[g] - n) u_g with vdeg = (0, k, 2 - k).  Both sides carry
    classical and first-order slots in every matrix entry compatible
    with the gauge normalization (diagonal classical parts are pinned
    to 1, the classical upper-right slots to 0).
    """
    hi = _oracle_hi(j, bump)
    vdeg = (0, k, 2 - k)
    fams = []
    for side in ("U", "V"):
        for u_name, v_name, entry, hord, grades in _SLOTS:
            name = u_name if side == "U" else v_name
            for g in grades:
                for n in range(hi + 1):
                    l = n if side == "U" else vdeg[g] - n
                    fams.append(((side, name, g, n), entry, hord,
                                 Monomial(l, int(g == 1), int(g == 2))))
    return fams


def _dispensed(key, j):
    """Suppressed always-slack diagonal rows at first order.

    The u-free first-order rows of the diagonal entries at high degree
    would pin the free integration constants of the diagonal hbar-parts
    and with them collapse legitimate shift columns; they carry no
    obstruction content.  Low-degree u-free diagonal rows are kept.
    """
    ei, ej, hord, l, i, s = key
    if hord != 1 or i or s:
        return False
    if (ei, ej) == (0, 0):
        return l >= j + 1
    if (ei, ej) == (1, 1):
        return l >= -j + 1
    return False


def _collect(poly, ei, ej, hord, sign, j, store):
    for mon, c in poly.items():
        key = (ei, ej, hord, mon.l, mon.i, mon.s)
        if _dispensed(key, j):
            continue
        val = c if sign == 1 else -c
        total = store.get(key, 0) + val
        if total:
            store[key] = total
        else:
            store.pop(key, None)


class _Plan(NamedTuple):
    """The presolved system of one support and window, as form ids.

    Each surviving column, in sorted column order, is ((row, form), ...),
    and rhs holds the surviving (row, form) pairs of the right-hand side;
    unknowns counts the window's columns nonempty on the support.
    """

    columns: tuple
    rhs: tuple
    unknowns: int

    def solvable(self, values):
        """Whether the survivors are solvable at the table's numerators
        (or values): one dense check, since the plan is presolved."""
        columns = {c: {r: values[f] for r, f in col}
                   for c, col in enumerate(self.columns)}
        return linalg.solvable_sparse(columns,
                                      {r: values[f] for r, f in self.rhs})


@dataclass(frozen=True, slots=True)
class OracleSystem:
    """Full intertwining system of one configuration, affine in (p, delta).

    Built once at the stability window, with the unknowns of the bump-0
    window first: they are its first `narrow` columns.  Each group and
    the rows are numbered in sorted key order, so the solver meets them
    in the order of their keys.  Column c of `table` is unknown c, and
    its last column is the right-hand side.  `plans` holds the presolve
    plan of each (vanishing forms, window) met so far.
    """

    table: FormTable
    narrow: int
    plans: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def plan(self, zero, ncols):
        """The presolve plan of the first ncols unknowns at a point where
        exactly the forms in zero vanish.

        The singleton presolve reads only the support, and an entry is
        nonzero at the point exactly when its form is not in zero, so it
        runs once on the {row: form} segments of that support, and a
        surviving column keeps its (row, form) pairs on the surviving
        rows.  The plan holds at every point with the same vanishing forms.
        """
        key = (zero, ncols)
        if key not in self.plans:
            segments = [{r: f for r, f in self.table.segment(c)
                         if f not in zero}
                        for c in range(len(self.table.start) - 1)]
            columns = {c: col for c, col in enumerate(segments[:ncols])
                       if col}
            cols, rhs = linalg.presolve_singletons(columns, segments[-1])
            self.plans[key] = _Plan(
                columns=tuple(tuple((r, f) for r, f in columns[c].items()
                                    if r in cols[c])
                              for c in sorted(cols)),
                rhs=tuple((r, f) for r, f in segments[-1].items()
                          if r in rhs),
                unknowns=len(columns))
        return self.plans[key]


def _unit_product(side, t0, t1, pieces, hord, w):
    """Both hbar-orders of t * W ("U") or W * t ("V"), t = t0 + hbar t1,
    cut to the first neighbourhood.

    W is the monomial w (hord 0) or hbar w (hord 1), and pieces are the
    bracket pieces of t0.  With {t0, w} = sum_d dw/dd P_d(t0), each order
    is one shifted sum (LaurentPoly.shifted_sum):
    t * w = t0 w + hbar (t1 w + {t0, w}) and
    w * t = w t0 + hbar (w t1 - {t0, w}).
    """
    order0 = LaurentPoly.shifted_sum([(t0, w, 1)], 1)
    if hord:
        return LaurentPoly.zero(), order0
    sign = 1 if side == "U" else -1
    return order0, LaurentPoly.shifted_sum(
        [(t1, w, 1), *pairing_shifts(pieces, w, sign)], 1)


def _build_oracle_system(k, j, sigma):
    dim = direction_dimension(k, j)
    params = (tuple(f"p{r}" for r in range(dim))
              + tuple(f"d{r}" for r in range(dim)))
    coeffs = [ParamPoly.variable(params, name) for name in params]
    basis = extension_basis(k, j, 1)
    p_poly = LaurentPoly(dict(zip(basis, coeffs[:dim])))
    delta_poly = LaurentPoly(dict(zip(basis, coeffs[dim:])))
    Tq = transition_matrix(j, p_poly, delta_poly)
    Tp = transition_matrix(j, p_poly)

    # star is bilinear in the gauge entries, so the contribution of a
    # single unit w sitting at entry (ei, ej) is T * (w E) resp. (w E) * T,
    # which only has one nonzero column resp. row
    def with_pieces(T):
        return {(a, b): (T.entry(a, b)[0], T.entry(a, b)[1],
                         sigma.bracket_pieces(T.entry(a, b)[0]))
                for a in range(2) for b in range(2)}

    tp, tq = with_pieces(Tp), with_pieces(Tq)
    columns = {}
    for key, (ui, uj), hord, w in _oracle_families(k, j, STABILITY_BUMP):
        col = {}
        if key[0] == "U":
            for ei in range(2):
                d = _unit_product("U", *tp[ei, ui], hord, w)
                for h in range(2):
                    _collect(d[h], ei, uj, h, -1, j, col)
        else:
            for ej in range(2):
                d = _unit_product("V", *tq[uj, ej], hord, w)
                for h in range(2):
                    _collect(d[h], ui, ej, h, 1, j, col)
        if col:
            columns[key] = col

    rhs, diff = {}, Tp - Tq
    for ei in range(2):
        for ej in range(2):
            for h in range(2):
                _collect(diff.entry(ei, ej)[h], ei, ej, h, 1, j, rhs)
    hi = _oracle_hi(j, 0)
    order = sorted(columns, key=lambda key: (key[3] > hi, key))
    row_id = {row: n for n, row in
              enumerate(sorted(set(rhs).union(*columns.values())))}
    # each column's rows in key order, so the table does not depend on
    # the order in which a product's terms were summed
    table = FormTable.compile(
        {row_id[row]: c for row, c in sorted(store.items())}
        for store in [columns[key] for key in order] + [rhs])
    return OracleSystem(table=table,
                        narrow=sum(key[3] <= hi for key in order))


@dataclass
class OracleReport(Report):
    k: int
    j: int
    sigma: dict
    point: tuple
    delta: tuple
    decision: bool
    unknowns: int
    stability_checked: bool


def full_gauge_oracle(k, j, sigma, point, delta, check_stability=True):
    """Decide triviality of a deformation direction from first principles.

    Solves the complete intertwining system between the transition
    matrices at the base point and at the perturbed direction, with
    independent gauge unknowns on both charts.  No reduction from the
    engine is reused.  The system is built on the first call for a
    configuration and cached.  With check_stability, a bump-0 "no" that
    all unknowns solve raises WindowInstabilityError.  The table's
    integer numerators at (point, delta), one Evaluation, are solved:
    they share one denominator with the right-hand side, a table column,
    so support and solvability hold.
    """
    require_directions(j)
    pt = _coerce_point(k, j, point)
    dl = _coerce_point(k, j, delta)
    system = cached(_build_oracle_system, k, j, sigma)
    ints = Evaluation(system.table, pt + dl).ints
    zero = frozenset(f for f, v in enumerate(ints) if not v)
    narrow = system.plan(zero, system.narrow)
    decision = narrow.solvable(ints)
    # a bump-0 solution padded with zeros solves the wider system, so a
    # "yes" cannot move; only a "no" is re-solved with every unknown
    wide = len(system.table.start) - 2
    if (check_stability and not decision
            and system.plan(zero, wide).solvable(ints)):
        raise WindowInstabilityError(
            f"oracle decision flipped under window bump "
            f"(k={k}, j={j}, point={_point_text(pt)}, "
            f"delta={_point_text(dl)})"
        )
    return OracleReport(
        k=k, j=j, sigma=sigma.describe(), point=pt, delta=dl,
        decision=decision, unknowns=narrow.unknowns,
        stability_checked=check_stability,
    )


STANDARD_ORACLE_CONFIGS = (
    (1, 2, "gen1"),
    (1, 3, "gen1"),
    (1, 2, "u1*gen1"),
    (1, 3, "u1*gen1"),
    (2, 2, "gen4"),
    (2, 3, "gen4"),
    (2, 2, "u1*gen4"),
    (2, 3, "u1*gen4"),
)


def oracle_check(configs=None, trials=10, seed=DEFAULT_SEED):
    """Engine vs oracle agreement over a battery of decisions.

    For every configuration, at each of `trials` random base points,
    tests `trials` directions, alternately built inside the engine
    column span and raw random; both routes must agree on every single
    decision.  Mixes combine the bump-0 columns at their values, which
    the oracle's V-side depends on: integer numerators over the common
    denominator, read off the Evaluation that the engine span reduces
    (point_space), so each base point is evaluated once.
    """
    require_positive(trials=trials)
    if configs is None:
        configs = STANDARD_ORACLE_CONFIGS
    mismatches = []
    per_config = []
    for idx, (k, j, sig_text) in enumerate(configs):
        sigma = parse_sigma_spec(sig_text, k)
        dim = direction_dimension(k, j)
        rng = random.Random(seed + 7919 * idx)
        agree = 0
        for _ in range(trials):
            pt = random_point(k, j, rng)
            master, ev, cs, _ = point_space(k, j, sigma, "derived", pt)
            for t in range(trials):
                if t % 2 == 0:
                    i1 = rng.randrange(master.narrow)
                    i2 = rng.randrange(master.narrow)
                    c1, c2 = rand_fraction(rng), rand_fraction(rng)
                    delta = [(c1 * a + c2 * b) / ev.den
                             for a, b in zip(ev.column(i1, dim),
                                             ev.column(i2, dim))]
                else:
                    delta = [rand_fraction(rng) for _ in range(dim)]
                engine = cs.contains(delta)
                oracle = full_gauge_oracle(k, j, sigma, pt, delta).decision
                if engine == oracle:
                    agree += 1
                else:
                    mismatches.append({
                        "config": [k, j, sig_text],
                        "point": [str(c) for c in pt],
                        "delta": [str(c) for c in delta],
                        "engine": engine,
                        "oracle": oracle,
                    })
        per_config.append({
            "config": [k, j, sig_text],
            "decisions": trials * trials,
            "agreements": agree,
        })
    return {
        "total_decisions": sum(c["decisions"] for c in per_config),
        "total_mismatches": len(mismatches),
        "mismatches": mismatches,
        "per_config": per_config,
        "status": PASS if not mismatches else FAIL,
    }
