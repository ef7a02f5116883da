"""Claims read off the engine: support-pattern strata, a certificate for
the generic rank, and the PASS/FAIL/EXCEEDS battery of one configuration.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from . import engine, linalg
from .engine import (
    DEFAULT_SEED,
    EXCEEDS,
    FAIL,
    PASS,
    _build_master,
    cached,
    direction_dimension,
    is_extremal,
    point_pivots,
    point_rank,
    rand_fraction,
    random_point,
    require_directions,
    require_positive,
    single_coordinate_points,
    stratum_rank,
)

# ---------------------------------------------------------------------------
# stratification


def _draw(k, j, seed, mask):
    """The point drawn on the stratum of a mask, seeded by (seed, mask)."""
    rng = random.Random((seed * 1000003 + mask * 97) % (2 ** 63))
    return [rand_fraction(rng) if mask >> r & 1 else Fraction(0)
            for r in range(direction_dimension(k, j))]


def _scan(k, j, sigma, seed, pattern_cap):
    """Rank every nonzero support pattern of the base point once: all of
    them when 2^dim - 1 <= pattern_cap, otherwise a seeded sample of
    pattern_cap - 1 patterns plus the full pattern and the dim
    single-coordinate ones, where the top corank lies (_lattice).  Each
    pattern's rank is engine.stratum_rank's: a closed stratum draws no
    point, and an open one ranks its mask's point.  A sample from more
    than sys.maxsize patterns is drawn mask by mask.

    Returns the masks scanned and two dicts keyed by corank: its number
    of masks, and its first mask in ascending order.
    """
    require_positive(pattern_cap=pattern_cap)
    require_directions(j)
    dim = direction_dimension(k, j)
    total = (1 << dim) - 1
    if total <= pattern_cap:
        masks = list(range(1, total + 1))
    else:
        rng, sample = random.Random(seed), set()
        if total - 1 <= sys.maxsize:  # else range() has no len()
            sample = set(rng.sample(range(1, total), pattern_cap - 1))
        while len(sample) < pattern_cap - 1:
            sample.add(rng.randrange(1, total))
        masks = sorted({*sample, total, *(1 << b for b in range(dim))})
    master = cached(_build_master, k, j, sigma, "derived")
    counts, first = {}, {}
    for mask in masks:
        rank = stratum_rank(master, mask)[0]
        if rank is None:
            rank = stratum_rank(master, mask, _draw(k, j, seed, mask))[0]
        counts[dim - rank] = counts.get(dim - rank, 0) + 1
        first.setdefault(dim - rank, mask)
    return masks, counts, first


def _witness(k, j, seed, mask):
    """A stratum's witness: its first mask and that mask's point, drawn
    again."""
    return {"mask": mask,
            "point": [str(c) for c in _draw(k, j, seed, mask)]}


def stratify(k, j, sigma, seed=DEFAULT_SEED, pattern_cap=4096):
    """Scan support patterns of the base point for stalk strata, and
    certify the generic rank.

    Each pattern is ranked once (_scan, by engine.stratum_rank): a
    closed stratum draws no point, and an open one ranks one point,
    seeded by (seed, pattern).  Each stratum reports its number of
    patterns and its witness; patterns_scanned below patterns_total
    marks a sampled scan.  The
    report ends with the certificate of certify_generic_rank: one
    maximal minor, checked at a point.
    """
    masks, counts, first = _scan(k, j, sigma, seed, pattern_cap)
    max_corank = max(counts)
    dim = direction_dimension(k, j)
    return {
        "k": k,
        "j": j,
        "sigma": sigma.describe(),
        "dimension": dim,
        "patterns_scanned": len(masks),
        "patterns_total": (1 << dim) - 1,
        "strata": {str(c): {"count": counts[c],
                            "witness": _witness(k, j, seed, first[c])}
                   for c in sorted(counts)},
        "max_corank": max_corank,
        "max_corank_witness": _witness(k, j, seed, first[max_corank]),
        "stability_checked": True,
        "certificate": certify_generic_rank(k, j, sigma, seed=seed),
    }


def certify_generic_rank(k, j, sigma, seed=DEFAULT_SEED):
    """Certify the generic rank with a maximal minor nonzero at a point.

    At a random, window-stable point, the pivot rows and the grown bump-0
    columns of the exact span of point_space give a square minor M; they
    are read off one modular echelon where its leading pivots prove them
    (point_pivots), and off the exact span otherwise.  Read off the same
    evaluation (ev.column), as integer numerators over the denominator
    den, it is det M(pt) * den^r, nonzero exactly when det M(p) is at
    pt, so a full rank of it proves det M(p) != 0: the generic rank is at
    least the minor size.  Its rank modulo the prime engine._PRIME is checked
    first: an integer determinant nonzero modulo a prime is nonzero.
    Only where the prime divides it does one exact rank decide.
    Together with the structural upper bound min(#rows, #columns not
    identically zero) this pins the generic rank exactly when the two
    agree.  A minor singular at its own witness breaks the engine's
    echelon invariant and raises AssertionError.
    """
    rng = random.Random(seed)
    pt = random_point(k, j, rng)
    master, ev, pivots, picked = point_pivots(k, j, sigma, pt)
    r, n = len(pivots), len(master.rows)
    upper = min(n, len(master.nonzero_narrow()))
    sub = [[col[p] for p in pivots]
           for col in (ev.column(i, n) for i in picked)]
    if (len(linalg.rank_mod(sub, r, engine._PRIME)[0]) != r
            and linalg.rank(sub, nrows=r) != r):
        raise AssertionError(
            f"the {r}x{r} minor is singular at its witness point "
            f"(k={k}, j={j}, sigma={sigma!r})")
    certified = r == upper
    return {
        "rank_observed": r,
        "structural_upper": upper,
        "minor_rows": [master.rows[p].render() for p in pivots],
        "minor_cols": [list(master.tags[i]) for i in picked],
        "certified": certified,
        "detail": "nonzero maximal minor meets structural upper bound"
                  if certified
                  else "generic rank >= minor size; upper bound open",
        "minor_nonzero": True,
    }


# ---------------------------------------------------------------------------
# claim verification

def _lattice(master, dim):
    """The coranks of the support strata, read off the lattice of masks.

    The generic rank g is lower semicontinuous, so g(m - b) <= g(m): the
    top corank lies on a single-coordinate mask, the lowest one first,
    and the least corank on the full mask.  One chain from that mask to
    the full one, adding the first coordinate in bit order whose mask is
    closed and raises g by at most 1, achieves every corank in between.
    Only closed strata are read, with no point (engine.stratum_rank).

    Returns (top, achieved, why): top is the max corank and the mask of
    its witness, and achieved the coranks from the full mask's up to it;
    each is None where a stratum it needs is open or no step of the
    chain is at most 1, and why names that mask or step.
    """
    ranks = [stratum_rank(master, 1 << b)[0] for b in range(dim)]
    if None in ranks:
        return None, None, f"stratum of mask {1 << ranks.index(None)} open"
    least = min(ranks)
    mask = 1 << ranks.index(least)
    top, rank, full = (dim - least, mask), least, (1 << dim) - 1
    while mask != full:
        opened = None
        for b in range(dim):
            if mask >> b & 1:
                continue
            step = mask | 1 << b
            got = stratum_rank(master, step)[0]
            if got is not None and got - rank <= 1:
                mask, rank = step, got
                break
            if got is None and opened is None:
                opened = step
        else:
            why = (f"stratum of mask {opened} open" if opened is not None
                   else f"every step from mask {mask} raises the rank by "
                        "2 or more")
            return top, None, why
    return top, list(range(dim - rank, top[0] + 1)), None


def verify_claims(k, j, sigma, seed=DEFAULT_SEED):
    """Check the structural claims for one configuration.

    Emits one PASS/FAIL/EXCEEDS record per claim and never reconciles a
    deviation silently; EXCEEDS marks behaviour outside the scope the
    claims cover (special points, coranks beyond the stated bound).

    The generic claims read one query of the full-support stratum at the
    random base point pt (engine.stratum_rank; rand_fraction gives pt
    full support): the exact rank r at pt and the stratum's upper bound.
    The generic rank g lies in r <= g <= upper, and g <= #rows = dim.
    So generic-rigidity passes iff r == dim, with pt its witness
    otherwise; extremal-generic-stalk passes iff r == upper and
    dim - r == expected, and fails with pt its witness when
    dim - r != expected, or as open when r < upper.  No point but pt is
    drawn.

    The corank claims read the dim single-coordinate strata and one chain
    of them up to the full mask (_lattice), about dim + dim(dim+1)/2
    closed strata.  Where the lattice does not decide, every support
    mask is scanned up to dim 16 (_scan); above that, the claims it
    leaves open FAIL, their detail naming the open mask or step.  No
    support mask is sampled.
    """
    claims = []
    derived = cached(_build_master, k, j, sigma, "derived")
    claims.append({
        "name": "identity-shift-column",
        "status": PASS,
        "detail": "asserted during construction",
    })

    printed = cached(_build_master, k, j, sigma, "printed")
    same = (derived.tags == printed.tags
            and derived.columns == printed.columns)
    claims.append({
        "name": "closed-form-agreement",
        "status": PASS if same else FAIL,
        "detail": "derived and closed-form columns match symbolically"
                  if same else "column mismatch between routes",
    })

    dim = direction_dimension(k, j)
    rng = random.Random(seed)
    pt = random_point(k, j, rng)
    base_rank, upper = stratum_rank(derived, (1 << dim) - 1, pt)
    s_rank = point_rank(k, j, sigma, [Fraction(7, 3) * c for c in pt])
    claims.append({
        "name": "scaling-invariance",
        "status": PASS if base_rank == s_rank else FAIL,
        "detail": f"rank {base_rank} at p and {s_rank} at (7/3)p",
    })

    extremal = is_extremal(sigma, j)
    basic = sigma.gen_index is not None and sigma.multiplier is None
    expected = 2 * j - k - 1
    witness = [[str(c) for c in pt]]

    if basic:
        rigid = base_rank == dim
        claims.append({
            "name": "generic-rigidity",
            "status": PASS if rigid else FAIL,
            "detail": "full rank at all sampled points" if rigid
                      else f"rank drop witnesses: {witness}",
        })
        special = []
        for pt1 in single_coordinate_points(k, j):
            r = point_rank(k, j, sigma, pt1)
            if r != dim:
                special.append({
                    "point": [str(c) for c in pt1],
                    "stalk": dim - r,
                })
        claims.append({
            "name": "single-coordinate-rigidity",
            "status": PASS if not special else EXCEEDS,
            "detail": special if special
                      else "full rank on every coordinate axis",
        })

    if extremal:
        if dim - base_rank != expected:
            status, detail = FAIL, f"unexpected stalks at {witness}"
        elif base_rank < upper:
            status, detail = FAIL, (f"rank {base_rank} at p, full-support "
                                    f"upper bound {upper}: generic stalk "
                                    "open")
        else:
            status, detail = PASS, f"generic stalk {expected}"
        claims.append({
            "name": "extremal-generic-stalk",
            "status": status,
            "detail": detail,
        })
        bound = 4 * j - k - 4
        top, achieved, why = _lattice(derived, dim)
        if achieved is None and dim <= 16:
            # the lattice does not decide: scan every support mask
            _, counts, first = _scan(k, j, sigma, seed,
                                     pattern_cap=(1 << dim) - 1)
            achieved = sorted(counts)
            top = achieved[-1], first[achieved[-1]]
        if top is None:
            claims.append({
                "name": "max-corank-bound",
                "status": FAIL,
                "detail": f"{why}: max corank open",
            })
        else:
            claims.append({
                "name": "max-corank-bound",
                "status": PASS if top[0] <= bound else EXCEEDS,
                "detail": {
                    "bound": bound,
                    "max_corank": top[0],
                    "witness": _witness(k, j, seed, top[1]),
                },
            })
        if achieved is None:
            claims.append({
                "name": "corank-contiguity",
                "status": FAIL,
                "detail": f"{why}: contiguity open",
            })
        else:
            contiguous = achieved == list(range(achieved[0], top[0] + 1))
            claims.append({
                "name": "corank-contiguity",
                "status": PASS if contiguous else EXCEEDS,
                "detail": {"achieved": achieved},
            })

    statuses = {c["status"] for c in claims}
    worst = (FAIL if FAIL in statuses
             else EXCEEDS if EXCEEDS in statuses else PASS)
    return {
        "k": k,
        "j": j,
        "sigma": sigma.describe(),
        "claims": claims,
        "status": worst,
    }
