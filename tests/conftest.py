"""Shared strategies and helpers for the test suite."""

import os
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st

import ncbundles
from ncbundles import LaurentPoly, Monomial
from ncbundles.ring import Evaluation

# CLI tests run `python -m ncbundles.cli` in child processes; they must
# import the package this suite imports, also when it is not installed
_ROOT = str(Path(ncbundles.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_ROOT, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
# the suite's settings with more examples, for a deeper run:
# python -m pytest --hypothesis-profile=deep
settings.register_profile("deep", settings.get_profile("suite"),
                          max_examples=200)
settings.load_profile("suite")


fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
).filter(lambda q: q != 0)

# a coefficient is an int or a Fraction, so the ring's tests mix the two
rationals = st.one_of(
    st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0),
    fractions)

monomials = st.builds(
    Monomial,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def laurent_polys(draw, max_terms=4):
    terms = draw(st.dictionaries(monomials, rationals, max_size=max_terms))
    return LaurentPoly(terms)


def form_values(table, coords):
    """Every form of a ring.FormTable at coords, as a Fraction: its
    integer numerator (ring.Evaluation) over the common denominator."""
    ev = Evaluation(table, coords)
    return [Fraction(v, ev.den) for v in ev.upto()]
