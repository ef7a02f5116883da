"""Shared strategies and helpers for the test suite."""

import os
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st

import ncbundles
from ncbundles import LaurentPoly, Monomial

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
settings.load_profile("suite")


fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
).filter(lambda q: q != 0)

monomials = st.builds(
    Monomial,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def laurent_polys(draw, max_terms=4):
    terms = draw(st.dictionaries(monomials, fractions, max_size=max_terms))
    return LaurentPoly(terms)
