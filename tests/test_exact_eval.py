"""The root polish's exact evaluator against Fraction arithmetic, bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from numpy.polynomial.polynomial import polyval  # noqa: E402

from sphericurve.laws import _exact_at  # noqa: E402

_COEF = st.one_of(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
                  st.integers(min_value=-10**9, max_value=10**9),
                  st.floats(min_value=-1e3, max_value=1e3).map(Fraction))
_X = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 2.0 ** -60,
                     -0.7071067811865476, 1e15, -3e30, 1e60]),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(allow_nan=False, allow_infinity=False))


def _reference(coef, x):
    """What the polish evaluated before: Fraction Horner, rounded by float()."""
    try:
        return float(polyval(Fraction(x), np.array(coef, dtype=object)))
    except OverflowError:
        return OverflowError


def _ours(coef, x):
    try:
        return _exact_at(np.array(coef, dtype=object))(x)
    except OverflowError:
        return OverflowError


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coef=st.lists(_COEF, min_size=1, max_size=9), zeros=st.integers(0, 3), x=_X)
def test_integer_horner_equals_fraction_polyval(coef, zeros, x):
    # exactly-zero low coefficients, as the scan's profiles have at z = 0
    coef = [Fraction(0)] * zeros + coef
    want, got = _reference(coef, x), _ours(coef, x)
    if want is OverflowError:
        assert got is OverflowError
    else:
        assert isinstance(got, float)
        assert got.hex() == want.hex(), (coef, x, got, want)


@pytest.mark.parametrize("x", [0.0, 1.0, -1.0, 1e-300, -2.5, 1e20])
def test_profile_series_at_edge_points(x):
    # the catenary's N = z^2 (1 - z^2) - a^2 at a = 0.3 in binary
    a = Fraction(0.3)
    coef = [-a * a, Fraction(0), Fraction(1), Fraction(0), Fraction(-1)]
    got = _exact_at(np.array(coef, dtype=object))(x)
    assert math.isfinite(got) and got.hex() == _reference(coef, x).hex()
