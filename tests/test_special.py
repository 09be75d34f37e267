"""The Cephes ports of `_special` against scipy.special, bit for bit: on
hypothesis floats, on dense grids and at every branch point of the C
routines."""

import math

import numpy as np
from hypothesis import given, strategies as st
from scipy import special

from hawkes_bvm import _special


def _same(got, want):
    """Bit-for-bit equality (so the sign of zero too), nan with nan."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


def _around(points):
    """Each point and its two floating-point neighbours."""
    points = np.asarray(points, dtype=float)
    return np.concatenate((points, np.nextafter(points, np.inf),
                           np.nextafter(points, -np.inf)))


def _check(port, ref, xs):
    xs = np.asarray(xs, dtype=float)
    got, want = np.array([port(x) for x in xs.tolist()]), ref(xs)
    assert _same(got, want), xs[got != want][:5]


_TINY = 5e-324  # the smallest subnormal

# the ndtr argument a: erf for |a| < 1 (|a / sqrt 2| < 1/sqrt 2), erfc
# beyond; its erfc argument |a| / sqrt 2 crosses 1 and 8 at |a| = sqrt 2
# and 8 sqrt 2; exp(-a^2 / 2) underflows near |a| = 37.5 and the MAXLOG
# cut is at |a| = sqrt(2 * 709.78) = 37.68
NDTR_POINTS = [0.0, -0.0, math.inf, -math.inf, math.nan, _TINY, -_TINY,
               2.2e-308, -2.2e-308, 1 / math.sqrt(2), 1.0, math.sqrt(2),
               8.0, 8 * math.sqrt(2), 37.5, 37.68, 37.6773, 38.5, 1e300]


def test_ndtr_equals_scipy_at_branch_points():
    xs = _around(NDTR_POINTS + [-x for x in NDTR_POINTS])
    _check(_special.ndtr, special.ndtr, xs)
    _check(_special.erf, special.erf, xs / math.sqrt(2))
    _check(_special.erfc, special.erfc, xs / math.sqrt(2))


def test_ndtr_equals_scipy_on_dense_grids():
    _check(_special.ndtr, special.ndtr, np.linspace(-40.0, 40.0, 200_001))
    _check(_special.ndtr, special.ndtr,
           np.concatenate([np.linspace(lo - 0.01, lo + 0.01, 20_001)
                           for lo in (-37.6, -11.3, -1.0, 1.0, 11.3)]))


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_ndtr_equals_scipy_on_any_float(x):
    assert _same(_special.ndtr(x), special.ndtr(x))


@given(st.floats(-40.0, 40.0))
def test_ndtr_equals_scipy_in_its_range(x):
    assert _same(_special.ndtr(x), special.ndtr(x))


# lgam: the reflection below -34, the recurrence to [2, 3) below 13,
# Stirling with the A series below 1000, the short series below 1e8,
# the bare Stirling term up to MAXLGM and inf beyond it
GAMMALN_POINTS = [1.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305, 1e306,
                  math.inf, -math.inf, math.nan, 0.0, -0.0, _TINY, -_TINY,
                  -1.0, -2.0, -33.5, -34.0, -34.5, -35.0, -1e8 - 0.5,
                  0.5, 2.5, 12.5]


def test_gammaln_equals_scipy_at_branch_points():
    _check(_special.gammaln, special.gammaln, _around(GAMMALN_POINTS))
    assert _special.gammaln(3e305) == math.inf


def test_gammaln_equals_scipy_on_dense_grids():
    _check(_special.gammaln, special.gammaln,
           np.linspace(-50.0, 50.0, 100_001))
    _check(_special.gammaln, special.gammaln,
           np.geomspace(1e-300, 1e300, 50_001))


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_gammaln_equals_scipy_on_any_float(x):
    assert _same(_special.gammaln(x), special.gammaln(x))


@given(st.floats(0.0, 1e4, exclude_min=True))
def test_gammaln_equals_scipy_on_prior_shapes(x):
    assert _same(_special.gammaln(x), special.gammaln(x))
