"""Special-function accuracy against known constants and an mpmath oracle."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mimisbm import DomainError, digamma, log_gamma

GRID = np.logspace(-4, 4, 257)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-14)
    assert digamma(0.5) == pytest.approx(-1.9635100260214235, abs=1e-14)
    assert digamma(2.0) == pytest.approx(0.4227843350984671, abs=1e-14)


def test_log_gamma_known_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(3.1780538303479458, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)


@pytest.mark.parametrize("fn", [digamma, log_gamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, -100.0])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


def test_digamma_recurrence_on_grid():
    for x in GRID:
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10


def test_log_gamma_recurrence_on_grid():
    for x in GRID:
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) < 1e-10


def test_digamma_matches_log_gamma_derivative():
    # central finite difference of log_gamma approximates digamma
    h = 1e-5
    for x in np.linspace(0.5, 50.0, 200):
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert abs(digamma(x) - fd) < 1e-6


def test_digamma_vs_scipy_on_grid():
    for x in GRID:
        assert abs(digamma(x) - scipy.special.digamma(x)) <= 1e-12 * max(1.0, abs(scipy.special.digamma(x)))


def test_log_gamma_vs_scipy_on_grid():
    for x in GRID:
        assert abs(log_gamma(x) - scipy.special.gammaln(x)) <= 1e-12 * max(1.0, abs(scipy.special.gammaln(x)))


def test_digamma_vs_mpmath_high_precision():
    mpmath.mp.dps = 40
    for x in [1e-6, 1e-4, 0.25, 0.5, 1.0, 1.5, 3.7, 6.0, 17.3, 1e3]:
        exact = float(mpmath.digamma(x))
        assert abs(digamma(x) - exact) <= 1e-12 * max(1.0, abs(exact))


def test_log_gamma_vs_mpmath_high_precision():
    mpmath.mp.dps = 40
    for x in [1e-6, 1e-4, 0.25, 0.5, 1.0, 2.0, 3.7, 6.0, 17.3, 1e3]:
        exact = float(mpmath.loggamma(x))
        assert abs(log_gamma(x) - exact) <= 1e-12 * max(1.0, abs(exact))


@given(st.floats(min_value=1e-4, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence_property(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10


@given(st.floats(min_value=1e-4, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_log_gamma_recurrence_property(x):
    assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) < 1e-10


@given(st.floats(min_value=0.5, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_digamma_monotone_above_positive_root(x):
    # digamma is strictly increasing on (0, inf)
    assert digamma(x + 0.5) > digamma(x)


# below and above the shift threshold 6, the pinned zeros of log Gamma and
# the ends of the accuracy range
_ELEMENTS = st.one_of(
    st.sampled_from([1.0, 2.0, 1e-6, 1e8, 6.0, np.nextafter(6.0, 0.0), 0.5, 5.5]),
    st.floats(min_value=1e-6, max_value=6.0),
    st.floats(min_value=6.0, max_value=1e8),
)


@pytest.mark.parametrize("fn", [digamma, log_gamma])
@given(x=arrays(np.float64, st.sampled_from([(), (1,), (9,), (3, 3, 2), (5, 5, 3)]), elements=_ELEMENTS))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_each_element_equals_the_scalar_call_bit_for_bit(fn, x):
    # what makes one call on concatenated arguments give the bits of one call
    # per argument: no element depends on its neighbours or its position
    got = fn(x)
    want = np.array([fn(float(e)) for e in x.ravel()]).reshape(x.shape)
    if x.ndim == 0:
        assert type(got) is float
    else:
        assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert np.asarray(got).tobytes() == want.tobytes()
