"""Black-Scholes helper oracle checks."""

import numpy as np
from hypothesis import given, strategies as st
from scipy.special import ndtr

from netgreeks.blackscholes import (
    call_price,
    d_pair,
    norm_cdf,
    norm_pdf,
    put_delta,
    put_price,
)


def test_d_pair_at_the_money():
    d_plus, d_minus = d_pair(1.0, 1.0, 0.0, 1.0, 0.4)
    assert abs(d_plus - 0.2) < 1e-15
    assert abs(d_minus + 0.2) < 1e-15


def test_call_reference_value():
    # C(1, 1, r=0, tau=1, sigma=0.4) = Phi(0.2) - Phi(-0.2)
    assert abs(call_price(1.0, 1.0, 0.0, 1.0, 0.4) - 0.15851941887820603) < 1e-14


def test_put_reference_value():
    # same d's, K = S, r = 0: put equals call by symmetry of the payoff split
    c = call_price(1.0, 1.0, 0.0, 1.0, 0.4)
    p = put_price(1.0, 1.0, 0.0, 1.0, 0.4)
    assert abs(c - p) < 1e-14


st_spot = st.floats(0.1, 5.0)
st_rate = st.floats(-0.05, 0.15)
st_vol = st.floats(0.05, 1.0)
st_tau = st.floats(0.05, 5.0)


@given(st_spot, st_spot, st_rate, st_tau, st_vol)
def test_put_call_parity(spot, strike, r, tau, sigma):
    c = call_price(spot, strike, r, tau, sigma)
    p = put_price(spot, strike, r, tau, sigma)
    assert abs((c - p) - (spot - strike * np.exp(-r * tau))) < 1e-10


@given(st_spot, st_spot, st_rate, st_tau, st_vol)
def test_deltas_bracket_prices(spot, strike, r, tau, sigma):
    assert -1.0 <= put_delta(spot, strike, r, tau, sigma) <= 0.0
    assert call_price(spot, strike, r, tau, sigma) >= max(
        spot - strike * np.exp(-r * tau), 0.0) - 1e-12


def test_delta_is_price_slope():
    h = 1e-6
    for spot in (0.6, 1.0, 1.7):
        fd = (put_price(spot + h, 1.0, 0.02, 1.0, 0.4)
              - put_price(spot - h, 1.0, 0.02, 1.0, 0.4)) / (2 * h)
        assert abs(fd - put_delta(spot, 1.0, 0.02, 1.0, 0.4)) < 1e-8


def test_vectorized_over_spot():
    spots = np.array([0.5, 1.0, 2.0])
    prices = call_price(spots, 1.0, 0.0, 1.0, 0.4)
    assert prices.shape == (3,)
    assert np.all(np.diff(prices) > 0)  # increasing in spot


def test_norm_functions():
    assert abs(norm_cdf(0.0) - 0.5) < 1e-15
    assert abs(norm_pdf(0.0) - 1.0 / np.sqrt(2 * np.pi)) < 1e-15
    x = np.linspace(-3, 3, 61)
    h = 1e-6
    np.testing.assert_allclose((norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h),
                               norm_pdf(x), atol=1e-9)


def test_norm_cdf_equals_scipy_ndtr():
    # every Cephes branch: erf below |x| = sqrt(2), erfc's P/Q and R/S, the underflow
    x = np.linspace(-40.0, 40.0, 400_001)
    np.testing.assert_array_equal(norm_cdf(x), ndtr(x))
    edges = np.array([np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996843e2)])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    edges = np.concatenate([edges, -edges, [0.0, -0.0, np.inf, -np.inf]])
    np.testing.assert_array_equal(norm_cdf(edges), ndtr(edges))


def test_norm_cdf_keeps_shape_and_returns_a_scalar_for_a_scalar():
    value = norm_cdf(0.3)
    assert isinstance(value, np.float64) and value == ndtr(0.3)
    assert isinstance(norm_cdf(np.float64(-2.0)), np.float64)
    assert norm_cdf(np.zeros((2, 3))).shape == (2, 3)
