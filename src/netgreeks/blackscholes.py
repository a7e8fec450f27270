"""European Black-Scholes prices and the put delta.

Thin vectorized formulas shared by the closed-form symmetric solution and
the single-firm local approximation.  The normal CDF uses the erf-based
routine in scipy.special (absolute error around machine precision).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "d_pair",
    "call_price",
    "put_price",
    "put_delta",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def norm_cdf(x):
    return ndtr(x)


def norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def d_pair(spot, strike, r, tau, sigma):
    """The pair (d_plus, d_minus) for spot/strike over horizon tau."""
    srt = sigma * np.sqrt(tau)
    d_plus = (np.log(spot / strike) + (r + 0.5 * sigma**2) * tau) / srt
    return d_plus, d_plus - srt


def call_price(spot, strike, r, tau, sigma):
    d_plus, d_minus = d_pair(spot, strike, r, tau, sigma)
    return spot * ndtr(d_plus) - strike * np.exp(-r * tau) * ndtr(d_minus)


def put_price(spot, strike, r, tau, sigma):
    d_plus, d_minus = d_pair(spot, strike, r, tau, sigma)
    return strike * np.exp(-r * tau) * ndtr(-d_minus) - spot * ndtr(-d_plus)


def put_delta(spot, strike, r, tau, sigma):
    d_plus, _ = d_pair(spot, strike, r, tau, sigma)
    return ndtr(d_plus) - 1.0
