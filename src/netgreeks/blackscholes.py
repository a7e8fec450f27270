"""European Black-Scholes prices and the put delta.

Thin vectorized formulas shared by the closed-form symmetric solution and
the single-firm local approximation.  The normal CDF is a numpy port of
Cephes ``ndtr`` (Moshier), the routine scipy.special.ndtr wraps: ``erf``'s
rational T/U on |x| < sqrt(2), and ``erfc``'s exp(-x^2/2) P/Q below
8 sqrt(2) and R/S above.  exp is Python's math.exp, the C library's, so
norm_cdf equals scipy.special.ndtr bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "d_pair",
    "call_price",
    "put_price",
    "put_delta",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_HALF = math.sqrt(0.5)

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) on |x| <= 1; erfc(x) = exp(-x^2) P(x) / Q(x)
# on 1 <= x < 8 and exp(-x^2) R(x) / S(x) above; U, Q and S have a leading 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erfc underflows to 0 beyond x^2 = log(DBL_MAX)
_MAXLOG = 7.09782712893383996843e2


def _horner(x, coef, monic=False):
    """Cephes polevl: sum_i coef[i] x^(N-i); p1evl when monic (x^N + sum_i coef[i] x^(N-1-i)).

    One rounding per product and per sum, as in the C loop, so the result
    is the C routine's bit for bit.  On an array every step after the first
    runs in place on one fresh array.
    """
    out = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _ndtr(x: float) -> float:
    t = x * _SQRT_HALF
    z = abs(t)
    if z < 1.0:
        # 0.5 + 0.5 erf(t); Cephes switches to erfc at |t| = sqrt(1/2), which
        # gives the same doubles up to |t| = 1: erf(|t|) > 1/2 there, so every
        # other step of 0.5 (1 - erf) is exact
        t2 = t * t
        return 0.5 + 0.5 * (t * _horner(t2, _T) / _horner(t2, _U, monic=True))
    # 0.5 erfc(|t|), then 1 - that for t > 0
    if z * z > _MAXLOG:
        q = 0.0
    elif z < 8.0:
        q = math.exp(-z * z) * _horner(z, _P) / _horner(z, _Q, monic=True)
    else:
        q = math.exp(-z * z) * _horner(z, _R) / _horner(z, _S, monic=True)
    q *= 0.5
    return 1.0 - q if t > 0.0 else q


def norm_cdf(x):
    """Standard normal CDF, Cephes ndtr per element; a float64 scalar for a scalar x."""
    x = np.asarray(x, dtype=float)
    return np.array([_ndtr(v) for v in x.ravel().tolist()]).reshape(x.shape)[()]


def norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def d_pair(spot, strike, r, tau, sigma):
    """The pair (d_plus, d_minus) for spot/strike over horizon tau."""
    srt = sigma * np.sqrt(tau)
    d_plus = (np.log(spot / strike) + (r + 0.5 * sigma**2) * tau) / srt
    return d_plus, d_plus - srt


def call_price(spot, strike, r, tau, sigma):
    d_plus, d_minus = d_pair(spot, strike, r, tau, sigma)
    return spot * norm_cdf(d_plus) - strike * np.exp(-r * tau) * norm_cdf(d_minus)


def put_price(spot, strike, r, tau, sigma):
    d_plus, d_minus = d_pair(spot, strike, r, tau, sigma)
    return strike * np.exp(-r * tau) * norm_cdf(-d_minus) - spot * norm_cdf(-d_plus)


def put_delta(spot, strike, r, tau, sigma):
    d_plus, _ = d_pair(spot, strike, r, tau, sigma)
    return norm_cdf(d_plus) - 1.0
