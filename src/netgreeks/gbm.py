"""Correlated terminal asset sampling under the risk-neutral measure.

External assets follow correlated geometric Brownian motions; only the
terminal value matters for the valuation, so draws are single-step:

    A_T^i = a_t^i exp((r - sigma_i^2 / 2) tau + sqrt(tau) sigma_i (L z)_i)

with L the lower Cholesky factor of the correlation matrix and z iid
standard normals.  Normals are generated counter-based (Philox keyed by the
seed, one block-aligned slot per draw and asset), so draw i is bit-identical
no matter how the work is chunked or threaded.  The uniforms map to normals
through a numpy port of Cephes ``ndtri`` (Moshier), the routine
scipy.special.ndtri wraps: the rational P0/Q0 in y - 1/2 on
e^-2 < y <= 1 - e^-2, and in the tails, with x = sqrt(-2 log y), P1/Q1 in 1/x
below x = 8 and P2/Q2 above.  The central branch equals scipy's bit for
bit.  The tails may differ from it by about 8e-16 relative, the largest
gap on 4e6 Philox uniforms, because numpy's vectorized log may round
differently from the C library's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blackscholes import _horner
from .network import _ArrayEq, _frozen_array

__all__ = [
    "GbmParams",
    "normal_variates",
    "sample_terminal",
]


@dataclass(frozen=True, eq=False)
class GbmParams(_ArrayEq):
    """Current asset values, volatilities, short rate, horizon, correlation.

    chol, the lower Cholesky factor of corr, is computed once here, so the
    accepted correlation matrices are exactly those the sampler can use.
    Parameters are also rejected when some normal the sampler can return
    maps to a terminal value that is not finite and positive, or to a
    partial that is not finite.
    """

    a_t: np.ndarray
    sigma: np.ndarray
    r: float
    tau: float
    corr: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a_t = _frozen_array(np.atleast_1d(self.a_t))
        sigma = _frozen_array(np.atleast_1d(self.sigma))
        corr = _frozen_array(self.corr)
        n = a_t.shape[0]
        if not (np.all(np.isfinite(a_t)) and np.all(np.isfinite(sigma))
                and np.isfinite(self.r) and np.isfinite(self.tau)):
            raise ValueError("a_t, sigma, r and tau must be finite")
        if sigma.shape != (n,) or corr.shape != (n, n):
            raise ValueError(f"inconsistent shapes: a_t {a_t.shape}, sigma {sigma.shape}, corr {corr.shape}")
        if np.any(a_t <= 0.0):
            raise ValueError("asset values must be strictly positive")
        if np.any(sigma <= 0.0):
            raise ValueError("volatilities must be strictly positive")
        if not self.tau > 0.0:
            raise ValueError("horizon tau must be strictly positive")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        try:
            chol = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError:
            # perfectly correlated blocks sit on the PSD boundary; one 1e-12 diagonal
            # bump factors them without changing the sampled law at double precision
            try:
                chol = np.linalg.cholesky(corr + 1e-12 * np.eye(n))
            except np.linalg.LinAlgError as exc:
                raise ValueError("correlation matrix is not positive semi-definite") from exc
        object.__setattr__(self, "a_t", a_t)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "chol", _frozen_array(chol))
        _check_draw_range(self)

    @property
    def n(self) -> int:
        return self.a_t.shape[0]


# Cephes ndtri.c; the Q tables have a leading 1
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Normal quantile of every entry of y in (0, 1), Cephes ndtri.

    The central rational runs over the whole array in place; the two logs
    run only on the tail entries, about 27 % of uniforms.
    """
    t = y - 0.5
    t2 = t * t
    x = _horner(t2, _P0)
    x *= t2
    x /= _horner(t2, _Q0, monic=True)
    x *= t
    x += t
    x *= _S2PI
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    if tail.size:
        yt = y.reshape(-1)[tail]
        neg = yt < 0.5
        np.minimum(yt, 1.0 - yt, out=yt)
        w = np.sqrt(-2.0 * np.log(yt))
        z = 1.0 / w
        x1 = z * _horner(z, _P1) / _horner(z, _Q1, monic=True)
        far = np.flatnonzero(w >= 8.0)
        if far.size:
            zf = z[far]
            x1[far] = zf * _horner(zf, _P2) / _horner(zf, _Q2, monic=True)
        w -= np.log(w) / w
        w -= x1
        np.negative(w, out=w, where=neg)
        x.reshape(-1)[tail] = w
    return x


# the extreme normals the sampler returns: _ndtri of the smallest uniform,
# finfo(float).tiny, and of the largest, 1 - 2**-53
_Z_MIN = -37.5193793471445
_Z_MAX = 8.209536151601387


def _check_draw_range(params: GbmParams) -> None:
    """Raise ValueError unless every sampled A_T is finite and positive with finite partials.

    Over the box [_Z_MIN, _Z_MAX]^n of normals, firm i's correlated normal
    y_i = (L z)_i spans [lo_i, hi_i].  A_T^i rises with y_i; |dA_T/dsigma| and
    |dA_T/dtau| peak at an end or at their one stationary point inside.
    """
    sig, tau, r = params.sigma, params.tau, params.r
    ends = params.chol * _Z_MIN, params.chol * _Z_MAX
    lo, hi = np.minimum(*ends).sum(axis=1), np.maximum(*ends).sum(axis=1)
    with np.errstate(all="ignore"):
        stationary = ((sig * tau - 1.0 / sig) / np.sqrt(tau),
                      -(1.0 / (2.0 * tau) + r - 0.5 * sig**2) * 2.0 * np.sqrt(tau) / sig)
        y = np.clip(np.stack([lo, hi, *stationary]), lo, hi)
        a_T = _terminal(params, y)
        partials = _partials(params, y.T, a_T.T)
    ok = (a_T > 0.0) & (a_T < np.inf) & np.isfinite(partials).all(axis=0).T
    if not ok.all():
        i = int(np.flatnonzero(~ok.all(axis=0))[0])
        raise ValueError(f"firm {i}: the terminal asset value or its partials overflow or "
                         f"underflow for sampled normals in [{lo[i]:.4g}, {hi[i]:.4g}]")


def _words_per_draw(n: int) -> int:
    # Philox advances in blocks of four 64-bit words; pad each draw row to a
    # whole number of blocks so chunk offsets are reachable exactly.
    return 4 * ((n + 3) // 4)


def normal_variates(seed: int, count: int, n: int, start: int = 0) -> np.ndarray:
    """Standard normals for draws [start, start+count), shape (count, n).

    Counter-based: the value at (draw, asset) depends only on the seed, so
    any chunking of the draw range reproduces the same numbers bit for bit.
    """
    pad = _words_per_draw(n)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * (pad // 4))
    u = np.random.Generator(bitgen).random((count, pad))[:, :n]
    # keep uniforms away from exact zero; ndtri(tiny) is about -38
    return _ndtri(np.maximum(u, np.finfo(float).tiny))


def _terminal(params: GbmParams, y: np.ndarray) -> np.ndarray:
    """A_T from correlated normals y = z L^T, (..., n)."""
    drift = (params.r - 0.5 * params.sigma**2) * params.tau
    return params.a_t * np.exp(drift + np.sqrt(params.tau) * params.sigma * y)


def sample_terminal(params: GbmParams, z: np.ndarray) -> np.ndarray:
    """Map standard normals z (..., n) to terminal asset values A_T."""
    return _terminal(params, np.asarray(z, dtype=float) @ params.chol.T)


def _terminal_with_partials(params: GbmParams, z: np.ndarray):
    """A_T for (B, n) normals z, and its pathwise partials (da_t, dsigma, dr, dtau).

    The partials are C-contiguous draw-last (n, B) arrays: da_t and dsigma
    per asset (dA_T^i / da_t^i, dA_T^i / dsigma_i), dr and dtau for the
    scalars.  All four differentiate the sampling map at fixed z, which is
    the correct coupling for pathwise Greek estimators.  One product z L^T
    serves A_T and the partials.
    """
    y = np.asarray(z, dtype=float) @ params.chol.T
    a_T = _terminal(params, y)
    return a_T, _partials(params, y.T.copy(), a_T.T.copy())


def _partials(params: GbmParams, y: np.ndarray, a: np.ndarray):
    """(da_t, dsigma, dr, dtau) at draw-last (n, B) correlated normals y and A_T values a."""
    sig = params.sigma[:, None]
    tau = params.tau
    sqrt_tau = np.sqrt(tau)
    return (a / params.a_t[:, None],
            a * (-sig * tau + sqrt_tau * y),
            a * tau,
            a * (params.r - 0.5 * sig**2 + sig * y / (2.0 * sqrt_tau)))
