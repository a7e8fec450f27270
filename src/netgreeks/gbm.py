"""Correlated terminal asset sampling under the risk-neutral measure.

External assets follow correlated geometric Brownian motions; only the
terminal value matters for the valuation, so draws are single-step:

    A_T^i = a_t^i exp((r - sigma_i^2 / 2) tau + sqrt(tau) sigma_i (L z)_i)

with L the lower Cholesky factor of the correlation matrix and z iid
standard normals.  Normals are generated counter-based (Philox keyed by the
seed, one block-aligned slot per draw and asset), so draw i is bit-identical
no matter how the work is chunked or threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .network import _ArrayEq, _frozen_array

__all__ = [
    "GbmParams",
    "normal_variates",
    "sample_terminal",
    "terminal_partials",
]


@dataclass(frozen=True, eq=False)
class GbmParams(_ArrayEq):
    """Current asset values, volatilities, short rate, horizon, correlation.

    chol, the lower Cholesky factor of corr, is computed once here, so the
    accepted correlation matrices are exactly those the sampler can use.
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

    @property
    def n(self) -> int:
        return self.a_t.shape[0]


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
    return ndtri(np.maximum(u, np.finfo(float).tiny))


def sample_terminal(params: GbmParams, z: np.ndarray) -> np.ndarray:
    """Map standard normals z (..., n) to terminal asset values A_T."""
    y = np.asarray(z, dtype=float) @ params.chol.T
    drift = (params.r - 0.5 * params.sigma**2) * params.tau
    return params.a_t * np.exp(drift + np.sqrt(params.tau) * params.sigma * y)


def terminal_partials(params: GbmParams, z: np.ndarray, a_T: np.ndarray):
    """Pathwise derivatives (da_t, dsigma, dr, dtau) of A_T, each shaped like a_T.

    da_t and dsigma are per asset (dA_T^i / da_t^i, dA_T^i / dsigma_i); all
    four differentiate the sampling map at fixed z, which is the correct
    coupling for pathwise Greek estimators.
    """
    y = np.asarray(z, dtype=float) @ params.chol.T
    sig = params.sigma
    tau = params.tau
    sqrt_tau = np.sqrt(tau)
    return (a_T / params.a_t,
            a_T * (-sig * tau + sqrt_tau * y),
            a_T * tau,
            a_T * (params.r - 0.5 * sig**2 + sig * y / (2.0 * sqrt_tau)))
