"""Self-consistent claim valuation by monotone fixed-point iteration.

Given realized external assets a, equity and debt values solve

    s_i = max(0, v_i - d_i),   r_i = min(d_i, v_i),   v = a + m_s s + m_d r.

Under the admissibility rules the map is monotone and has a unique fixed
point for strictly positive a; iterating from s = 0, r = min(d, a) converges
from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ClaimVector, FirmNetwork, SolvencyVector, _ArrayEq, firm_value

__all__ = [
    "FixedPointConfig",
    "FixedPointSolution",
    "BatchSolution",
    "ConvergenceError",
    "DEFAULT_CONFIG",
    "eval_g",
    "solve_claims",
    "solve_claims_batch",
    "solvency",
]


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping rule: sup-norm tolerance on successive iterates."""

    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be strictly positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_CONFIG = FixedPointConfig()


class ConvergenceError(RuntimeError):
    """Iteration did not reach tolerance; carries the last iterate."""

    def __init__(self, message, claims=None, residual=None, iterations=None, draw=None):
        super().__init__(message)
        self.claims = claims
        self.residual = residual
        self.iterations = iterations
        self.draw = draw


@dataclass(frozen=True)
class FixedPointSolution:
    claims: ClaimVector
    xi: SolvencyVector
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class BatchSolution(_ArrayEq):
    """Vectorized solution over a batch of asset scenarios (rows)."""

    s: np.ndarray            # (B, n)
    r: np.ndarray            # (B, n)
    v: np.ndarray            # firm value at the returned claims
    xi: np.ndarray           # (B, n), floats in {0, 1}
    iterations: int
    residuals: np.ndarray    # (B,) final sup-norm per scenario


def eval_g(net: FirmNetwork, a, claims: ClaimVector) -> ClaimVector:
    """One application of the valuation map at claims x."""
    v = firm_value(net, claims, a)
    return ClaimVector(s=np.maximum(0.0, v - net.d), r=np.minimum(net.d, v))


def _picard(net, a, cfg):
    """Iteration core over (B, n) arrays, from the lower start s = 0, r = min(d, a).

    Returns (s, r, v, xi, iterations, residuals).  The returned
    claims are the iterate at which the residual ||g(x) - x|| was measured,
    so the post-condition ||x - g(a, x)||_inf <= tol holds exactly.
    """
    d = net.d
    ms_t = net.m_s.T
    md_t = net.m_d.T
    s, r = np.zeros_like(a), np.minimum(d, a)
    for it in range(1, cfg.max_iter + 1):
        v = a + s @ ms_t + r @ md_t
        s_new = np.maximum(0.0, v - d)
        r_new = np.minimum(d, v)
        step = np.maximum(np.abs(s_new - s), np.abs(r_new - r))
        resid = step.max(axis=1)
        if resid.max() <= cfg.tol:
            xi = (v > d).astype(float)
            return s, r, v, xi, it, resid
        s, r = s_new, r_new
    worst = int(np.argmax(resid))
    firms = np.flatnonzero(step[worst] > cfg.tol).tolist()
    xi = "".join("1" if solvent else "0" for solvent in v[worst] > d)
    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations "
        f"(worst scenario {worst}, residual {resid[worst]:.3e}, "
        f"unconverged firms {firms}, solvency pattern xi={xi})",
        claims=ClaimVector(s=s_new[worst], r=r_new[worst]),
        residual=float(resid[worst]),
        iterations=cfg.max_iter,
        draw=worst,
    )


def solve_claims_batch(net: FirmNetwork, a,
                       cfg: FixedPointConfig = DEFAULT_CONFIG) -> BatchSolution:
    """Solve the fixed point for each row of a (B, n) scenario array."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != net.n:
        raise ValueError(f"scenario array has {a.shape[1]} columns, network has {net.n} firms")
    if np.any(a <= 0.0):
        raise ValueError("external asset values must be strictly positive")
    s, r, v, xi, it, resid = _picard(net, a, cfg)
    return BatchSolution(s=s, r=r, v=v, xi=xi, iterations=it, residuals=resid)


def solve_claims(net: FirmNetwork, a,
                 cfg: FixedPointConfig = DEFAULT_CONFIG) -> FixedPointSolution:
    """Solve the valuation fixed point for one asset vector a > 0."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != 1:
        raise ValueError(f"expected one asset vector, got {a.shape[0]} rows")
    sol = solve_claims_batch(net, a, cfg)
    return FixedPointSolution(
        claims=ClaimVector(s=sol.s[0], r=sol.r[0]),
        xi=SolvencyVector(sol.xi[0]),
        iterations=sol.iterations,
        residual=float(sol.residuals[0]),
    )


def solvency(net: FirmNetwork, a, claims: ClaimVector) -> SolvencyVector:
    """Solvency indicators at given claims: 1 iff v_i > d_i (ties insolvent)."""
    return SolvencyVector((firm_value(net, claims, a) > net.d).astype(float))
