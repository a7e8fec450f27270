"""Self-consistent claim valuation: the first Picard sweep reads the solvency
pattern, one linear solve per pattern finishes it.

Given realized external assets a, equity and debt values solve

    s_i = max(0, v_i - d_i),   r_i = min(d_i, v_i),   v = a + m_s s + m_d r.

Under the admissibility rules the map is monotone and has a unique fixed
point for strictly positive a; Picard iteration from s = 0, r = min(d, a)
increases to it.  Its rate is the holding weight, so heavy cross-holdings
need ~50 sweeps to reach 1e-12.  Once the solvency pattern xi = (v > d) is
known the fixed point is one linear solve,

    A(xi) v = a + (m_d - m_s) Xi d,   A(xi) = I - m_s Xi - m_d (I - Xi),

the fictitious-default system of Eisenberg & Noe (2001) extended to equity
cross-holdings.  ``solve_claims_batch`` therefore runs one Picard sweep
from the start and reads xi off its v > d.  When a batch of B draws has
few distinct patterns, U n <= B, it polishes: one solve per distinct
pattern (``sensitivity._forward_solve``), re-solves of the draws whose
v > d disagrees with xi for at most n rounds, and one map evaluation that
checks every draw against tol.  The rule bounds the cost: the U inverses of
A(xi) cost U n^3 <= B n^2 flops, one Picard sweep.  A draw that fails the
check or has a firm value within tol of its debt, and every draw of a batch
with too many patterns to polish, goes on with plain Picard from the second
iterate, so the batch always meets tol and a tie v = d counts insolvent.

The solver works draw-last, on C-contiguous (n, B) arrays, as ``mc`` does;
its products with the holdings sum in the draw-major order (``_dot``), so
an unpolished batch is bit for bit the plain draw-major Picard loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FirmNetwork, _ArrayEq
from .sensitivity import _distinct_patterns, _forward_solve

__all__ = [
    "FixedPointConfig",
    "BatchSolution",
    "ConvergenceError",
    "DEFAULT_CONFIG",
    "solve_claims_batch",
]

@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping rule.

    tol bounds the sup-norm residual ||g(x) - x|| of every returned row;
    max_iter bounds the Picard sweeps, the first one plus any fallback.
    """

    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be strictly positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_CONFIG = FixedPointConfig()


class ConvergenceError(RuntimeError):
    """Picard did not reach tol within max_iter sweeps.

    The message states the sweeps, the worst row's residual, its unconverged
    firms and its solvency pattern.  draw is that row of the batch, which
    ``mc`` re-counts from the first draw of the run.
    """

    def __init__(self, message, draw=None):
        super().__init__(message)
        self.draw = draw


@dataclass(frozen=True, eq=False)
class BatchSolution(_ArrayEq):
    """Vectorized solution over a batch of B asset scenarios (draws).

    s, r, v and xi are (B, n) views of C-contiguous draw-last (n, B) arrays.
    iterations counts map evaluations over the whole batch: the Picard
    sweeps (the first one plus any fallback) and, when the batch was
    polished, the one verifying sweep; the linear solves are not counted.
    Without the polish it is the plain Picard count.  residuals is each
    draw's ||g(x) - x||_inf at the returned claims, at most tol.
    """

    s: np.ndarray            # (B, n)
    r: np.ndarray            # (B, n)
    v: np.ndarray            # firm value at the returned claims
    xi: np.ndarray           # (B, n), floats in {0, 1}
    iterations: int
    residuals: np.ndarray    # (B,) final sup-norm per scenario


def _dot(m, x):
    """m @ x for draw-last x, as (x^T m^T)^T: BLAS sums in the draw-major order."""
    return (x.T @ m.T).T


def _sweeps(net, a, s, r, tol, it, max_iter):
    """Picard sweeps from (s, r) until every draw's step is <= tol or it reaches max_iter.

    it counts the map evaluations already spent.  Returns (s, r, v, step,
    it): the iterate at which the step ||g(x) - x|| was measured, its firm
    value and the per-firm step, all (n, B).  The caller checks convergence;
    the next iterate is g(x) = (max(0, v - d), min(d, v)).  The sweeps
    write into s and r, which the callers pass as fresh arrays.
    """
    d = net.d[:, None]
    # a debt-only network adds m_s s = +0.0 to a positive a, which is exact
    equity = np.any(net.m_s)
    v, s_new, r_new, step, gap = (np.empty_like(a) for _ in range(5))
    while True:
        if equity:
            np.add(a, _dot(net.m_s, s), out=v)
            v += _dot(net.m_d, r)
        else:
            np.add(a, _dot(net.m_d, r), out=v)
        np.maximum(0.0, np.subtract(v, d, out=s_new), out=s_new)
        np.minimum(d, v, out=r_new)
        np.abs(np.subtract(s_new, s, out=gap), out=gap)
        np.maximum(gap, np.abs(np.subtract(r_new, r, out=step), out=step), out=step)
        it += 1
        if step.max() <= tol or it >= max_iter:
            return s, r, v, step, it
        s, s_new = s_new, s
        r, r_new = r_new, r


def _convergence_error(net, v, step, cfg, rows):
    """ConvergenceError at the worst draw of the last sweep; rows maps it to the batch."""
    resid = step.max(axis=0)
    worst = int(np.argmax(resid))
    draw = int(rows[worst])
    firms = np.flatnonzero(step[:, worst] > cfg.tol).tolist()
    xi = "".join("1" if solvent else "0" for solvent in v[:, worst] > net.d)
    return ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations "
        f"(worst scenario {draw}, residual {resid[worst]:.3e}, "
        f"unconverged firms {firms}, solvency pattern xi={xi})",
        draw=draw,
    )


def _polish(net, a, solvent, inverse):
    """Exact fixed point of every draw from the solvency patterns of the first sweep.

    Solves A(xi) v = a + (m_d - m_s) Xi d once per distinct pattern
    (``sensitivity._forward_solve``), then re-solves only the draws whose
    v > d disagrees with their pattern, for at most n rounds.  Returns
    (s, r, v, step) as ``_sweeps`` does, from one verifying map evaluation.
    """
    d = net.d[:, None]
    diff = net.m_d - net.m_s
    xi = np.take(solvent.T, inverse, axis=1)
    v = _forward_solve(net, solvent, inverse, a + _dot(diff, xi * d))
    rows = np.flatnonzero(np.any((v > d) != xi, axis=0))
    for _ in range(net.n):
        if not rows.size:
            break
        xi[:, rows] = v[:, rows] > d
        solvent, inverse = _distinct_patterns(xi[:, rows].T)
        v[:, rows] = _forward_solve(net, solvent, inverse, a[:, rows] + _dot(diff, xi[:, rows] * d))
        rows = rows[np.any((v[:, rows] > d) != xi[:, rows], axis=0)]
    s, r = np.maximum(0.0, v - d), np.minimum(d, v)
    # one sweep: max_iter = 1
    return _sweeps(net, a, s, r, 0.0, 0, 1)[:4]


def _picard(net, a, cfg):
    """Fixed point of every draw of an (n, B) batch: one sweep, then polish or more Picard.

    Returns (s, r, v, xi, iterations, residuals), each array draw-last.  The
    returned claims are the iterate at which the residual ||g(x) - x|| was
    measured, so the post-condition ||x - g(a, x)||_inf <= tol holds exactly.
    """
    d = net.d[:, None]
    # one sweep from the start: max_iter = 1
    s, r, v, step, it = _sweeps(net, a, np.zeros_like(a), np.minimum(d, a), 0.0, 0, 1)
    rows = np.arange(a.shape[1])
    if step.max() > cfg.tol:
        if it >= cfg.max_iter:
            raise _convergence_error(net, v, step, cfg, rows)
        first = v
        solvent, inverse = _distinct_patterns((first > d).T)
        polished = len(solvent) * net.n <= a.shape[1]
        if polished:
            s, r, v, step = _polish(net, a, solvent, inverse)
            # the solve may round a tie v = d up; Picard from below counts it insolvent
            rows = np.flatnonzero((step.max(axis=0) > cfg.tol)
                                  | np.any(np.abs(v - d) <= cfg.tol, axis=0))
        if rows.size:
            # the plain iteration's second iterate, where the fallback resumes
            first = first[:, rows]
            sub = _sweeps(net, a[:, rows], np.maximum(0.0, first - d), np.minimum(d, first),
                          cfg.tol, it, cfg.max_iter)
            if sub[3].max() > cfg.tol:
                raise _convergence_error(net, sub[2], sub[3], cfg, rows)
            s[:, rows], r[:, rows], v[:, rows], step[:, rows] = sub[:4]
            it = sub[4]
        it += polished
    xi = (v > d).astype(float)
    return s, r, v, xi, it, step.max(axis=0)


def solve_claims_batch(net: FirmNetwork, a,
                       cfg: FixedPointConfig = DEFAULT_CONFIG) -> BatchSolution:
    """Solve the fixed point for each row of a (B, n) scenario array."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != net.n:
        raise ValueError(f"scenario array has {a.shape[1]} columns, network has {net.n} firms")
    bad = ~((a > 0.0) & (a < np.inf))
    if bad.any():
        row, firm = np.argwhere(bad)[0]
        raise ValueError(f"external asset values must be finite and strictly positive, "
                         f"got {a[row, firm]} at row {row}, firm {firm}")
    s, r, v, xi, it, resid = _picard(net, a.T.copy(), cfg)
    return BatchSolution(s=s.T, r=r.T, v=v.T, xi=xi.T, iterations=it, residuals=resid)
