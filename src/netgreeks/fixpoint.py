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

A Greek run needs only each draw's xi: ``mc`` prices its draws through the
dx*/da it solves anyway, and passes certify=True.  Then a batch too varied
to polish stops Picard at the first sweep where every draw has its pattern
certified or meets tol.  Picard rises from v_0 = min(d, a), and a sweep
shrinks the 1-norm of the step in v by at least c, the largest column sum
of m_s and m_d (each firm's |ds| + |dr| is its |dv|).  So for c < 1

    ||v* - v_k||_1 <= c / (1 - c) ||v_k - v_{k-1}||_1 =: bound,

and a draw is certified once every firm has v_k > d (1 + _BOUNDARY_REL),
solvent, or v_k + bound < d (1 - _BOUNDARY_REL), insolvent.  Both tests
also step over the rounding of the computed iterates, at most
2 (n + 1) eps ||a||_1 / (1 - c)^2: one sweep sums 2n + 1 non-negative terms
of a firm value, ||v*||_1 <= ||a||_1 / (1 - c), and the contraction adds
up the sweeps' errors to at most 1 / (1 - c) of one.  The margin absorbs
the rounding of the bound itself and keeps every certified draw out of the
boundary band that ``mc`` counts as a hit; a tie v = d is never
certified.  A network with c >= 1 - _SLACK certifies nothing.
A certified draw sweeps on with the rest and stays certified, since its
iterates go on rising and its bound shrinks by c per sweep.  Its claims
are the batch's last iterate, so its residual may exceed tol; every other
draw meets tol, and a draw that misses it raises ConvergenceError as
before.  The certificate sweeps count against max_iter, and the batch is
the plain Picard loop, stopped earlier.

The solver works draw-last, on C-contiguous (n, B) arrays, as ``mc`` does;
its products with the holdings sum in the draw-major order (``_dot``), so
an unpolished batch is bit for bit the plain draw-major Picard loop, up to
the sweep at which it stops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import _SLACK, FirmNetwork, _ArrayEq
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

    tol bounds the sup-norm residual ||g(x) - x|| of every returned row
    whose pattern is not certified; max_iter bounds the Picard sweeps, the
    first one plus any fallback or certificate sweeps.
    """

    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be strictly positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_CONFIG = FixedPointConfig()

# a draw is a boundary hit when some firm value lies within this fraction of
# its debt (``mc``); a certified draw has every firm value outside it
_BOUNDARY_REL = 1e-9


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
    Without the polish it is the plain Picard count, certificate sweeps
    included.  residuals is each draw's ||g(x) - x||_inf at the returned
    claims, at most tol unless the draw is certified.  certified marks the
    draws whose pattern xi is certified (see the module docstring), all
    False unless the solve was asked to certify.
    """

    s: np.ndarray            # (B, n)
    r: np.ndarray            # (B, n)
    v: np.ndarray            # firm value at the returned claims
    xi: np.ndarray           # (B, n), floats in {0, 1}
    iterations: int
    residuals: np.ndarray    # (B,) final sup-norm per scenario
    certified: np.ndarray    # (B,) bool, draws whose xi is certified


def _dot(m, x):
    """m @ x for draw-last x, as (x^T m^T)^T: BLAS sums in the draw-major order."""
    return (x.T @ m.T).T


def _sweeps(net, a, v0, tol, it, max_iter, c=None):
    """Picard sweeps from g(v0) until every draw is done or it reaches max_iter.

    The sweeps start from g(v0) = (max(0, v0 - d), min(d, v0)), and it
    counts the map evaluations already spent.  Returns (s, r, v, step, it,
    certified): the iterate at which the step ||g(x) - x|| was measured, its
    firm value and the per-firm step, all (n, B), and the (B,) mask of draws
    whose solvency pattern is certified.  The caller checks convergence.

    A draw is done once its step is <= tol.  With c, the contraction of
    ``_contraction``, every sweep also certifies the draws it can (see the
    module docstring), and a certified draw is done too; it keeps sweeping
    with the rest.  Without c, certified is all False.
    """
    # d as a full (n, B) array: numpy's loops run slower with a broadcast column
    d = np.repeat(net.d[:, None], a.shape[1], axis=1)
    # a debt-only network adds m_s s = +0.0 to a positive a, which is exact
    equity = np.any(net.m_s)
    s, r = np.maximum(0.0, v0 - d), np.minimum(d, v0)
    v, s_new, r_new, step, gap = (np.empty_like(a) for _ in range(5))
    certified = np.zeros(a.shape[1], dtype=bool)
    if c is not None:
        ratio = c / (1.0 - c)
        # the rounding of the computed iterates (module docstring)
        err = 2 * (net.n + 1) * np.finfo(float).eps / (1.0 - c) ** 2 * a.sum(axis=0)
        lo, hi = d * (1.0 - _BOUNDARY_REL) - err, d * (1.0 + _BOUNDARY_REL) + err
        above, below = (np.empty(a.shape, dtype=bool) for _ in range(2))
    while True:
        if equity:
            np.add(a, _dot(net.m_s, s), out=v)
            v += _dot(net.m_d, r)
        else:
            np.add(a, _dot(net.m_d, r), out=v)
        np.maximum(0.0, np.subtract(v, d, out=s_new), out=s_new)
        np.minimum(d, v, out=r_new)
        np.abs(np.subtract(s_new, s, out=gap), out=gap)
        np.abs(np.subtract(r_new, r, out=step), out=step)
        if c is not None:
            # |ds| + |dr| = |dv| per firm, so this is ratio ||v_k - v_{k-1}||_1
            bound = gap.sum(axis=0)
            bound += step.sum(axis=0)
            bound *= ratio
        np.maximum(gap, step, out=step)
        it += 1
        if c is not None:
            np.greater(v, hi, out=above)
            np.less(v, np.subtract(lo, bound, out=gap), out=below)
            certified |= np.logical_or(above, below, out=below).all(axis=0)
        if it >= max_iter or (certified | (step.max(axis=0) <= tol)).all():
            return s, r, v, step, it, certified
        s, s_new = s_new, s
        r, r_new = r_new, r


def _contraction(net):
    """c, the largest column sum of m_s and m_d, rounded up; None when c >= 1 - _SLACK.

    c is rounded up by n eps, at least the rounding of a sum of n
    non-negative terms, so it is not below its exact value.
    """
    c = max(net.m_s.sum(axis=0).max(), net.m_d.sum(axis=0).max())
    c *= 1.0 + net.n * np.finfo(float).eps
    return c if c < 1.0 - _SLACK else None


def _convergence_error(net, v, step, cfg, rows=None):
    """ConvergenceError at the worst draw of the last sweep; rows maps it to the batch."""
    resid = step.max(axis=0)
    worst = int(np.argmax(resid))
    draw = worst if rows is None else int(rows[worst])
    firms = np.flatnonzero(step[:, worst] > cfg.tol).tolist()
    xi = "".join("1" if solvent else "0" for solvent in v[:, worst] > net.d)
    return ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations "
        f"(worst scenario {draw}, residual {resid[worst]:.3e}, "
        f"unconverged firms {firms}, solvency pattern xi={xi})",
        draw=draw,
    )


def _resume(net, a, first, cfg, it, c=None, rows=None):
    """Picard sweeps resumed from the second iterate, g of the first sweep's firm values.

    Returns what ``_sweeps`` returns and raises ConvergenceError if a draw
    that is not certified misses tol; rows, if given, maps the draws to the
    batch.
    """
    sub = _sweeps(net, a, first, cfg.tol, it, cfg.max_iter, c)
    late = (sub[3].max(axis=0) > cfg.tol) & ~sub[5]
    if late.any():
        raise _convergence_error(net, sub[2], sub[3] * late, cfg, rows)
    return sub


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
    # one sweep from g(v): max_iter = 1
    return _sweeps(net, a, v, 0.0, 0, 1)[:4]


def _picard(net, a, cfg, certify):
    """Fixed point of every draw of an (n, B) batch: one sweep, then polish or more Picard.

    Returns (s, r, v, xi, iterations, residuals, certified), each array
    draw-last.  The returned claims are the iterate at which the residual
    ||g(x) - x|| was measured, so the post-condition ||x - g(a, x)||_inf <=
    tol holds exactly for every draw that is not certified.  With certify,
    a batch too varied to polish certifies its draws' patterns as it sweeps.
    """
    d = net.d[:, None]
    # one sweep from g(min(d, a)) = (0, min(d, a)), the start: max_iter = 1
    s, r, v, step, it, certified = _sweeps(net, a, np.minimum(d, a), 0.0, 0, 1)
    if (step > cfg.tol).any():
        if it >= cfg.max_iter:
            raise _convergence_error(net, v, step, cfg)
        solvent, inverse = _distinct_patterns((v > d).T)
        if len(solvent) * net.n > a.shape[1]:
            c = _contraction(net) if certify else None
            s, r, v, step, it, certified = _resume(net, a, v, cfg, it, c)
        else:
            first = v
            s, r, v, step = _polish(net, a, solvent, inverse)
            # the solve may round a tie v = d up; Picard from below counts it insolvent
            rows = np.flatnonzero((step.max(axis=0) > cfg.tol)
                                  | np.any(np.abs(v - d) <= cfg.tol, axis=0))
            if rows.size:
                sub = _resume(net, a[:, rows], first[:, rows], cfg, it, rows=rows)
                s[:, rows], r[:, rows], v[:, rows], step[:, rows] = sub[:4]
                it = sub[4]
            # the verifying sweep
            it += 1
    xi = (v > d).astype(float)
    return s, r, v, xi, it, step.max(axis=0), certified


def solve_claims_batch(net: FirmNetwork, a, cfg: FixedPointConfig = DEFAULT_CONFIG, *,
                       certify: bool = False) -> BatchSolution:
    """Solve the fixed point for each row of a (B, n) scenario array.

    certify, which only ``mc``'s Greek chunks pass, stops the Picard sweeps
    of a batch too varied to polish once every draw's solvency pattern is
    certified or it meets tol; BatchSolution.certified marks the certified
    draws.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != net.n:
        raise ValueError(f"scenario array has {a.shape[1]} columns, network has {net.n} firms")
    bad = ~((a > 0.0) & (a < np.inf))
    if bad.any():
        row, firm = np.argwhere(bad)[0]
        raise ValueError(f"external asset values must be finite and strictly positive, "
                         f"got {a[row, firm]} at row {row}, firm {firm}")
    s, r, v, xi, it, resid, certified = _picard(net, a.T.copy(), cfg, certify)
    return BatchSolution(s=s.T, r=r.T, v=v.T, xi=xi.T, iterations=it, residuals=resid,
                         certified=certified)
