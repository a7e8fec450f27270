"""Random debt-network ensembles for contagion experiments.

Networks are directed Erdos-Renyi: each ordered pair (i, j), i != j, is an
edge with probability p = k_mean / (n - 1), so the expected number of
debtors per firm is exactly k_mean.  Each column with c > 0 holders is
filled with equal weights w_d / c, giving every held firm an inside-debt
fraction of exactly w_d.  Optionally the weights are rebalanced to make row
sums (holder-side concentration) match w_d as well.
"""

from __future__ import annotations

import numpy as np

from .network import FirmNetwork

__all__ = [
    "SinkhornError",
    "er_network",
    "sinkhorn_balance",
]


_MAX_RESAMPLES = 100


class SinkhornError(RuntimeError):
    """Row/column balancing failed for the given support pattern."""


def _column_scaled(adj: np.ndarray, w_d: float) -> np.ndarray:
    counts = adj.sum(axis=0)
    weights = np.zeros(adj.shape)
    held = counts > 0
    weights[:, held] = adj[:, held] * (w_d / counts[held])
    return weights


def sinkhorn_balance(m: np.ndarray, row_target: float, col_target: float,
                     tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Scale rows and columns of a non-negative matrix to the given sums.

    Zero rows and columns are left alone (their target is vacuous); the
    support pattern is preserved exactly.  Raises SinkhornError when the
    alternating scaling stalls, which happens for support patterns that
    cannot carry the requested marginals.
    """
    m = np.array(m, dtype=float)
    if np.any(m < 0.0):
        raise ValueError("matrix must be non-negative")
    rows_live = m.sum(axis=1) > 0.0
    cols_live = m.sum(axis=0) > 0.0
    for _ in range(max_iter):
        rs = m.sum(axis=1)
        m[rows_live] *= (row_target / rs[rows_live])[:, None]
        cs = m.sum(axis=0)
        m[:, cols_live] *= col_target / cs[cols_live]
        rs = m.sum(axis=1)
        cs = m.sum(axis=0)
        err = max(np.abs(rs[rows_live] - row_target).max(initial=0.0),
                  np.abs(cs[cols_live] - col_target).max(initial=0.0))
        if err <= tol:
            return m
    raise SinkhornError(f"no convergence after {max_iter} scaling passes (error {err:.3e})")


def er_network(n: int, k_mean: float, w_d: float, seed: int, d: float = 1.0,
               sinkhorn: bool = False) -> FirmNetwork:
    """One random debt network; equity holdings are zero.

    With sinkhorn=True, adjacency patterns whose balancing fails are
    resampled (fresh edges, same stream) up to _MAX_RESAMPLES times.
    """
    if n < 2:
        raise ValueError("need at least two firms")
    if not 0.0 <= w_d < 1.0:
        raise ValueError("w_d must lie in [0, 1)")
    p = k_mean / (n - 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"k_mean {k_mean} gives edge probability {p} outside [0, 1]")
    if not d > 0.0:
        raise ValueError("debt must be strictly positive")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLES):
        adj = rng.random((n, n)) < p
        np.fill_diagonal(adj, False)
        m_d = _column_scaled(adj, w_d)
        if sinkhorn and adj.any():
            try:
                m_d = sinkhorn_balance(m_d, w_d, w_d)
            except SinkhornError:
                continue
        return FirmNetwork(m_s=np.zeros((n, n)), m_d=m_d, d=np.full(n, d))
    raise SinkhornError(f"no balanceable adjacency pattern in {_MAX_RESAMPLES} resamples")
