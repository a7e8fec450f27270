"""Random debt-network ensembles for contagion experiments.

Networks are directed Erdos-Renyi: each ordered pair (i, j), i != j, is an
edge with probability p = k_mean / (n - 1), so the expected number of
debtors per firm is exactly k_mean.  Each column with c > 0 holders is
filled with equal weights w_d / c, giving every held firm an inside-debt
fraction of exactly w_d.
"""

from __future__ import annotations

import numpy as np

from .network import FirmNetwork

__all__ = ["er_network"]


def _column_scaled(adj: np.ndarray, w_d: float) -> np.ndarray:
    counts = adj.sum(axis=0)
    weights = np.zeros(adj.shape)
    held = counts > 0
    weights[:, held] = adj[:, held] * (w_d / counts[held])
    return weights


def _edge_probability(n: int, k_mean: float, w_d: float) -> float:
    """The ensemble's edge probability; ValueError if (n, k_mean, w_d) make no network."""
    if n < 2:
        raise ValueError("need at least two firms")
    if not 0.0 <= w_d < 1.0:
        raise ValueError("w_d must lie in [0, 1)")
    p = k_mean / (n - 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"k_mean {k_mean} gives edge probability {p} outside [0, 1]")
    return p


def er_network(n: int, k_mean: float, w_d: float, seed: int, d: float = 1.0) -> FirmNetwork:
    """One random debt network; equity holdings are zero."""
    adj = np.random.default_rng(seed).random((n, n)) < _edge_probability(n, k_mean, w_d)
    np.fill_diagonal(adj, False)
    return FirmNetwork(m_s=np.zeros((n, n)), m_d=_column_scaled(adj, w_d), d=np.full(n, d))
