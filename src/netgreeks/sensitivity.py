"""Exact sensitivities of the valuation fixed point via implicit differentiation.

Away from the default boundary the fixed point is piecewise linear in the
external assets a.  Holding the solvency pattern xi fixed, s = diag(xi)(v - d)
and r = (I - diag(xi)) v + diag(xi) d, so the firm values v = a + m_s s + m_d r
solve one n x n linear system per pattern,

    A(xi) dv/da = I,   A(xi) = I - m_s diag(xi) - m_d (I - diag(xi)),

and every claim sensitivity is a projection of its solution:

    u_s = ds*/da = diag(xi) dv/da,   u_d = dr*/da = (I - diag(xi)) dv/da.

This is the fictitious-default system of Eisenberg & Noe (2001), extended to
equity cross-holdings.  A portfolio of claims with weights (w_s; w_d) needs
only one row of the solution, w_s^T u_s + w_d^T u_d = y^T with

    A(xi)^T y = diag(xi) w_s + (I - diag(xi)) w_d,

one transposed solve in place of the full inverse (the adjoint method of
Giles & Glasserman, 2006).

Only part of A(xi) needs a solve.  Column j of A(xi) is e_j - h_j, where
h_j = m_s[:, j] if firm j is solvent and m_d[:, j] if not.  Where h_j = 0
(every solvent firm of a pure-debt network, and every firm that nobody
holds) it is an identity column.  With J the live firms (h_j != 0), P the
rest and H the selected holdings, the adjoint system splits into

    y_P = c_P,   (I - H_JJ)^T y_J = c_J + H_PJ^T c_P,

the fictitious-default reduction to the default set (Eisenberg & Noe, 2001)
with the unheld firms folded in.  y depends on xi alone, so ``dxda_batch``
solves once per distinct pattern of a batch and stacks the live blocks of
equal size |J| into one LU.  The forward system A(xi) v = b, which
finishes the valuation fixed point (``fixpoint``), comes from the same
kernel: ``_forward_solve`` takes A(xi)^{-T} from one adjoint solve per
distinct pattern with c = I and gathers v^T = b^T A(xi)^{-T} draw by draw.
Every solve with A(xi) in the package runs inside ``_adjoint_solve``.

Writing A(xi) = I - B(xi), B(xi) = m_d + (m_s - m_d) diag(xi), gives
dv/da = sum_k B(xi)^k: an exposure-weighted chain of holdings whose Neumann
series accumulates the impact of a marginal asset change along every holding
path.  B(xi) is non-negative, and an admissible network has no closed
holding ring (``network.validate_network``), so B(xi) and each of its blocks
H_JJ have spectral radius below one: the series converges and every solve
above is nonsingular.  Comparing two solvency patterns
xi_lo <= xi_hi (more firms solvent) then gives three monotonicity results:

* if m_s >= m_d entrywise, u_s is entrywise non-decreasing in xi;
* if m_d >= m_s entrywise, u_d is entrywise non-increasing in xi;
* if m_s == m_d, both hold at once (B does not depend on xi).

The pure-debt (m_s = 0) and pure-equity (m_d = 0) networks are edge cases.
Without an ordering of m_s and m_d only the rows of the firms that flip are
signed: their u_s rows rise from zero and their u_d rows fall to zero.  The
joint entrywise statement is false in general: with m_d[0, 1] = 0.5 and
m_s = 0, solvent firm 0's equity responds to a_1 with 0.5 while firm 1 is
insolvent and with 0 once it is solvent (pinned in
``tests/test_sensitivity.py::test_cross_block_sensitivity_is_not_monotone_in_solvency``).
"""

from __future__ import annotations

import numpy as np

from .network import FirmNetwork

__all__ = ["SensitivityError", "dxda_batch"]


class SensitivityError(RuntimeError):
    """Singular sensitivity system; admissibility was violated upstream."""


def _require_debt_only(net: FirmNetwork, what: str) -> None:
    if np.any(net.m_s != 0.0):
        raise ValueError(f"{what} is defined for pure debt cross-holdings (m_s = 0)")


def _distinct_patterns(solvent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a (B, n) bool batch -> (solvent (U, n) bool, row -> pattern (B,)).

    Rows are keyed by their bits, zero-padded to whole 64-bit words and read
    as big-endian uint64 so that word order is bit order, and the keys sorted
    lexicographically: the distinct patterns and their order depend only on
    the set of rows, not on the order of the batch.
    """
    b, n = solvent.shape
    width = -(-n // 64)
    bits = np.zeros((b, 64 * width), dtype=bool)
    bits[:, :n] = solvent
    words = np.packbits(bits).view(">u8").reshape(b, width)
    # stable, so each pattern's first sorted row is its first row in the batch
    order = np.lexsort(words.T[::-1])
    words = words[order]
    starts = np.ones(b, dtype=bool)
    starts[1:] = np.any(words[1:] != words[:-1], axis=1)
    inverse = np.empty(b, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return solvent[order[starts]], inverse


def _solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError(f"singular sensitivity system: {exc}") from exc


def _live(net: FirmNetwork, solvent: np.ndarray) -> np.ndarray:
    """Live firms of U patterns, (U, n) bool: firm j is live where h_j != 0."""
    return np.where(solvent, np.any(net.m_s != 0.0, axis=0), np.any(net.m_d != 0.0, axis=0))


def _adjoint_solve(net: FirmNetwork, solvent: np.ndarray, c: np.ndarray) -> np.ndarray:
    """y = A(xi)^{-T} c for U distinct patterns: (U, n) bool, (U, n, k) -> (U, n, k).

    Only the live block J of each pattern is solved; its other rows are
    y_P = c_P.  Patterns are batched by |J|, one stacked LU per size, and a
    singular block is named by its pattern and live firms.
    """
    u, n, k = c.shape
    live = _live(net, solvent)
    # c_J + H_PJ^T c_P on the live rows, for every pattern at once
    c_p = np.where(live[:, :, None], 0.0, c).transpose(1, 0, 2).reshape(n, u * k)
    held_s, held_d = ((m.T @ c_p).reshape(n, u, k).transpose(1, 0, 2) for m in (net.m_s, net.m_d))
    rhs = c + np.where(solvent[:, :, None], held_s, held_d)
    y = c.copy()
    # firm j's column of m_d, then of m_s, as rows j and n + j, flattened
    h_t = np.concatenate([net.m_d.T, net.m_s.T]).ravel()
    size = live.sum(axis=1)
    for width in np.unique(size[size > 0]):
        patterns = np.flatnonzero(size == width)
        J = np.nonzero(live[patterns])[1].reshape(patterns.size, width)
        # lhs[g, a, b] = [a == b] - H[J_b, J_a], the block (I - H_JJ)^T
        start = (solvent[patterns[:, None], J] * n + J) * n
        lhs = -h_t[start[:, :, None] + J[:, None, :]]
        lhs[:, np.arange(width), np.arange(width)] += 1.0
        try:
            y[patterns[:, None], J] = _solve(lhs, rhs[patterns[:, None], J])
        except SensitivityError as exc:
            bad = int(np.argmin(np.abs(np.linalg.det(lhs))))
            pattern = "".join("1" if s else "0" for s in solvent[patterns[bad]])
            raise SensitivityError(f"{exc} at solvency pattern {pattern} "
                                   f"(live firms {J[bad].tolist()})") from exc
    return y


def _draw_last(y: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Per-pattern (U, p, q) results gathered by (B,) draw -> pattern: C-contiguous (q, p, B)."""
    return np.take(y.transpose(2, 1, 0), inverse, axis=2)


def _forward_solve(net: FirmNetwork, solvent: np.ndarray, inverse: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """v = A(xi)^{-1} b per draw: (U, n) bool patterns, (B,) draw -> pattern, (n, B) -> (n, B).

    v^T = b^T A(xi)^{-T}: one adjoint solve per distinct pattern with the
    identity on the right gives A(xi)^{-T}, each draw gathers its pattern's
    as an (n, n, B) slab, and the product sums along the leading axis.
    """
    eye = np.broadcast_to(np.eye(net.n), (len(solvent), net.n, net.n))
    a_inv_t = _draw_last(_adjoint_solve(net, solvent, eye).transpose(0, 2, 1), inverse)
    return (b[:, None, :] * a_inv_t).sum(axis=0)


def _portfolio_weights(weights, n: int) -> np.ndarray:
    """A (k, 2n) matrix of claim portfolios, one per row."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != 2 * n:
        raise ValueError(f"weights must be a (k, {2 * n}) matrix, got shape {weights.shape}")
    return weights


def dxda_batch(net: FirmNetwork, xi_batch: np.ndarray, *, weights=None) -> np.ndarray:
    """Stacked dx*/da = (u_s; u_d) for a (B, n) batch of solvency patterns -> (B, 2n, n).

    With weights, a (k, 2n) matrix whose rows are claim portfolios, returns
    weights @ dx*/da -> (B, k, n); without, weights = I_2n.  This is the one
    solve with A(xi): each distinct pattern of the batch gets one reduced
    adjoint solve A(xi)^T y = Xi w_s + (I - Xi) w_d with k right-hand sides
    on its live firms J (see the module docstring), and the rows of the
    batch gather their pattern's result.  The (B, k, n) result is a view of
    a C-contiguous draw-last (k, n, B) array, the layout the Monte Carlo
    chunk reduces in (``mc``).  A batch that is not (B, n) or has an entry
    other than 0 or 1 raises ValueError.
    """
    n = net.n
    weights = np.eye(2 * n) if weights is None else _portfolio_weights(weights, n)
    xi_batch = np.asarray(xi_batch, dtype=float)
    if xi_batch.ndim != 2 or xi_batch.shape[1] != n:
        raise ValueError(f"solvency batch must be a (B, {n}) array, got shape {xi_batch.shape}")
    solvent = xi_batch == 1.0
    other = ~(solvent | (xi_batch == 0.0))
    if other.any():
        raise ValueError(f"solvency batch entries must be 0 or 1, got {xi_batch[other][0]}")
    solvent, inverse = _distinct_patterns(solvent)
    c = np.where(solvent[:, :, None], weights[:, :n].T, weights[:, n:].T)
    return _draw_last(_adjoint_solve(net, solvent, c), inverse).transpose(2, 0, 1)
