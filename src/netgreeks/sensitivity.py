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

Writing A(xi) = I - B(xi), B(xi) = m_d + (m_s - m_d) diag(xi), gives
dv/da = sum_k B(xi)^k: an exposure-weighted chain of holdings whose Neumann
series accumulates the impact of a marginal asset change along every holding
path.  B(xi) is non-negative, and with every column sum of m_s and m_d
strictly below one the series converges.  Comparing two solvency patterns
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

from dataclasses import dataclass

import numpy as np

from .network import FirmNetwork, SolvencyVector, _ArrayEq

__all__ = [
    "SensitivityError",
    "ClaimsJacobian",
    "claims_sensitivity",
    "dxda_batch",
    "threat_index",
    "aggregate_impact",
    "outside_sensitivity",
]


class SensitivityError(RuntimeError):
    """Singular sensitivity system; admissibility was violated upstream."""


def _xi_array(xi, n: int) -> np.ndarray:
    if not isinstance(xi, SolvencyVector):
        xi = SolvencyVector(xi)
    if xi.n != n:
        raise ValueError(f"solvency vector has {xi.n} entries, expected {n}")
    return xi.xi


def _require_debt_only(net: FirmNetwork, what: str) -> None:
    if np.any(net.m_s != 0.0):
        raise ValueError(f"{what} is defined for pure debt cross-holdings (m_s = 0)")


def _system(net: FirmNetwork, xi_batch: np.ndarray) -> np.ndarray:
    """A(xi) for a (B, n) batch of 0/1 patterns -> (B, n, n).

    Column j holds m_s[:, j] when firm j is solvent and m_d[:, j] otherwise;
    selecting (not mixing) the columns keeps each entry exact.
    """
    solvent = xi_batch[:, None, :] == 1.0
    lhs = np.where(solvent, net.m_s, net.m_d)
    return np.subtract(np.eye(net.n), lhs, out=lhs)


def _solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError(f"singular sensitivity system: {exc}") from exc


def _portfolio_weights(weights, n: int) -> np.ndarray:
    """A (k, 2n) matrix of claim portfolios, one per row."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != 2 * n:
        raise ValueError(f"weights must be a (k, {2 * n}) matrix, got shape {weights.shape}")
    return weights


@dataclass(frozen=True, eq=False)
class ClaimsJacobian(_ArrayEq):
    """Sensitivities dx*/da (2n x n) at a fixed solvency pattern."""

    dxda: np.ndarray
    xi: np.ndarray

    @property
    def n(self) -> int:
        return self.dxda.shape[1]

    @property
    def u_s(self) -> np.ndarray:
        """Equity block ds*/da."""
        return self.dxda[: self.n]

    @property
    def u_d(self) -> np.ndarray:
        """Debt block dr*/da."""
        return self.dxda[self.n:]


def dxda_batch(net: FirmNetwork, xi_batch: np.ndarray, *, weights=None) -> np.ndarray:
    """Stacked dx*/da = (u_s; u_d) for a (B, n) batch of solvency patterns -> (B, 2n, n).

    With weights, a (k, 2n) matrix whose rows are claim portfolios, returns
    weights @ dx*/da -> (B, k, n) from one transposed solve with k
    right-hand sides per pattern instead of the full inverse.
    """
    xi_batch = np.asarray(xi_batch, dtype=float)
    lhs = _system(net, xi_batch)
    xi = xi_batch[:, :, None]
    if weights is None:
        dvda = _solve(lhs, np.broadcast_to(np.eye(net.n), lhs.shape))
        return np.concatenate([xi * dvda, (1.0 - xi) * dvda], axis=1)
    weights = _portfolio_weights(weights, net.n)
    w_s, w_d = weights[:, :net.n].T, weights[:, net.n:].T
    y = _solve(lhs.transpose(0, 2, 1), xi * w_s + (1.0 - xi) * w_d)
    return y.transpose(0, 2, 1)


def claims_sensitivity(net: FirmNetwork, xi) -> ClaimsJacobian:
    """dx*/da away from the default boundary, by one linear solve."""
    xi_arr = _xi_array(xi, net.n)
    return ClaimsJacobian(dxda=dxda_batch(net, xi_arr[None])[0], xi=xi_arr)


def _portfolio(net: FirmNetwork, xi, weights: np.ndarray) -> np.ndarray:
    """weights^T dx*/da for one claim portfolio at one pattern -> (n,)."""
    return dxda_batch(net, _xi_array(xi, net.n)[None], weights=weights[None])[0, 0]


def threat_index(net: FirmNetwork, xi) -> np.ndarray:
    """Marginal impact of firm-level asset injections on total debt recovery.

    Defined for pure debt networks (m_s = 0):

        mu^T = 1^T u_d = (1 - xi)^T A(xi)^{-1},

    i.e. the gradient of sum_i r*_i with respect to a.  Solvent firms score
    zero; an isolated insolvent firm scores one; holdings of distressed
    debt amplify the score along chains of distress.
    """
    _require_debt_only(net, "threat index")
    return _portfolio(net, xi, np.concatenate([np.zeros(net.n), np.ones(net.n)]))


def aggregate_impact(net: FirmNetwork, xi) -> np.ndarray:
    """Column sums 1^T dx*/da = 1^T A(xi)^{-1}: total claim-value response per asset shock."""
    return _portfolio(net, xi, np.ones(2 * net.n))


def outside_sensitivity(net: FirmNetwork, xi) -> np.ndarray:
    """Jacobian of outside-investor value in a; columns sum to one.

    Differentiating the conservation identity sum_i v_out_i = sum_i a_i
    forces each column sum to equal one exactly: a marginal unit of outside
    assets is redistributed, never created or destroyed.
    """
    jac = claims_sensitivity(net, xi)
    out_s = net.outside_fraction_s()
    out_d = net.outside_fraction_d()
    return out_s[:, None] * jac.u_s + out_d[:, None] * jac.u_d
