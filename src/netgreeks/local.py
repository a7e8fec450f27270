"""Single-firm structural approximations for pure debt networks.

Instead of valuing the whole network jointly, each firm is treated as a
standalone structural-model firm whose assets include the market value of
its debt holdings, priced as debt minus a put on the counterparty's own
(approximate) firm value.  This ignores the correlation that cross-holdings
induce between firm values, so the resulting contagion sensitivities are a
local, independence-based approximation to the exact network quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blackscholes import d_pair, norm_cdf, put_delta, put_price
from .fixpoint import ConvergenceError, FixedPointConfig, DEFAULT_CONFIG
from .network import FirmNetwork, _ArrayEq
from .sensitivity import _solve

__all__ = [
    "LocalValuationState",
    "local_fixed_point",
    "local_delta",
    "marginal_contagion",
    "independent_default_delta",
]


def _require_debt_only(net: FirmNetwork) -> None:
    if np.any(net.m_s != 0.0):
        raise ValueError("local approximation is defined for pure debt cross-holdings (m_s = 0)")


def _extended(fn, spot, strike, r, tau, vol, defaulted):
    """fn(spot, strike, r, tau, vol) where spot > 0, else its certain-default value.

    Put-adjusted firm values may reach zero or below; there the option
    quantity has its continuous limit `defaulted`.
    """
    spot = np.asarray(spot, dtype=float)
    value = fn(np.maximum(spot, 1e-300), strike, r, tau, vol)
    return np.where(spot > 0.0, value, defaulted)


def _default_prob(spot, strike, r, tau, vol):
    _, d_minus = d_pair(spot, strike, r, tau, vol)
    return norm_cdf(-d_minus)


def _probabilities(pd) -> np.ndarray:
    pd = np.asarray(pd, dtype=float)
    if np.any((pd < 0.0) | (pd > 1.0)):
        raise ValueError("default probabilities must lie in [0, 1]")
    return pd


@dataclass(frozen=True, eq=False)
class LocalValuationState(_ArrayEq):
    """Converged per-firm equity, default probability and firm volatility."""

    equity: np.ndarray
    pd: np.ndarray
    firm_vol: np.ndarray
    r: float
    tau: float


def _checked_firm_vol(net: FirmNetwork, firm_vol, tau: float) -> np.ndarray:
    """Check what the local valuation needs; returns firm_vol, one per firm.

    The network must be pure debt, firm_vol one value or one per firm, and
    every volatility and tau finite and strictly positive.
    """
    _require_debt_only(net)
    firm_vol = np.asarray(firm_vol, dtype=float)
    if firm_vol.size not in (1, net.n):
        raise ValueError(f"firm volatilities: expected 1 or {net.n} values, got {firm_vol.size}")
    firm_vol = np.broadcast_to(firm_vol, (net.n,)).copy()
    if not (np.all(np.isfinite(firm_vol) & (firm_vol > 0.0)) and 0.0 < tau < np.inf):
        raise ValueError("firm volatilities and tau must be finite and strictly positive")
    return firm_vol


def local_fixed_point(net: FirmNetwork, a_t, r: float, tau: float, firm_vol,
                      cfg: FixedPointConfig = DEFAULT_CONFIG) -> LocalValuationState:
    """Self-consistent standalone equity values with put-adjusted holdings.

    Iterates E_i = a_i + sum_j m_d_ij (d_j - P(E_j + d_j, d_j)) - d_i, where
    P is a European put on counterparty firm value E_j + d_j struck at its
    debt, with the counterparty's firm volatility.  Equity may go negative
    here; it is a book value, not a limited-liability claim.
    """
    firm_vol = _checked_firm_vol(net, firm_vol, tau)
    a_t = np.asarray(a_t, dtype=float)
    d = net.d
    equity = a_t - d
    for _ in range(cfg.max_iter):
        spot = equity + d
        put = _extended(put_price, spot, d, r, tau, firm_vol, d * np.exp(-r * tau) - spot)
        new = a_t + net.m_d @ (d - put) - d
        resid = np.abs(new - equity).max()
        if resid <= cfg.tol:
            pd = _extended(_default_prob, new + d, d, r, tau, firm_vol, 1.0)
            return LocalValuationState(equity=new, pd=pd, firm_vol=firm_vol,
                                       r=float(r), tau=float(tau))
        equity = new
    raise ConvergenceError(
        f"local valuation did not converge in {cfg.max_iter} iterations "
        f"(residual {resid:.3e})")


def local_delta(state: LocalValuationState, net: FirmNetwork) -> np.ndarray:
    """Equity response dE/da from the local valuation, (I + m_d diag(put_delta))^{-1}.

    put_delta lies in [-1, 0], so the correction term propagates losses from
    counterparties in distress while staying near the identity when every
    counterparty is safe.
    """
    _require_debt_only(net)
    pdelta = _extended(put_delta, state.equity + net.d, net.d, state.r, state.tau,
                       state.firm_vol, -1.0)
    return _solve(np.eye(net.n) + net.m_d * pdelta[None, :], np.eye(net.n))


def marginal_contagion(net: FirmNetwork, pd, shock) -> np.ndarray:
    """Expected loss propagation (I - m_d diag(pd))^{-1} shock.

    Amplifies an initial loss vector through debt holdings, counting a
    holding only when the issuer defaults (probability pd, treated as
    independent across firms).
    """
    _require_debt_only(net)
    pd = _probabilities(pd)
    return _solve(np.eye(net.n) - net.m_d * pd[None, :], np.asarray(shock, dtype=float))


def independent_default_delta(net: FirmNetwork, pd) -> np.ndarray:
    """Approximate debt-recovery sensitivity (I - diag(pd) m_d)^{-1} diag(pd).

    Replaces the random solvency pattern by independent marginals: exact
    whenever each pd_i is 0 or 1 (deterministic pattern), an approximation
    otherwise because joint defaults are correlated through the network.
    """
    _require_debt_only(net)
    pd = _probabilities(pd)
    return _solve(np.eye(net.n) - pd[:, None] * net.m_d, np.diag(pd))
