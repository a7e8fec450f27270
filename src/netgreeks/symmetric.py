"""Closed forms for the fully symmetric exchangeable network.

With identical firms, identical pairwise holdings w_s/(n-1) and w_d/(n-1),
common debt d and a single asset value a, every firm is solvent or insolvent
together and the fixed point collapses to scalars:

    solvent (a > (1 - w_d) d):   s* = (a - (1 - w_d) d) / (1 - w_s),  r* = d
    insolvent:                   s* = 0,  r* = a / (1 - w_d)

Under lognormal terminal assets the time-t values are rescaled
Black-Scholes formulas with strike K = (1 - w_d) d: equity is an amplified
call, debt an amplified covered strike.  All Greeks follow in closed form,
which makes this family the exact oracle for the Monte Carlo engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blackscholes import call_price, d_pair, norm_cdf, norm_pdf
from .gbm import GbmParams
from .network import symmetric_network

__all__ = [
    "SymmetricParams",
    "SymmetricGreeks",
    "symmetric_expost",
    "symmetric_price",
    "symmetric_greeks",
    "symmetric_pi",
    "symmetric_mc_inputs",
]


@dataclass(frozen=True)
class SymmetricParams:
    """Shared parameters of the exchangeable network and its asset dynamics."""

    w_s: float
    w_d: float
    d: float
    a_t: float
    sigma: float
    r: float
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.w_s < 1.0 or not 0.0 <= self.w_d < 1.0:
            raise ValueError("holding fractions must lie in [0, 1)")
        if not self.d > 0.0 or not self.a_t > 0.0:
            raise ValueError("debt and asset value must be strictly positive")
        if not self.sigma > 0.0 or not self.tau > 0.0:
            raise ValueError("sigma and tau must be strictly positive")

    @property
    def strike(self) -> float:
        """Effective default boundary (1 - w_d) d."""
        return (1.0 - self.w_d) * self.d


@dataclass(frozen=True)
class SymmetricGreeks:
    delta_s: float
    delta_r: float
    vega_s: float
    vega_r: float
    theta_s: float
    theta_r: float
    rho_s: float
    rho_r: float


def symmetric_expost(a, p: SymmetricParams):
    """Ex-post per-firm equity, recovery and solvency at realized assets a.

    Vectorized in a.  The boundary a = (1 - w_d) d is counted insolvent;
    both branches meet there (s = 0, r = d), so the map is continuous.
    """
    a = np.asarray(a, dtype=float)
    solvent = a > p.strike
    s = np.where(solvent, (a - p.strike) / (1.0 - p.w_s), 0.0)
    r = np.where(solvent, p.d, a / (1.0 - p.w_d))
    xi = solvent.astype(float)
    if a.ndim == 0:
        return float(s), float(r), float(xi)
    return s, r, xi


def symmetric_price(p: SymmetricParams):
    """Time-t equity and debt values (s_t, r_t), probability-weighted form."""
    d_plus, d_minus = d_pair(p.a_t, p.strike, p.r, p.tau, p.sigma)
    disc_k = p.strike * np.exp(-p.r * p.tau)
    s_t = call_price(p.a_t, p.strike, p.r, p.tau, p.sigma) / (1.0 - p.w_s)
    r_t = (p.a_t * norm_cdf(-d_plus) + disc_k * norm_cdf(d_minus)) / (1.0 - p.w_d)
    return float(s_t), float(r_t)


def symmetric_greeks(p: SymmetricParams) -> SymmetricGreeks:
    """Closed-form delta, vega, theta, rho of (s_t, r_t).

    Delta is with respect to the common spot a_t, vega to the common sigma,
    theta is -d/d tau, rho is d/d r.  Deltas satisfy
    delta_s (1 - w_s) + delta_r (1 - w_d) = 1 and the vegas are equal and
    opposite after the same reweighting: cross-holdings redistribute the
    underlying asset's sensitivities between the two claim classes.
    """
    d_plus, d_minus = d_pair(p.a_t, p.strike, p.r, p.tau, p.sigma)
    k = p.strike
    disc_k = k * np.exp(-p.r * p.tau)
    sqrt_tau = np.sqrt(p.tau)
    pdf = norm_pdf(d_plus)
    ws = 1.0 - p.w_s
    wd = 1.0 - p.w_d

    theta_core = p.a_t * pdf * p.sigma / (2.0 * sqrt_tau)
    return SymmetricGreeks(
        delta_s=float(norm_cdf(d_plus) / ws),
        delta_r=float(norm_cdf(-d_plus) / wd),
        vega_s=float(p.a_t * pdf * sqrt_tau / ws),
        vega_r=float(-p.a_t * pdf * sqrt_tau / wd),
        theta_s=float(-(theta_core + p.r * disc_k * norm_cdf(d_minus)) / ws),
        theta_r=float((p.r * disc_k + theta_core - p.r * disc_k * norm_cdf(-d_minus)) / wd),
        rho_s=float(k * p.tau * np.exp(-p.r * p.tau) * norm_cdf(d_minus) / ws),
        rho_r=float(-k * p.tau * np.exp(-p.r * p.tau) * norm_cdf(d_minus) / wd),
    )


def symmetric_pi(p: SymmetricParams) -> float:
    """Closed-form systemic-value index for the exchangeable network.

    Measures the expected aggregate response of other firms' claims to a
    marginal terminal-asset shock; zero without cross-holdings, approaching
    w_s/(1 - w_s) when solvency is certain and 1/(1 - w_d) - 1 when default
    is certain.
    """
    _, d_minus = d_pair(p.a_t, p.strike, p.r, p.tau, p.sigma)
    return float(norm_cdf(d_minus) / (1.0 - p.w_s)
                 + norm_cdf(-d_minus) / (1.0 - p.w_d) - 1.0)


def symmetric_mc_inputs(p: SymmetricParams, n: int = 2):
    """Network and asset model whose Monte Carlo limit is the closed form.

    Uses n exchangeable firms with comonotone assets (all pairwise
    correlations one), so each draw realizes a single common asset value and
    the per-firm estimates match the scalar formulas.
    """
    net = symmetric_network(n, p.w_s, p.w_d, p.d)
    corr = np.ones((n, n))
    gbm = GbmParams(a_t=np.full(n, p.a_t), sigma=np.full(n, p.sigma),
                    r=p.r, tau=p.tau, corr=corr)
    return net, gbm
