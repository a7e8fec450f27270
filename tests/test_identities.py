"""rho and theta as exact functions of price, delta and vega.

The sampling map depends on (r, sigma, tau) only through r tau and
sigma_j sqrt(tau), and dA_T/dr = tau a dA_T/da, so for every claim or
portfolio i, draw by draw and hence in the means:

    rho_i   = tau (sum_j a_j Delta_ij - x_i)
    theta_i = -(r rho_i + 1/2 sum_j sigma_j Vega_ij) / tau

with x_i the price.  These are the network form of the Black-Scholes
relations between rho, theta, delta and vega.  They carry no Monte Carlo
error, so the bound is one of rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgreeks.experiments import ER_SWEEP_HEADER, ExperimentConfig, run_er_sweep
from netgreeks.gbm import GbmParams
from netgreeks.mc import mc_greeks
from netgreeks.symmetric import SymmetricParams, symmetric_greeks, symmetric_price

from helpers import MULTI_A0_SWEEP, random_correlation, random_network

# relative to the largest term on either side of an identity
ROUNDING = 1e-13


def _residuals(price, delta_a, vega_sigma, theta, rho, r, tau):
    """Relative residuals of the rho and theta identities.

    delta_a is sum_j a_j Delta_ij and vega_sigma sum_j sigma_j Vega_ij.
    """
    rho_want = tau * (delta_a - price)
    rho_scale = np.maximum.reduce([np.abs(rho), tau * np.abs(delta_a), tau * np.abs(price)])
    theta_want = -(r * rho + 0.5 * vega_sigma) / tau
    theta_scale = np.maximum.reduce([np.abs(theta), r * np.abs(delta_a), r * np.abs(price),
                                     np.abs(vega_sigma) / (2 * tau)])
    return (np.abs(rho - rho_want) / np.maximum(rho_scale, 1e-300),
            np.abs(theta - theta_want) / np.maximum(theta_scale, 1e-300))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       r=st.floats(0.01, 0.1), tau=st.floats(0.3, 3.0).filter(lambda t: abs(t - 1.0) > 0.05),
       weighted=st.booleans())
def test_greek_report_rho_and_theta_identities(seed, n, r, tau, weighted):
    # equity and debt holdings, correlated assets and per-firm sigma
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    a_t = rng.uniform(0.5, 2.0, n)
    sigma = rng.uniform(0.1, 0.7, n)
    gbm = GbmParams(a_t=a_t, sigma=sigma, r=r, tau=tau, corr=random_correlation(rng, n))
    weights = rng.normal(size=(3, 2 * n)) if weighted else None
    rep = mc_greeks(net, gbm, 400, seed=seed, weights=weights)
    rho_err, theta_err = _residuals(rep.price, rep.delta @ a_t, rep.vega @ sigma,
                                    rep.theta, rep.rho, r, tau)
    assert rho_err.max() <= ROUNDING and theta_err.max() <= ROUNDING, (rho_err, theta_err)


@pytest.mark.parametrize("w_s, w_d, a_t, sigma, r, tau", [
    (0.2, 0.4, 1.0, 0.4, 0.05, 2.0),
    (0.0, 0.6, 0.7, 0.3, 0.02, 0.5),
    (0.5, 0.1, 1.6, 0.6, 0.1, 1.3),
])
def test_symmetric_closed_forms_obey_the_identities(w_s, w_d, a_t, sigma, r, tau):
    # the common spot a_t moves every firm: sum_j a_j Delta_ij = a_t delta
    p = SymmetricParams(w_s=w_s, w_d=w_d, d=1.0, a_t=a_t, sigma=sigma, r=r, tau=tau)
    g = symmetric_greeks(p)
    price = np.array(symmetric_price(p))
    rho_err, theta_err = _residuals(
        price, a_t * np.array([g.delta_s, g.delta_r]), sigma * np.array([g.vega_s, g.vega_r]),
        np.array([g.theta_s, g.theta_r]), np.array([g.rho_s, g.rho_r]), r, tau)
    assert rho_err.max() <= ROUNDING and theta_err.max() <= ROUNDING, (rho_err, theta_err)


def test_er_sweep_rows_obey_the_identities():
    # every firm starts at a0, so sum_j a_j Delta_ij = a0 Delta_hat, per claim
    # class and for the total
    cfg = ExperimentConfig.from_dict(MULTI_A0_SWEEP)
    rows = np.array(run_er_sweep(cfg), dtype=float)
    col = {name: i for i, name in enumerate(ER_SWEEP_HEADER)}
    a0 = rows[:, col["a0"]]
    for claim, price in (("s", "s_price"), ("r", "r_price"), ("total", "v_price")):
        rho_err, theta_err = _residuals(
            rows[:, col[price]], a0 * rows[:, col[f"delta_{claim}_hat"]],
            cfg.sigma[0] * rows[:, col[f"vega_{claim}_hat"]], rows[:, col[f"theta_{claim}_hat"]],
            rows[:, col[f"rho_{claim}_hat"]], cfg.r, cfg.tau)
        assert rho_err.max() <= ROUNDING and theta_err.max() <= ROUNDING, (claim, rho_err,
                                                                           theta_err)
