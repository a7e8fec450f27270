"""Scale equivariance of the whole Monte Carlo pipeline, bit for bit.

Merton's claims are homogeneous of degree one in assets and debt.  Scaling
a_t, d and the solver's tol by a power of two scales every draw's terminal
assets, firm values, claims and residuals by exactly that factor, because a
power of two commutes with every rounding (away from overflow and
underflow).  The solvency patterns, the iteration counts and dx*/da do not
change.  So price, vega, theta and rho and their SEs scale exactly, and
delta, pi, default_prob and boundary_hits stay equal.  The check has no
Monte Carlo error: it catches any absolute constant slipped into the
pipeline, such as an absolute floor or a hard-coded d = 1.  Without scaling
tol the n = 60 cells move by a few ulps, since tol is an absolute bound.
"""

import numpy as np
import pytest

import netgreeks.sensitivity as sensitivity
from netgreeks.fixpoint import FixedPointConfig
from netgreeks.gbm import GbmParams
from netgreeks.mc import mc_greeks, price_claims
from netgreeks.network import FirmNetwork, er_network
from netgreeks.symmetric import SymmetricParams, symmetric_mc_inputs

from helpers import random_correlation, random_network

SCALED = ("price", "vega", "theta", "rho", "vega_uniform")
INVARIANT = ("delta", "delta_total", "delta_uniform", "pi", "default_prob")


def _scaled(net, gbm, cfg, factor):
    return (FirmNetwork(m_s=net.m_s, m_d=net.m_d, d=factor * net.d),
            GbmParams(a_t=factor * gbm.a_t, sigma=gbm.sigma, r=gbm.r, tau=gbm.tau,
                      corr=gbm.corr),
            FixedPointConfig(tol=factor * cfg.tol, max_iter=cfg.max_iter))


def _assert_equivariant(net, gbm, factor, draws, seed, weights=None, cfg=FixedPointConfig()):
    net2, gbm2, cfg2 = _scaled(net, gbm, cfg, factor)
    base = mc_greeks(net, gbm, draws, seed, cfg, weights=weights)
    rep = mc_greeks(net2, gbm2, draws, seed, cfg2, weights=weights)
    for name in SCALED:
        for field in (name, f"{name}_se"):
            np.testing.assert_array_equal(getattr(rep, field), factor * getattr(base, field),
                                          err_msg=field)
    for name in INVARIANT:
        for field in (name, f"{name}_se"):
            np.testing.assert_array_equal(getattr(rep, field), getattr(base, field),
                                          err_msg=field)
    assert rep.boundary_hits == base.boundary_hits
    base = price_claims(net, gbm, draws, seed, cfg)
    res = price_claims(net2, gbm2, draws, seed, cfg2)
    np.testing.assert_array_equal(res.price, factor * base.price)
    np.testing.assert_array_equal(res.se, factor * base.se)
    assert res.boundary_hits == base.boundary_hits


@pytest.mark.parametrize("factor", [2.0, 0.25])
@pytest.mark.parametrize("seed", range(21))
def test_random_networks_scale_exactly(seed, factor):
    # equity and debt holdings, correlated assets, per-firm a_t and sigma,
    # n = 2..8, r != 0 so the discount after the merge is covered
    rng = np.random.default_rng(100 + seed)
    n = 2 + seed % 7
    net = random_network(rng, n)
    gbm = GbmParams(a_t=rng.uniform(0.5, 2.0, n), sigma=rng.uniform(0.1, 0.7, n), r=0.03,
                    tau=1.3, corr=random_correlation(rng, n))
    weights = rng.normal(size=(3, 2 * n)) if seed % 2 else None
    _assert_equivariant(net, gbm, factor, 1500, seed, weights=weights)


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("k_mean, w_d, a0", [(3.0, 0.6, 1.0), (2.0, 0.6, 1.2)])
def test_weighted_er_cells_scale_exactly(monkeypatch, k_mean, w_d, a0, factor):
    # er-sweep's two firm-average portfolios at n = 60 and 700 draws (two
    # chunks): dx*/da's k = 2 solves run both the sweeps and the stacked LU
    paths = set()
    for name, y_arg in (("_sweep_solve", 2), ("_factor_solve", 3)):
        real = getattr(sensitivity, name)

        def spy(*args, _real=real, _name=name, _y=y_arg):
            if args[_y].shape[1] == 2:
                paths.add(_name)
            return _real(*args)

        monkeypatch.setattr(sensitivity, name, spy)
    n = 60
    net = er_network(n, k_mean, w_d, seed=11)
    gbm = GbmParams(a_t=np.full(n, a0), sigma=np.full(n, 0.4), r=0.03, tau=1.3, corr=np.eye(n))
    weights = np.kron(np.eye(2), np.full((1, n), 1.0 / n))
    _assert_equivariant(net, gbm, factor, 700, 5, weights=weights)
    assert paths == {"_sweep_solve", "_factor_solve"}


@pytest.mark.parametrize("w_s, w_d, a_t", [(0.2, 0.3, 1.0), (0.0, 0.6, 0.8), (0.4, 0.1, 1.3)])
def test_polished_symmetric_cells_scale_exactly(w_s, w_d, a_t):
    # comonotone assets give a few solvency patterns per chunk: the polish runs
    p = SymmetricParams(w_s=w_s, w_d=w_d, d=1.0, a_t=a_t, sigma=0.3, r=0.05, tau=1.5)
    net, gbm = symmetric_mc_inputs(p, n=2)
    _assert_equivariant(net, gbm, 2.0, 8192, 3)
