"""Monte Carlo prices and Greeks against a deterministic quadrature oracle.

``helpers.quadrature_price`` integrates the fixed-point claims over a
Gauss-Hermite product grid, each node solved by plain Picard, so it shares
none of the sampling, chunking or moments of ``mc``.  The Greeks of the
oracle are central differences of its price on the same nodes.

The claims are kinked where a firm defaults, so the rule converges slowly:
on the n = 2 network below, doubling the nodes per axis from 75 to 150 and
from 150 to 300 moved the Greeks by up to 2.8e-3 and 5.0e-4, the prices by
7.8e-5 and 2.2e-5.  Each statistic's gate is therefore 3 standard errors
plus a floor: the largest change of that statistic's oracle from N/2 to N
nodes, which bounds the error at N nodes while it shrinks at that rate.
At these sizes the n = 2 gates catch a price 0.2 % high or a delta 1 % high,
but not a vega 2 % high.  On the n = 3 network, at 40 against 20 nodes, the
floors are 1.6e-4 (price), 7.3e-3 (delta) and 1.1e-2 (vega); the gates catch
every delta scaled by 1.0086 or 0.9922 and every vega by 1.0411 or 0.9361.
"""

from dataclasses import replace

import numpy as np

import netgreeks as ng
from netgreeks.gbm import GbmParams
from helpers import quadrature_price


def _quadrature_greeks(net, gbm, nodes, names, h=1e-4):
    """The oracle's statistics named in names: the price, or a central-difference
    delta, vega, theta or rho."""
    def price(**changes):
        return quadrature_price(net, replace(gbm, **changes), nodes)

    def diff(name, step):
        value = getattr(gbm, name)
        return (price(**{name: value + step}) - price(**{name: value - step})) / (2.0 * h)

    bumps = h * np.eye(gbm.n)
    oracle = {
        "price": price,
        "delta": lambda: np.column_stack([diff("a_t", e) for e in bumps]),
        "vega": lambda: np.column_stack([diff("sigma", e) for e in bumps]),
        "theta": lambda: -diff("tau", h),
        "rho": lambda: diff("r", h),
    }
    return {name: oracle[name]() for name in names}


def _assert_within_gate(name, estimate, se, fine, coarse):
    floor = np.abs(fine - coarse).max()
    err = np.abs(estimate - fine)
    assert np.all(err <= 3.0 * se + floor), (name, err, 3.0 * se, floor)


def test_greeks_match_the_quadrature_oracle_on_an_asymmetric_pair():
    # equity and debt held both ways in unequal shares, correlation 0.4
    net = ng.FirmNetwork(m_s=np.array([[0.0, 0.2], [0.3, 0.0]]),
                         m_d=np.array([[0.0, 0.4], [0.25, 0.0]]), d=np.array([1.0, 0.8]))
    gbm = GbmParams(a_t=[1.0, 0.9], sigma=[0.4, 0.3], r=0.02, tau=1.0,
                    corr=np.array([[1.0, 0.4], [0.4, 1.0]]))
    rep = ng.mc_greeks(net, gbm, 200_000, seed=5)
    names = ("price", "delta", "vega", "theta", "rho")
    fine, coarse = (_quadrature_greeks(net, gbm, nodes, names) for nodes in (150, 75))
    for name in fine:
        _assert_within_gate(name, getattr(rep, name), getattr(rep, f"{name}_se"),
                            fine[name], coarse[name])


def _three_firms():
    net = ng.FirmNetwork(m_s=np.array([[0.0, 0.2, 0.1], [0.3, 0.0, 0.0], [0.1, 0.1, 0.0]]),
                         m_d=np.array([[0.0, 0.4, 0.0], [0.25, 0.0, 0.3], [0.0, 0.2, 0.0]]),
                         d=np.array([1.0, 0.8, 1.2]))
    corr = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
    gbm = GbmParams(a_t=[1.0, 0.9, 1.3], sigma=[0.4, 0.3, 0.35], r=0.02, tau=1.0, corr=corr)
    return net, gbm


def test_prices_match_the_quadrature_oracle_on_three_firms():
    # 40 nodes per axis is 64,000 fixed points a price
    net, gbm = _three_firms()
    rep = ng.price_claims(net, gbm, 200_000, seed=5)
    _assert_within_gate("price", rep.price, rep.se, quadrature_price(net, gbm, 40),
                        quadrature_price(net, gbm, 20))


def test_greeks_match_the_quadrature_oracle_on_three_firms():
    # delta and vega take 12 prices; rho and theta follow exactly from price,
    # delta and vega (tests/test_identities.py), so they are left out
    net, gbm = _three_firms()
    rep = ng.mc_greeks(net, gbm, 200_000, seed=5)
    names = ("delta", "vega")
    fine, coarse = (_quadrature_greeks(net, gbm, nodes, names) for nodes in (40, 20))
    for name in names:
        _assert_within_gate(name, getattr(rep, name), getattr(rep, f"{name}_se"),
                            fine[name], coarse[name])
