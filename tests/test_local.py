"""Single-firm (local) approximations on debt-only networks."""

import numpy as np
import pytest

import netgreeks as ng
from netgreeks.fixpoint import ConvergenceError, FixedPointConfig
from netgreeks.local import (
    LocalValuationState,
    independent_default_delta,
    local_delta,
    local_fixed_point,
    marginal_contagion,
)

from helpers import dxda_at, random_network


def _debt_net(m_d):
    m_d = np.asarray(m_d, dtype=float)
    return ng.FirmNetwork(m_s=np.zeros_like(m_d), m_d=m_d, d=np.ones(len(m_d)))


def test_rejects_equity_holdings():
    net = ng.symmetric_network(3, 0.2, 0.3)
    with pytest.raises(ValueError, match="debt"):
        local_fixed_point(net, np.ones(3), 0.0, 1.0, 0.3)
    with pytest.raises(ValueError, match="debt"):
        marginal_contagion(net, np.zeros(3), np.ones(3))


def test_rejects_bad_inputs():
    net = _debt_net(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        local_fixed_point(net, np.ones(2), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        local_fixed_point(net, np.ones(2), 0.0, -1.0, 0.3)
    with pytest.raises(ValueError, match="probabilities"):
        marginal_contagion(net, np.array([0.5, 1.5]), np.ones(2))
    with pytest.raises(ValueError, match="probabilities"):
        independent_default_delta(net, np.array([-0.1, 0.5]))


# --- local fixed point --------------------------------------------------------

def test_isolated_firms_have_book_equity():
    net = _debt_net(np.zeros((3, 3)))
    a_t = np.array([1.5, 0.8, 2.0])
    state = local_fixed_point(net, a_t, 0.02, 1.0, 0.3)
    np.testing.assert_allclose(state.equity, a_t - 1.0, atol=1e-12)
    assert state.pd.shape == (3,)
    assert np.all((state.pd >= 0) & (state.pd <= 1))


def test_vanishing_volatility_safe_counterparties():
    # counterparties far from default, vol -> 0: puts are worthless and debt
    # holdings enter at face value (r = 0)
    net = _debt_net([[0.0, 0.4], [0.3, 0.0]])
    a_t = np.array([3.0, 2.5])
    state = local_fixed_point(net, a_t, 0.0, 1.0, 1e-8)
    np.testing.assert_allclose(state.equity, a_t + net.m_d @ net.d - 1.0,
                               atol=1e-9)
    np.testing.assert_allclose(state.pd, 0.0, atol=1e-12)


def test_distressed_counterparty_marks_holding_to_firm_value():
    # firm 2 far underwater: the put strips the holding down to E_2 + d_2
    net = _debt_net([[0.0, 0.5], [0.0, 0.0]])
    a_t = np.array([2.0, 0.2])
    state = local_fixed_point(net, a_t, 0.0, 1.0, 1e-8)
    np.testing.assert_allclose(state.equity[1], -0.8, atol=1e-9)
    np.testing.assert_allclose(state.equity[0], 2.0 + 0.5 * 0.2 - 1.0, atol=1e-8)
    assert state.pd[1] == pytest.approx(1.0, abs=1e-12)


def test_nonconvergence_raises():
    net = _debt_net([[0.0, 0.9], [0.9, 0.0]])
    cfg = FixedPointConfig(tol=1e-12, max_iter=1)
    with pytest.raises(ConvergenceError):
        local_fixed_point(net, np.array([1.0, 1.0]), 0.0, 1.0, 0.5, cfg)


# --- local delta ----------------------------------------------------------------

def _state(equity, net, vol=0.3, r=0.0, tau=1.0):
    equity = np.asarray(equity, dtype=float)
    return LocalValuationState(equity=equity, pd=np.zeros_like(equity),
                               firm_vol=np.full(len(equity), vol), r=r, tau=tau)


def test_local_delta_no_holdings_is_identity():
    net = _debt_net(np.zeros((3, 3)))
    state = local_fixed_point(net, np.full(3, 1.5), 0.0, 1.0, 0.3)
    np.testing.assert_allclose(local_delta(state, net), np.eye(3), atol=1e-12)


def test_local_delta_safe_limit_is_identity():
    net = _debt_net([[0.0, 0.4], [0.3, 0.0]])
    out = local_delta(_state([1e6, 1e6], net), net)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-9)


def test_local_delta_distress_limit_matches_insolvent_network():
    # put deltas of -1 everywhere turn the correction into (I - m_d)^{-1},
    # the all-insolvent exact sensitivity
    m_d = np.array([[0.0, 0.4], [0.3, 0.0]])
    net = _debt_net(m_d)
    out = local_delta(_state([-5.0, -5.0], net), net)
    np.testing.assert_allclose(out, np.linalg.inv(np.eye(2) - m_d), atol=1e-12)


# --- marginal contagion ---------------------------------------------------------

def test_marginal_contagion_no_defaults_passes_shock_through():
    net = _debt_net([[0.0, 0.4], [0.3, 0.0]])
    shock = np.array([1.0, 2.0])
    np.testing.assert_allclose(marginal_contagion(net, np.zeros(2), shock),
                               shock, atol=1e-15)


def test_marginal_contagion_symmetric_certain_default():
    net = ng.symmetric_network(3, 0.0, 0.4)
    out = marginal_contagion(net, np.ones(3), np.ones(3))
    np.testing.assert_allclose(out, 1.0 / 0.6, rtol=1e-12)


def test_marginal_contagion_matrix_shock():
    # identity shock returns the full amplification matrix
    net = _debt_net([[0.0, 0.5], [0.0, 0.0]])
    out = marginal_contagion(net, np.array([1.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(out, [[1.0, 0.5], [0.0, 1.0]], atol=1e-14)


# --- independent-defaults sensitivity --------------------------------------------

def test_independent_delta_no_holdings():
    net = _debt_net(np.zeros((3, 3)))
    pd = np.array([0.2, 0.7, 1.0])
    np.testing.assert_allclose(independent_default_delta(net, pd), np.diag(pd),
                               atol=1e-15)


def test_independent_delta_zero_pd_is_zero():
    net = _debt_net([[0.0, 0.4], [0.3, 0.0]])
    np.testing.assert_allclose(independent_default_delta(net, np.zeros(2)),
                               np.zeros((2, 2)), atol=1e-15)


def test_independent_delta_exact_at_deterministic_pd():
    # with pd in {0,1} the independence assumption is vacuous and the formula
    # reproduces the exact recovery sensitivity at xi = 1 - pd
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n, cap=0.9, debt_only=True)
        pd = (rng.random(n) < 0.5).astype(float)
        approx = independent_default_delta(net, pd)
        exact = dxda_at(net, 1.0 - pd)[n:]
        np.testing.assert_allclose(approx, exact, atol=1e-12)


def test_symmetric_uniform_pd_aggregates_collapse():
    # equal row and column sums with uniform pd: both approximations reduce
    # to the scalar amplification 1/(1 - pd w_d)
    net = ng.symmetric_network(4, 0.0, 0.6)
    pd = np.full(4, 0.5)
    amp = 1.0 / (1.0 - 0.5 * 0.6)
    np.testing.assert_allclose(marginal_contagion(net, pd, np.ones(4)), amp,
                               rtol=1e-12)
    np.testing.assert_allclose(independent_default_delta(net, pd) @ np.ones(4),
                               0.5 * amp, rtol=1e-12)


def test_asymmetric_chain_ranks_firms_differently():
    # directed chain 1 -> 2 -> 3 (1 holds 2's debt, 2 holds 3's) with
    # heterogeneous pd: marginal contagion spreads along holdings and peaks
    # at the middle firm, the independent-defaults aggregate is gated by own
    # default risk and peaks at the end of the chain
    m_d = np.zeros((3, 3))
    m_d[0, 1] = 0.5
    m_d[1, 2] = 0.5
    net = _debt_net(m_d)
    pd = np.array([0.2, 0.5, 0.8])
    mc = marginal_contagion(net, pd, np.ones(3))
    idd = independent_default_delta(net, pd) @ np.ones(3)
    np.testing.assert_allclose(mc, [1.35, 1.4, 1.0], atol=1e-12)
    np.testing.assert_allclose(idd, [0.27, 0.7, 0.8], atol=1e-12)
    assert int(np.argmax(mc)) != int(np.argmax(idd))
