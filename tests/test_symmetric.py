"""Closed-form symmetric oracle: branch solution, prices, Greeks, pi."""

import dataclasses

import numpy as np
import pytest

from netgreeks.blackscholes import call_price, d_pair, norm_cdf, put_price
from netgreeks.symmetric import (
    SymmetricGreeks,
    SymmetricParams,
    symmetric_expost,
    symmetric_greeks,
    symmetric_mc_inputs,
    symmetric_pi,
    symmetric_price,
)


# --- independent oracle routes ------------------------------------------------

def d_pm(p: SymmetricParams):
    """Black-Scholes (d_plus, d_minus) at the effective strike (1 - w_d) d."""
    return d_pair(p.a_t, p.strike, p.r, p.tau, p.sigma)


def symmetric_price_bs(p: SymmetricParams):
    """Same prices as amplified Black-Scholes claims on the asset.

    Equity is 1/(1 - w_s) calls struck at K = (1 - w_d) d; debt is
    (discounted K minus a put) scaled by 1/(1 - w_d).  Agrees with
    symmetric_price to floating precision; kept as an independent route.
    """
    k = p.strike
    call = call_price(p.a_t, k, p.r, p.tau, p.sigma)
    put = put_price(p.a_t, k, p.r, p.tau, p.sigma)
    s_t = call / (1.0 - p.w_s)
    r_t = (k * np.exp(-p.r * p.tau) - put) / (1.0 - p.w_d)
    return float(s_t), float(r_t)


def delta_rho_conditional(p: SymmetricParams):
    """Delta and rho assembled from solvency-conditioned expectations.

    Independent derivation route: split the payoff expectation by the
    terminal solvency event, using
    E[A_T 1{solvent}] = a_t e^{r tau} Phi(d_plus) and its complement.
    Returns (delta_s, delta_r, rho_s, rho_r); agrees with symmetric_greeks
    to floating precision.
    """
    d_plus, d_minus = d_pm(p)
    disc = np.exp(-p.r * p.tau)
    # undiscounted conditional masses: E[A_T; solvent], E[A_T; insolvent]
    mass_solvent = p.a_t * np.exp(p.r * p.tau) * norm_cdf(d_plus)
    mass_insolvent = p.a_t * np.exp(p.r * p.tau) * norm_cdf(-d_plus)
    prob_solvent = norm_cdf(d_minus)

    delta_s = disc * mass_solvent / (p.a_t * (1.0 - p.w_s))
    delta_r = disc * mass_insolvent / (p.a_t * (1.0 - p.w_d))

    s_fwd = (mass_solvent - p.strike * prob_solvent) / (1.0 - p.w_s)
    r_fwd = (mass_insolvent + (1.0 - p.w_d) * p.d * prob_solvent) / (1.0 - p.w_d)
    rho_s = -p.tau * disc * s_fwd + p.tau * disc * mass_solvent / (1.0 - p.w_s)
    rho_r = -p.tau * disc * r_fwd + p.tau * disc * mass_insolvent / (1.0 - p.w_d)
    return float(delta_s), float(delta_r), float(rho_s), float(rho_r)


def _p(w_s=0.2, w_d=0.4, d=1.0, a_t=1.0, sigma=0.4, r=0.0, tau=1.0):
    return SymmetricParams(w_s=w_s, w_d=w_d, d=d, a_t=a_t, sigma=sigma,
                           r=r, tau=tau)


PARAM_GRID = [
    _p(),
    _p(w_s=0.0, w_d=0.0),
    _p(w_s=0.6, w_d=0.2, a_t=0.4, sigma=0.1),
    _p(w_s=0.4, w_d=0.6, a_t=1.6, sigma=0.4, r=0.05, tau=2.0),
    _p(w_s=0.0, w_d=0.6, a_t=0.7, sigma=0.8, r=-0.01, tau=0.5),
]


def test_params_validation():
    with pytest.raises(ValueError):
        _p(w_s=1.0)
    with pytest.raises(ValueError):
        _p(w_d=-0.1)
    with pytest.raises(ValueError):
        _p(sigma=0.0)
    with pytest.raises(ValueError):
        _p(a_t=0.0)


# --- ex-post branches ---------------------------------------------------------

def test_expost_merton_payoffs():
    p = _p(w_s=0.0, w_d=0.0)
    s, r, xi = symmetric_expost(1.4, p)
    assert (s, r, xi) == (pytest.approx(0.4), 1.0, 1.0)
    s, r, xi = symmetric_expost(0.7, p)
    assert (s, r, xi) == (0.0, pytest.approx(0.7), 0.0)


def test_expost_insolvent_amplification():
    s, r, xi = symmetric_expost(0.5, _p(w_s=0.0, w_d=0.4))
    assert s == 0.0 and xi == 0.0
    assert r == pytest.approx(0.5 / 0.6)


def test_expost_solvent_branch():
    s, r, xi = symmetric_expost(1.2, _p(w_s=0.2, w_d=0.4))
    assert s == pytest.approx((1.2 - 0.6) / 0.8)  # 0.75
    assert r == 1.0 and xi == 1.0


def test_expost_continuous_at_boundary():
    p = _p(w_s=0.3, w_d=0.4)
    k = p.strike
    below = symmetric_expost(k - 1e-12, p)
    at = symmetric_expost(k, p)
    above = symmetric_expost(k + 1e-12, p)
    assert at[2] == 0.0  # boundary counted insolvent
    assert abs(below[0] - above[0]) < 1e-11
    assert abs(below[1] - above[1]) < 1e-11
    assert at[1] == pytest.approx(p.d)


def test_expost_vectorized():
    p = _p()
    a = np.array([0.2, 0.6, 1.5])
    s, r, xi = symmetric_expost(a, p)
    assert s.shape == r.shape == xi.shape == (3,)
    np.testing.assert_array_equal(xi, [0.0, 0.0, 1.0])


# --- d_pm ---------------------------------------------------------------------

def test_d_pm_at_the_money_merton():
    d_plus, d_minus = d_pm(_p(w_s=0.0, w_d=0.0))
    assert d_plus == pytest.approx(0.2, abs=1e-15)
    assert d_minus == pytest.approx(-0.2, abs=1e-15)


def test_d_pm_at_default_boundary():
    p = _p(w_s=0.1, w_d=0.4, a_t=0.6, r=0.0, sigma=0.3, tau=4.0)
    assert p.a_t == pytest.approx(p.strike)
    d_plus, d_minus = d_pm(p)
    assert d_plus == pytest.approx(0.3)   # sigma sqrt(tau) / 2
    assert d_minus == pytest.approx(-0.3)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_d_pm_spread_identity(p):
    d_plus, d_minus = d_pm(p)
    assert d_plus - d_minus == pytest.approx(p.sigma * np.sqrt(p.tau), rel=1e-14)


# --- prices -------------------------------------------------------------------

def test_price_merton_reference():
    s_t, r_t = symmetric_price(_p(w_s=0.0, w_d=0.0))
    assert s_t == pytest.approx(0.15851941887820603, abs=1e-14)
    assert r_t == pytest.approx(1.0 - 0.15851941887820603, abs=1e-14)
    assert s_t + r_t == pytest.approx(1.0, abs=1e-14)  # parity at r=0


@pytest.mark.parametrize("p", PARAM_GRID)
def test_price_two_routes_agree(p):
    phi_form = symmetric_price(p)
    bs_form = symmetric_price_bs(p)
    assert phi_form[0] == pytest.approx(bs_form[0], abs=1e-12)
    assert phi_form[1] == pytest.approx(bs_form[1], abs=1e-12)


def test_price_deep_in_the_money_limit():
    p = _p(w_s=0.2, w_d=0.4, a_t=50.0)
    s_t, r_t = symmetric_price(p)
    assert s_t == pytest.approx((50.0 - 0.6) / 0.8, rel=1e-12)
    assert r_t == pytest.approx(1.0, rel=1e-12)


def test_price_deterministic_insolvent_limit():
    p = _p(w_s=0.0, w_d=0.4, a_t=0.5, sigma=1e-8, r=0.0)
    s_t, r_t = symmetric_price(p)
    assert s_t == pytest.approx(0.0, abs=1e-15)
    assert r_t == pytest.approx(0.5 / 0.6, rel=1e-12)


# --- Greeks -------------------------------------------------------------------

@pytest.mark.parametrize("p", PARAM_GRID)
def test_greeks_match_finite_differences(p):
    g = symmetric_greeks(p)
    h = 1e-6

    def price(**kw):
        fields = dict(w_s=p.w_s, w_d=p.w_d, d=p.d, a_t=p.a_t,
                      sigma=p.sigma, r=p.r, tau=p.tau)
        fields.update(kw)
        return symmetric_price(SymmetricParams(**fields))

    for i, (name, got) in enumerate((("a_t", (g.delta_s, g.delta_r)),
                                     ("sigma", (g.vega_s, g.vega_r)),
                                     ("r", (g.rho_s, g.rho_r)),
                                     ("tau", (g.theta_s, g.theta_r)))):
        base = getattr(p, name)
        up = price(**{name: base + h})
        dn = price(**{name: base - h})
        fd_s = (up[0] - dn[0]) / (2 * h)
        fd_r = (up[1] - dn[1]) / (2 * h)
        if name == "tau":          # theta reported as -d/dtau
            fd_s, fd_r = -fd_s, -fd_r
        assert got[0] == pytest.approx(fd_s, rel=1e-6, abs=1e-9), name
        assert got[1] == pytest.approx(fd_r, rel=1e-6, abs=1e-9), name


@pytest.mark.parametrize("p", PARAM_GRID)
def test_delta_identity(p):
    g = symmetric_greeks(p)
    assert g.delta_s * (1 - p.w_s) + g.delta_r * (1 - p.w_d) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_vega_and_theta_transfer(p):
    # volatility and horizon move value between the claim classes without
    # creating any: the reweighted sensitivities cancel exactly
    g = symmetric_greeks(p)
    assert g.vega_s * (1 - p.w_s) == pytest.approx(-g.vega_r * (1 - p.w_d), rel=1e-12)
    assert g.theta_s * (1 - p.w_s) == pytest.approx(-g.theta_r * (1 - p.w_d), rel=1e-12)


def test_firm_vega_sign_tracks_holding_imbalance():
    for w_s, w_d, sign in ((0.6, 0.2, 1.0), (0.2, 0.6, -1.0)):
        g = symmetric_greeks(_p(w_s=w_s, w_d=w_d))
        assert np.sign(g.vega_s + g.vega_r) == sign
    g = symmetric_greeks(_p(w_s=0.3, w_d=0.3))
    assert g.vega_s + g.vega_r == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_conditional_expectation_route(p):
    g = symmetric_greeks(p)
    delta_s, delta_r, rho_s, rho_r = delta_rho_conditional(p)
    assert delta_s == pytest.approx(g.delta_s, abs=1e-12)
    assert delta_r == pytest.approx(g.delta_r, abs=1e-12)
    assert rho_s == pytest.approx(g.rho_s, abs=1e-12)
    assert rho_r == pytest.approx(g.rho_r, abs=1e-12)


def test_greeks_as_dict_round_trip():
    g = symmetric_greeks(_p())
    d = dataclasses.asdict(g)
    assert SymmetricGreeks(**d) == g


# --- pi -----------------------------------------------------------------------

def test_pi_vanishes_without_cross_holdings():
    assert symmetric_pi(_p(w_s=0.0, w_d=0.0)) == pytest.approx(0.0, abs=1e-15)


def test_pi_certain_solvency_limit():
    p = _p(w_s=0.2, w_d=0.4, a_t=100.0)
    assert symmetric_pi(p) == pytest.approx(1.0 / 0.8 - 1.0, rel=1e-12)


def test_pi_certain_default_limit():
    p = _p(w_s=0.2, w_d=0.4, a_t=0.01)
    assert symmetric_pi(p) == pytest.approx(1.0 / 0.6 - 1.0, rel=1e-9)


# --- MC representation ---------------------------------------------------------

def test_mc_inputs_structure():
    p = _p(w_s=0.2, w_d=0.4, d=2.0)
    net, gbm = symmetric_mc_inputs(p, n=3)
    assert net.n == gbm.n == 3
    np.testing.assert_allclose(net.m_s[0, 1], 0.1)
    np.testing.assert_allclose(net.m_d[0, 1], 0.2)
    np.testing.assert_array_equal(np.diag(net.m_s), 0.0)
    np.testing.assert_array_equal(gbm.corr, np.ones((3, 3)))
    np.testing.assert_array_equal(gbm.a_t, p.a_t)
