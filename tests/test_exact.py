"""The solver and dx*/da against exact rational arithmetic.

For n <= 5 every one of the 2^n solvency patterns is solved in Fractions
from the exact binary values of the floats (``helpers.exact_fixed_points``).
The bounds use exact norms:

* the solver's v.  A returned iterate x = g(x_prev) with ||g(x) - x|| <= tol,
  x_prev in the pattern xi of the fixed point, has v - v* = (A(xi)^{-1} - I)
  delta with |delta| <= tol, so |v - v*| <= tol ||A(xi)^{-1}||_inf.
  Rounding adds ||A(xi)^{-1}||_inf 4 (2n + 1) eps (||v*|| + ||d||): one map
  evaluation sums 2n + 1 non-negative terms, its residual test subtracts d,
  and the factor 4 is twice what the two need;
* dx*/da = C A(xi)^{-1}, with C = (Xi; I - Xi), or C = W_s Xi + W_d (I - Xi)
  for a weight matrix W = (W_s, W_d): a backward-stable n x n solve is
  within n eps kappa_inf(A) max(|C| |A^{-1}|) to first order, and the bound
  is four times that.

Networks with holdings in multiples of 1/16 and debts and assets in
multiples of 1/8 are exact in binary, so a tie v_i = d_i and a holding ring
whose claims add to exactly one are exact too.
"""

from dataclasses import fields
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import netgreeks as ng
from netgreeks import mc, sensitivity
from netgreeks.fixpoint import DEFAULT_CONFIG, ConvergenceError, FixedPointConfig
from netgreeks.gbm import GbmParams
from helpers import (TIGHT, exact_fixed_points, exact_inverse, exact_system, inf_norm,
                     random_network)

EPS = Fraction(np.finfo(float).eps)


def _network(seed, n):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    assume(np.any(net.m_s) and np.any(net.m_d))
    return net, rng.uniform(0.1, 3.0, size=n)


def _dyadic_holdings(rng, n, rings=True):
    """Holdings in sixteenths: each column empty, leaking (sum <= 3/4) or,
    with rings, held in full by one, two or four firms."""
    m = np.zeros((n, n))
    for j in range(n):
        others = [i for i in range(n) if i != j]
        kind = rng.integers(3 if rings else 2)
        if kind == 1:
            m[others, j] = rng.integers(0, 13 // (n - 1) + 1, size=n - 1) / 16.0
        elif kind == 2:
            size = rng.choice([k for k in (1, 2, 4) if k < n])
            m[rng.choice(others, size=size, replace=False), j] = 1.0 / size
    return m


def _assert_dxda_exact(net, xi, weights=None):
    """dxda_batch at one pattern against C A(xi)^{-1} in Fractions, within the stated bound."""
    n = net.n
    w = np.eye(2 * n) if weights is None else weights
    got = sensitivity.dxda_batch(net, xi[None], weights=weights)[0]
    a = exact_system(net.m_s, net.m_d, xi)
    a_inv = exact_inverse(a)
    c = [[Fraction(row[j] if xi[j] else row[n + j]) for j in range(n)] for row in w]
    exact = [[sum(ck[i] * a_inv[i][j] for i in range(n)) for j in range(n)] for ck in c]
    scale = max(sum(abs(ck[i] * a_inv[i][j]) for i in range(n)) for ck in c for j in range(n))
    bound = 4 * n * EPS * inf_norm(a) * inf_norm(a_inv) * scale
    err = max(abs(Fraction(got[k, j]) - exact[k][j]) for k in range(len(c)) for j in range(n))
    assert err <= bound, (xi, float(err), float(bound))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_solver_meets_the_exact_fixed_point(seed, n):
    net, a = _network(seed, n)
    found = exact_fixed_points(net.m_s, net.m_d, net.d, a)
    # every consistent pattern solves the fixed point, which is unique
    assert found and all(v == found[0][1] for _, v, _ in found)
    xi, v, a_inv = found[0]
    d = [Fraction(x) for x in net.d]
    slack = 4 * (2 * n + 1) * EPS * (max(v) + max(d))
    margin = min(abs(vi - di) for vi, di in zip(v, d))
    for cfg in (DEFAULT_CONFIG, TIGHT):
        bound = inf_norm(a_inv) * (Fraction(cfg.tol) + slack)
        # one row runs plain Picard; n copies of it, one pattern, take the polish
        for rows in (1, n):
            sol = ng.solve_claims_batch(net, np.tile(a, (rows, 1)), cfg)
            for got in sol.v:
                err = max(abs(Fraction(g) - vi) for g, vi in zip(got, v))
                assert err <= bound, (cfg, rows, float(err), float(bound))
            if margin > bound:
                np.testing.assert_array_equal(sol.xi, np.tile(xi, (rows, 1)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_dxda_is_the_exact_projected_inverse(seed, n):
    net, _ = _network(seed, n)
    for xi in product((0.0, 1.0), repeat=n):
        _assert_dxda_exact(net, np.array(xi))


def test_wide_live_block_sweeps_match_the_exact_solve():
    # every firm is held in both matrices, so all 8 firms are live; two
    # portfolios send the pattern to the sweeps, which finish it without the LU
    rng = np.random.default_rng(3)
    net = random_network(rng, 8, cap=0.5, density=1.0)
    xi = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    assert sensitivity._live(net, xi[None] == 1.0).sum() >= sensitivity._SWEEP_MIN
    with mock.patch.object(sensitivity, "_sweep_solve", wraps=sensitivity._sweep_solve) as sweeps, \
            mock.patch.object(sensitivity, "_factor_solve") as factor:
        _assert_dxda_exact(net, xi, weights=rng.uniform(-1.0, 1.0, size=(2, 16)))
    assert sweeps.called and not factor.called


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_validate_accepts_exactly_the_networks_with_one_fixed_point(seed, n):
    # rings included: the enumeration runs on raw arrays, admissible or not
    rng = np.random.default_rng(seed)
    m_s, m_d = _dyadic_holdings(rng, n), _dyadic_holdings(rng, n)
    d, a = rng.integers(4, 17, size=n) / 8.0, rng.integers(1, 25, size=n) / 8.0
    found = exact_fixed_points(m_s, m_d, d, a)
    singular = any(v is None for _, v, _ in found)
    values = {tuple(v) for _, v, _ in found if v is not None}
    report = ng.validate_network(m_s, m_d, d)
    # an accepted network has one fixed point, so two different v or a
    # singular A(xi) fail it; with exact shares a closed ring is exactly a
    # pattern whose A(xi) is singular
    if report.ok:
        assert not singular and len(values) == 1
    assert report.unique_fixed_point == (not singular)


def _tie_scenario(seed, n):
    """(net, a, xi, tie): a fixed point picked in eighths with some v_i = d_i
    exactly, and the assets that solve to it; the README counts a tie as a
    default."""
    rng = np.random.default_rng(seed)
    m_s, m_d = _dyadic_holdings(rng, n, rings=False), _dyadic_holdings(rng, n, rings=False)
    d = rng.integers(4, 17, size=n) / 8.0
    v = d + rng.integers(-3, 4, size=n) / 8.0
    tie = rng.random(n) < 0.5
    v[tie] = d[tie]
    xi = v > d
    a = [sum(Fraction(x) for x in row) for row in zip(
        v, -(np.where(xi, m_s, m_d) @ v), (m_s - m_d) @ (xi * d))]
    assume(min(a) > 0)
    a = np.array([float(x) for x in a])
    net = ng.FirmNetwork(m_s=m_s, m_d=m_d, d=d)
    found = exact_fixed_points(m_s, m_d, d, a)
    assert len(found) == 1 and found[0][1] == [Fraction(x) for x in v]
    np.testing.assert_array_equal(found[0][0], xi)
    return net, a, xi, tie


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
# a polished batch whose solve rounded the tie v_0 = d_0 = 0.875 up
@example(22506, 2)
def test_solver_counts_a_tie_as_insolvent(seed, n):
    net, a, xi, _ = _tie_scenario(seed, n)
    for cfg in (DEFAULT_CONFIG, TIGHT):
        for rows in (1, n):
            sol = ng.solve_claims_batch(net, np.tile(a, (rows, 1)), cfg)
            np.testing.assert_array_equal(sol.xi, np.tile(xi, (rows, 1)))


# Certificates.  A batch with fewer rows than firms has more patterns than
# rows / n, so it is never polished: with certify=True its rows certify as
# they sweep.

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_certified_pattern_is_the_exact_one(seed, n):
    net, _ = _network(seed, n)
    a = np.random.default_rng([seed, 1]).uniform(0.1, 3.0, size=(n - 1, n))
    sol = ng.solve_claims_batch(net, a, certify=True)
    d = [Fraction(x) for x in net.d]
    for row, certified, got in zip(a, sol.certified, sol.xi):
        (xi, v, _), = exact_fixed_points(net.m_s, net.m_d, net.d, row)
        if certified:
            np.testing.assert_array_equal(got, xi)
        # Picard meets tol = 1e-12 with a bound of at most c / (1 - c) 2n tol,
        # so a fixed point this far from every debt is certified by then
        assert certified or min(abs(vi - di) / di for vi, di in zip(v, d)) <= Fraction(1, 10**6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@example(22506, 2)
def test_certificate_never_certifies_a_tie(seed, n):
    # Picard rises to v_i = d_i from below and the bound covers the gap, so
    # neither test can pass; the draw falls back and a tie counts insolvent
    net, a, xi, tie = _tie_scenario(seed, n)
    assume(tie.any())
    for cfg in (DEFAULT_CONFIG, TIGHT):
        sol = ng.solve_claims_batch(net, a[None], cfg, certify=True)
        assert not sol.certified[0]
        np.testing.assert_array_equal(sol.xi[0], xi)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_claim_held_in_full_certifies_nothing(seed, n):
    # with a column sum of one the bound c / (1 - c) is void: every row falls
    # back to plain Picard, byte for byte the solve without certify
    rng = np.random.default_rng(seed)
    m_s, m_d = _dyadic_holdings(rng, n), _dyadic_holdings(rng, n)
    d = rng.integers(4, 17, size=n) / 8.0
    assume(max(m_s.sum(axis=0).max(), m_d.sum(axis=0).max()) == 1.0)
    assume(ng.validate_network(m_s, m_d, d).ok)
    net = ng.FirmNetwork(m_s=m_s, m_d=m_d, d=d)
    a = rng.uniform(0.1, 3.0, size=(n - 1, n))
    plain = ng.solve_claims_batch(net, a)
    sol = ng.solve_claims_batch(net, a, certify=True)
    assert not sol.certified.any()
    for f in fields(sol):
        assert np.asarray(getattr(sol, f.name)).tobytes() == \
            np.asarray(getattr(plain, f.name)).tobytes(), f.name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 2))
@example(22506, 2, 1)
def test_fallback_row_that_misses_tol_names_the_run_global_draw(seed, n, before):
    # the last chunk of a Greek run holds a tie, which is never certified, in
    # a random row among rows whose every a_i > d_i certifies at once; at
    # max_iter = 2 the tie misses tol, and the error counts its row from the
    # first draw of the run, after `before` full chunks
    net, a, _, tie = _tie_scenario(seed, n)
    assume(tie.any())
    cfg = FixedPointConfig(max_iter=2)
    assume(ng.solve_claims_batch(net, a[None]).iterations > cfg.max_iter)
    rows = n - 1
    row = int(np.random.default_rng([seed, 2]).integers(rows))
    batch = np.tile(a + 3.0, (rows, 1))
    batch[row] = a
    with pytest.raises(ConvergenceError) as local:
        ng.solve_claims_batch(net, batch, cfg, certify=True)
    assert local.value.draw == row

    start = before * mc._chunk_size(n)
    real = mc._terminal_with_partials

    def terminal(gbm, z):
        # every chunk before the last one is deep solvent, so its polish meets tol
        a_t, partials = real(gbm, z)
        a_t[:] = batch if len(z) == rows else a + 3.0
        return a_t, partials

    gbm = GbmParams(a_t=np.ones(n), sigma=np.full(n, 0.4), r=0.0, tau=1.0, corr=np.eye(n))
    with mock.patch.object(mc, "_terminal_with_partials", terminal), \
            pytest.raises(ConvergenceError) as err:
        mc.mc_greeks(net, gbm, start + rows, seed, cfg=cfg)
    assert err.value.draw == start + row
    assert f"failed at draw {start + row}:" in str(err.value)
