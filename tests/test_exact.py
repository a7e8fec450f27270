"""The solver and dx*/da against exact rational arithmetic.

For n <= 4 every one of the 2^n solvency patterns is solved in Fractions
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
"""

from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netgreeks as ng
from netgreeks import sensitivity
from netgreeks.fixpoint import DEFAULT_CONFIG
from helpers import (TIGHT, exact_fixed_points, exact_inverse, exact_system, inf_norm,
                     random_network)

EPS = Fraction(np.finfo(float).eps)


def _network(seed, n):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    assume(np.any(net.m_s) and np.any(net.m_d))
    return net, rng.uniform(0.1, 3.0, size=n)


def _assert_dxda_exact(net, xi, weights=None):
    """dxda_batch at one pattern against C A(xi)^{-1} in Fractions, within the stated bound."""
    n = net.n
    w = np.eye(2 * n) if weights is None else weights
    got = sensitivity.dxda_batch(net, xi[None], weights=weights)[0]
    a = exact_system(net, xi)
    a_inv = exact_inverse(a)
    c = [[Fraction(row[j] if xi[j] else row[n + j]) for j in range(n)] for row in w]
    exact = [[sum(ck[i] * a_inv[i][j] for i in range(n)) for j in range(n)] for ck in c]
    scale = max(sum(abs(ck[i] * a_inv[i][j]) for i in range(n)) for ck in c for j in range(n))
    bound = 4 * n * EPS * inf_norm(a) * inf_norm(a_inv) * scale
    err = max(abs(Fraction(got[k, j]) - exact[k][j]) for k in range(len(c)) for j in range(n))
    assert err <= bound, (xi, float(err), float(bound))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_solver_meets_the_exact_fixed_point(seed, n):
    net, a = _network(seed, n)
    found = exact_fixed_points(net, a)
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
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
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
