import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgreeks as ng
from netgreeks.sensitivity import _distinct_patterns, dxda_batch
from helpers import (TIGHT, distinct_patterns_oracle, dxda_at, fd_claims_jacobian,
                     jacobian_g, random_interior_scenario, random_network, solve_claims,
                     weighting_matrix)


def test_jacobian_no_holdings_is_zero():
    n = 3
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)), d=np.ones(n))
    J = jacobian_g(net, np.ones(n))
    assert np.all(J == 0.0)


def test_jacobian_block_structure():
    rng = np.random.default_rng(3)
    net = random_network(rng, 4)
    n = net.n
    all_solvent = jacobian_g(net, np.ones(n))
    np.testing.assert_array_equal(all_solvent[:n, :n], net.m_s)
    np.testing.assert_array_equal(all_solvent[:n, n:], net.m_d)
    assert np.all(all_solvent[n:] == 0.0)
    all_insolvent = jacobian_g(net, np.zeros(n))
    assert np.all(all_insolvent[:n] == 0.0)
    np.testing.assert_array_equal(all_insolvent[n:, :n], net.m_s)
    np.testing.assert_array_equal(all_insolvent[n:, n:], net.m_d)


def test_weighting_matrix_no_holdings_is_identity():
    n = 3
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)), d=np.ones(n))
    np.testing.assert_allclose(weighting_matrix(net, np.ones(n)), np.eye(2 * n))


def test_weighting_matrix_neumann_series():
    rng = np.random.default_rng(8)
    net = random_network(rng, 4)
    xi = (rng.random(4) < 0.5).astype(float)
    J = jacobian_g(net, xi)
    W = weighting_matrix(net, xi)
    series = np.eye(8)
    term = np.eye(8)
    for _ in range(300):
        term = term @ J
        series += term
    np.testing.assert_allclose(W, series, atol=1e-10)
    assert np.all(W >= -1e-12)


def test_all_solvent_sensitivity_ignores_debt_holdings():
    # with every firm solvent, debt recovers at face value and only equity
    # cross-holdings shape the response: dx/da = ((I - m_s)^{-1}; 0)
    rng = np.random.default_rng(12)
    net = random_network(rng, 5)
    jac = dxda_at(net, np.ones(5))
    np.testing.assert_allclose(jac[:5], np.linalg.inv(np.eye(5) - net.m_s), atol=1e-12)
    np.testing.assert_allclose(jac[5:], 0.0, atol=1e-15)


def test_all_insolvent_sensitivity_ignores_equity_holdings():
    rng = np.random.default_rng(13)
    net = random_network(rng, 5)
    jac = dxda_at(net, np.zeros(5))
    np.testing.assert_allclose(jac[5:], np.linalg.inv(np.eye(5) - net.m_d), atol=1e-12)
    np.testing.assert_allclose(jac[:5], 0.0, atol=1e-15)


def test_sensitivity_matches_weighting_matrix():
    # the reduced n x n solve against the unreduced 2n x 2n oracle, on
    # coupled networks and every kind of pattern
    rng = np.random.default_rng(14)
    patterns = [np.array([1.0, 0.0, 1.0, 0.0])]
    patterns += [(rng.random(4) < 0.5).astype(float) for _ in range(20)]
    for xi in patterns:
        net = random_network(rng, 4)
        W = weighting_matrix(net, xi)
        rhs = np.vstack([np.diag(xi), np.diag(1.0 - xi)])
        jac = dxda_at(net, xi)
        np.testing.assert_allclose(jac, W @ rhs, atol=1e-12)
        assert np.all(jac >= -1e-12)


def test_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        net, a, sol = random_interior_scenario(rng, n)
        exact = dxda_at(net, sol.xi)
        fd = fd_claims_jacobian(net, a)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(exact - fd).max() / scale < 1e-6


def test_dxda_batch_matches_single():
    # at n = 10 most live blocks have |J| >= 8, so the two-portfolio
    # weights solve them by sweeps
    rng = np.random.default_rng(16)
    for n, cap in ((5, 0.9), (10, 0.5)):
        net = random_network(rng, n, cap=cap)
        xi_batch = (rng.random((12, n)) < 0.5).astype(float)
        for weights in (None, _block_average(n)):
            batch = dxda_batch(net, xi_batch, weights=weights)
            for i in range(12):
                single = dxda_at(net, xi_batch[i], weights=weights)
                np.testing.assert_allclose(batch[i], single, atol=1e-12)


def test_dxda_batch_rejects_malformed_solvency_batches():
    # each problem is named, on the full and the weighted path
    net = ng.symmetric_network(3, 0.2, 0.4)
    cases = ((np.array([[1.0, 0.5, 0.0]]), "entries must be 0 or 1, got 0.5"),
             (np.array([[1.0, np.nan, 0.0]]), "entries must be 0 or 1, got nan"),
             (np.ones((2, 4)), r"must be a \(B, 3\) array, got shape \(2, 4\)"),
             (np.ones((2, 2)), r"must be a \(B, 3\) array, got shape \(2, 2\)"),
             (np.ones(3), r"must be a \(B, 3\) array, got shape \(3,\)"))
    for xi_batch, problem in cases:
        for weights in (None, np.ones((1, 6))):
            with pytest.raises(ValueError, match=problem):
                dxda_batch(net, xi_batch, weights=weights)


# the threat index mu^T = 1^T u_d of a debt-only network: weights (0^T, 1^T)

def test_threat_index_solvent_firms_score_zero():
    net = ng.symmetric_network(3, 0.0, 0.4)
    mu = dxda_at(net, np.ones(3), [np.r_[np.zeros(3), np.ones(3)]])[0]
    np.testing.assert_allclose(mu, 0.0, atol=1e-15)


def test_threat_index_isolated_insolvent_firm_scores_one():
    n = 3
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)), d=np.ones(n))
    mu = dxda_at(net, np.array([1.0, 0.0, 1.0]), [np.r_[np.zeros(n), np.ones(n)]])[0]
    np.testing.assert_allclose(mu, [0.0, 1.0, 0.0], atol=1e-15)


def test_threat_index_symmetric_all_insolvent():
    net = ng.symmetric_network(4, 0.0, 0.4)
    mu = dxda_at(net, np.zeros(4), [np.r_[np.zeros(4), np.ones(4)]])[0]
    np.testing.assert_allclose(mu, 1.0 / 0.6, atol=1e-12)


def test_threat_index_is_debt_block_column_sum():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n, debt_only=True)
        xi = (rng.random(n) < 0.5).astype(float)
        mu = dxda_at(net, xi, [np.r_[np.zeros(n), np.ones(n)]])[0]
        u_d = dxda_at(net, xi)[n:]
        np.testing.assert_allclose(mu, u_d.sum(axis=0), atol=1e-12)


def test_threat_index_matches_fd_of_total_recovery():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        net, a, sol = random_interior_scenario(rng, n, debt_only=True)
        mu = dxda_at(net, sol.xi, [np.r_[np.zeros(n), np.ones(n)]])[0]
        h = 1e-6
        for j in range(n):
            up, dn = a.copy(), a.copy()
            up[j] += h
            dn[j] -= h
            fd = (solve_claims(net, up, TIGHT).claims.r.sum()
                  - solve_claims(net, dn, TIGHT).claims.r.sum()) / (2 * h)
            assert abs(mu[j] - fd) <= 1e-6 * max(1.0, abs(mu[j]))


# the aggregate impact 1^T dx*/da: weights 1^T over the 2n claims

def test_aggregate_impact_no_holdings_is_one():
    n = 4
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)), d=np.ones(n))
    xi = np.array([1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(dxda_at(net, xi, np.ones((1, 2 * n)))[0], 1.0, atol=1e-15)


def test_aggregate_impact_symmetric_insolvent():
    net = ng.symmetric_network(3, 0.0, 0.4)
    np.testing.assert_allclose(dxda_at(net, np.zeros(3), np.ones((1, 6)))[0], 1.0 / 0.6,
                               atol=1e-12)


def test_aggregate_impact_equals_column_sums():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        xi = (rng.random(n) < 0.5).astype(float)
        agg = dxda_at(net, xi, np.ones((1, 2 * n)))[0]
        dxda = dxda_at(net, xi)
        np.testing.assert_allclose(agg, dxda.sum(axis=0), atol=1e-12)


# the outside-investor sensitivities: weights (diag(1 - 1^T m_s), diag(1 - 1^T m_d))

def test_outside_sensitivity_no_holdings_is_identity():
    n = 3
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)), d=np.ones(n))
    W = np.hstack([np.eye(n), np.eye(n)])
    np.testing.assert_allclose(dxda_at(net, np.array([1.0, 0.0, 1.0]), W),
                               np.eye(n), atol=1e-15)


def test_outside_sensitivity_symmetric_insolvent_values():
    net = ng.symmetric_network(2, 0.0, 0.4)
    W = np.hstack([np.eye(2), np.diag(1.0 - net.m_d.sum(axis=0))])
    out = dxda_at(net, np.zeros(2), W)
    np.testing.assert_allclose(out, [[5.0 / 7.0, 2.0 / 7.0], [2.0 / 7.0, 5.0 / 7.0]],
                               atol=1e-12)


def test_outside_sensitivity_columns_sum_to_one():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        net = random_network(rng, n)
        xi = (rng.random(n) < 0.5).astype(float)
        W = np.hstack([np.diag(1.0 - net.m_s.sum(axis=0)), np.diag(1.0 - net.m_d.sum(axis=0))])
        out = dxda_at(net, xi, W)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-10)


def _xi_pair(rng, n):
    xi = (rng.random(n) < 0.5).astype(float)
    flip = (rng.random(n) < 0.5) & (xi == 0.0)
    return xi, np.where(flip, 1.0, xi)


def test_debt_only_recovery_sensitivity_shrinks_with_solvency():
    # with debt cross-holdings only, the recovery block u_d satisfies a
    # self-contained monotone fixed point u_d = diag(1-xi)(I + M_d u_d);
    # flipping firms solvent moves the first iterate down, so the limit is
    # entrywise non-increasing in xi.  (Strict column sums keep the map a
    # contraction.)
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        net = random_network(rng, n, cap=0.85, debt_only=True)
        xi, xi_up = _xi_pair(rng, n)
        lo, hi = dxda_at(net, xi), dxda_at(net, xi_up)
        assert np.all(hi[n:] <= lo[n:] + 1e-10)


def test_equity_only_equity_sensitivity_grows_with_solvency():
    # the mirror image: with equity cross-holdings only, the equity block
    # u_s = diag(xi)(I + M_s u_s) is self-contained and entrywise
    # non-decreasing in xi
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        m_s = random_network(rng, n, cap=0.85, debt_only=True).m_d
        net = ng.FirmNetwork(m_s=m_s, m_d=np.zeros((n, n)), d=np.ones(n))
        xi, xi_up = _xi_pair(rng, n)
        lo, hi = dxda_at(net, xi), dxda_at(net, xi_up)
        assert np.all(hi[:n] >= lo[:n] - 1e-10)


def test_cross_block_sensitivity_is_not_monotone_in_solvency():
    # joint entrywise monotonicity of (u_s up, u_d down) fails as soon as the
    # blocks couple, even with strictly sub-stochastic columns.  Two firms,
    # debt-only, firm 1 holding half of firm 2's debt: while firm 2 is
    # insolvent, firm 1's equity responds to a_2 through the recovery claim
    # (u_s[0,1] = 0.5); once firm 2 is solvent its debt is worth face value
    # and the response vanishes.  A solvency upgrade therefore *lowers* an
    # equity sensitivity.
    m_d = np.array([[0.0, 0.5], [0.0, 0.0]])
    net = ng.FirmNetwork(m_s=np.zeros((2, 2)), m_d=m_d, d=np.ones(2))
    lo_s = dxda_at(net, np.array([1.0, 0.0]))[:2]
    hi_s = dxda_at(net, np.array([1.0, 1.0]))[:2]
    np.testing.assert_allclose(lo_s, [[1.0, 0.5], [0.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(hi_s, np.eye(2), atol=1e-14)
    assert hi_s[0, 1] < lo_s[0, 1]  # solvent neighbour => smaller response


def test_mixed_network_monotonicity_violations_are_generic():
    # survey the general (coupled) regime and report how often the entrywise
    # ordering breaks; no assertion on the conjecture itself, only that the
    # provable debt-only block stays clean in the same sweep
    rng = np.random.default_rng(43)
    broken = 0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        net = random_network(rng, n, cap=0.85)
        xi, xi_up = _xi_pair(rng, n)
        lo, hi = dxda_at(net, xi), dxda_at(net, xi_up)
        if np.any(hi[:n] < lo[:n] - 1e-10) or np.any(hi[n:] > lo[n:] + 1e-10):
            broken += 1
    print(f"mixed-network entrywise monotonicity violations: {broken}/100")
    assert broken > 0  # the counterexamples are generic, not knife-edge


class _SingularStub:
    # an upstream admissibility violation: column sums of one with full
    # insolvency make A(xi) = I - m_d exactly singular
    n = 2
    m_s = np.zeros((2, 2))
    m_d = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = np.ones(2)


def test_singular_system_raises_sensitivity_error():
    Stub = _SingularStub
    with pytest.raises(ng.SensitivityError):
        dxda_batch(Stub(), np.zeros((1, 2)))
    with pytest.raises(ng.SensitivityError):
        dxda_batch(Stub(), np.zeros((3, 2)))
    with pytest.raises(ng.SensitivityError):
        dxda_batch(Stub(), np.zeros((1, 2)), weights=np.ones((1, 4)))
    # the error names the offending pattern and its live block
    with pytest.raises(ng.SensitivityError, match=r"pattern 00 \(live firms \[0, 1\]\)"):
        dxda_batch(Stub(), np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))


def test_singular_system_raises_on_weighted_path():
    with pytest.raises(ng.SensitivityError):
        dxda_batch(_SingularStub(), np.zeros((3, 2)), weights=np.eye(4))
    with pytest.raises(ng.SensitivityError):
        dxda_batch(_SingularStub(), np.zeros((3, 2)), weights=np.ones((1, 4)))
    with pytest.raises(ng.SensitivityError):
        dxda_batch(_SingularStub(), np.zeros((1, 2)), weights=[[0.0, 0.0, 1.0, 1.0]])


def _block_average(n):
    return np.kron(np.eye(2), np.full((1, n), 1.0 / n))


def test_weighted_dxda_batch_is_projection_of_full():
    # one transposed solve with k right-hand sides equals W @ dx*/da, on
    # coupled networks with every kind of pattern
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        xi_batch = (rng.random((16, n)) < rng.uniform(0.2, 0.8)).astype(float)
        xi_batch[0], xi_batch[1] = 1.0, 0.0
        full = dxda_batch(net, xi_batch)
        for W in (np.eye(2 * n), _block_average(n), rng.random((3, 2 * n))):
            got = dxda_batch(net, xi_batch, weights=W)
            want = W @ full
            assert got.shape == (16, W.shape[0], n)
            err = np.abs(got - want).max() / np.abs(want).max()
            worst = max(worst, err)
    assert worst <= 1e-13, worst


def test_weighted_dxda_batch_rejects_bad_weights():
    net = ng.symmetric_network(3, 0.2, 0.4)
    for bad in (np.ones(6), np.ones((2, 5)), np.ones((1, 2, 6))):
        with pytest.raises(ValueError, match="weights"):
            dxda_batch(net, np.ones((2, 3)), weights=bad)
    # a weight that is not finite is named, here and in mc_greeks
    gbm = ng.GbmParams(a_t=np.ones(3), sigma=np.full(3, 0.4), r=0.0, tau=1.0, corr=np.eye(3))
    for value in (np.nan, np.inf, -np.inf):
        bad = np.ones((2, 6))
        bad[1, 4] = value
        problem = f"weights must be finite, got {value} at row 1, column 4"
        with pytest.raises(ValueError, match=problem):
            dxda_batch(net, [[1, 0, 1]], weights=bad)
        with pytest.raises(ValueError, match=problem):
            ng.mc_greeks(net, gbm, 16, 1, weights=bad)


# --- the reduced, pattern-deduplicated solve against the 2n x 2n oracle ---------

def _oracle(net, xi):
    """dx*/da from the unreduced 2n x 2n system."""
    return weighting_matrix(net, xi) @ np.vstack([np.diag(xi), np.diag(1.0 - xi)])


def _kernel_cases(seed, count=40):
    """Pure-debt and mixed networks, some firms held by no one, with batches
    that repeat patterns and include the all-solvent and all-insolvent rows."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n, debt_only=case % 2 == 0, density=rng.uniform(0.2, 0.8))
        unheld = rng.random(n) < 0.3
        net = ng.FirmNetwork(m_s=net.m_s * ~unheld, m_d=net.m_d * ~unheld, d=net.d)
        xi = (rng.random((12, n)) < rng.uniform(0.2, 0.8)).astype(float)
        xi[0], xi[1] = 1.0, 0.0
        yield rng, net, xi[rng.integers(0, 12, size=24)]


def test_reduced_solve_matches_unreduced_oracle():
    worst = 0.0
    for rng, net, xi_batch in _kernel_cases(81):
        W = rng.random((3, 2 * net.n))
        full = dxda_batch(net, xi_batch)
        weighted = dxda_batch(net, xi_batch, weights=W)
        for b, xi in enumerate(xi_batch):
            want = _oracle(net, xi)
            scale = np.abs(want).max()
            worst = max(worst, np.abs(full[b] - want).max() / scale,
                        np.abs(weighted[b] - W @ want).max() / np.abs(W @ want).max())
            # structural zeros stay exact: solvent equity rows carry no debt response
            assert np.all(full[b][net.n:][xi == 1.0] == 0.0)
            assert np.all(full[b][:net.n][xi == 0.0] == 0.0)
    assert worst <= 1e-13, worst


def test_reduced_solve_is_order_independent():
    # deduplication sorts the patterns: a row-permuted batch gives the
    # row-permuted result bit for bit, on the full and the weighted path
    for rng, net, xi_batch in _kernel_cases(82, count=20):
        perm = rng.permutation(xi_batch.shape[0])
        W = rng.random((2, 2 * net.n))
        np.testing.assert_array_equal(dxda_batch(net, xi_batch[perm]),
                                      dxda_batch(net, xi_batch)[perm])
        np.testing.assert_array_equal(dxda_batch(net, xi_batch[perm], weights=W),
                                      dxda_batch(net, xi_batch, weights=W)[perm])


def test_unweighted_path_is_identity_weights():
    for _, net, xi_batch in _kernel_cases(83, count=10):
        np.testing.assert_array_equal(dxda_batch(net, xi_batch),
                                      dxda_batch(net, xi_batch, weights=np.eye(2 * net.n)))


def test_reduced_solve_factors_one_live_block_per_distinct_pattern(monkeypatch):
    # pure debt: only insolvent firms that someone holds are live.  Firm 3
    # is unheld, so it never enters a block.
    import netgreeks.sensitivity as sens

    m_d = np.zeros((4, 4))
    m_d[1, 0] = m_d[2, 1] = m_d[0, 2] = 0.5
    net = ng.FirmNetwork(m_s=np.zeros((4, 4)), m_d=m_d, d=np.ones(4))
    blocks = []
    real = sens._solve

    def spy(lhs, rhs):
        blocks.extend(lhs.shape[1:2] * lhs.shape[0])
        return real(lhs, rhs)

    monkeypatch.setattr(sens, "_solve", spy)
    rows = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0], [0, 1, 0, 0]], dtype=float)
    got = dxda_batch(net, rows[[0, 2, 0, 1, 3, 3, 2, 0]])
    assert sorted(blocks) == [1, 2, 3]
    for b, i in enumerate([0, 2, 0, 1, 3, 3, 2, 0]):
        np.testing.assert_allclose(got[b], _oracle(net, rows[i]), rtol=0, atol=1e-15)


def test_forward_solve_matches_dense_solve_once_per_pattern(monkeypatch):
    # v^T = b^T A(xi)^{-T}, A(xi)^{-T} from one adjoint solve per distinct
    # pattern: one factorization per distinct pattern that has live firms
    import netgreeks.sensitivity as sens

    factored = []
    real = sens._solve

    def spy(lhs, rhs):
        factored.append(lhs.shape[0])
        return real(lhs, rhs)

    monkeypatch.setattr(sens, "_solve", spy)
    worst = 0.0
    for rng, net, xi_batch in _kernel_cases(84):
        b = rng.uniform(-1.0, 3.0, size=xi_batch.shape)
        solvent, inverse = sens._distinct_patterns(xi_batch == 1.0)
        factored.clear()
        got = sens._forward_solve(net, solvent, inverse, b.T).T
        assert sum(factored) == sens._live(net, solvent).any(axis=1).sum()
        for row, xi in enumerate(xi_batch):
            a_xi = np.eye(net.n) - np.where(xi == 1.0, net.m_s, net.m_d)
            want = np.linalg.solve(a_xi, b[row])
            worst = max(worst, np.abs(got[row] - want).max() / np.abs(want).max())
    assert worst <= 1e-13, worst


def test_every_solve_with_a_xi_runs_inside_the_adjoint_kernel(monkeypatch):
    # one kernel: the polished fixed point (with a flip round), dx*/da and
    # the single-pattern Jacobian factor A(xi) only inside _adjoint_solve
    import netgreeks.sensitivity as sens

    depth, kernel_calls, inside = [0], [], []
    real_adjoint, real_solve = sens._adjoint_solve, sens._solve

    def adjoint(*args):
        kernel_calls.append(len(args[1]))
        depth[0] += 1
        try:
            return real_adjoint(*args)
        finally:
            depth[0] -= 1

    def solve(lhs, rhs):
        inside.append(depth[0] > 0)
        return real_solve(lhs, rhs)

    monkeypatch.setattr(sens, "_adjoint_solve", adjoint)
    monkeypatch.setattr(sens, "_solve", solve)
    # both firms solvent at v* = 1.001, but the first Picard sweep from
    # below still reads xi = 00: one solve, one flip round
    net = ng.symmetric_network(2, 0.3, 0.6)
    sol = ng.solve_claims_batch(net, np.full((4, 2), 0.4007))
    np.testing.assert_array_equal(sol.xi, 1.0)
    assert len(inside) == 2 and all(inside)
    assert kernel_calls == [1, 1]
    dxda_batch(net, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]]))
    dxda_at(net, sol.xi[0])
    assert kernel_calls == [1, 1, 3, 1]
    assert len(inside) >= 4 and all(inside)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 130), st.integers(1, 300),
       st.sampled_from(["repeated", "all_equal", "all_distinct", "random"]),
       st.integers(0, 2**32 - 1))
def test_distinct_patterns_match_sorted_void_keys(n, rows, batch, seed):
    # uint64 words, several of them past n = 64, sort like the packed bytes
    rng = np.random.default_rng(seed)
    if batch == "all_distinct":
        # distinct binary numbers, spread over the first, middle and last words
        rows = min(rows, 2 ** min(n, 16))
        codes = rng.choice(2 ** min(n, 16), size=rows, replace=False)
        xi = np.zeros((rows, n))
        for bit, firm in enumerate(rng.choice(n, size=min(n, 16), replace=False)):
            xi[:, firm] = (codes >> bit) & 1
    elif batch == "all_equal":
        xi = np.repeat((rng.random((1, n)) < 0.5).astype(float), rows, axis=0)
    elif batch == "repeated":
        few = (rng.random((int(rng.integers(1, 5)), n)) < 0.5).astype(float)
        xi = few[rng.integers(0, len(few), size=rows)]
    else:
        xi = (rng.random((rows, n)) < rng.random()).astype(float)
    solvent, inverse = _distinct_patterns(xi == 1.0)
    want_solvent, want_inverse = distinct_patterns_oracle(xi)
    np.testing.assert_array_equal(solvent, want_solvent)
    np.testing.assert_array_equal(inverse, want_inverse)
    assert len(solvent) == len({row.tobytes() for row in xi})


# --- the two strategies of the adjoint kernel: sweeps and stacked LU --------

def _solve_both_ways(monkeypatch, net, xi_batch, weights):
    """dx*/da with every wide block swept, whatever k, and with every block
    factored; and how many patterns the sweeps settled."""
    import netgreeks.sensitivity as sens

    settled = []
    real = sens._sweep_solve

    def spy(net, solvent, y, pending):
        moving = real(net, solvent, y, pending)
        settled.append(len(pending) - len(moving))
        return moving

    with monkeypatch.context() as m:
        m.setattr(sens, "_SWEEP_MAX_RHS", 10**9)
        m.setattr(sens, "_sweep_solve", spy)
        swept = dxda_batch(net, xi_batch, weights=weights)
    with monkeypatch.context() as m:
        m.setattr(sens, "_SWEEP_MIN", 10**9)
        factored = dxda_batch(net, xi_batch, weights=weights)
    return swept, factored, sum(settled)


def test_swept_blocks_match_the_lu_solve(monkeypatch):
    # debt-only ER networks at n = 30 and 60, and networks with equity
    # holdings whose live blocks have |J| >= 8, weighted and not
    rng = np.random.default_rng(91)
    nets = [ng.er_network(30, 2.0, 0.6, seed=1), ng.er_network(60, 3.0, 0.4, seed=2)]
    nets += [random_network(rng, int(rng.integers(10, 16)), cap=0.5) for _ in range(4)]
    worst = 0.0
    for net in nets:
        n = net.n
        xi_batch = (rng.random((40, n)) < rng.uniform(0.1, 0.5)).astype(float)
        xi_batch[0] = 0.0
        for weights in (None, _block_average(n), rng.uniform(-1.0, 1.0, size=(3, 2 * n))):
            swept, factored, settled = _solve_both_ways(monkeypatch, net, xi_batch, weights)
            assert settled > 0
            worst = max(worst, np.abs(swept - factored).max() / np.abs(factored).max())
    assert worst <= 1e-13, worst


def test_sweeps_take_wide_blocks_of_few_right_hand_sides(monkeypatch):
    # |J| >= 8 with k <= 4 portfolios goes to the sweeps, everything else to
    # the LU; without weights (k = 2n) every block is factored
    import netgreeks.sensitivity as sens

    net = ng.er_network(30, 3.0, 0.6, seed=3)
    xi_batch = (np.random.default_rng(92).random((50, 30)) < 0.4).astype(float)
    solvent, _ = sens._distinct_patterns(xi_batch == 1.0)
    size = sens._live(net, solvent).sum(axis=1)
    swept, factored = [], []
    real_sweep, real_factor = sens._sweep_solve, sens._factor_solve

    def sweep(net, solvent, y, pending):
        swept.extend(pending.tolist())
        return real_sweep(net, solvent, y, pending)

    def factor(net, solvent, live, y, patterns):
        factored.extend(patterns.tolist())
        return real_factor(net, solvent, live, y, patterns)

    monkeypatch.setattr(sens, "_sweep_solve", sweep)
    monkeypatch.setattr(sens, "_factor_solve", factor)
    dxda_batch(net, xi_batch, weights=_block_average(30))
    assert swept == np.flatnonzero(size >= 8).tolist()
    assert factored == np.flatnonzero((size > 0) & (size < 8)).tolist()
    swept.clear()
    factored.clear()
    dxda_batch(net, xi_batch)
    assert swept == [] and factored == np.flatnonzero(size > 0).tolist()


def test_block_still_moving_after_the_sweep_cap_goes_to_the_lu(monkeypatch):
    # a ring of eight firms, each holding 0.95 of the next one's debt: the
    # sweeps contract by 0.95 a round and still move after 64 of them
    import netgreeks.sensitivity as sens

    n = 8
    m_d = 0.95 * np.roll(np.eye(n), 1, axis=0)
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=m_d, d=np.ones(n))
    moving, blocks = [], []
    real_sweep, real_solve = sens._sweep_solve, sens._solve

    def sweep(net, solvent, y, pending):
        still = real_sweep(net, solvent, y, pending)
        moving.append(still.tolist())
        return still

    def solve(lhs, rhs):
        blocks.append(lhs.shape)
        return real_solve(lhs, rhs)

    monkeypatch.setattr(sens, "_sweep_solve", sweep)
    monkeypatch.setattr(sens, "_solve", solve)
    xi_batch = np.array([[0.0] * n, [1.0] * 4 + [0.0] * 4, [0.0] * n])
    W = _block_average(n)
    got = dxda_batch(net, xi_batch, weights=W)
    # pattern 0 is all insolvent (|J| = 8); pattern 1 has |J| = 4
    assert moving == [[0]]
    assert sorted(blocks) == [(1, 4, 4), (1, 8, 8)]
    for b, xi in enumerate(xi_batch):
        want = W @ _oracle(net, xi)
        assert np.abs(got[b] - want).max() <= 1e-13 * np.abs(want).max()


class _SingularRing:
    # an upstream admissibility violation with a wide block: eight firms,
    # each holding all of the next one's debt, make A(xi) = I - m_d exactly
    # singular when every firm is insolvent
    n = 8
    m_s = np.zeros((8, 8))
    m_d = np.roll(np.eye(8), 1, axis=0)
    d = np.ones(8)


def test_singular_wide_block_raises_through_the_sweeps():
    # the sweeps never repeat on a singular block with a nonzero right-hand
    # side, so it reaches the LU, which names the pattern and its live firms
    problem = r"pattern 00000000 \(live firms \[0, 1, 2, 3, 4, 5, 6, 7\]\)"
    for weights in (None, _block_average(8), np.ones((1, 16))):
        with pytest.raises(ng.SensitivityError, match=problem):
            dxda_batch(_SingularRing(), np.zeros((2, 8)), weights=weights)
