"""Random debt-network generation and Sinkhorn balancing."""

import numpy as np
import pytest

from netgreeks.experiments import _task_seed
from netgreeks.netgen import SinkhornError, er_network, sinkhorn_balance
from netgreeks.network import validate_network
import netgreeks as ng


def test_spec_validation():
    # the ensemble parameters er_network accepts
    good = dict(n=10, k_mean=3.0, w_d=0.6, seed=0)
    er_network(**good)
    for bad in (dict(n=1), dict(w_d=1.0), dict(k_mean=-1.0),
                dict(k_mean=10.0), dict(d=0.0)):
        with pytest.raises(ValueError):
            er_network(**{**good, **bad})


def test_edge_prob():
    # the support is the first uniform draw of the seed's stream thresholded
    # at p = k_mean / (n - 1), diagonal removed
    net = er_network(10, 3.0, 0.6, seed=0)
    adj = np.random.default_rng(0).random((10, 10)) < 3.0 / 9.0
    np.fill_diagonal(adj, False)
    np.testing.assert_array_equal(net.m_d > 0.0, adj)


def test_no_holdings_at_zero_degree():
    net = er_network(5, 0.0, 0.6, seed=1)
    np.testing.assert_array_equal(net.m_d, 0.0)
    np.testing.assert_array_equal(net.m_s, 0.0)


def test_complete_graph_splits_evenly():
    # p = 1: every off-diagonal pair is an edge, each column splits w_d over
    # the n-1 holders
    net = er_network(3, 2.0, 0.6, seed=2)
    expected = np.full((3, 3), 0.3)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(net.m_d, expected, atol=1e-15)


def test_columns_hit_target_or_stay_empty():
    net = er_network(20, 2.0, 0.45, seed=3)
    sums = net.m_d.sum(axis=0)
    empty = sums == 0.0
    np.testing.assert_allclose(sums[~empty], 0.45, atol=1e-12)
    assert np.all(net.m_d[:, empty] == 0.0)
    assert np.all(np.diag(net.m_d) == 0.0)


def test_members_pass_validation():
    for i in range(20):
        net = er_network(12, 2.5, 0.8, seed=_task_seed(4, i))
        report = validate_network(net.m_s, net.m_d, net.d)
        assert report.ok, report.failures


def test_degree_means():
    # both holdings-per-firm (rows) and holders-per-firm (columns) have mean
    # (n-1) p = k_mean
    n, k_mean, draws = 10, 3.0, 1000
    rows = np.empty((draws, n))
    cols = np.empty((draws, n))
    for i in range(draws):
        adj = er_network(n, k_mean, 0.5, seed=_task_seed(5, i)).m_d > 0
        rows[i] = adj.sum(axis=1)
        cols[i] = adj.sum(axis=0)
    p = k_mean / (n - 1)
    se = np.sqrt((n - 1) * p * (1 - p) / (draws * n))
    assert abs(rows.mean() - k_mean) < 3 * se
    assert abs(cols.mean() - k_mean) < 3 * se


def test_mean_total_weight_tracks_nonempty_probability():
    # a column carries weight w_d iff it has at least one holder
    n, k_mean, w_d, draws = 8, 1.5, 0.6, 1000
    p = k_mean / (n - 1)
    totals = np.array([er_network(n, k_mean, w_d, seed=_task_seed(6, i)).m_d.sum() / n
                       for i in range(draws)])
    expected = w_d * (1.0 - (1.0 - p) ** (n - 1))
    se = totals.std(ddof=1) / np.sqrt(draws)
    assert abs(totals.mean() - expected) < 3 * se


def test_reproducible_generation():
    a = er_network(15, 3.0, 0.6, seed=42)
    b = er_network(15, 3.0, 0.6, seed=42)
    np.testing.assert_array_equal(a.m_d, b.m_d)
    c = er_network(15, 3.0, 0.6, seed=43)
    assert not np.array_equal(a.m_d, c.m_d)


def test_member_seed_stability():
    # ensemble members derive their seeds with the experiments task-seed rule
    assert _task_seed(0, 3) == _task_seed(0, 3)
    seeds = {_task_seed(7, i) for i in range(100)}
    assert len(seeds) == 100


# --- Sinkhorn ------------------------------------------------------------------

def test_sinkhorn_dense_positive():
    m = np.array([[0.2, 0.8], [0.5, 0.1]])
    out = sinkhorn_balance(m, 0.5, 0.5)
    np.testing.assert_allclose(out.sum(axis=1), 0.5, atol=1e-9)
    np.testing.assert_allclose(out.sum(axis=0), 0.5, atol=1e-9)


def test_sinkhorn_balanced_input_unchanged():
    m = ng.symmetric_network(3, 0.0, 0.6).m_d
    out = sinkhorn_balance(m, 0.6, 0.6)
    np.testing.assert_allclose(out, m, atol=1e-12)


def test_sinkhorn_idempotent_and_pattern_preserving():
    rng = np.random.default_rng(1)
    m = rng.random((5, 5)) * (rng.random((5, 5)) < 0.7)
    np.fill_diagonal(m, 0.0)
    out = sinkhorn_balance(m, 0.5, 0.5)
    np.testing.assert_array_equal(out == 0.0, m == 0.0)
    again = sinkhorn_balance(out, 0.5, 0.5)
    np.testing.assert_allclose(again, out, atol=1e-9)


def test_sinkhorn_skips_empty_rows_and_columns():
    m = np.array([[0.0, 0.0], [0.7, 0.0]])
    out = sinkhorn_balance(m, 0.5, 0.5)
    assert out[1, 0] == pytest.approx(0.5)
    assert np.all(out[0] == 0.0)


def test_sinkhorn_infeasible_support_fails():
    # support without total support: the (0,1) entry must vanish for the
    # marginals to hold, so the scaling only converges at rate 1/k and the
    # iteration cap signals infeasibility
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(SinkhornError):
        sinkhorn_balance(m, 0.5, 0.5, max_iter=2000)


def test_sinkhorn_rejects_negative_entries():
    with pytest.raises(ValueError):
        sinkhorn_balance(np.array([[0.1, -0.2], [0.3, 0.4]]), 0.5, 0.5)


def test_er_network_sinkhorn_mode():
    net = er_network(6, 5.0, 0.6, seed=12, sinkhorn=True)
    rows = net.m_d.sum(axis=1)
    cols = net.m_d.sum(axis=0)
    live_r = rows > 0
    live_c = cols > 0
    np.testing.assert_allclose(rows[live_r], 0.6, atol=1e-8)
    np.testing.assert_allclose(cols[live_c], 0.6, atol=1e-8)
    assert np.all(np.diag(net.m_d) == 0.0)
