"""Random debt-network generation."""

import numpy as np
import pytest

from netgreeks.experiments import _task_seed
from netgreeks.network import er_network
from netgreeks.network import validate_network


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
