"""Monte Carlo engine: oracle agreement, derivative checks, determinism."""

import ctypes
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import netgreeks as ng
import netgreeks.mc as mc
from netgreeks.experiments import ExperimentConfig, run_local_compare
from netgreeks.fixpoint import (
    DEFAULT_CONFIG,
    ConvergenceError,
    FixedPointConfig,
    solve_claims_batch,
)
from netgreeks.gbm import GbmParams, normal_variates, sample_terminal
from netgreeks.mc import GreekReport, _chunk_size, _RunningStat, mc_greeks, price_claims
from netgreeks.symmetric import (
    SymmetricParams,
    symmetric_greeks,
    symmetric_mc_inputs,
    symmetric_pi,
    symmetric_price,
)

from helpers import random_network


def _merton_inputs(a_t=1.0, sigma=0.4, r=0.0, tau=1.0, d=1.0):
    net = ng.FirmNetwork(m_s=np.zeros((1, 1)), m_d=np.zeros((1, 1)),
                         d=np.array([d]))
    gbm = GbmParams(a_t=[a_t], sigma=[sigma], r=r, tau=tau, corr=np.eye(1))
    return net, gbm


def test_merton_matches_black_scholes_everywhere():
    # single firm, no holdings: every output has a closed form; this also
    # rules out the factorized-expectation mistake E[dx/da] E[dA/da], which
    # would give Phi(d_minus) = 0.4207 instead of the call delta 0.5793
    net, gbm = _merton_inputs()
    rep = mc_greeks(net, gbm, 100_000, seed=5)
    p = SymmetricParams(w_s=0.0, w_d=0.0, d=1.0, a_t=1.0, sigma=0.4, r=0.0,
                        tau=1.0)
    s_t, r_t = symmetric_price(p)
    g = symmetric_greeks(p)
    checks = [
        (rep.price[0], rep.price_se[0], s_t),
        (rep.price[1], rep.price_se[1], r_t),
        (rep.delta[0, 0], rep.delta_se[0, 0], g.delta_s),
        (rep.delta[1, 0], rep.delta_se[1, 0], g.delta_r),
        (rep.vega[0, 0], rep.vega_se[0, 0], g.vega_s),
        (rep.vega[1, 0], rep.vega_se[1, 0], g.vega_r),
        (rep.theta[0], rep.theta_se[0], g.theta_s),
        (rep.theta[1], rep.theta_se[1], g.theta_r),
        (rep.rho[0], rep.rho_se[0], g.rho_s),
        (rep.rho[1], rep.rho_se[1], g.rho_r),
        (rep.default_prob[0], rep.default_prob_se[0], 0.5792597094391030),
    ]
    for got, se, want in checks:
        assert abs(got - want) <= 3.0 * se + 1e-12
    # power check: the factorized value Phi(d_minus) is many SEs away from
    # the true call delta Phi(d_plus), so the agreement above is informative
    factorized = 0.42074029056089696
    assert abs(g.delta_s - factorized) > 10 * rep.delta_se[0, 0]


def test_no_holdings_decouples_firms():
    n = 3
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)),
                         d=np.ones(n))
    gbm = GbmParams(a_t=[0.8, 1.0, 1.3], sigma=[0.3, 0.4, 0.5], r=0.02,
                    tau=1.0, corr=np.eye(n))
    rep = mc_greeks(net, gbm, 4000, seed=6)
    off = ~np.eye(n, dtype=bool)
    assert np.all(rep.delta[:n][off] == 0.0)   # equity block
    assert np.all(rep.delta[n:][off] == 0.0)   # debt block
    assert np.all(rep.vega[:n][off] == 0.0)
    # dxda columns sum to one exactly when nothing is cross-held, so pi is
    # deterministic and delta_total a martingale-mean of 1
    np.testing.assert_allclose(rep.pi, 1.0, atol=1e-14)
    np.testing.assert_allclose(rep.pi_se, 0.0, atol=1e-14)
    assert np.all(np.abs(rep.delta_total - 1.0) <= 3 * rep.delta_total_se)


def test_symmetric_network_matches_closed_form():
    p = SymmetricParams(w_s=0.2, w_d=0.4, d=1.0, a_t=1.0, sigma=0.4, r=0.05,
                        tau=1.0)
    net, gbm = symmetric_mc_inputs(p, n=2)
    rep = mc_greeks(net, gbm, 40_000, seed=7)
    s_t, r_t = symmetric_price(p)
    g = symmetric_greeks(p)
    for i in range(2):
        assert abs(rep.price[i] - s_t) <= 3 * rep.price_se[i]
        assert abs(rep.price[2 + i] - r_t) <= 3 * rep.price_se[2 + i]
        # bumping all spots together reproduces the scalar delta; same for
        # the common sigma
        assert abs(rep.delta_uniform[i] - g.delta_s) <= 3 * rep.delta_uniform_se[i]
        assert abs(rep.delta_uniform[2 + i] - g.delta_r) <= 3 * rep.delta_uniform_se[2 + i]
        assert abs(rep.vega_uniform[i] - g.vega_s) <= 3 * rep.vega_uniform_se[i]
        assert abs(rep.vega_uniform[2 + i] - g.vega_r) <= 3 * rep.vega_uniform_se[2 + i]
        assert abs(rep.theta[i] - g.theta_s) <= 3 * rep.theta_se[i]
        assert abs(rep.rho[i] - g.rho_s) <= 3 * rep.rho_se[i]
        assert abs(rep.rho[2 + i] - g.rho_r) <= 3 * rep.rho_se[2 + i]
        # pi counts the firm's own unit of response while the closed form
        # nets it out
        assert abs(rep.pi[i] - (symmetric_pi(p) + 1.0)) <= 3 * rep.pi_se[i]


def _crn_difference(net, gbm, draws, seed, field, h, firm=None, cfg=DEFAULT_CONFIG):
    """Central difference of the prices in gbm.<field>, or in its firm-th entry, at frozen normals.

    With frozen normals the pathwise estimator should be the exact
    derivative of the frozen price, up to O(h^2), as long as no draw
    crosses the default boundary: no draw may change its solvency pattern
    between the two sides.
    """
    step = h if firm is None else h * np.eye(net.n)[firm]
    lo, hi = (replace(gbm, **{field: getattr(gbm, field) + sign * step}) for sign in (-1.0, 1.0))
    z = normal_variates(seed, draws, net.n)
    np.testing.assert_array_equal(solve_claims_batch(net, sample_terminal(lo, z), cfg).xi,
                                  solve_claims_batch(net, sample_terminal(hi, z), cfg).xi)
    return (price_claims(net, hi, draws, seed, cfg=cfg).price
            - price_claims(net, lo, draws, seed, cfg=cfg).price) / (2 * h)


def test_pathwise_greeks_match_common_random_number_differences():
    net = ng.symmetric_network(2, 0.2, 0.4)
    gbm = GbmParams(a_t=[1.0, 1.1], sigma=[0.4, 0.3], r=0.03, tau=1.2,
                    corr=np.array([[1.0, 0.3], [0.3, 1.0]]))
    draws, seed = 400, 77
    rep = mc_greeks(net, gbm, draws, seed)
    h = 1e-5
    for j in range(2):
        fd = _crn_difference(net, gbm, draws, seed, "a_t", h, firm=j)
        np.testing.assert_allclose(fd, rep.delta[:, j], rtol=1e-5, atol=1e-8)
        fd = _crn_difference(net, gbm, draws, seed, "sigma", h, firm=j)
        np.testing.assert_allclose(fd, rep.vega[:, j], rtol=1e-5, atol=1e-8)
    fd = _crn_difference(net, gbm, draws, seed, "r", h)
    np.testing.assert_allclose(fd, rep.rho, rtol=1e-5, atol=1e-8)
    fd = _crn_difference(net, gbm, draws, seed, "tau", h)
    np.testing.assert_allclose(-fd, rep.theta, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("net, block_average", [
    (ng.symmetric_network(12, 0.3, 0.4), True),
    (ng.symmetric_network(12, 0.3, 0.4), False),
    (ng.er_network(60, 3.0, 0.4, seed=2), True),
], ids=["symmetric12-swept", "symmetric12-factored", "er60-swept-and-factored"])
def test_pathwise_greeks_match_common_random_number_differences_in_both_kernel_paths(
        net, block_average):
    # the n = 2 case above factors every pattern.  Every firm of the 12-firm
    # equity network is live, so its patterns go to the sensitivity sweeps
    # with the two block-average portfolios and to the stacked LU with
    # dx*/da's 24 rows; the n = 60 debt network's go to both, by |J|.  A
    # Greek run prices every draw through dx*/da, and rho and theta carry
    # -tau x and r x, so they check that price too
    n = net.n
    weights = np.kron(np.eye(2), np.full((1, n), 1.0 / n)) if block_average else np.eye(2 * n)
    gbm = GbmParams(a_t=np.ones(n), sigma=np.full(n, 0.4), r=0.03, tau=1.0, corr=np.eye(n))
    cfg = FixedPointConfig(tol=1e-14)
    draws, seed, h = 2000, 5, 1e-6
    rep = mc_greeks(net, gbm, draws, seed, cfg=cfg, weights=weights)
    for j in (0, 5):
        for field, greek, gate in (("a_t", rep.delta, 1e-7), ("sigma", rep.vega, 1e-6)):
            fd = weights @ _crn_difference(net, gbm, draws, seed, field, h, firm=j, cfg=cfg)
            # relative to the column's largest entry
            column = greek[:, j]
            assert np.abs(fd - column).max() <= gate * np.abs(column).max(), (field, j)
    for field, greek, gate in (("r", rep.rho, 1e-7), ("tau", -rep.theta, 1e-6)):
        fd = weights @ _crn_difference(net, gbm, draws, seed, field, h, cfg=cfg)
        assert np.abs(fd - greek).max() <= gate * np.abs(greek).max(), field


@pytest.mark.parametrize("debt_held_in_full,share", [(False, 1.0), (True, 0.0)],
                         ids=["certified", "column_sum_one"])
def test_greek_price_through_dxda_matches_the_solved_claims_at_n60(monkeypatch,
                                                                   debt_held_in_full, share):
    # an er-sweep cell at r = 0.03: the Greek run prices every draw by one
    # contraction of W dx*/da, the price-only run prices Picard's claims at
    # tol.  As is, every chunk certifies all its draws; with firm 0's debt
    # held in full by firm 1 (scripts/output_digests.py's fallback network),
    # a column sum of one voids the certificate and Picard runs to tol
    n = 60
    net = ng.er_network(n, 3.0, 0.4, seed=2)
    if debt_held_in_full:
        m_d = net.m_d.copy()
        m_d[:, 0] = 0.0
        m_d[1, 0] = 1.0
        net = ng.FirmNetwork(m_s=net.m_s, m_d=m_d, d=net.d)
    weights = np.kron(np.eye(2), np.full((1, n), 1.0 / n))
    gbm = GbmParams(a_t=np.ones(n), sigma=np.full(n, 0.4), r=0.03, tau=1.0, corr=np.eye(n))
    certified = []

    def spy(*args, **kwargs):
        sol = solve_claims_batch(*args, **kwargs)
        certified.append(sol.certified.mean())
        return sol

    monkeypatch.setattr(mc, "solve_claims_batch", spy)
    rep = mc_greeks(net, gbm, 2000, 9, weights=weights)
    assert certified == [share] * 4
    monkeypatch.undo()
    want = weights @ price_claims(net, gbm, 2000, 9).price
    np.testing.assert_allclose(rep.price, want, rtol=1e-12, atol=0.0)


def test_bit_reproducible_across_threads_and_runs():
    rng = np.random.default_rng(3)
    net = random_network(rng, 3)
    gbm = GbmParams(a_t=[1.0, 0.9, 1.2], sigma=[0.4, 0.3, 0.5], r=0.01,
                    tau=1.0, corr=np.eye(3))
    draws = 20_000  # several chunks, so the merge tree is exercised
    a = mc_greeks(net, gbm, draws, seed=11, threads=1)
    b = mc_greeks(net, gbm, draws, seed=11, threads=8)
    c = mc_greeks(net, gbm, draws, seed=11, threads=1)
    for name in ("price", "price_se", "delta", "delta_se", "vega", "theta",
                 "rho", "pi", "delta_total", "delta_uniform", "vega_uniform",
                 "default_prob"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        np.testing.assert_array_equal(getattr(a, name), getattr(c, name), err_msg=name)
    assert a.boundary_hits == b.boundary_hits
    d = mc_greeks(net, gbm, draws, seed=12)
    assert not np.array_equal(a.price, d.price)


@pytest.mark.parametrize("threads,tasks,cpus,workers", [
    (100_000, 3, 4, 3),     # no more workers than tasks
    (100_000, 10, 4, 4),    # nor than CPUs
    (2, 10, 4, 2),
    (8, 10, None, None),    # an unknown CPU count runs serially
    (8, 1, 4, None),
])
def test_thread_pool_is_capped_at_tasks_and_cpus(monkeypatch, threads, tasks, cpus, workers):
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", FakePool)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    assert mc._ordered_map(lambda t: t * t, range(tasks), threads) == [t * t for t in range(tasks)]
    assert started == ([] if workers is None else [workers])


def test_price_claims_agrees_with_greek_report():
    net = ng.symmetric_network(2, 0.1, 0.3)
    gbm = GbmParams(a_t=[1.0, 1.0], sigma=[0.4, 0.4], r=0.0, tau=1.0,
                    corr=np.eye(2))
    pr = price_claims(net, gbm, 3000, seed=13)
    rep = mc_greeks(net, gbm, 3000, seed=13)
    np.testing.assert_array_equal(pr.price, rep.price)
    np.testing.assert_array_equal(pr.se, rep.price_se)
    assert pr.draws == 3000 and pr.seed == 13


def test_constant_statistic_has_zero_se_at_nonzero_rate():
    # no draw defaults, so each debt claim pays d and its price and rho are
    # constant over the draws; discounted once, after the merge, their SE
    # is exactly 0 at r != 0 (a per-draw discount leaves a rounding residue)
    p = SymmetricParams(w_s=0.3, w_d=0.0, d=1.0, a_t=1.6, sigma=0.1, r=0.05, tau=1.5)
    net, gbm = symmetric_mc_inputs(p, n=2)
    rep = mc_greeks(net, gbm, 20_000, seed=7)
    assert np.all(rep.price_se[2:] == 0.0) and np.all(rep.rho_se[2:] == 0.0)
    assert np.all(price_claims(net, gbm, 20_000, seed=7).se[2:] == 0.0)
    assert np.all(rep.price_se[:2] > 0.0) and np.all(rep.rho_se[:2] > 0.0)


def test_boundary_draws_are_counted():
    # sigma ~ 0 parks every terminal value on the default boundary
    net, gbm = _merton_inputs(a_t=1.0, sigma=1e-12, r=0.0, d=1.0)
    rep = mc_greeks(net, gbm, 500, seed=14)
    assert rep.boundary_hits == 500
    # a comfortably solvent configuration never gets flagged
    net, gbm = _merton_inputs(a_t=2.0, sigma=0.2)
    assert mc_greeks(net, gbm, 500, seed=14).boundary_hits == 0


def test_invariants_on_random_network():
    rng = np.random.default_rng(15)
    net = random_network(rng, 4)
    gbm = GbmParams(a_t=rng.uniform(0.5, 1.5, 4), sigma=rng.uniform(0.2, 0.6, 4),
                    r=0.02, tau=1.0, corr=np.eye(4))
    rep = mc_greeks(net, gbm, 2000, seed=16)
    assert np.all(rep.delta >= 0.0)            # non-negative integrand
    assert np.all(rep.price_se >= 0.0) and np.all(rep.delta_se >= 0.0)
    assert np.all((rep.default_prob >= 0.0) & (rep.default_prob <= 1.0))
    assert np.all(rep.pi >= 1.0 - 1e-12)       # own unit plus spill-overs
    np.testing.assert_allclose(rep.delta_total, rep.delta.sum(axis=0))
    np.testing.assert_allclose(rep.delta_uniform, rep.delta.sum(axis=1),
                               atol=5e-15)


def test_nonconvergence_reports_global_draw_index():
    # a one-sweep cap fails inside some chunk before the polish; the error
    # must surface the draw index in the caller's numbering
    net = ng.symmetric_network(2, 0.0, 0.9)
    gbm = GbmParams(a_t=[0.05, 0.05], sigma=[0.3, 0.3], r=0.0, tau=1.0,
                    corr=np.eye(2))
    cfg = FixedPointConfig(tol=1e-12, max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        mc_greeks(net, gbm, 1000, seed=17, cfg=cfg)
    assert err.value.draw is not None and err.value.draw >= 0
    assert "draw" in str(err.value)


def test_nonconvergence_names_unconverged_firms_and_pattern():
    net = ng.symmetric_network(2, 0.0, 0.9)
    gbm = GbmParams(a_t=[0.05, 0.05], sigma=[0.3, 0.3], r=0.0, tau=1.0,
                    corr=np.eye(2))
    cfg = FixedPointConfig(tol=1e-12, max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        mc_greeks(net, gbm, 1000, seed=17, cfg=cfg)
    # both deeply insolvent firms are still moving when the cap is hit
    assert "unconverged firms [0, 1]" in str(err.value)
    assert "solvency pattern xi=00" in str(err.value)


def test_input_validation():
    net, gbm = _merton_inputs()
    with pytest.raises(ValueError, match="draws"):
        price_claims(net, gbm, 1, seed=0)
    other = GbmParams(a_t=[1.0, 1.0], sigma=[0.4, 0.4], r=0.0, tau=1.0,
                      corr=np.eye(2))
    with pytest.raises(ValueError, match="firms"):
        price_claims(net, other, 100, seed=0)


def test_report_serialization():
    net, gbm = _merton_inputs()
    rep = mc_greeks(net, gbm, 200, seed=18)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["n"] == 1 and data["draws"] == 200 and data["seed"] == 18
    np.testing.assert_allclose(data["price"], rep.price)
    np.testing.assert_allclose(data["delta"], rep.delta)
    assert "delta_se" in data and "pi_se" in data and "boundary_hits" in data


def test_weighted_report_is_projection_of_full_report():
    # weights W turn every per-claim row into a per-portfolio row: the
    # weighted report equals W applied to the full report's means, and pi /
    # delta_total sum over the portfolios
    rng = np.random.default_rng(53)
    net = random_network(rng, 4)
    gbm = GbmParams(a_t=np.full(4, 1.2), sigma=np.full(4, 0.4), r=0.03, tau=1.0,
                    corr=np.eye(4))
    full = mc_greeks(net, gbm, 3000, seed=19)
    W = np.vstack([np.kron(np.eye(2), np.full((1, 4), 0.25)), rng.random((1, 8))])
    rep = mc_greeks(net, gbm, 3000, seed=19, weights=W)
    assert rep.n == 4 and rep.price.shape == (3,) and rep.delta.shape == (3, 4)
    for name in ("price", "delta", "vega", "theta", "rho"):
        np.testing.assert_allclose(getattr(rep, name), W @ getattr(full, name),
                                   rtol=1e-12, atol=1e-15)
    for name in ("delta", "vega"):
        np.testing.assert_allclose(getattr(rep, name + "_uniform"),
                                   W @ getattr(full, name + "_uniform"), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(rep.delta_total, rep.delta.sum(axis=0), rtol=1e-12, atol=1e-15)
    # with the single all-claims portfolio, pi is the full report's 1' dx*/da
    ones = mc_greeks(net, gbm, 3000, seed=19, weights=np.ones((1, 8)))
    np.testing.assert_allclose(ones.pi, full.pi, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(ones.delta_total, full.delta_total, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(rep.default_prob, full.default_prob)
    assert rep.boundary_hits == full.boundary_hits


def test_moments_get_contiguous_draw_last_chunks(monkeypatch, tmp_path):
    # every statistic reaches the accumulator as a C-contiguous array with
    # the chunk's draws on its last axis, so mean and M2 reduce along it
    seen = []
    real = _RunningStat.from_samples.__func__

    def spy(cls, x):
        seen.append(x)
        return real(cls, x)

    monkeypatch.setattr(_RunningStat, "from_samples", classmethod(spy))

    def chunk_counts(n, draws):
        size = _chunk_size(n)
        return {min(size, draws - start) for start in range(0, draws, size)}

    rng = np.random.default_rng(23)
    net = random_network(rng, 3)
    gbm = GbmParams(a_t=[1.0, 0.9, 1.2], sigma=[0.4, 0.3, 0.5], r=0.01, tau=1.0,
                    corr=np.eye(3))
    draws = _chunk_size(3) + 300   # two chunks of different sizes
    debt = Path(__file__).resolve().parent.parent / "configs" / "debt_network.json"
    runs = [
        (3, draws, lambda: mc_greeks(net, gbm, draws, seed=24)),
        (3, draws, lambda: mc_greeks(net, gbm, draws, seed=24, weights=rng.random((2, 6)))),
        (3, draws, lambda: price_claims(net, gbm, draws, seed=24)),
        (ng.load_network(debt).n, 500, lambda: run_local_compare(ExperimentConfig.from_dict(
            {"kind": "local-compare", "network": str(debt), "a_t": 1.05, "sigma": 0.4,
             "firm_vol": 0.4, "draws": 500, "seed": 2}), out=tmp_path / "local.csv")),
    ]
    for n, count, run in runs:
        seen.clear()
        run()
        assert seen
        assert all(x.flags.c_contiguous for x in seen)
        assert {x.shape[-1] for x in seen} == chunk_counts(n, count)


def test_chunk_moments_are_accurate_on_a_large_offset():
    # pairwise sums along the draw axis: the mean of 1e6 + N(0, 1) to a few
    # ulps of the exactly rounded fsum, M2 to 1e-12 of its fsum-centred value
    rng = np.random.default_rng(25)
    x = np.array([1e6, -3e5])[:, None] + rng.standard_normal((2, 8192))
    stat = _RunningStat.from_samples(x)
    assert stat.count == 8192 and stat.mean.shape == (2,)
    for row, mean, m2 in zip(x, stat.mean, stat.m2):
        want = math.fsum(row) / row.size
        assert abs(mean - want) <= 1e-14 * abs(want)
        want_m2 = math.fsum((v - want) ** 2 for v in row)
        assert abs(m2 - want_m2) <= 1e-12 * want_m2


SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code: str) -> str:
    # a fresh interpreter: no earlier test has touched its heap or its ctypes
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.stdout


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_warm_chunks_do_not_fault_their_memory_in_again():
    # with glibc's default thresholds each 8192-draw chunk hands its few MiB
    # back to the kernel and the next faults them in: about 3,000 minor
    # faults for these three calls, against none with the pinned thresholds
    faults = int(_python(
        "import resource\n"
        "from netgreeks.mc import mc_greeks\n"
        "from netgreeks.symmetric import SymmetricParams, symmetric_mc_inputs\n"
        "net, gbm = symmetric_mc_inputs(SymmetricParams(w_s=0.2, w_d=0.3, d=1.0, a_t=1.0,\n"
        "                                               sigma=0.3, r=0.0, tau=1.0), n=2)\n"
        "for seed in range(2):\n"
        "    mc_greeks(net, gbm, 8192, seed=seed)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for seed in range(3):\n"
        "    mc_greeks(net, gbm, 8192, seed=seed)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"))
    assert faults <= 100


def test_import_pins_heap_thresholds_where_mallopt_exists():
    # M_MMAP_THRESHOLD (-3) = 16 * _CHUNK_BUDGET bytes, M_TRIM_THRESHOLD (-1)
    # twice that; a C library without mallopt, or none loadable by CDLL(None)
    # as on Windows, leaves the import quiet
    out = _python(
        "import ctypes, importlib\n"
        "calls = []\n"
        "class Libc:\n"
        "    def __init__(self, name):\n"
        "        assert name is None\n"
        "    def mallopt(self, param, value):\n"
        "        calls.append((param, value))\n"
        "class NoMallopt:\n"
        "    def __init__(self, name):\n"
        "        pass\n"
        "class NoLibrary:\n"
        "    def __init__(self, name):\n"
        "        raise TypeError('LoadLibrary() argument 1 must be str, not None')\n"
        "ctypes.CDLL = Libc\n"
        "import netgreeks.mc as mc\n"
        "print(calls, mc._CHUNK_BUDGET)\n"
        "for stub in (NoMallopt, NoLibrary):\n"
        "    ctypes.CDLL = stub\n"
        "    importlib.reload(mc)\n"
        "print(len(calls))\n")
    assert out.split("\n")[:2] == ["[(-3, 33554432), (-1, 67108864)] 2097152", "2"]
