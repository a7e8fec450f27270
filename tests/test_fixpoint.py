from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgreeks as ng
from netgreeks import fixpoint
from netgreeks.experiments import _task_seed
from netgreeks.gbm import GbmParams, normal_variates, sample_terminal
from netgreeks.network import er_network
from netgreeks.sensitivity import _distinct_patterns
from helpers import (TIGHT, Claims, assert_picard_iterate, eval_g, picard_oracle, random_network,
                     solve_claims, solvency)


def single_firm(d=1.0):
    return ng.FirmNetwork(m_s=np.zeros((1, 1)), m_d=np.zeros((1, 1)), d=np.array([d]))


def _sup_gap(x, y):
    """Sup-norm distance between two claim vectors, the solver's residual."""
    return max(np.abs(x.s - y.s).max(), np.abs(x.r - y.r).max())


def test_eval_g_single_firm_solvent():
    net = single_firm()
    out = eval_g(net, np.array([2.0]), Claims(s=np.zeros(1), r=np.zeros(1)))
    assert out.s[0] == pytest.approx(1.0) and out.r[0] == pytest.approx(1.0)


def test_eval_g_single_firm_insolvent():
    net = single_firm()
    out = eval_g(net, np.array([0.5]), Claims(s=np.zeros(1), r=np.zeros(1)))
    assert out.s[0] == 0.0 and out.r[0] == pytest.approx(0.5)


def test_eval_g_symmetric_debt_step():
    # two firms, w_d = 0.4, starting from r = min(d, a): one step gives r = 0.7
    net = ng.symmetric_network(2, 0.0, 0.4)
    a = np.full(2, 0.5)
    out = eval_g(net, a, Claims(s=np.zeros(2), r=np.full(2, 0.5)))
    np.testing.assert_allclose(out.r, 0.7)
    np.testing.assert_array_equal(out.s, 0.0)


def test_single_firm_solution():
    sol = solve_claims(single_firm(), np.array([2.0]))
    assert sol.claims.s[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.claims.r[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.xi[0] == 1.0


def test_single_firm_boundary_tie_counts_insolvent():
    sol = solve_claims(single_firm(), np.array([1.0]))
    assert sol.claims.s[0] == 0.0
    assert sol.claims.r[0] == 1.0
    assert sol.xi[0] == 0.0
    assert sol.residual == 0.0


def test_symmetric_insolvent_value():
    net = ng.symmetric_network(4, 0.0, 0.4)
    sol = solve_claims(net, np.full(4, 0.5))
    np.testing.assert_allclose(sol.claims.s, 0.0, atol=1e-12)
    np.testing.assert_allclose(sol.claims.r, 5.0 / 6.0, atol=1e-10)
    assert np.all(sol.xi == 0.0)


def test_symmetric_solvent_value():
    net = ng.symmetric_network(4, 0.2, 0.4)
    sol = solve_claims(net, np.full(4, 1.2))
    np.testing.assert_allclose(sol.claims.s, 0.75, atol=1e-10)
    np.testing.assert_allclose(sol.claims.r, 1.0, atol=1e-10)
    assert np.all(sol.xi == 1.0)


def test_matches_symmetric_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w_s, w_d = rng.uniform(0.0, 0.8, size=2)
        d = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.05, 3.0)
        p = ng.SymmetricParams(w_s=w_s, w_d=w_d, d=d, a_t=a, sigma=0.3, r=0.0, tau=1.0)
        s_star, r_star, xi = ng.symmetric_expost(a, p)
        net = ng.symmetric_network(3, w_s, w_d, d)
        sol = solve_claims(net, np.full(3, a), TIGHT)
        np.testing.assert_allclose(sol.claims.s, s_star, atol=1e-9)
        np.testing.assert_allclose(sol.claims.r, r_star, atol=1e-9)
        assert np.all(sol.xi == xi)


def test_residual_post_condition():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        a = rng.uniform(0.1, 3.0, size=n)
        sol = solve_claims(net, a)
        g = eval_g(net, a, sol.claims)
        gap = _sup_gap(g, sol.claims)
        assert gap <= ng.FixedPointConfig().tol
        assert sol.residual <= ng.FixedPointConfig().tol


def test_claim_bounds_hold():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        a = rng.uniform(0.1, 3.0, size=n)
        sol = solve_claims(net, a)
        assert np.all(sol.claims.s >= 0.0)
        assert np.all(sol.claims.r >= 0.0)
        assert np.all(sol.claims.r <= net.d + 1e-15)


def test_unique_fixed_point_from_upper_start():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        a = rng.uniform(0.1, 3.0, size=n)
        base = solve_claims(net, a, TIGHT)
        # start above the fixed point: s bound solves s = a + m_s s + m_d d
        s_up = np.linalg.solve(np.eye(n) - net.m_s, a + net.m_d @ net.d) + 1.0
        x = Claims(s=s_up, r=net.d.copy())
        for _ in range(TIGHT.max_iter):
            nxt = eval_g(net, a, x)
            done = _sup_gap(nxt, x) <= TIGHT.tol
            x = nxt
            if done:
                break
        else:
            pytest.fail("Picard from the upper start did not converge")
        np.testing.assert_allclose(x.s, base.claims.s, atol=1e-9)
        np.testing.assert_allclose(x.r, base.claims.r, atol=1e-9)


def test_monotone_in_assets():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        a = rng.uniform(0.1, 2.0, size=n)
        bump = rng.uniform(0.0, 0.5, size=n)
        lo = solve_claims(net, a).claims
        hi = solve_claims(net, a + bump).claims
        assert np.all(hi.s >= lo.s - 1e-10) and np.all(hi.r >= lo.r - 1e-10)


def test_residuals_non_increasing_after_first_iteration():
    rng = np.random.default_rng(17)
    violations = []
    for k in range(30):
        n = int(rng.integers(2, 8))
        net = random_network(rng, n)
        a = rng.uniform(0.1, 3.0, size=n)
        # Picard from the solver's start x0 = (0, min(d, a)) to its tolerance
        x = Claims(s=np.zeros(n), r=np.minimum(net.d, a))
        hist = []
        while not hist or hist[-1] > 1e-12:
            assert len(hist) < 10_000, "Picard did not converge"
            nxt = eval_g(net, a, x)
            hist.append(_sup_gap(nxt, x))
            x = nxt
        hist = np.array(hist)
        if len(hist) > 2 and np.any(np.diff(hist[1:]) > 1e-15):
            violations.append((k, hist))
    assert not violations, f"residual grew after first iteration in {len(violations)} cases"


def test_iterations_counts_map_evaluations():
    # an isolated insolvent firm: the default start (s, r) = (0, min(d, a))
    # already is the fixed point, so one map evaluation confirms it
    sol = solve_claims(single_firm(d=1.0), np.array([0.5]))
    assert sol.iterations == 1
    assert sol.residual == 0.0
    assert sol.claims.s[0] == 0.0 and sol.claims.r[0] == 0.5


def test_convergence_error_carries_state():
    # deep insolvency with near-unit column sums converges at rate 0.95
    net = ng.symmetric_network(2, 0.0, 0.95)
    cfg = ng.FixedPointConfig(tol=1e-12, max_iter=5)
    with pytest.raises(ng.ConvergenceError) as err:
        solve_claims(net, np.full(2, 0.01), cfg)
    assert "after 5 iterations" in str(err.value)
    assert "residual" in str(err.value)


def test_rejects_nonpositive_assets():
    net = single_firm()
    with pytest.raises(ValueError):
        solve_claims(net, np.array([0.0]))
    with pytest.raises(ValueError):
        solve_claims(net, np.array([-1.0]))


@pytest.mark.parametrize("a, row, firm", [
    ([[np.inf, 1.0, 1.0]], 0, 0),
    ([[1.0, 1.0, 1.0], [1.0, np.nan, 1.0]], 1, 1),
    ([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, -np.inf]], 2, 2),
])
def test_batch_rejects_nonfinite_assets_and_names_the_row(a, row, firm):
    # unguarded, inf runs max_iter sweeps to NaN claims and NaN returns zero equity
    net = ng.symmetric_network(3, 0.2, 0.3, 1.0)
    with pytest.raises(ValueError, match=f"finite and strictly positive, got .* at row {row}, firm {firm}$"):
        ng.solve_claims_batch(net, a)


def test_batch_matches_scalar():
    rng = np.random.default_rng(21)
    net = random_network(rng, 5)
    a = rng.uniform(0.1, 3.0, size=(40, 5))
    batch = ng.solve_claims_batch(net, a)
    for i in range(40):
        sol = solve_claims(net, a[i])
        np.testing.assert_allclose(batch.s[i], sol.claims.s, atol=1e-11)
        np.testing.assert_allclose(batch.r[i], sol.claims.r, atol=1e-11)
        assert np.all(batch.xi[i] == sol.xi)


def test_solvency_strict_inequality():
    net = single_firm()
    claims = Claims(s=np.zeros(1), r=np.ones(1))
    assert solvency(net, np.array([1.0]), claims)[0] == 0.0
    assert solvency(net, np.array([1.0 + 1e-9]), claims)[0] == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ng.FixedPointConfig(tol=0.0)
    with pytest.raises(ValueError):
        ng.FixedPointConfig(max_iter=0)


# -- the polish: one Picard sweep, then one A(xi) solve per distinct pattern ----


def _spy(name):
    """Patch fixpoint.<name> with a mock that records its calls and passes them through."""
    return mock.patch.object(fixpoint, name, wraps=getattr(fixpoint, name))


def _perturb_forward_solve(monkeypatch, row, delta):
    """Make the polish's solve return v off by delta on one row."""
    real = fixpoint._forward_solve

    def perturbed(*args):
        v = real(*args)
        v[:, row] += delta
        return v

    monkeypatch.setattr(fixpoint, "_forward_solve", perturbed)


def _assert_matches_oracle(sol, oracle, tol):
    s, r, _, xi, _, _ = oracle
    np.testing.assert_array_equal(sol.xi, xi)
    np.testing.assert_allclose(sol.s, s, rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(sol.r, r, rtol=0.0, atol=1e-11)
    assert sol.residuals.max() <= tol


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans(), st.integers(1, 3))
def test_polish_matches_plain_picard(seed, n, debt_only, distinct):
    # `distinct` rows tiled n times: at most `distinct` patterns in
    # distinct * n rows, so the batch is polished
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, debt_only=debt_only)
    a = np.tile(rng.uniform(0.1, 3.0, size=(distinct, n)), (n, 1))
    with _spy("_sweeps") as sweeps:
        sol = ng.solve_claims_batch(net, a, TIGHT)
    oracle = picard_oracle(net, a, TIGHT)
    _assert_matches_oracle(sol, oracle, TIGHT.tol)
    # the first sweep and, unless that already met tol, the verifying sweep;
    # no row needed the fallback
    assert sweeps.call_count <= 2
    assert sol.iterations <= oracle[4] + 1


def test_polish_re_solves_rows_whose_loose_pattern_is_wrong():
    # Picard rises to v* = a + 0.6 d = 1.001 from below, so after the first
    # sweep both firms still look insolvent; solving with xi = 00 gives
    # v = a / 0.4 > d, and one re-solve with xi = 11 finishes
    net = ng.symmetric_network(2, 0.0, 0.6)
    a = np.full((4, 2), 0.401)
    with _spy("_forward_solve") as solves:
        sol = ng.solve_claims_batch(net, a)
    assert solves.call_count == 2
    np.testing.assert_array_equal(sol.xi, 1.0)
    np.testing.assert_allclose(sol.v, 1.001, rtol=0.0, atol=1e-15)
    _assert_matches_oracle(sol, picard_oracle(net, a), ng.FixedPointConfig().tol)


def test_row_failing_the_polish_check_falls_back_to_picard(monkeypatch):
    rng = np.random.default_rng(3)
    net = random_network(rng, 3)
    a = np.tile(rng.uniform(0.5, 2.0, size=3), (6, 1))
    _perturb_forward_solve(monkeypatch, 2, 1e-6)
    with _spy("_sweeps") as sweeps:
        sol = ng.solve_claims_batch(net, a, TIGHT)
    oracle = picard_oracle(net, a, TIGHT)
    # the first sweep, the verifying sweep and the fallback of row 2 alone
    assert [call.args[2].shape[1] for call in sweeps.call_args_list] == [6, 6, 1]
    _assert_matches_oracle(sol, oracle, TIGHT.tol)
    # the fallback resumes the plain sequence, so the row is the oracle's
    for got, want in zip((sol.s, sol.r, sol.v, sol.residuals), (*oracle[:3], oracle[5])):
        np.testing.assert_array_equal(got[2], want[2])
    assert sol.iterations == oracle[4] + 1


def test_fallback_failure_names_the_batch_row(monkeypatch):
    # deep mutual insolvency: the first sweep reads xi = 00, the fallback
    # of the perturbed row 4 would need hundreds more sweeps
    net = ng.symmetric_network(2, 0.0, 0.9)
    a = np.full((6, 2), 0.05)
    _perturb_forward_solve(monkeypatch, 4, -1e-3)
    cfg = ng.FixedPointConfig(tol=1e-12, max_iter=40)
    with pytest.raises(ng.ConvergenceError, match="worst scenario 4") as err:
        ng.solve_claims_batch(net, a, cfg)
    assert err.value.draw == 4


def test_deep_insolvency_is_polished_after_one_sweep():
    # plain Picard needs hundreds of sweeps at w_d = 0.9; the first sweep
    # already reads xi = 00, and its one solve gives v = a / 0.1 exactly
    net = ng.symmetric_network(2, 0.0, 0.9)
    sol = ng.solve_claims_batch(net, np.full((4, 2), 0.05), ng.FixedPointConfig(max_iter=3))
    np.testing.assert_allclose(sol.v, 0.5, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(sol.xi, 0.0)
    # the first sweep and the verifying sweep
    assert sol.iterations == 2


@pytest.mark.parametrize("ai, a0", [(0, 0.1), (1, 0.2)])
def test_paper_sweep_low_asset_cells_are_polished(ai, a0):
    # member 0 of configs/er_sweep_paper.json's cells k_mean = 2 (index 4),
    # w_d = 0.6 (index 3) at low a0, its 700 draws in one batch: the first
    # sweep's patterns are few enough to polish, and the polish is the exact
    # fixed point that Picard at TIGHT approaches
    net = er_network(60, 2.0, 0.6, seed=_task_seed(1, 0, 4, 3, 0))
    gbm = GbmParams(a_t=np.full(60, a0), sigma=np.full(60, 0.4), r=0.0, tau=1.0,
                    corr=np.eye(60))
    a = sample_terminal(gbm, normal_variates(_task_seed(1, 1, 4, 3, ai, 0), 700, 60))
    with _spy("_polish") as polish:
        sol = ng.solve_claims_batch(net, a)
    assert polish.call_count == 1
    s, r, v = picard_oracle(net, a, TIGHT)[:3]
    for got, want in zip((sol.s, sol.r, sol.v), (s, r, v)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert sol.residuals.max() <= ng.FixedPointConfig().tol


def test_batch_with_all_distinct_patterns_is_plain_picard():
    # U n > B: the polish is skipped and Picard resumes from the second
    # iterate, bit for bit the plain iteration
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 7))
        net = random_network(rng, n, debt_only=bool(checked % 2))
        a = rng.uniform(0.1, 3.0, size=(4, n))
        oracle = picard_oracle(net, a)
        if len(_distinct_patterns(oracle[3] == 1.0)[0]) < len(a):
            continue
        _assert_plain_picard(net, a, oracle)
        checked += 1


@pytest.mark.parametrize("ki, k_mean, wi, w_d", [(6, 3.0, 3, 0.6), (2, 1.0, 1, 0.2)])
def test_n60_batch_with_too_many_patterns_is_plain_picard(ki, k_mean, wi, w_d):
    # member 0 of configs/er_sweep_paper.json's cell (k_mean, w_d) at a0 = 1
    # (index 9), one 582-draw chunk: too many patterns to polish, and the
    # draw-major products keep the batch bit for bit the plain iteration
    net = er_network(60, k_mean, w_d, seed=_task_seed(1, 0, ki, wi, 0))
    gbm = GbmParams(a_t=np.ones(60), sigma=np.full(60, 0.4), r=0.0, tau=1.0, corr=np.eye(60))
    a = sample_terminal(gbm, normal_variates(_task_seed(1, 1, ki, wi, 9, 0), 582, 60))
    oracle = picard_oracle(net, a)
    _assert_plain_picard(net, a, oracle)
    # certifying, the batch stops once every draw's pattern is certified, in
    # fewer sweeps; each draw keeps its pattern, and its firm values are an
    # earlier Picard iterate, below the plain loop's
    sol = ng.solve_claims_batch(net, a, certify=True)
    _assert_draw_last(sol, a.shape)
    np.testing.assert_array_equal(sol.xi, oracle[3])
    assert sol.certified.all() and sol.iterations < oracle[4] / 2
    below = oracle[2] - sol.v
    assert below.min() >= -1e-12 and below.max() <= 1e-2
    # that iterate is the plain loop's at the same sweep, bit for bit
    assert_picard_iterate(net, a, sol)


@pytest.mark.parametrize("certify", [False, True])
def test_empty_batch_is_an_empty_solution(certify):
    net = ng.symmetric_network(3, 0.2, 0.3)
    sol = ng.solve_claims_batch(net, np.empty((0, 3)), certify=certify)
    _assert_draw_last(sol, (0, 3))
    assert sol.residuals.shape == sol.certified.shape == (0,)
    assert sol.iterations == 1


def _assert_plain_picard(net, a, oracle):
    """solve_claims_batch skips the polish and equals picard_oracle bit for bit."""
    with _spy("_polish") as polish:
        sol = ng.solve_claims_batch(net, a)
    assert not polish.called
    for got, want in zip((sol.s, sol.r, sol.v, sol.xi, sol.residuals),
                         (*oracle[:4], oracle[5])):
        np.testing.assert_array_equal(got, want)
    assert sol.iterations == oracle[4]


def _assert_draw_last(sol, shape):
    for field in (sol.s, sol.r, sol.v, sol.xi):
        assert field.shape == shape
        assert field.T.flags.c_contiguous


def test_solution_fields_are_views_of_draw_last_arrays(monkeypatch):
    rng = np.random.default_rng(4)
    net = random_network(rng, 3)
    polished = np.tile(rng.uniform(0.5, 2.0, size=3), (6, 1))
    with _spy("_polish") as polish:
        _assert_draw_last(ng.solve_claims_batch(net, polished, TIGHT), (6, 3))
    assert polish.called
    # one draw, so one pattern in fewer than n draws: plain Picard
    with _spy("_polish") as polish:
        _assert_draw_last(ng.solve_claims_batch(net, polished[:1], TIGHT), (1, 3))
    assert not polish.called
    _perturb_forward_solve(monkeypatch, 2, 1e-6)
    with _spy("_sweeps") as sweeps:
        _assert_draw_last(ng.solve_claims_batch(net, polished, TIGHT), (6, 3))
    assert [call.args[2].shape[1] for call in sweeps.call_args_list] == [6, 6, 1]
