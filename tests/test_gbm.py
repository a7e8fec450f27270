"""Terminal sampling: Cholesky handling, counter-based draws, pathwise partials."""

import dataclasses

import numpy as np
import pytest
from scipy.special import ndtri

from netgreeks.gbm import (
    _EXP_M2,
    _Z_MAX,
    _Z_MIN,
    GbmParams,
    _ndtri,
    _terminal_with_partials,
    normal_variates,
    sample_terminal,
)


def _params(n=2, r=0.0, tau=1.0, sigma=0.4, corr=None):
    if corr is None:
        corr = np.eye(n)
    return GbmParams(a_t=np.ones(n), sigma=np.full(n, sigma), r=r, tau=tau,
                     corr=corr)


def _chol(corr):
    corr = np.asarray(corr, dtype=float)
    return _params(n=corr.shape[0], corr=corr).chol


# --- parameter validation ---------------------------------------------------

def test_params_reject_nonpositive_inputs():
    with pytest.raises(ValueError):
        GbmParams(a_t=[1.0, -1.0], sigma=[0.4, 0.4], r=0.0, tau=1.0, corr=np.eye(2))
    with pytest.raises(ValueError):
        GbmParams(a_t=[1.0], sigma=[0.0], r=0.0, tau=1.0, corr=np.eye(1))
    with pytest.raises(ValueError):
        GbmParams(a_t=[1.0], sigma=[0.4], r=0.0, tau=0.0, corr=np.eye(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["a_t", "sigma", "r", "tau"])
def test_params_reject_nonfinite_inputs(field, bad):
    good = dict(a_t=[1.0, 1.0], sigma=[0.4, 0.4], r=0.0, tau=1.0)
    value = [1.0, bad] if field in ("a_t", "sigma") else bad
    with pytest.raises(ValueError, match="finite"):
        GbmParams(**{**good, field: value}, corr=np.eye(2))


def test_extreme_normals_are_ndtri_of_the_extreme_uniforms():
    # Generator.random returns multiples of 2**-53 below 1; normal_variates
    # lifts 0 to the smallest normal float
    u = np.array([np.finfo(float).tiny, 1.0 - 2.0**-53])
    np.testing.assert_array_equal(_ndtri(u), [_Z_MIN, _Z_MAX])


def _sampled_range_is_finite(a_t, sigma, r, tau):
    # brute force over 200,001 normals in [_Z_MIN, _Z_MAX], both ends included
    p = GbmParams(a_t=[1.0], sigma=[0.4], r=0.0, tau=1.0, corr=np.eye(1))
    for name, value in (("a_t", np.array([a_t])), ("sigma", np.array([sigma])), ("r", r), ("tau", tau)):
        object.__setattr__(p, name, value)
    z = np.linspace(_Z_MIN, _Z_MAX, 200_001)[:, None]
    with np.errstate(all="ignore"):
        a, partials = _terminal_with_partials(p, z)
    return bool(np.all(a > 0.0) and np.all(np.isfinite(a)) and np.all(np.isfinite(partials)))


@pytest.mark.parametrize("a_t, sigma, r, tau, accepted", [
    (1e308, 0.4, 0.0, 1.0, False),       # A_T overflows at the top normal
    (4e306, 0.4, 0.0, 1.0, False),       # A_T is finite there, dA_T/dsigma is not
    (1.4683e307, 0.03, 0.0, 1.0, False),  # |dA_T/dsigma| peaks inside the range
    (1.45e307, 0.03, 0.0, 1.0, True),
    (1.0, 40.0, 0.0, 1.0, False),        # A_T underflows to 0 at the bottom normal
    (1.0, 14.0, 0.0, 1.0, True),
    (5e-324, 0.4, 0.0, 1.0, False),
    (1e300, 0.4, 0.0, 1.0, True),
    (1e-300, 0.5, 0.0, 1e-300, True),
    (1e300, 0.05, 0.03, 1e-3, True),
])
def test_params_accept_exactly_what_the_sampler_maps_to_finite_values(a_t, sigma, r, tau, accepted):
    assert _sampled_range_is_finite(a_t, sigma, r, tau) == accepted
    if accepted:
        GbmParams(a_t=[a_t], sigma=[sigma], r=r, tau=tau, corr=np.eye(1))
    else:
        with pytest.raises(ValueError, match="firm 0: .* overflow or underflow"):
            GbmParams(a_t=[a_t], sigma=[sigma], r=r, tau=tau, corr=np.eye(1))


def test_params_range_check_follows_the_cholesky_mixing():
    # a correlation of -0.9 stretches firm 1's correlated normals to about
    # [-23.74, 37.35], so a spot the independent model accepts overflows
    kw = dict(a_t=[1.0, 1e200], sigma=[0.4, 8.0], r=0.0, tau=1.0)
    GbmParams(**kw, corr=np.eye(2))
    with pytest.raises(ValueError, match="firm 1: .* normals in \\[-23.74, 37.35\\]"):
        GbmParams(**kw, corr=np.array([[1.0, -0.9], [-0.9, 1.0]]))


def test_params_reject_bad_correlation():
    asym = np.array([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        GbmParams(a_t=[1.0, 1.0], sigma=[0.4, 0.4], r=0.0, tau=1.0, corr=asym)
    scaled = np.array([[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="diagonal"):
        GbmParams(a_t=[1.0, 1.0], sigma=[0.4, 0.4], r=0.0, tau=1.0, corr=scaled)
    # equicorrelation -0.9 on three assets has eigenvalue 1 + 2*(-0.9) < 0
    indef = np.full((3, 3), -0.9) + 1.9 * np.eye(3)
    with pytest.raises(ValueError, match="definite"):
        GbmParams(a_t=np.ones(3), sigma=np.full(3, 0.4), r=0.0, tau=1.0, corr=indef)


def test_params_reject_correlation_without_cholesky_factor():
    # eigenvalue -2e-9: above the old eigvalsh cut-off of -1e-8, but no
    # Cholesky factor exists even after the 1e-12 diagonal bump, so the
    # sampler could not use it; the asset model must reject it up front
    corr = np.array([[1.0, 1.0 + 2e-9], [1.0 + 2e-9, 1.0]])
    assert np.linalg.eigvalsh(corr).min() == pytest.approx(-2e-9, rel=1e-3)
    with pytest.raises(ValueError, match="definite"):
        _params(corr=corr)


def test_params_chol_is_derived_and_read_only():
    chol = {f.name: f for f in dataclasses.fields(GbmParams)}["chol"]
    assert not (chol.init or chol.repr or chol.compare)
    p = _params(corr=np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert not p.chol.flags.writeable
    np.testing.assert_allclose(p.chol @ p.chol.T, p.corr, atol=1e-15)


def test_params_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        GbmParams(a_t=[1.0, 1.0], sigma=[0.4], r=0.0, tau=1.0, corr=np.eye(2))


# --- Cholesky ---------------------------------------------------------------

def test_cholesky_identity():
    np.testing.assert_array_equal(_chol(np.eye(4)), np.eye(4))


def test_cholesky_half_correlation():
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    L = _chol(corr)
    np.testing.assert_allclose(L, [[1.0, 0.0], [0.5, 0.8660254037844386]],
                               atol=1e-15)
    np.testing.assert_allclose(L @ L.T, corr, atol=1e-15)


def test_cholesky_comonotone_boundary_uses_jitter():
    # rank-one matrix of ones sits on the PSD boundary; factorization must
    # still succeed (single jitter retry) and reproduce the matrix
    ones = np.ones((3, 3))
    L = _chol(ones)
    np.testing.assert_allclose(L @ L.T, ones, atol=1e-5)
    np.testing.assert_allclose(L[:, 0], 1.0, atol=1e-5)


def test_cholesky_rejects_indefinite():
    indef = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="definite"):
        _chol(indef)


# --- counter-based normals --------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 30])
def test_normal_variates_chunk_invariant(n):
    # draws [k, 10) must be bit-identical whether generated in one call or
    # resumed at offset k — this is what makes threaded MC reproducible
    whole = normal_variates(123, 10, n)
    for k in (1, 3, 7):
        tail = normal_variates(123, 10 - k, n, start=k)
        np.testing.assert_array_equal(whole[k:], tail)


def test_normal_variates_seed_sensitivity():
    a = normal_variates(1, 100, 4)
    b = normal_variates(2, 100, 4)
    assert not np.array_equal(a, b)


def test_normal_variates_moments():
    z = normal_variates(7, 200_000, 2)
    assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 0.02


def _assert_ndtri_matches_scipy(y):
    # bit for bit on the central branch; the tails use numpy's log, which may
    # round differently from the C library's log that scipy's ndtri calls
    got, want = _ndtri(y), ndtri(y)
    central = (y > _EXP_M2) & (y <= 1.0 - _EXP_M2)
    np.testing.assert_array_equal(got[central], want[central])
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)


def test_ndtri_matches_scipy_on_philox_uniforms():
    u = np.random.Generator(np.random.Philox(key=11)).random(1_000_000)
    _assert_ndtri_matches_scipy(np.maximum(u, np.finfo(float).tiny))


def test_ndtri_matches_scipy_at_branch_edges():
    # the guard's tiny, both ends of the central branch, x = sqrt(-2 log y) = 8
    # where the tail tables switch, the median and the largest uniform below 1
    edges = [np.finfo(float).tiny, _EXP_M2, 1.0 - _EXP_M2, np.exp(-32.0)]
    y = np.concatenate([[e, np.nextafter(e, 0.0), np.nextafter(e, 1.0)] for e in edges]
                       + [[0.5, 1.0 - 2.0**-53]])
    _assert_ndtri_matches_scipy(y)
    assert _ndtri(np.array([0.5]))[0] == 0.0


# --- terminal sampling ------------------------------------------------------

def test_terminal_at_zero_noise():
    p = _params(n=2, r=0.05, tau=2.0, sigma=0.4)
    a_T = sample_terminal(p, np.zeros(2))
    expected = np.exp((0.05 - 0.08) * 2.0)
    np.testing.assert_allclose(a_T, expected, rtol=1e-15)


def test_terminal_vanishing_volatility():
    p = GbmParams(a_t=[2.0], sigma=[1e-12], r=0.03, tau=1.0, corr=np.eye(1))
    a_T = sample_terminal(p, np.array([1.3]))
    np.testing.assert_allclose(a_T, 2.0 * np.exp(0.03), rtol=1e-9)


def test_terminal_martingale_property():
    # discounted terminal values average back to spot, including under
    # correlation
    corr = np.array([[1.0, 0.7], [0.7, 1.0]])
    p = GbmParams(a_t=[1.0, 2.0], sigma=[0.4, 0.25], r=0.05, tau=1.5, corr=corr)
    z = normal_variates(11, 200_000, 2)
    disc = np.exp(-p.r * p.tau) * sample_terminal(p, z)
    se = disc.std(axis=0, ddof=1) / np.sqrt(disc.shape[0])
    assert np.all(np.abs(disc.mean(axis=0) - p.a_t) < 3.0 * se)


def test_correlated_draws_have_target_correlation():
    corr = np.array([[1.0, 0.7], [0.7, 1.0]])
    p = GbmParams(a_t=[1.0, 1.0], sigma=[0.4, 0.4], r=0.0, tau=1.0, corr=corr)
    z = normal_variates(13, 100_000, 2)
    y = z @ p.chol.T
    assert abs(np.corrcoef(y.T)[0, 1] - 0.7) < 0.01


# --- pathwise partials ------------------------------------------------------

def test_partials_closed_form_values():
    p = _params(n=1, r=0.0, tau=1.0, sigma=0.4)
    z = np.zeros((1, 1))
    a_T, (da_t, _, dr, _) = _terminal_with_partials(p, z)
    np.testing.assert_allclose(da_t, np.exp(-0.08), rtol=1e-12)
    np.testing.assert_allclose(dr, a_T * p.tau, rtol=1e-15)


def test_partials_match_finite_differences():
    corr = np.array([[1.0, 0.3], [0.3, 1.0]])
    base = GbmParams(a_t=[1.1, 0.9], sigma=[0.35, 0.5], r=0.02, tau=1.4,
                     corr=corr)
    z = normal_variates(17, 50, 2)
    a_T0, partials = _terminal_with_partials(base, z)
    # one product z L^T serves both: A_T bit for bit, the partials draw-last
    np.testing.assert_array_equal(a_T0, sample_terminal(base, z))
    assert all(p.shape == (2, 50) and p.flags.c_contiguous for p in partials)
    da_t, dsigma, dr, dtau = (p.T for p in partials)

    def a_T(a_t=base.a_t, sigma=base.sigma, r=base.r, tau=base.tau):
        p = GbmParams(a_t=a_t, sigma=sigma, r=r, tau=tau, corr=corr)
        return sample_terminal(p, z)

    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (a_T(a_t=base.a_t + e) - a_T(a_t=base.a_t - e)) / (2 * h)
        np.testing.assert_allclose(fd[:, i], da_t[:, i], rtol=1e-7)
        assert np.allclose(fd[:, 1 - i], 0.0)
        fd = (a_T(sigma=base.sigma + e) - a_T(sigma=base.sigma - e)) / (2 * h)
        np.testing.assert_allclose(fd[:, i], dsigma[:, i], rtol=1e-6)
    fd = (a_T(r=base.r + h) - a_T(r=base.r - h)) / (2 * h)
    np.testing.assert_allclose(fd, dr, rtol=1e-7)
    fd = (a_T(tau=base.tau + h) - a_T(tau=base.tau - h)) / (2 * h)
    np.testing.assert_allclose(fd, dtau, rtol=1e-6)
