"""Shared test utilities: random admissible networks, finite differences, the
single-scenario solver and sensitivity calls, and the plain Picard,
pattern-keying, 2n x 2n sensitivity and exact rational oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from netgreeks import ConvergenceError, FirmNetwork, FixedPointConfig, solve_claims_batch
from netgreeks.fixpoint import DEFAULT_CONFIG
from netgreeks.sensitivity import dxda_batch

TIGHT = FixedPointConfig(tol=1e-14, max_iter=50_000)

# an er-sweep with two values on each network axis and three a0, r != 0 and
# tau != 1: every member runs three cells
MULTI_A0_SWEEP = {"kind": "er-sweep", "k_mean": [1.0, 3.0], "w_d": [0.3, 0.6],
                  "a0": [0.8, 1.05, 1.4], "sigma": 0.4, "n": 6, "networks": 3, "draws": 300,
                  "r": 0.03, "tau": 1.5, "seed": 11}


class Claims(NamedTuple):
    """Equity values s and recovery debt values r of one scenario."""

    s: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class FixedPointSolution:
    claims: Claims
    xi: np.ndarray
    iterations: int
    residual: float


def solve_claims(net: FirmNetwork, a, cfg: FixedPointConfig = DEFAULT_CONFIG) -> FixedPointSolution:
    """Solve the valuation fixed point for one asset vector a > 0."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != 1:
        raise ValueError(f"expected one asset vector, got {a.shape[0]} rows")
    sol = solve_claims_batch(net, a, cfg)
    return FixedPointSolution(
        claims=Claims(s=sol.s[0], r=sol.r[0]),
        xi=sol.xi[0],
        iterations=sol.iterations,
        residual=float(sol.residuals[0]),
    )


def eval_g(net: FirmNetwork, a, claims: Claims) -> Claims:
    """One application of the valuation map at claims x."""
    v = a + net.m_s @ claims.s + net.m_d @ claims.r
    return Claims(s=np.maximum(0.0, v - net.d), r=np.minimum(net.d, v))


def solvency(net: FirmNetwork, a, claims: Claims) -> np.ndarray:
    """Solvency indicators at given claims: 1 iff v_i > d_i (ties insolvent)."""
    return (a + net.m_s @ claims.s + net.m_d @ claims.r > net.d).astype(float)


def dxda_at(net: FirmNetwork, xi, weights=None) -> np.ndarray:
    """dx*/da at one solvency pattern, (2n, n), or weights @ dx*/da, (k, n)."""
    return dxda_batch(net, np.asarray(xi, dtype=float)[None], weights=weights)[0]


def save_network(net: FirmNetwork, path) -> None:
    obj = {"n": net.n, "m_s": net.m_s.tolist(), "m_d": net.m_d.tolist(), "d": net.d.tolist()}
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def picard_oracle(net: FirmNetwork, a, cfg: FixedPointConfig = DEFAULT_CONFIG, sweeps=None):
    """Plain Picard over a (B, n) batch from s = 0, r = min(d, a), every row to cfg.tol.

    The solver before the polish, kept as its oracle.  Returns
    (s, r, v, xi, iterations, residuals) with the meanings of
    ``BatchSolution``; iterations counts map evaluations.  With sweeps it
    returns the iterate of that map evaluation instead, whatever its
    residuals.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    d = net.d
    s, r = np.zeros_like(a), np.minimum(d, a)
    for it in range(1, cfg.max_iter + 1):
        v = a + s @ net.m_s.T + r @ net.m_d.T
        s_new = np.maximum(0.0, v - d)
        r_new = np.minimum(d, v)
        resid = np.maximum(np.abs(s_new - s), np.abs(r_new - r)).max(axis=1)
        done = resid.max() <= cfg.tol if sweeps is None else it == sweeps
        if done:
            return s, r, v, (v > d).astype(float), it, resid
        s, r = s_new, r_new
    raise ConvergenceError(f"no convergence after {cfg.max_iter} iterations")


def assert_picard_iterate(net: FirmNetwork, a, sol) -> None:
    """sol's s, r and v are ``picard_oracle``'s iterate at sol.iterations, bit for bit."""
    oracle = picard_oracle(net, a, sweeps=sol.iterations)
    for got, want in zip((sol.s, sol.r, sol.v), oracle[:3]):
        np.testing.assert_array_equal(got, want)


def quadrature_price(net: FirmNetwork, gbm, nodes: int) -> np.ndarray:
    """Discounted claim prices (equity_1..n, debt_1..n) by a Gauss-Hermite product rule.

    Each of the n axes of z ~ N(0, I) takes ``nodes`` probabilists' Hermite
    nodes (``hermegauss``), the Cholesky factor of the correlation maps the
    grid to the correlated log-returns, and ``picard_oracle`` solves the
    fixed point at every node: no sampling, chunking or moments.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    grid = np.meshgrid(*[x] * gbm.n, indexing="ij")
    z = np.stack([g.ravel() for g in grid], axis=1)
    weight = np.prod(np.meshgrid(*[w / np.sqrt(2.0 * np.pi)] * gbm.n, indexing="ij"), axis=0)
    y = z @ np.linalg.cholesky(gbm.corr).T
    a_T = gbm.a_t * np.exp((gbm.r - 0.5 * gbm.sigma**2) * gbm.tau
                           + np.sqrt(gbm.tau) * gbm.sigma * y)
    s, r = picard_oracle(net, a_T)[:2]
    return np.exp(-gbm.r * gbm.tau) * (weight.ravel() @ np.hstack([s, r]))


def distinct_patterns_oracle(xi_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sensitivity._distinct_patterns`` by np.unique over void keys of the packed bits.

    The keying before the uint64 words, kept as their oracle: the same
    patterns, in the same order, with the same row -> pattern map.
    """
    solvent = xi_batch == 1.0
    keys = np.packbits(solvent, axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return solvent[first], inverse


def random_holdings(rng, n, cap=0.9, density=0.6):
    """Random holding matrix with zero diagonal and column sums below cap."""
    m = np.zeros((n, n))
    for j in range(n):
        mask = rng.random(n) < density
        mask[j] = False
        if not mask.any():
            continue
        raw = rng.random(n) * mask
        m[:, j] = raw / raw.sum() * rng.uniform(0.05, cap)
    return m


def ordered_holdings(rng, n, cap=0.9, density=0.6):
    """Holding pair (hi, lo) with hi >= lo entrywise, column sums below cap.

    ``lo = hi * U`` with U uniform on [0, 1], so lo keeps hi's zero diagonal
    and its column sums never exceed hi's.
    """
    hi = random_holdings(rng, n, cap=cap, density=density)
    return hi, hi * rng.random((n, n))


def random_network(rng, n, cap=0.9, debt_only=False, density=0.6):
    m_d = random_holdings(rng, n, cap=cap, density=density)
    m_s = np.zeros((n, n)) if debt_only else random_holdings(rng, n, cap=cap, density=density)
    d = rng.uniform(0.5, 2.0, size=n)
    return FirmNetwork(m_s=m_s, m_d=m_d, d=d)


def random_correlation(rng, n):
    """A random full-rank n x n correlation matrix."""
    b = rng.normal(size=(n, n + 1))
    cov = b @ b.T
    scale = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * scale[:, None] * scale[None, :]
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def random_interior_scenario(rng, n, cap=0.9, debt_only=False, margin=1e-3,
                             tries=50):
    """Network and assets whose fixed point sits away from every default boundary."""
    for _ in range(tries):
        net = random_network(rng, n, cap=cap, debt_only=debt_only)
        a = rng.uniform(0.2, 3.0, size=n)
        sol = solve_claims(net, a, TIGHT)
        v = a + net.m_s @ sol.claims.s + net.m_d @ sol.claims.r
        if np.abs(v - net.d).min() > margin * net.d.max():
            return net, a, sol
    raise AssertionError("no interior scenario found")


def fd_claims_jacobian(net, a, h=1e-6):
    """Central-difference dx*/da; exact on the piecewise-linear fixed point."""
    n = net.n
    jac = np.zeros((2 * n, n))
    for j in range(n):
        step = h * max(1.0, abs(a[j]))
        up = a.copy()
        up[j] += step
        dn = a.copy()
        dn[j] -= step
        hi, lo = solve_claims(net, up, TIGHT).claims, solve_claims(net, dn, TIGHT).claims
        jac[:n, j] = (hi.s - lo.s) / (2.0 * step)
        jac[n:, j] = (hi.r - lo.r) / (2.0 * step)
    return jac


def jacobian_g(net, xi):
    """Jacobian of the valuation map in x = (s; r) at solvency pattern xi (2n x 2n)."""
    xi = np.asarray(xi, dtype=float)
    blocks = np.block([[net.m_s, net.m_d], [net.m_s, net.m_d]])
    weights = np.concatenate([xi, 1.0 - xi])
    return weights[:, None] * blocks


def weighting_matrix(net, xi):
    """W = (I - dg/dx)^{-1}, the unreduced 2n x 2n exposure-weighting matrix.

    dx*/da = W (diag(xi); diag(1 - xi)) is the oracle that the reduced n x n
    solve in ``netgreeks.sensitivity`` is compared against.
    """
    eye = np.eye(2 * net.n)
    return np.linalg.solve(eye - jacobian_g(net, xi), eye)


def member_stats_from_report(rep):
    """An er-sweep member's statistics vector and boundary hits, from the full GreekReport.

    The oracle for ``experiments._member_stats``, which gets the same
    numbers from the two block-average portfolios without the full report:
    the firm averages of (s_price, r_price, default_prob, delta_s, delta_r,
    vega_s, vega_r, theta_s, theta_r, rho_s, rho_r, pi).
    """
    n = rep.n
    equity, debt = slice(None, n), slice(n, None)
    return np.array([
        rep.price[equity].mean(), rep.price[debt].mean(), rep.default_prob.mean(),
        rep.delta[equity].sum() / n, rep.delta[debt].sum() / n,
        rep.vega[equity].sum() / n, rep.vega[debt].sum() / n,
        rep.theta[equity].mean(), rep.theta[debt].mean(),
        rep.rho[equity].mean(), rep.rho[debt].mean(),
        rep.pi.mean(),
    ]), rep.boundary_hits


def exact_inverse(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Inverse of a square matrix of Fractions by Gauss-Jordan elimination; None if singular."""
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def exact_system(m_s, m_d, xi) -> list[list[Fraction]]:
    """A(xi) = I - m_s Xi - m_d (I - Xi) in Fractions, from the exact binary values of the floats."""
    held = np.where(np.asarray(xi, dtype=bool), m_s, m_d)
    n = len(held)
    return [[int(i == j) - Fraction(held[i, j]) for j in range(n)] for i in range(n)]


def inf_norm(m: list[list[Fraction]]) -> Fraction:
    return max(sum(abs(x) for x in row) for row in m)


def exact_fixed_points(m_s, m_d, d, a) -> list[tuple[np.ndarray, list | None, list | None]]:
    """(xi, v, A(xi)^{-1}) for every solvency pattern xi whose exact solve is
    consistent, and (xi, None, None) for every xi with a singular A(xi).

    Takes raw arrays, so networks ``validate_network`` rejects enumerate too.
    Solves A(xi) v = a + (m_d - m_s) Xi d in Fractions for all 2^n patterns
    and keeps the patterns whose v > d is xi: a tie v_i = d_i is insolvent.
    """
    n = len(d)
    d = [Fraction(x) for x in d]
    found = []
    for xi in product((0, 1), repeat=n):
        inv = exact_inverse(exact_system(m_s, m_d, xi))
        if inv is None:
            found.append((np.array(xi, dtype=float), None, None))
            continue
        b = [Fraction(a[i]) + sum((Fraction(m_d[i, j]) - Fraction(m_s[i, j])) * d[j]
                                  for j in range(n) if xi[j]) for i in range(n)]
        v = [sum(inv[i][j] * b[j] for j in range(n)) for i in range(n)]
        if all((v[i] > d[i]) == bool(xi[i]) for i in range(n)):
            found.append((np.array(xi, dtype=float), v, inv))
    return found
