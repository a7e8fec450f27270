"""Shared test utilities: random admissible networks, finite differences and
the 2n x 2n sensitivity oracle."""

from __future__ import annotations

import numpy as np

from netgreeks import FirmNetwork, FixedPointConfig, solve_claims

TIGHT = FixedPointConfig(tol=1e-14, max_iter=50_000)


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
        x_up = solve_claims(net, up, TIGHT).claims.x
        x_dn = solve_claims(net, dn, TIGHT).claims.x
        jac[:, j] = (x_up - x_dn) / (2.0 * step)
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


def member_aggregates_from_report(rep):
    """An er-sweep member's row entries reduced from the full GreekReport.

    The oracle for ``experiments._member_aggregates``, which gets the same
    numbers from the two block-average portfolios without the full report.
    """
    n = rep.n
    return {
        "s_price": rep.price[:n].mean(),
        "r_price": rep.price[n:].mean(),
        "default_prob": rep.default_prob.mean(),
        "delta_s": rep.delta[:n].sum() / n,
        "delta_r": rep.delta[n:].sum() / n,
        "vega_s": rep.vega[:n].sum() / n,
        "vega_r": rep.vega[n:].sum() / n,
        "theta_s": rep.theta[:n].mean(),
        "theta_r": rep.theta[n:].mean(),
        "rho_s": rep.rho[:n].mean(),
        "rho_r": rep.rho[n:].mean(),
        "pi": rep.pi.mean(),
        "boundary_hits": rep.boundary_hits,
    }
