"""Exact sensitivities of the valuation fixed point via implicit differentiation.

Away from the default boundary the fixed point is piecewise linear in the
external assets a.  Holding the solvency pattern xi fixed, s = diag(xi)(v - d)
and r = (I - diag(xi)) v + diag(xi) d, so the firm values v = a + m_s s + m_d r
solve one n x n linear system per pattern,

    A(xi) dv/da = I,   A(xi) = I - m_s diag(xi) - m_d (I - diag(xi)),

and every claim sensitivity is a projection of its solution:

    u_s = ds*/da = diag(xi) dv/da,   u_d = dr*/da = (I - diag(xi)) dv/da.

This is the fictitious-default system of Eisenberg & Noe (2001), extended to
equity cross-holdings.  A portfolio of claims with weights (w_s; w_d) needs
only one row of the solution, w_s^T u_s + w_d^T u_d = y^T with

    A(xi)^T y = diag(xi) w_s + (I - diag(xi)) w_d,

one transposed solve in place of the full inverse (the adjoint method of
Giles & Glasserman, 2006).

Only part of A(xi) needs a solve.  Column j of A(xi) is e_j - h_j, where
h_j = m_s[:, j] if firm j is solvent and m_d[:, j] if not (``_times_h``
applies this rule, and skips m_s on a pure-debt network).  Where h_j = 0
(every solvent firm of a pure-debt network, and every firm that nobody
holds) it is an identity column.  With J the live firms (h_j != 0), P the
rest and H the selected holdings, the adjoint system splits into

    y_P = c_P,   (I - H_JJ)^T y_J = c_J + H_PJ^T c_P,

the fictitious-default reduction to the default set (Eisenberg & Noe, 2001)
with the unheld firms folded in.  y depends on xi alone, so ``dxda_batch``
solves once per distinct pattern of a batch, by one of two strategies
chosen by the pattern's |J| and the number k of right-hand sides:

* a wide block (|J| >= 8) with few right-hand sides (k <= 4, as for the
  er-sweep portfolios) is solved without a matrix, by the sweeps
  y <- c + B(xi)^T y from y = c, which add up the Neumann series below,
  one product with the holdings per sweep for all such patterns at once.
  A pattern retires at the first sweep that repeats its iterate bit for
  bit: y then satisfies y = c + B(xi)^T y in floating point, so it solves
  the system to rounding, as the LU does.  A pattern still moving after
  64 sweeps goes to the LU;
* every other block is factored: the live blocks of equal size |J| are
  stacked into one LU.

The forward system A(xi) v = b, which finishes the valuation fixed point
(``fixpoint``), comes from the same kernel: ``_forward_solve`` takes
A(xi)^{-T} from one adjoint solve per distinct pattern with c = I and
gathers v^T = b^T A(xi)^{-T} draw by draw.
Every solve with A(xi) in the package runs inside ``_adjoint_solve``.

Writing A(xi) = I - B(xi), B(xi) = m_d + (m_s - m_d) diag(xi), gives
dv/da = sum_k B(xi)^k: an exposure-weighted chain of holdings whose Neumann
series accumulates the impact of a marginal asset change along every holding
path.  B(xi) is non-negative, and an admissible network has no closed
holding ring (``network.validate_network``), so B(xi) and each of its blocks
H_JJ have spectral radius below one: the series converges and every solve
above is nonsingular.  Comparing two solvency patterns
xi_lo <= xi_hi (more firms solvent) then gives three monotonicity results:

* if m_s >= m_d entrywise, u_s is entrywise non-decreasing in xi;
* if m_d >= m_s entrywise, u_d is entrywise non-increasing in xi;
* if m_s == m_d, both hold at once (B does not depend on xi).

The pure-debt (m_s = 0) and pure-equity (m_d = 0) networks are edge cases.
Without an ordering of m_s and m_d only the rows of the firms that flip are
signed: their u_s rows rise from zero and their u_d rows fall to zero.  The
joint entrywise statement is false in general: with m_d[0, 1] = 0.5 and
m_s = 0, solvent firm 0's equity responds to a_1 with 0.5 while firm 1 is
insolvent and with 0 once it is solvent (pinned in
``tests/test_sensitivity.py::test_cross_block_sensitivity_is_not_monotone_in_solvency``).
"""

from __future__ import annotations

import numpy as np

from .network import FirmNetwork

__all__ = ["SensitivityError", "dxda_batch"]


class SensitivityError(RuntimeError):
    """Singular sensitivity system; admissibility was violated upstream."""


def _distinct_patterns(solvent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a (B, n) bool batch -> (solvent (U, n) bool, row -> pattern (B,)).

    Rows are keyed by their bits, zero-padded to whole 64-bit words and read
    as big-endian uint64 so that word order is bit order, and the keys sorted
    lexicographically: the distinct patterns and their order depend only on
    the set of rows, not on the order of the batch.
    """
    b, n = solvent.shape
    width = -(-n // 64)
    bits = np.zeros((b, 64 * width), dtype=bool)
    bits[:, :n] = solvent
    words = np.packbits(bits).view(">u8").reshape(b, width)
    # stable, so each pattern's first sorted row is its first row in the batch
    order = np.lexsort(words.T[::-1])
    words = words[order]
    starts = np.ones(b, dtype=bool)
    starts[1:] = np.any(words[1:] != words[:-1], axis=1)
    inverse = np.empty(b, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return solvent[order[starts]], inverse


def _solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError(f"singular sensitivity system: {exc}") from exc


def _live(net: FirmNetwork, solvent: np.ndarray) -> np.ndarray:
    """Live firms of U patterns, (U, n) bool: firm j is live where h_j != 0."""
    return np.where(solvent, np.any(net.m_s != 0.0, axis=0), np.any(net.m_d != 0.0, axis=0))


# A pattern goes to the sweeps when its live block has at least _SWEEP_MIN
# firms and the solve has at most _SWEEP_MAX_RHS right-hand sides; every
# other pattern goes to the stacked LU.  The 128 dxda_batch calls of the
# eight er_sweep_n60 variants (n = 60, k = 2 portfolios) took 0.69 s by LU
# alone, 0.51 s with sweeps from |J| = 8 (70 % of the patterns), 0.49 s from
# 4 and 0.62 s from 16 (best of 7).  A sweep costs k n^2 per pattern, so
# more right-hand sides favour the LU: on the same chunks the sweeps took
# 0.65x the LU's time at k = 2, 0.87x at k = 4, 1.29x at k = 8 and 2.2x at
# k = 120 (dx*/da without weights).
_SWEEP_MIN = 8
_SWEEP_MAX_RHS = 4
# Sweeps before a pattern whose iterate still moves goes to the LU.  On
# er_sweep_n60 every swept pattern repeated within 33 sweeps; over the
# paper grid 330 of 180,325 swept patterns reached the cap.
_SWEEP_CAP = 64


def _times_h(net: FirmNetwork, solvent: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y H(xi) for (m, k, n) rows y and (m, n) bool patterns -> (m, k, n).

    Column j of H(xi) is m_s[:, j] where firm j is solvent and m_d[:, j]
    where it is not; when m_s = 0 the solvent columns are zeroed instead.
    """
    flat = y.reshape(-1, net.n)
    out = (flat @ net.m_d).reshape(y.shape)
    held_s = solvent[:, None, :]
    if np.any(net.m_s):
        np.copyto(out, (flat @ net.m_s).reshape(y.shape), where=held_s)
    else:
        out *= ~held_s
    return out


def _sweep_solve(net: FirmNetwork, solvent: np.ndarray, y: np.ndarray,
                 pending: np.ndarray) -> np.ndarray:
    """y = A(xi)^{-T} c by the sweeps y <- c + B(xi)^T y from y = c, for the patterns pending.

    y is (U, k, n) and holds c on entry.  The sweeps run on the (m, k, n)
    rows of the pending patterns, one product y H(xi) per sweep
    (``_times_h``).  At the first sweep that repeats a pattern's iterate
    bit for bit, the iterate is written into y and the pattern's rows leave
    the sweeps.  Returns the patterns still moving after _SWEEP_CAP sweeps.
    """
    c = y[pending]
    solvent = solvent[pending]
    it = c
    for _ in range(_SWEEP_CAP):
        nxt = _times_h(net, solvent, it)
        nxt += c
        repeated = (nxt == it).all(axis=(1, 2))
        if repeated.any():
            y[pending[repeated]] = nxt[repeated]
            moving = ~repeated
            pending = pending[moving]
            if not pending.size:
                break
            nxt, c, solvent = nxt[moving], c[moving], solvent[moving]
        it = nxt
    return pending


def _factor_solve(net: FirmNetwork, solvent: np.ndarray, live: np.ndarray, y: np.ndarray,
                  patterns: np.ndarray) -> None:
    """y = A(xi)^{-T} c on the live rows of the patterns given, one stacked LU per |J|.

    y is (U, k, n) and holds c on entry.
    """
    n = net.n
    live = live[patterns]
    c = y[patterns]
    # c_J + H_PJ^T c_P on the live rows
    rhs = c + _times_h(net, solvent[patterns], np.where(live[:, None, :], 0.0, c))
    # firm j's column of m_d, then of m_s, as rows j and n + j, flattened
    h_t = np.concatenate([net.m_d.T, net.m_s.T]).ravel()
    size = live.sum(axis=1)
    for width in np.flatnonzero(np.bincount(size)):
        group = np.flatnonzero(size == width)
        J = np.nonzero(live[group])[1].reshape(group.size, width)
        # lhs[g, a, b] = [a == b] - H[J_b, J_a], the block (I - H_JJ)^T
        start = (solvent[patterns[group, None], J] * n + J) * n
        lhs = -h_t[start[:, :, None] + J[:, None, :]]
        lhs[:, np.arange(width), np.arange(width)] += 1.0
        try:
            y[patterns[group, None], :, J] = _solve(lhs, rhs[group[:, None], :, J])
        except SensitivityError as exc:
            bad = int(np.argmin(np.abs(np.linalg.det(lhs))))
            pattern = "".join("1" if s else "0" for s in solvent[patterns[group[bad]]])
            raise SensitivityError(f"{exc} at solvency pattern {pattern} "
                                   f"(live firms {J[bad].tolist()})") from exc


def _adjoint_solve(net: FirmNetwork, solvent: np.ndarray, c: np.ndarray) -> np.ndarray:
    """y = A(xi)^{-T} c for U distinct patterns: (U, n) bool, (U, k, n) -> C-contiguous (k, n, U).

    Row (u, i) of c, which the solve overwrites, is the i-th right-hand
    side of pattern u.  The pattern's |J| and k alone choose its path, never
    the rest of the batch: the sweeps (``_sweep_solve``), then the stacked
    LU (``_factor_solve``) if it still moves after _SWEEP_CAP sweeps, or the
    LU at once (see the module docstring).  A singular block raises
    SensitivityError naming its pattern and live firms.
    """
    live = _live(net, solvent)
    size = live.sum(axis=1)
    swept = (size >= _SWEEP_MIN) & (c.shape[1] <= _SWEEP_MAX_RHS)
    factored = (size > 0) & ~swept
    if swept.any():
        factored[_sweep_solve(net, solvent, c, np.flatnonzero(swept))] = True
    if factored.any():
        _factor_solve(net, solvent, live, c, np.flatnonzero(factored))
    return c.transpose(1, 2, 0).copy()


def _forward_solve(net: FirmNetwork, solvent: np.ndarray, inverse: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """v = A(xi)^{-1} b per draw: (U, n) bool patterns, (B,) draw -> pattern, (n, B) -> (n, B).

    v^T = b^T A(xi)^{-T}: one adjoint solve per distinct pattern with the
    identity on the right gives A(xi)^{-T}, whose (k, n, U) result is
    A(xi)^{-1} row by row.  Each draw gathers its pattern's as an (n, n, B)
    slab, and the product sums along the middle axis.
    """
    n = net.n
    eye = np.tile(np.eye(n), (len(solvent), 1, 1))
    a_inv = np.take(_adjoint_solve(net, solvent, eye), inverse, axis=2)
    return (b[None, :, :] * a_inv).sum(axis=1)


def _portfolio_weights(weights, n: int) -> np.ndarray:
    """A (k, 2n) matrix of finite claim portfolio weights, one portfolio per row."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != 2 * n:
        raise ValueError(f"weights must be a (k, {2 * n}) matrix, got shape {weights.shape}")
    bad = np.argwhere(~np.isfinite(weights))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"weights must be finite, got {weights[row, col]} "
                         f"at row {row}, column {col}")
    return weights


def dxda_batch(net: FirmNetwork, xi_batch: np.ndarray, *, weights=None) -> np.ndarray:
    """Stacked dx*/da = (u_s; u_d) for a (B, n) batch of solvency patterns -> (B, 2n, n).

    With weights, a (k, 2n) matrix whose rows are claim portfolios, returns
    weights @ dx*/da -> (B, k, n); without, weights = I_2n.  This is the one
    solve with A(xi): each distinct pattern of the batch gets one reduced
    adjoint solve A(xi)^T y = Xi w_s + (I - Xi) w_d with k right-hand sides
    on its live firms J (see the module docstring), and the rows of the
    batch gather their pattern's result.  The (B, k, n) result is a view of
    a C-contiguous draw-last (k, n, B) array, the layout the Monte Carlo
    chunk reduces in (``mc``).  A batch that is not (B, n) or has an entry
    other than 0 or 1 raises ValueError, and so does a weight that is not
    finite.
    """
    n = net.n
    weights = np.eye(2 * n) if weights is None else _portfolio_weights(weights, n)
    xi_batch = np.asarray(xi_batch, dtype=float)
    if xi_batch.ndim != 2 or xi_batch.shape[1] != n:
        raise ValueError(f"solvency batch must be a (B, {n}) array, got shape {xi_batch.shape}")
    solvent = xi_batch == 1.0
    other = ~(solvent | (xi_batch == 0.0))
    if other.any():
        raise ValueError(f"solvency batch entries must be 0 or 1, got {xi_batch[other][0]}")
    solvent, inverse = _distinct_patterns(solvent)
    c = np.where(solvent[:, None, :], weights[:, :n], weights[:, n:])
    return np.take(_adjoint_solve(net, solvent, c), inverse, axis=2).transpose(2, 0, 1)
