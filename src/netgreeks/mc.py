"""Monte Carlo pricing and network Greeks.

Prices are discounted expectations of the fixed-point claims over terminal
asset draws.  Greeks combine the exact per-scenario sensitivities dx*/da
with the pathwise partials of the sampling map (the solvency pattern is
locally constant in every parameter, so the kink contributes nothing):

    d x_t / d theta = E[ d(e^{-r tau})/d theta x* + e^{-r tau} dx*/da dA_T/d theta ]

Only rho and theta pick up a discount-derivative term.

A Greek chunk needs each draw's solvency pattern, and it solves dx*/da for
it anyway.  So it asks ``solve_claims_batch`` to certify: a batch too
varied to polish stops Picard once every draw's pattern is certified or
meets tol (see ``fixpoint``).  For a fixed pattern the claims are affine
in the assets,

    x* = dx*/da b + (-Xi d; Xi d),   b = a + (m_d - m_s) Xi d,

so a certified draw's portfolio value W x* is one contraction of the
W dx*/da at hand: the adjoint identity of Giles & Glasserman (2006), where
the y that gives delta also gives the price.  That price is the exact fixed
point of the draw's pattern, not Picard's iterate at tol.  Every other draw,
and every draw of a price-only run, is priced from the solved claims.

Estimates stream through fixed-size chunks, draw-last from the fixed point
on: the solution's (B, n) fields and dxda_batch's (B, k, n) result are views
of C-contiguous (..., B) arrays, which the chunk uses as they are.  Sums
over claims or firms reduce leading axes, and the chunk's mean and M2 are
numpy's pairwise sums along the contiguous draw axis (Higham, 1993).
Per-chunk moments are combined with a pairwise merge in deterministic order,
so results are bit-identical for any thread count.

The discount e^{-r tau} is one constant: chunks accumulate undiscounted
statistics (rho's draw is dx*/da dA_T/dr - tau x*, theta's
-(dx*/da dA_T/dtau - r x*)), and each merged mean and SE but those of pi and
default_prob is multiplied by it once, so a constant statistic has SE 0.

Importing this module pins two glibc malloc thresholds, once, where the C
library has ``mallopt`` (elsewhere it does nothing).  By default glibc serves
blocks of 128 KiB or more by mmap and trims the heap top back to the kernel
once 128 KiB are free; it raises both only after the process frees a large
block.  Until then every chunk's few-MiB working set is unmapped when the
chunk ends and faulted in, page by page, by the next.  M_MMAP_THRESHOLD is
set to 16 * _CHUNK_BUDGET bytes (32 MiB), the largest array a chunk
allocates: the unweighted (B, 2n, n) dx*/da of at most 2 * _CHUNK_BUDGET
doubles.  M_TRIM_THRESHOLD is twice that.  These are the values glibc's own
rule reaches after freeing one such block, so the cost no longer depends on
the run's history.  The price is that up to 64 MiB of freed heap can stay
resident after a run's peak.  No arithmetic changes.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .fixpoint import (_BOUNDARY_REL, DEFAULT_CONFIG, ConvergenceError, FixedPointConfig,
                       solve_claims_batch)
from .gbm import GbmParams, _terminal_with_partials, normal_variates, sample_terminal
from .network import FirmNetwork, _ArrayEq
from .sensitivity import _portfolio_weights, dxda_batch

__all__ = [
    "MC_CHUNK",
    "PriceResult",
    "GreekReport",
    "price_claims",
    "mc_greeks",
]

MC_CHUNK = 8192
# cap chunk memory for large networks; depends on n only, never on threads
_CHUNK_BUDGET = 2_097_152

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_heap_thresholds() -> None:
    # see the module docstring; a C library without mallopt keeps its defaults
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mmap_bytes = 16 * _CHUNK_BUDGET
    mallopt(_M_MMAP_THRESHOLD, mmap_bytes)
    mallopt(_M_TRIM_THRESHOLD, 2 * mmap_bytes)


_pin_heap_thresholds()


def _chunk_size(n: int) -> int:
    return min(MC_CHUNK, max(128, _CHUNK_BUDGET // max(1, n * n)))


@dataclass
class _RunningStat:
    """Mergeable mean/M2 accumulator (Welford form) over the last axis.

    from_samples takes a draw-last (..., B) array; its mean and centred M2
    are pairwise sums along the contiguous draw axis.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "_RunningStat":
        count = x.shape[-1]
        mean = x.mean(axis=-1)
        dev = x - mean[..., None]
        dev *= dev
        m2 = dev.sum(axis=-1)
        return cls(count=count, mean=mean, m2=m2)

    def merge(self, other: "_RunningStat") -> "_RunningStat":
        total = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / total)
        m2 = self.m2 + other.m2 + np.square(delta) * (self.count * other.count / total)
        return _RunningStat(count=total, mean=mean, m2=m2)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(self.m2 / (self.count - 1) / self.count)


def _ordered_map(fn, tasks, threads: int) -> list:
    # pool.map submits every task at once, which starts up to max_workers threads
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _tree_merge(stats: list[_RunningStat]) -> _RunningStat:
    # pairwise in index order: the reduction tree is a function of the chunk
    # count alone, which keeps float rounding independent of scheduling
    while len(stats) > 1:
        merged = []
        for i in range(0, len(stats) - 1, 2):
            merged.append(stats[i].merge(stats[i + 1]))
        if len(stats) % 2:
            merged.append(stats[-1])
        stats = merged
    return stats[0]


class _Report(_ArrayEq):
    """A Monte Carlo result whose JSON is its fields in order, arrays as nested lists."""

    def to_dict(self) -> dict:
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


@dataclass(eq=False)
class PriceResult(_Report):
    """Discounted claim prices, stacked (equity_1..n, debt_1..n)."""

    price: np.ndarray
    se: np.ndarray
    draws: int
    seed: int
    boundary_hits: int
    n: int


@dataclass(eq=False)
class GreekReport(_Report):
    """Prices and Greeks with standard errors.

    Vectors over claims have length 2n (equity block then debt block).
    delta and vega are (2n, n): sensitivity of each claim to each firm's
    spot or volatility.  delta_uniform / vega_uniform are the row sums,
    i.e. the response to bumping every firm's parameter at once, accumulated
    per draw so their standard errors are valid.  pi is the undiscounted
    aggregate terminal-asset sensitivity per firm; delta_total its
    market-value counterpart 1' Delta.

    From ``mc_greeks(..., weights=W)`` with W of shape (k, 2n), the rows are
    the k portfolios instead of the 2n claims: price, theta, rho,
    delta_uniform and vega_uniform have length k, delta and vega are
    (k, n), and pi and delta_total sum over the portfolios (pi = 1' W dx*/da).
    n stays the number of firms.  No weights means W = I_2n, the claims
    themselves.
    """

    n: int
    draws: int
    seed: int
    boundary_hits: int
    price: np.ndarray
    price_se: np.ndarray
    delta: np.ndarray
    delta_se: np.ndarray
    vega: np.ndarray
    vega_se: np.ndarray
    theta: np.ndarray
    theta_se: np.ndarray
    rho: np.ndarray
    rho_se: np.ndarray
    pi: np.ndarray
    pi_se: np.ndarray
    delta_total: np.ndarray
    delta_total_se: np.ndarray
    delta_uniform: np.ndarray
    delta_uniform_se: np.ndarray
    vega_uniform: np.ndarray
    vega_uniform_se: np.ndarray
    default_prob: np.ndarray
    default_prob_se: np.ndarray


def _at_draw(exc: ConvergenceError, start: int) -> ConvergenceError:
    """A chunk's ConvergenceError with its draw counted from the first draw of the run."""
    draw = start + exc.draw
    return ConvergenceError(f"scenario solve failed at draw {draw}: {exc}", draw=draw)


def _mc_chunk(net, gbm, cfg, seed, draws, want_greeks, weights, start):
    # the chunk of the draws-draw run that begins at draw start, undiscounted
    z = normal_variates(seed, min(_chunk_size(gbm.n), draws - start), gbm.n, start=start)
    if want_greeks:
        a_T, (da_t, dsigma, dr, dtau) = _terminal_with_partials(gbm, z)
    else:
        a_T = sample_terminal(gbm, z)
    try:
        sol = solve_claims_batch(net, a_T, cfg, certify=want_greeks)
    except ConvergenceError as exc:
        raise _at_draw(exc, start) from exc
    d = net.d[:, None]
    boundary = int(np.any(np.abs(sol.v.T - d) <= _BOUNDARY_REL * d, axis=0).sum())
    x = weights @ np.vstack([sol.s.T, sol.r.T])

    out = {"price": x}
    if want_greeks:
        xi = out["solvent"] = sol.xi.T
        # (k, n, B), the C-contiguous array behind dxda_batch's (B, k, n) view
        dxda = dxda_batch(net, sol.xi, weights=weights).transpose(1, 2, 0)
        if sol.certified.any():
            # W x* = W dx*/da b + (W_d - W_s) Xi d for a fixed pattern (module docstring)
            xid = xi * d
            exact = np.einsum("kjb,jb->kb", dxda, a_T.T + (net.m_d - net.m_s) @ xid)
            exact += (weights[:, net.n:] - weights[:, :net.n]) @ xid
            np.copyto(x, exact, where=sol.certified)
        out["delta"] = delta = dxda * da_t
        out["vega"] = vega = dxda * dsigma
        out["delta_total"] = delta.sum(axis=0)
        out["delta_uniform"] = delta.sum(axis=1)
        out["vega_uniform"] = vega.sum(axis=1)
        # rho and theta carry the discount-factor derivative alongside the
        # pathwise term; theta is quoted as -d(price)/d(tau)
        out["rho"] = np.einsum("kjb,jb->kb", dxda, dr) - gbm.tau * x
        out["theta"] = -(np.einsum("kjb,jb->kb", dxda, dtau) - gbm.r * x)
        out["pi"] = dxda.sum(axis=0)
    return {name: _RunningStat.from_samples(arr) for name, arr in out.items()}, boundary


def _run_chunks(net, gbm, draws, seed, cfg, want_greeks, threads, weights):
    """Merged estimates by name, each mean next to its ``_se``, and the boundary hits."""
    if net.n != gbm.n:
        raise ValueError(f"network has {net.n} firms, asset model has {gbm.n}")
    if draws < 2:
        raise ValueError("need at least 2 draws for standard errors")
    results = _ordered_map(partial(_mc_chunk, net, gbm, cfg, seed, draws, want_greeks, weights),
                           range(0, draws, _chunk_size(gbm.n)), threads)

    disc = np.exp(-gbm.r * gbm.tau)
    estimates = {}
    for name in results[0][0]:
        stat = _tree_merge([res[0][name] for res in results])
        mean, se = stat.mean, stat.se
        if name == "solvent":
            name, mean = "default_prob", 1.0 - mean
        elif name != "pi":
            mean, se = disc * mean, disc * se
        estimates[name], estimates[f"{name}_se"] = mean, se
    return estimates, sum(res[1] for res in results)


def price_claims(net: FirmNetwork, gbm: GbmParams, draws: int, seed: int,
                 cfg: FixedPointConfig = DEFAULT_CONFIG, threads: int = 1) -> PriceResult:
    """Discounted claim prices by plain Monte Carlo."""
    est, boundary = _run_chunks(net, gbm, draws, seed, cfg, want_greeks=False,
                                threads=threads, weights=np.eye(2 * net.n))
    return PriceResult(price=est["price"], se=est["price_se"], draws=draws, seed=seed,
                       boundary_hits=boundary, n=net.n)


def mc_greeks(net: FirmNetwork, gbm: GbmParams, draws: int, seed: int,
              cfg: FixedPointConfig = DEFAULT_CONFIG, threads: int = 1, *,
              weights=None) -> GreekReport:
    """Prices plus delta, vega, theta, rho and systemic aggregates.

    Draws with any firm value within _BOUNDARY_REL * d_i of its default
    boundary, where the one-sided sensitivities make the pathwise estimator
    locally biased, are counted in boundary_hits, not dropped.

    weights, a (k, 2n) matrix, prices k claim portfolios instead of the 2n
    claims: every per-claim row of the report becomes a per-portfolio row
    (see GreekReport), and dx*/da is reduced by one transposed solve per
    distinct solvency pattern (``sensitivity.dxda_batch``).
    """
    weights = np.eye(2 * net.n) if weights is None else _portfolio_weights(weights, net.n)
    est, boundary = _run_chunks(net, gbm, draws, seed, cfg, want_greeks=True,
                                threads=threads, weights=weights)
    return GreekReport(n=net.n, draws=draws, seed=seed, boundary_hits=boundary, **est)
