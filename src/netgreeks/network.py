"""Cross-holding networks: their type, validation and every way to build one.

A network of n firms is described by two n x n holding matrices and a debt
vector.  Entry (i, j) of m_s is the fraction of firm j's equity held by firm
i; entry (i, j) of m_d is the fraction of firm j's debt held by firm i.
Whatever fraction of a claim is not held inside the network is held by
outside investors.

``er_network`` draws random debt networks, directed Erdos-Renyi: each
ordered pair (i, j), i != j, is an edge with probability p = k_mean / (n - 1),
so the expected number of debtors per firm is exactly k_mean.  Each column
with c > 0 holders is filled with equal weights w_d / c, giving every held
firm an inside-debt fraction of exactly w_d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "NetworkError",
    "ValidationReport",
    "FirmNetwork",
    "validate_network",
    "symmetric_network",
    "load_network",
    "er_network",
]


class NetworkError(ValueError):
    """Raised when holding matrices or debt violate the admissibility rules."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the six admissibility rules, one flag per rule."""

    shapes_consistent: bool
    no_self_holdings: bool
    no_short_positions: bool
    sub_stochastic_columns: bool
    positive_debt: bool
    unique_fixed_point: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


_SLACK = 1e-12  # rounding slack of both rules on column sums of holdings


def _closed_ring(m_s: np.ndarray, m_d: np.ndarray, sums) -> np.ndarray:
    """The largest set of firms each of which has its equity or its debt held
    in full by firms of the set, as sorted indices; empty if there is none.

    Let H(xi) take column j from m_s if firm j is solvent and from m_d if
    not.  With column sums at most one, some H(xi) has spectral radius one
    exactly when such a ring exists: value can circulate in it without ever
    reaching an outside investor.  Without a ring every H(xi) has spectral
    radius below one; for pure-debt networks that is rho(m_d) < 1, and
    rho(max(m_s, m_d)) < 1 rules out a ring.  A claim is held in full when
    its column sum in ``sums`` is within _SLACK of one.  The ring is the
    greatest fixed point of dropping the firms whose fully held claims all
    have a holder outside the candidate set.
    """
    claims = [(m > 0.0, c >= 1.0 - _SLACK) for m, c in zip((m_s, m_d), sums)]
    ring = claims[0][1] | claims[1][1]
    while True:
        keep = np.zeros_like(ring)
        for held, full in claims:
            keep |= full & ~np.any(held & ~ring[:, None], axis=0)
        keep &= ring
        if np.array_equal(keep, ring):
            return np.flatnonzero(ring)
        ring = keep


def validate_network(m_s, m_d, d) -> ValidationReport:
    """Check raw holding matrices and debt for admissibility.

    Total on finite inputs: never raises, always returns a report.  The six
    rules are: consistent shapes with at least one firm, zero diagonals, no
    negative holdings, column sums at most one, strictly positive debt, and
    no closed holding ring (``_closed_ring``).  The last makes the fixed
    point unique and every sensitivity system A(xi) = I - H(xi) and each of
    its principal blocks invertible.  Both column-sum rules allow the same
    _SLACK on sums added in value order, so renumbering the firms never
    changes the verdict.
    """
    failures = []
    m_s = np.asarray(m_s, dtype=float)
    m_d = np.asarray(m_d, dtype=float)
    d = np.asarray(d, dtype=float)

    shapes = (
        m_s.ndim == 2
        and 0 < m_s.shape[0] == m_s.shape[1]
        and m_d.shape == m_s.shape
        and d.shape == (m_s.shape[0],)
    )
    if not shapes:
        failures.append(
            f"shapes: need n >= 1 firms, got m_s {m_s.shape}, m_d {m_d.shape}, d {d.shape}"
        )
        return ValidationReport(False, False, False, False, False, False, tuple(failures))

    no_self = not (np.any(np.diag(m_s) != 0.0) or np.any(np.diag(m_d) != 0.0))
    if not no_self:
        failures.append("self-holding: nonzero diagonal entry")

    no_short = bool(np.all(m_s >= 0.0) and np.all(m_d >= 0.0))
    if not no_short:
        failures.append("short position: negative holding fraction")

    sums = [np.sort(m, axis=0).sum(axis=0) for m in (m_s, m_d)]
    sub_stochastic = bool(np.all(np.concatenate(sums) <= 1.0 + _SLACK))
    if not sub_stochastic:
        failures.append("column sum above one: holdings exceed the claim")

    positive_debt = bool(np.all((d > 0.0) & np.isfinite(d)))
    if not positive_debt:
        failures.append("debt-positive: nominal debt must be strictly positive and finite")

    ring = _closed_ring(m_s, m_d, sums)
    if ring.size:
        failures.append(f"closed holding ring: firms {ring.tolist()} each have their equity "
                        "or debt held in full inside the ring, so the fixed point is not unique")

    return ValidationReport(
        shapes_consistent=True,
        no_self_holdings=no_self,
        no_short_positions=no_short,
        sub_stochastic_columns=sub_stochastic,
        positive_debt=positive_debt,
        unique_fixed_point=not ring.size,
        failures=tuple(failures),
    )


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _ArrayEq:
    """Field-by-field equality for dataclasses with numpy array fields.

    The dataclass-generated __eq__ compares tuples of fields, which asks for
    the truth value of an elementwise array comparison and raises; here each
    field compares with np.array_equal.  Fields with compare=False are
    skipped, and instances stay unhashable.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class FirmNetwork(_ArrayEq):
    """Admissible cross-holding network: matrices m_s, m_d and debt vector d.

    Immutable after construction; invalid inputs raise NetworkError.
    """

    m_s: np.ndarray
    m_d: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        m_s = _frozen_array(self.m_s)
        m_d = _frozen_array(self.m_d)
        d = _frozen_array(self.d)
        report = validate_network(m_s, m_d, d)
        if not report.ok:
            raise NetworkError("inadmissible network: " + "; ".join(report.failures))
        object.__setattr__(self, "m_s", m_s)
        object.__setattr__(self, "m_d", m_d)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]


def symmetric_network(n: int, w_s: float, w_d: float, d: float = 1.0) -> FirmNetwork:
    """Fully symmetric network: every firm holds w/(n-1) of every other firm."""
    if n < 2:
        raise ValueError("symmetric network needs at least two firms")
    off = np.ones((n, n)) - np.eye(n)
    return FirmNetwork(m_s=off * (w_s / (n - 1)), m_d=off * (w_d / (n - 1)),
                       d=np.full(n, float(d)))


def _read_network(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m_s, m_d and d of a JSON network file; NetworkError names a key that is
    missing or malformed.  Admissibility is left to validate_network.
    """
    with open(path) as fh:
        obj = json.load(fh)
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is not int:
        raise NetworkError(f"network file {path}: 'n' must be an integer, got {n!r}")
    arrays = []
    for key, shape in (("m_s", (n, n)), ("m_d", (n, n)), ("d", (n,))):
        try:
            arrays.append(np.array(obj[key], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkError(f"network file {path}: {key!r} missing or not numeric") from exc
        if arrays[-1].shape != shape or not np.all(np.isfinite(arrays[-1])):
            raise NetworkError(f"network file {path}: {key!r} needs finite entries, shape {shape}")
    return tuple(arrays)


def load_network(path) -> FirmNetwork:
    """Read an admissible network from a JSON file with keys n, m_s, m_d, d."""
    return FirmNetwork(*_read_network(path))


def _column_scaled(adj: np.ndarray, w_d: float) -> np.ndarray:
    counts = adj.sum(axis=0)
    weights = np.zeros(adj.shape)
    held = counts > 0
    weights[:, held] = adj[:, held] * (w_d / counts[held])
    return weights


def _edge_probability(n: int, k_mean: float, w_d: float) -> float:
    """The ensemble's edge probability; ValueError if (n, k_mean, w_d) make no network."""
    if n < 2:
        raise ValueError("need at least two firms")
    if not 0.0 <= w_d < 1.0:
        raise ValueError("w_d must lie in [0, 1)")
    p = k_mean / (n - 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"k_mean {k_mean} gives edge probability {p} outside [0, 1]")
    return p


def er_network(n: int, k_mean: float, w_d: float, seed: int, d: float = 1.0) -> FirmNetwork:
    """One random debt network; equity holdings are zero."""
    adj = np.random.default_rng(seed).random((n, n)) < _edge_probability(n, k_mean, w_d)
    np.fill_diagonal(adj, False)
    return FirmNetwork(m_s=np.zeros((n, n)), m_d=_column_scaled(adj, w_d), d=np.full(n, d))
