import json
from dataclasses import fields, replace
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netgreeks as ng
from netgreeks.sensitivity import dxda_batch
from helpers import random_network, save_network, solve_claims


def test_validate_accepts_zero_matrices():
    z = np.zeros((3, 3))
    report = ng.validate_network(z, z, np.ones(3))
    assert report.ok


def test_validate_rejects_self_holding():
    m = np.zeros((2, 2))
    m[0, 0] = 0.1
    report = ng.validate_network(m, np.zeros((2, 2)), np.ones(2))
    assert not report.ok
    assert not report.no_self_holdings
    assert any("self-holding" in f for f in report.failures)


def test_validate_rejects_negative_entry():
    m = np.zeros((2, 2))
    m[0, 1] = -0.2
    report = ng.validate_network(np.zeros((2, 2)), m, np.ones(2))
    assert not report.no_short_positions


def test_validate_rejects_column_sum_above_one():
    m = np.array([[0.0, 0.7], [0.6, 0.0]])
    m[0, 1] = 1.1
    report = ng.validate_network(m, np.zeros((2, 2)), np.ones(2))
    assert not report.sub_stochastic_columns


def test_validate_requires_some_outside_holding():
    # every column of m_d sums to exactly one: nothing leaks outside, so the
    # two firms form a closed ring
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = ng.validate_network(np.zeros((2, 2)), m, np.ones(2))
    assert not report.ok
    assert not report.unique_fixed_point


def test_validate_rejects_nonpositive_debt():
    z = np.zeros((2, 2))
    assert not ng.validate_network(z, z, np.array([1.0, 0.0])).positive_debt
    assert not ng.validate_network(z, z, np.array([1.0, -1.0])).positive_debt


def test_validate_strict_flag_is_informational():
    # one column sum exactly one, held by a firm that leaks, is admissible
    m = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])
    report = ng.validate_network(np.zeros((3, 3)), m, np.ones(3))
    assert report.ok


def _ring_network():
    # firms 0 and 1 each hold all of the other's equity and debt; firm 2 is
    # held by no one, so some value leaks outside, but none from the ring
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 1.0
    return m, m.copy(), np.ones(3)


def test_validate_rejects_closed_holding_ring():
    report = ng.validate_network(*_ring_network())
    assert report.sub_stochastic_columns
    assert not report.ok
    assert not report.unique_fixed_point
    assert any("closed holding ring: firms [0, 1]" in f for f in report.failures)
    with pytest.raises(ng.NetworkError, match="closed holding ring"):
        ng.FirmNetwork(*_ring_network())


# shares of a claim held in full: exact for one, two or four holders; for
# three or five they add to one only within rounding, and summed in some
# orders 0.7 + 0.2 + 0.1 and 0.5 + 0.2 + 3 x 0.1 round to 0.9999999999999999
_FULL_SHARES = ([1.0], [0.5, 0.5], [0.25] * 4, [1.0 / 3.0] * 3, [0.7, 0.2, 0.1],
                [0.5, 0.2, 0.1, 0.1, 0.1])


def _full_columns(rng, n):
    """Holdings whose columns are empty, leak (sum <= 0.9) or, more often, are
    held in full by one to five firms, the shares in random order."""
    m = np.zeros((n, n))
    for j in range(n):
        others = [i for i in range(n) if i != j]
        kind = rng.choice(3, p=[0.2, 0.2, 0.6])
        if kind == 1:
            m[others, j] = rng.random(n - 1) * 0.9 / (n - 1)
        elif kind == 2:
            fits = [s for s in _FULL_SHARES if len(s) < n]
            shares = rng.permutation(fits[rng.integers(len(fits))])
            m[rng.choice(others, size=shares.size, replace=False), j] = shares
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_closed_ring_rule_is_spectral_radius_of_every_pattern(seed, n):
    # the rule accepts a network exactly when every holding pattern H(xi)
    # has spectral radius below one; then every A(xi) solves and Picard
    # converges.  Exact shares keep each radius 1 or clearly below it.
    rng = np.random.default_rng(seed)
    m_s, m_d = _full_columns(rng, n), _full_columns(rng, n)
    report = ng.validate_network(m_s, m_d, np.ones(n))
    patterns = np.array(list(product((0.0, 1.0), repeat=n)))
    radius = max(np.abs(np.linalg.eigvals(np.where(xi == 1.0, m_s, m_d))).max()
                 for xi in patterns)
    assert report.unique_fixed_point == (radius < 1.0 - 1e-9), radius
    if report.ok:
        net = ng.FirmNetwork(m_s=m_s, m_d=m_d, d=np.ones(n))
        assert np.all(np.isfinite(dxda_batch(net, patterns)))
        solve_claims(net, rng.uniform(0.0, 2.0, size=n))


def test_near_ring_is_rejected_under_every_labelling():
    # firm 0 holds all the equity of firms 1-3, which hold 0.7, 0.2 and 0.1 of
    # firm 0's: a closed ring whose column 0 adds to one only within rounding
    m = np.zeros((4, 4))
    m[1:, 0] = [0.7, 0.2, 0.1]
    m[0, 1:] = 1.0
    for perm in permutations(range(4)):
        p = list(perm)
        report = ng.validate_network(m[np.ix_(p, p)], np.zeros((4, 4)), np.ones(4))
        assert not report.unique_fixed_point and not report.ok, perm


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_relabelling_the_firms_keeps_every_flag(seed, n):
    rng = np.random.default_rng(seed)
    m_s, m_d, d = _full_columns(rng, n), _full_columns(rng, n), rng.uniform(0.5, 2.0, n)
    p = rng.permutation(n)
    reports = [ng.validate_network(m_s, m_d, d),
               ng.validate_network(m_s[np.ix_(p, p)], m_d[np.ix_(p, p)], d[p])]
    flags = [[getattr(r, f.name) for f in fields(r) if f.name != "failures"] for r in reports]
    assert flags[0] == flags[1]


def test_validate_rejects_the_empty_network():
    report = ng.validate_network(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))
    assert not report.ok and not report.shapes_consistent


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_no_outside_holding_fails_the_six_rules(seed, n):
    # the rule the ring rule made redundant: every column of m_s, or of m_d,
    # sums to at least one or is NaN.  Such a network still fails.
    rng = np.random.default_rng(seed)
    m_s, m_d = rng.random((2, n, n)) * (rng.random((2, n, n)) < 0.7) / n
    if rng.random() < 0.8:
        np.fill_diagonal(m_s, 0.0)
        np.fill_diagonal(m_d, 0.0)
    closed = m_s if rng.random() < 0.5 else m_d
    with np.errstate(invalid="ignore", divide="ignore"):
        closed *= rng.choice([1.0, rng.uniform(1.0, 1.2)], p=[0.7, 0.3]) / closed.sum(axis=0)
    if rng.random() < 0.2:
        m_d[rng.integers(n), rng.integers(n)] = -0.1
    no_outside = not (np.any(m_s.sum(axis=0) < 1.0) and np.any(m_d.sum(axis=0) < 1.0))
    assume(no_outside)
    assert not ng.validate_network(m_s, m_d, rng.uniform(0.5, 2.0, n)).ok


def test_validate_shape_mismatch_reported_not_raised():
    report = ng.validate_network(np.zeros((2, 2)), np.zeros((3, 3)), np.ones(2))
    assert not report.ok
    assert not report.shapes_consistent


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_validate_total_on_finite_inputs(seed, n):
    rng = np.random.default_rng(seed)
    m_s = rng.uniform(-0.5, 1.5, size=(n, n))
    m_d = rng.uniform(-0.5, 1.5, size=(n, n))
    d = rng.uniform(-1.0, 2.0, size=n)
    report = ng.validate_network(m_s, m_d, d)
    assert report.ok == (len(report.failures) == 0)


def test_firm_network_rejects_invalid():
    bad = np.array([[0.2, 0.0], [0.0, 0.0]])
    with pytest.raises(ng.NetworkError):
        ng.FirmNetwork(m_s=bad, m_d=np.zeros((2, 2)), d=np.ones(2))


def test_firm_network_is_immutable():
    net = ng.symmetric_network(3, 0.2, 0.4)
    with pytest.raises(ValueError):
        net.m_s[0, 1] = 0.5


def test_firm_value_without_holdings_is_assets():
    n = 3
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)), d=np.ones(n))
    a = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(ng.solve_claims_batch(net, a).v, a)


def test_firm_value_symmetric_debt_example():
    # three firms, w_d = 0.4 spread evenly: v_i = a_i + 0.2 * (r_j + r_k),
    # and with a = 1 every firm is solvent, r = d = 1
    net = ng.symmetric_network(3, 0.0, 0.4)
    sol = ng.solve_claims_batch(net, np.ones((1, 3)))
    np.testing.assert_allclose(sol.r, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sol.v, 1.4, rtol=0, atol=1e-15)


def test_firm_value_dimension_mismatch():
    # firm values need one external asset value per firm
    net = ng.symmetric_network(3, 0.0, 0.4)
    with pytest.raises(ValueError, match="2 columns, network has 3 firms"):
        ng.solve_claims_batch(net, np.ones((1, 2)))


def test_outside_value_without_holdings():
    # outside investors hold every claim: s + r = a
    n = 2
    net = ng.FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)), d=np.ones(n))
    a = np.array([1.5, 0.25])
    sol = solve_claims(net, a)
    np.testing.assert_allclose(sol.claims.s + sol.claims.r, a, rtol=0, atol=1e-15)


def test_outside_value_conserves_assets_at_fixed_point():
    net = ng.symmetric_network(2, 0.0, 0.4)
    a = np.full(2, 0.5)
    sol = solve_claims(net, a)
    v_out = (1.0 - net.m_s.sum(axis=0)) * sol.claims.s + (1.0 - net.m_d.sum(axis=0)) * sol.claims.r
    # all value flows outside: 0.6 * r with r = 0.5 / 0.6
    np.testing.assert_allclose(v_out, 0.5, atol=1e-12)


def test_conservation_random_fixed_points():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        net = random_network(rng, n)
        a = rng.uniform(0.1, 3.0, size=n)
        c = solve_claims(net, a).claims
        v_out = (1.0 - net.m_s.sum(axis=0)) * c.s + (1.0 - net.m_d.sum(axis=0)) * c.r
        assert abs(v_out.sum() - a.sum()) < 1e-9


def test_symmetric_network_structure():
    net = ng.symmetric_network(5, 0.3, 0.6, d=2.0)
    assert np.all(np.diag(net.m_s) == 0) and np.all(np.diag(net.m_d) == 0)
    np.testing.assert_allclose(net.m_s.sum(axis=0), 0.3, atol=1e-12)
    np.testing.assert_allclose(net.m_d.sum(axis=0), 0.6, atol=1e-12)
    np.testing.assert_array_equal(net.d, 2.0)


def test_network_json_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    net = random_network(rng, 4)
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = ng.load_network(path)
    np.testing.assert_array_equal(loaded.m_s, net.m_s)
    np.testing.assert_array_equal(loaded.m_d, net.m_d)
    np.testing.assert_array_equal(loaded.d, net.d)


def test_load_network_rejects_inconsistent_n(tmp_path):
    path = tmp_path / "net.json"
    obj = {"n": 3, "m_s": [[0.0, 0.0], [0.0, 0.0]],
           "m_d": [[0.0, 0.0], [0.0, 0.0]], "d": [1.0, 1.0]}
    path.write_text(json.dumps(obj))
    with pytest.raises(ng.NetworkError):
        ng.load_network(path)


def test_array_dataclasses_compare_without_raising():
    from netgreeks.gbm import GbmParams

    def gbm(sigma):
        return GbmParams(a_t=[1.0, 1.2], sigma=[0.4, sigma], r=0.0, tau=1.0, corr=np.eye(2))

    pairs = [
        (ng.symmetric_network(3, 0.1, 0.2), ng.symmetric_network(3, 0.1, 0.2),
         ng.symmetric_network(3, 0.1, 0.3)),
        (gbm(0.3), gbm(0.3), gbm(0.5)),
    ]
    for a, same, other in pairs:
        assert a == same and not (a != same)
        assert a != other and not (a == other)
        assert a != "not a dataclass"
    # different shapes compare unequal, not raise
    assert ng.symmetric_network(2, 0.1, 0.2) != ng.symmetric_network(3, 0.1, 0.2)


def _array_dataclasses(rng, n):
    """One instance of each array dataclass, with the fields that stay valid
    when one entry grows."""
    from netgreeks.gbm import GbmParams
    x = rng.uniform(0.1, 2.0, size=(4, n))
    return [
        (random_network(rng, n), ("d",)),
        (GbmParams(a_t=x[0], sigma=x[1], r=0.01, tau=1.0, corr=np.eye(n)), ("a_t", "sigma", "r", "tau")),
        (ng.BatchSolution(s=x[:2], r=x[1:3], v=x[2:], xi=(x[:2] > 1.0).astype(float),
                          iterations=7, residuals=x[3, :2], certified=np.zeros(2, dtype=bool)),
         ("s", "r", "v", "residuals")),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.data())
def test_array_dataclass_equality_is_entrywise(seed, n, data):
    rng = np.random.default_rng(seed)
    obj, mutable = data.draw(st.sampled_from(_array_dataclasses(rng, n)))
    copy = replace(obj, **{f.name: np.copy(getattr(obj, f.name)) for f in fields(obj) if f.init})
    assert copy == obj and not (copy != obj)
    name = data.draw(st.sampled_from(mutable))
    value = np.array(getattr(obj, name), dtype=float)
    flat = value.reshape(-1)
    i = data.draw(st.integers(0, flat.size - 1))
    flat[i] *= 1.5
    changed = replace(obj, **{name: value if value.ndim else float(value)})
    assert changed != obj and not (changed == obj)
