"""End-to-end CLI behaviour: exit codes, overrides, output files."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netgreeks.cli import main
from netgreeks.experiments import ExperimentConfig, run_experiment
from netgreeks.fixpoint import ConvergenceError
from netgreeks.network import FirmNetwork
from helpers import save_network

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_symmetric_grid_success(tmp_path, capsys):
    cfg = _write(tmp_path, "grid.json", {
        "kind": "symmetric-grid", "a0": [0.5, 1.0], "w_s": 0.2, "w_d": 0.4,
        "sigma": 0.4,
    })
    out = tmp_path / "grid.csv"
    assert main(["symmetric-grid", "--config", cfg, "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 3


def test_missing_out_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "grid.json", {
        "kind": "symmetric-grid", "a0": 1.0, "w_s": 0.0, "w_d": 0.0,
        "sigma": 0.4,
    })
    assert main(["symmetric-grid", "--config", cfg]) == 2
    assert "no output path" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["price", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["price", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_kind_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "grid.json", {
        "kind": "symmetric-grid", "a0": 1.0, "w_s": 0.0, "w_d": 0.0,
        "sigma": 0.4,
    })
    assert main(["two-firm", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--config",
                 str(CONFIGS / "validate_example.json")]) == 0
    capsys.readouterr()

    bad_net = _write(tmp_path, "bad_net.json", {
        "n": 2,
        "m_s": [[0.5, 0.0], [0.0, 0.0]],  # self-holding on the diagonal
        "m_d": [[0.0, 0.0], [0.0, 0.0]],
        "d": [1.0, 1.0],
    })
    cfg = _write(tmp_path, "validate.json",
                 {"kind": "validate", "network": bad_net})
    assert main(["validate", "--config", cfg]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_validate_prints_every_check_of_the_report(monkeypatch, capsys):
    monkeypatch.chdir(CONFIGS.parent)
    assert main(["validate", "--config", "configs/validate_example.json"]) == 0
    assert capsys.readouterr().out == (
        "network: configs/example_network.json\n"
        "  shapes_consistent: True\n"
        "  no_self_holdings: True\n"
        "  no_short_positions: True\n"
        "  sub_stochastic_columns: True\n"
        "  positive_debt: True\n"
        "  unique_fixed_point: True\n"
        "OK\n"
    )


GOOD_NET = {"n": 2, "m_s": [[0.0, 0.1], [0.2, 0.0]], "m_d": [[0.0, 0.3], [0.1, 0.0]],
            "d": [1.0, 1.0]}


@pytest.mark.parametrize("key,bad", [
    ("d", None),                       # missing
    ("m_s", {"n": 5}),                 # n does not match the 2x2 matrices
    ("m_d", {"m_d": [[0.0, "x"], [0.1, 0.0]]}),
    ("m_s", {"m_s": [[0.0, 0.1], [0.2]]}),  # ragged
    ("m_s", {"m_s": [[0.0, float("nan")], [0.2, 0.0]]}),
    ("d", {"d": [1.0, float("inf")]}),
    ("n", {"n": "2"}),
])
@pytest.mark.parametrize("kind", ["validate", "greeks"])
def test_malformed_network_file_is_config_error(tmp_path, capsys, kind, key, bad):
    # every kind reads a network file the same way: a missing key, an n
    # mismatch or a non-numeric, ragged or non-finite entry exits 2 naming
    # the key, before any admissibility check
    doc = {k: v for k, v in GOOD_NET.items() if k != key} if bad is None else {**GOOD_NET, **bad}
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(doc))
    cfg = _write(tmp_path, "cfg.json", {"kind": kind, **SMALL[kind], "network": str(net_path)})
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and repr(key) in captured.err
    assert "OK" not in captured.out


def test_closed_holding_ring_is_rejected_at_the_boundary(tmp_path, capsys):
    # two firms holding all of each other's equity and debt have no unique
    # fixed point: validate fails it, and loading it is a configuration error
    # instead of 10,000 Picard steps and a solver failure
    m = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    net_path = _write(tmp_path, "ring.json", {"n": 3, "m_s": m, "m_d": m, "d": [1.0] * 3})
    cfg = _write(tmp_path, "validate.json", {"kind": "validate", "network": net_path})
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "unique_fixed_point: False" in out and "closed holding ring" in out
    cfg = _write(tmp_path, "price.json", {
        "kind": "price", "network": net_path, "a_t": 1.0, "sigma": 0.4, "draws": 64,
    })
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "p.json")]) == 2
    assert "closed holding ring" in capsys.readouterr().err


def test_ring_held_in_full_within_rounding_is_rejected_at_the_boundary(tmp_path, capsys):
    # firm 0 holds all the equity of firms 1-3, which hold 0.7, 0.2 and 0.1 of
    # firm 0's equity: a closed ring, though in this order firm 0's column
    # sums to 0.9999999999999999; solving it would stall in Picard
    m_s = np.zeros((4, 4))
    m_s[1:, 0] = [0.7, 0.2, 0.1]
    m_s[0, 1:] = 1.0
    net_path = _write(tmp_path, "ring.json", {"n": 4, "m_s": m_s.tolist(),
                                              "m_d": np.zeros((4, 4)).tolist(), "d": [1.0] * 4})
    cfg = _write(tmp_path, "validate.json", {"kind": "validate", "network": net_path})
    assert main(["validate", "--config", cfg]) == 1
    assert "closed holding ring: firms [0, 1, 2, 3]" in capsys.readouterr().out
    cfg = _write(tmp_path, "price.json", {
        "kind": "price", "network": net_path, "a_t": 2.0, "sigma": 0.4, "draws": 1000,
    })
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "p.json")]) == 2
    assert "closed holding ring" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, capsys):
    # deep mutual insolvency with nearly-stochastic debt holdings: one
    # Picard sweep cannot reach the fixed point
    net_path = tmp_path / "net.json"
    save_network(FirmNetwork(
        m_s=np.zeros((2, 2)),
        m_d=np.array([[0.0, 0.9], [0.9, 0.0]]),
        d=np.ones(2),
    ), net_path)
    cfg = _write(tmp_path, "price.json", {
        "kind": "price", "network": str(net_path), "a_t": 0.05, "sigma": 0.4,
        "draws": 64, "seed": 1, "max_iter": 1,
    })
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "p.json")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_er_sweep_solver_failure_names_its_cell_and_member(tmp_path, capsys):
    # one Picard sweep cannot finish an n = 4 member; the message says which
    obj = {"kind": "er-sweep", "k_mean": [2.0], "w_d": [0.5], "a0": [1.0], "sigma": 0.4,
           "n": 4, "networks": 2, "draws": 16, "seed": 3, "max_iter": 1}
    cfg = _write(tmp_path, "sweep.json", obj)
    assert main(["er-sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 3
    err = capsys.readouterr().err
    for label in ("k_mean=2", "w_d=0.5", "a0=1", "member 0", "failed at draw"):
        assert label in err
    with pytest.raises(ConvergenceError) as exc:
        run_experiment(ExperimentConfig.from_dict(obj), out=tmp_path / "s.csv")
    assert f"at draw {exc.value.draw}:" in str(exc.value)


@pytest.mark.parametrize("grid", [{"k_mean": [1.0, 2.0, 40.0]}, {"w_d": [0.2, 0.6, 1.0]}],
                         ids=["k_mean", "w_d"])
def test_er_sweep_bad_late_grid_value_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                           grid):
    # k_mean 40 at n = 30 is an edge probability above one and w_d = 1 makes
    # no network: the last block's value exits 2 before the first block runs
    import netgreeks.experiments as ex

    calls = []
    real = ex.mc_greeks

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ex, "mc_greeks", counting)
    cfg = _write(tmp_path, "sweep.json", {
        "kind": "er-sweep", "k_mean": [2.0], "w_d": [0.5], "a0": [1.0], "sigma": 0.4,
        "n": 30, "networks": 2, "draws": 16, "seed": 1, **grid})
    assert main(["er-sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error: bad network:" in err
    assert "er-sweep:" not in err
    assert calls == []


@pytest.mark.parametrize("kind, config, name", [
    ("er-sweep", "er_sweep_quick.json", "missing/result"),
    ("greeks", "greeks_example.json", "missing/result"),
    ("greeks", "greeks_example.json", "."),     # the output path is a directory
])
def test_unwritable_output_path_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                      kind, config, name):
    import netgreeks.experiments as ex

    def no_work(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the output path was checked")

    monkeypatch.setattr(ex, "mc_greeks", no_work)
    out = tmp_path / name
    assert main([kind, "--config", str(CONFIGS / config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: out:" in err and str(out) in err


def test_nonfinite_input_is_config_error(tmp_path, capsys):
    # NaN volatility is rejected at the boundary, not after max_iter Picard steps
    cfg = _write(tmp_path, "price.json", {
        "kind": "price", "network": str(CONFIGS / "example_network.json"),
        "a_t": 1.0, "sigma": float("nan"), "draws": 64, "seed": 1,
    })
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "p.json")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, value", [("price", "a_t", 1e308), ("greeks", "sigma", 40.0)])
def test_draws_that_overflow_or_underflow_are_config_errors(tmp_path, capsys, kind, key, value):
    # a_t = 1e308 overflows the top sampled A_T (Infinity prices, exit 0 before
    # the range check); sigma = 40 underflows the bottom one to 0, which the
    # solver rejected with a traceback and exit 1
    cfg = _write(tmp_path, f"{kind}.json", {
        "kind": kind, "network": str(CONFIGS / "example_network.json"),
        "a_t": 1.0, "sigma": 0.4, key: value, "draws": 64, "seed": 1,
    })
    out = tmp_path / "out.json"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert "bad asset model: firm 0: " in capsys.readouterr().err
    assert not out.exists()


def test_correlation_without_cholesky_factor_is_config_error(tmp_path, capsys):
    # eigenvalue -2e-9 has no Cholesky factor even after the 1e-12 bump; it
    # is rejected with the asset model, not inside the Monte Carlo chunks
    net_path = tmp_path / "net.json"
    save_network(FirmNetwork(m_s=np.zeros((2, 2)), m_d=np.zeros((2, 2)),
                             d=np.ones(2)), net_path)
    cfg = _write(tmp_path, "greeks.json", {
        "kind": "greeks", "network": str(net_path), "a_t": 1.0, "sigma": 0.4,
        "corr": [[1.0, 1.0 + 2e-9], [1.0 + 2e-9, 1.0]], "draws": 64, "seed": 1,
    })
    assert main(["greeks", "--config", cfg, "--out", str(tmp_path / "g.json")]) == 2
    assert "definite" in capsys.readouterr().err


# every numeric key each kind reads; the network kinds also read a network file
FULL = {
    "price": {"network": "example_network.json", "a_t": [1.0, 1.1, 0.9], "sigma": 0.4,
              "r": 0.01, "tau": 1.0, "tol": 1e-12, "corr": np.eye(3).tolist()},
    "greeks": {"network": "example_network.json", "a_t": 1.0, "sigma": [0.3, 0.4, 0.5],
               "r": 0.0, "tau": 0.5, "tol": 1e-12, "corr": np.eye(3).tolist()},
    "local-compare": {"network": "debt_network.json", "a_t": 1.05, "sigma": 0.4,
                      "firm_vol": 0.4, "r": 0.0, "tau": 1.0, "tol": 1e-12},
    "two-firm": {"a0": 1.0, "w_d": 0.4, "sigma": 0.4, "d": 1.0, "r": 0.0, "tau": 1.0,
                 "tol": 1e-12},
    "symmetric-grid": {"a0": [0.5, 1.0], "w_s": 0.2, "w_d": 0.4, "sigma": 0.4, "d": 1.0,
                       "r": 0.0, "tau": 1.0},
    "er-sweep": {"k_mean": [0.5], "w_d": [0.5], "a0": [1.0], "sigma": 0.4, "d": 1.0,
                 "r": 0.0, "tau": 1.0, "tol": 1e-12, "n": 4, "networks": 1},
}


def _numeric_places(obj, path=()):
    """Paths to every float in a JSON-like object."""
    if isinstance(obj, float):
        return [path]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _numeric_places(v, path + (i,))]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _numeric_places(v, path + (k,))]
    return []


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def _exit_code(kind, cfg, directory):
    # draws and seed only where the kind reads them: an unread key alone
    # would exit 2 and hide what the caller planted
    mc = {key: value for key, value in (("draws", 16), ("seed", 1))
          if key in ExperimentConfig.OPTIONAL[kind]}
    path = Path(directory) / "cfg.json"
    path.write_text(json.dumps({"kind": kind, **mc, **cfg}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([kind, "--config", str(path), "--out", str(Path(directory) / "out")])
    return code, err.getvalue()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FULL)), st.data(),
       st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_nonfinite_value_anywhere_is_config_error(kind, data, bad):
    cfg = json.loads(json.dumps(FULL[kind]))
    doc = {"config": cfg}
    if "network" in cfg:
        doc["network"] = json.loads((CONFIGS / cfg["network"]).read_text())
    place = data.draw(st.sampled_from(_numeric_places(doc)))
    _set(doc, place, bad)
    with tempfile.TemporaryDirectory() as directory:
        if "network" in doc:
            cfg["network"] = str(Path(directory) / "net.json")
            Path(cfg["network"]).write_text(json.dumps(doc["network"]))
        code, err = _exit_code(kind, cfg, directory)
    assert code == 2, (place, err)
    assert "config error" in err


def test_full_configs_run():
    # the unmodified configs of the property above are valid
    with tempfile.TemporaryDirectory() as directory:
        for kind, cfg in FULL.items():
            if "network" in cfg:
                cfg = {**cfg, "network": str(CONFIGS / cfg["network"])}
            assert _exit_code(kind, cfg, directory)[0] == 0, kind


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_unfactorable_correlation_is_config_error(seed, n):
    # a unit-diagonal symmetric matrix with a negative eigenvalue, well
    # beyond the 1e-12 diagonal bump
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(0.1, 2.0, size=n)
    eig[0] = -rng.uniform(1e-6, 0.5)
    cov = q @ np.diag(eig) @ q.T
    assume(np.all(np.diag(cov) > 0.0))
    scale = 1.0 / np.sqrt(np.diag(cov))
    corr = scale[:, None] * cov * scale[None, :]
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    assume(np.linalg.eigvalsh(corr).min() < -1e-9)
    with tempfile.TemporaryDirectory() as directory:
        net_path = Path(directory) / "net.json"
        save_network(FirmNetwork(m_s=np.zeros((n, n)), m_d=np.zeros((n, n)),
                                 d=np.ones(n)), net_path)
        cfg = {"network": str(net_path), "a_t": 1.0, "sigma": 0.4, "corr": corr.tolist()}
        code, err = _exit_code("greeks", cfg, directory)
    assert code == 2 and "config error" in err


SMALL = {
    "er-sweep": {"k_mean": [0.5], "w_d": [0.5], "a0": [1.0], "sigma": 0.4,
                 "n": 4, "networks": 2, "draws": 16},
    "two-firm": {"a0": 1.0, "w_d": 0.4, "sigma": 0.4, "d": 1.0, "draws": 16},
    "symmetric-grid": {"a0": [0.5, 1.0], "w_s": 0.2, "w_d": 0.4, "sigma": 0.4},
    "price": {"network": str(CONFIGS / "example_network.json"), "a_t": 1.0, "sigma": 0.4,
              "draws": 16},
    "greeks": {"network": str(CONFIGS / "example_network.json"), "a_t": 1.0, "sigma": 0.4,
               "draws": 16},
    "local-compare": {"network": str(CONFIGS / "debt_network.json"), "a_t": 1.05,
                      "sigma": 0.4, "firm_vol": 0.4, "draws": 16},
    "validate": {"network": str(CONFIGS / "example_network.json")},
}


@pytest.mark.parametrize("kind,overrides", [
    ("er-sweep", {"w_d": [1.0]}),
    ("er-sweep", {"n": 1}),
    ("two-firm", {"w_d": 1.0}),
    ("symmetric-grid", {"w_d": [0.4, 1.0]}),
    ("er-sweep", {"d": 0.0}),
])
def test_out_of_range_network_is_config_error(tmp_path, capsys, kind, overrides):
    cfg = _write(tmp_path, "cfg.json", {"kind": kind, **SMALL[kind], **overrides})
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "config error: bad " in capsys.readouterr().err


@pytest.mark.parametrize("kind,overrides", [
    ("two-firm", {"w_d": [0.2, 0.6]}),
    ("two-firm", {"sigma": [0.3, 0.5]}),
    ("two-firm", {"a0": [1.0, 2.0]}),
    ("er-sweep", {"sigma": [0.3, 0.5]}),
])
def test_single_valued_key_with_several_values_is_config_error(tmp_path, capsys,
                                                               kind, overrides):
    cfg = _write(tmp_path, "cfg.json", {"kind": kind, **SMALL[kind], **overrides})
    out = tmp_path / "o.csv"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert "exactly one value" in capsys.readouterr().err
    assert not out.exists()


def test_seed_override_changes_bytes(tmp_path, capsys):
    cfg = _write(tmp_path, "two.json", {
        "kind": "two-firm", "a0": 1.0, "w_d": 0.4, "sigma": 0.4, "d": 1.0,
        "draws": 30,
    })
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["two-firm", "--config", cfg, "--out", str(a)]) == 0
    assert main(["two-firm", "--config", cfg, "--out", str(b), "--seed", "0"]) == 0
    assert main(["two-firm", "--config", cfg, "--out", str(c), "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()  # config default seed is 0
    assert a.read_bytes() != c.read_bytes()


def test_draws_override(tmp_path, capsys):
    cfg = _write(tmp_path, "two.json", {
        "kind": "two-firm", "a0": 1.0, "w_d": 0.4, "sigma": 0.4, "d": 1.0,
        "draws": 30,
    })
    out = tmp_path / "two.csv"
    assert main(["two-firm", "--config", cfg, "--out", str(out), "--draws", "12"]) == 0
    assert len(out.read_text().splitlines()) == 13


def test_threads_override_keeps_output_identical(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.json", {
        "kind": "er-sweep", "k_mean": [2.0], "w_d": [0.5], "a0": [1.0],
        "sigma": 0.4, "n": 4, "networks": 3, "draws": 64, "seed": 2,
    })
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["er-sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["er-sweep", "--config", cfg, "--out", str(b),
                 "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_greeks_writes_json(tmp_path, capsys):
    cfg = _write(tmp_path, "greeks.json", {
        "kind": "greeks", "network": str(CONFIGS / "example_network.json"),
        "a_t": 1.0, "sigma": 0.4, "draws": 400, "seed": 1,
    })
    out = tmp_path / "g.json"
    assert main(["greeks", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 3
    assert np.asarray(payload["delta"]).shape == (6, 3)


def test_local_compare_writes_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "local.json", {
        "kind": "local-compare", "network": str(CONFIGS / "debt_network.json"),
        "a_t": 1.05, "sigma": 0.4, "firm_vol": 0.4, "draws": 400, "seed": 2,
    })
    out = tmp_path / "local.csv"
    assert main(["local-compare", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 10  # header + 3x3 pairs


@pytest.mark.parametrize("network, firm_vol, message", [
    ("example_network.json", 0.4, "pure debt"),      # equity cross-holdings
    ("debt_network.json", 0.0, "firm volatilities"),
    ("debt_network.json", [0.4, 0.4], "firm volatilities"),  # 3 firms
])
def test_local_compare_bad_local_inputs_fail_before_monte_carlo(tmp_path, capsys, monkeypatch,
                                                                network, firm_vol, message):
    import netgreeks.experiments as ex

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte Carlo pass ran before the input check")

    monkeypatch.setattr(ex, "solve_claims_batch", no_monte_carlo)
    cfg = _write(tmp_path, "local.json", {
        "kind": "local-compare", "network": str(CONFIGS / network),
        "a_t": 1.05, "sigma": 0.4, "firm_vol": firm_vol, "draws": 64, "seed": 2,
    })
    assert main(["local-compare", "--config", cfg, "--out", str(tmp_path / "l.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_unknown_subcommand_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.json"])


@pytest.mark.parametrize("kind,extra", [
    ("symmetric-grid", {"seed": 3}),
    ("symmetric-grid", {"draws": 100}),
    ("symmetric-grid", {"tol": 1e-10}),
    ("symmetric-grid", {"network": "net.json"}),
    ("two-firm", {"w_s": 0.2}),
    ("two-firm", {"corr": [[1.0, 0.5], [0.5, 1.0]]}),
    ("two-firm", {"threads": 2}),
    ("er-sweep", {"w_s": 0.2}),
    ("er-sweep", {"a_t": 1.0}),
    ("price", {"d": 2.0}),
    ("price", {"w_s": 0.2}),
    ("greeks", {"d": 2.0}),
    ("greeks", {"w_s": 0.2}),
    ("local-compare", {"d": 2.0}),
    ("local-compare", {"threads": 2}),
    ("validate", {"seed": 1}),
    ("er-sweep", {"sinkhorn": True}),  # the removed Sinkhorn ensemble
])
def test_unread_config_key_is_config_error(tmp_path, capsys, kind, extra):
    cfg = _write(tmp_path, "cfg.json", {"kind": kind, **SMALL[kind], **extra})
    out = tmp_path / "o"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown config keys {list(extra)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,flag", [
    ("symmetric-grid", "--seed"),
    ("symmetric-grid", "--draws"),
    ("symmetric-grid", "--threads"),
    ("two-firm", "--threads"),
    ("local-compare", "--threads"),
    ("validate", "--seed"),
    ("validate", "--draws"),
    ("validate", "--threads"),
])
def test_unread_flag_exits_2(tmp_path, capsys, kind, flag):
    cfg = _write(tmp_path, "cfg.json", {"kind": kind, **SMALL[kind]})
    with pytest.raises(SystemExit) as exc:
        main([kind, "--config", cfg, "--out", str(tmp_path / "o"), flag, "4"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--draws", "1", "draws must be at least 2"),
    ("--draws", "0", "draws must be at least 2"),
    ("--threads", "0", "threads must be at least 1"),
])
def test_out_of_range_flag_is_config_error(tmp_path, capsys, flag, value, message):
    # a flag override gets the same range checks as the config key
    cfg = _write(tmp_path, "cfg.json", {"kind": "er-sweep", **SMALL["er-sweep"]})
    out = tmp_path / "o.csv"
    assert main(["er-sweep", "--config", cfg, "--out", str(out), flag, value]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("kind", [k for k in SMALL if "seed" in ExperimentConfig.OPTIONAL[k]])
def test_seed_out_of_range_is_config_error(tmp_path, capsys, kind, seed):
    # Philox keys and SeedSequence entropy take seeds in [0, 2**128)
    cfg = _write(tmp_path, "cfg.json", {"kind": kind, **SMALL[kind]})
    out = tmp_path / "o"
    assert main([kind, "--config", cfg, "--out", str(out), "--seed", seed]) == 2
    assert "config error: seed must lie in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["greeks", "price", "local-compare"])
def test_asset_model_for_another_firm_count_is_config_error(tmp_path, capsys, kind):
    # a_t, sigma and corr agree on 2 firms and the network has 3: this exited 1
    # with a traceback from the sampler, or a numpy matmul error for local-compare
    cfg = _write(tmp_path, "cfg.json", {"kind": kind, **SMALL[kind], "a_t": [1.0, 1.1],
                                        "sigma": [0.4, 0.3], "corr": [[1.0, 0.2], [0.2, 1.0]]})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert "bad asset model: a_t: expected 1 or 3 values, got 2" in capsys.readouterr().err
    assert not out.exists()
