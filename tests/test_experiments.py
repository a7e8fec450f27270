"""Experiment configs, runners and deterministic CSV output."""

import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netgreeks.experiments import (
    ER_SWEEP_HEADER,
    LOCAL_COMPARE_HEADER,
    SYMMETRIC_GRID_HEADER,
    TWO_FIRM_HEADER,
    ConfigError,
    ExperimentConfig,
    _grid,
    _member_stats,
    _task_seed,
    run_er_sweep,
    run_experiment,
    run_local_compare,
    run_symmetric_grid,
    run_two_firm,
    run_validate,
    write_csv,
)

import netgreeks.experiments as experiments
from netgreeks import (ConvergenceError, GbmParams, SensitivityError, normal_variates,
                       sample_terminal, solve_claims_batch, symmetric_network)
from netgreeks.mc import _chunk_size

from helpers import MULTI_A0_SWEEP, member_stats_from_report

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- config parsing -----------------------------------------------------------

def test_grid_accepts_scalar_list_and_range():
    assert _grid(0.4, "sigma") == (0.4,)
    assert _grid([0.1, 0.4], "sigma") == (0.1, 0.4)
    got = _grid({"start": 0.0, "stop": 5.0, "step": 0.5}, "k")
    assert len(got) == 11
    assert got[0] == 0.0 and got[-1] == pytest.approx(5.0)


def test_grid_rejects_bad_specs():
    with pytest.raises(ConfigError, match="start/stop/step"):
        _grid({"start": 0.0, "stop": 1.0}, "k")
    with pytest.raises(ConfigError, match="step"):
        _grid({"start": 0.0, "stop": 1.0, "step": -0.1}, "k")
    with pytest.raises(ConfigError):
        _grid("0.4", "sigma")


def test_grid_stays_inside_stop_and_is_never_empty():
    # round() once gave (0.0, 0.6, 1.2), and an er-sweep k_mean grid {2, 3, 0.6}
    # at n = 4 ran to k_mean 3.2, an edge probability above one
    assert _grid({"start": 0, "stop": 1, "step": 0.6}, "k") == (0.0, 0.6)
    assert _grid({"start": 2, "stop": 3, "step": 0.6}, "k") == (2.0, 2.6)
    # (2.5 - 0.1) / 0.1 rounds below 24: the shipped a0 grid keeps all 25 values
    a0 = _grid(json.loads((CONFIGS / "symmetric_grid.json").read_text())["a0"], "a0")
    assert len(a0) == 25 and a0[-1] == pytest.approx(2.5)
    sweep = {"kind": "er-sweep", "k_mean": 2.0, "w_d": 0.2, "a0": [], "sigma": 0.4,
             "n": 4, "networks": 1}
    grid = {"kind": "symmetric-grid", "a0": 1.0, "w_s": [], "w_d": 0.0, "sigma": 0.4}
    for obj, key in ((sweep, "a0"), (grid, "w_s")):
        with pytest.raises(ConfigError, match=f"{key}: empty grid"):
            ExperimentConfig.from_dict(obj)


@pytest.mark.parametrize("key,value", [
    ("draws", 100.9), ("seed", 2.7), ("n", "7"), ("networks", True), ("threads", 2.5),
    ("d", "1.5"), ("sigma", [True]), ("out", 1),
])
def test_config_values_are_checked_not_coerced(key, value):
    sweep = {"kind": "er-sweep", "k_mean": 2.0, "w_d": 0.2, "a0": 1.0, "sigma": 0.4,
             "n": 4, "networks": 1}
    with pytest.raises(ConfigError, match=f"{key}: expected"):
        ExperimentConfig.from_dict({**sweep, key: value})


def test_from_dict_validates():
    good = {"kind": "symmetric-grid", "a0": 1.0, "w_s": 0.0, "w_d": 0.0,
            "sigma": 0.4}
    cfg = ExperimentConfig.from_dict(good)
    assert cfg.a0 == (1.0,) and cfg.kind == "symmetric-grid"

    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict({"a0": 1.0})
    with pytest.raises(ConfigError, match="unknown kind"):
        ExperimentConfig.from_dict({"kind": "frobnicate"})
    with pytest.raises(ConfigError, match="does not match"):
        ExperimentConfig.from_dict(good, kind="two-firm")
    with pytest.raises(ConfigError, match="missing required"):
        ExperimentConfig.from_dict({"kind": "symmetric-grid", "a0": 1.0})
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_dict({**good, "bogus": 1})
    # the range checks, on a kind that reads these keys
    sweep = {"kind": "er-sweep", "k_mean": 1.0, "w_d": 0.2, "a0": 1.0, "sigma": 0.4,
             "n": 4, "networks": 2}
    ExperimentConfig.from_dict(sweep)
    with pytest.raises(ConfigError, match="draws must be at least 2"):
        ExperimentConfig.from_dict({**sweep, "draws": 1})
    with pytest.raises(ConfigError, match="threads must be at least 1"):
        ExperimentConfig.from_dict({**sweep, "threads": 0})
    with pytest.raises(ConfigError, match="networks must be at least 1"):
        ExperimentConfig.from_dict({**sweep, "networks": 0})


def test_from_dict_rejects_several_values_for_single_valued_keys():
    two = {"kind": "two-firm", "a0": 1.0, "w_d": 0.4, "sigma": 0.4, "d": 1.0}
    for key in ("a0", "w_d", "sigma"):
        for values in ([], [0.2, 0.6]):
            with pytest.raises(ConfigError, match=f"{key} takes exactly one value"):
                ExperimentConfig.from_dict({**two, key: values})
    sweep = {"kind": "er-sweep", "k_mean": [0.5, 1.0], "w_d": [0.2, 0.4],
             "a0": [1.0, 1.1], "sigma": [0.3, 0.5], "n": 4, "networks": 2}
    with pytest.raises(ConfigError, match="sigma takes exactly one value"):
        ExperimentConfig.from_dict(sweep)
    # grids stay grids where the runner iterates them
    cfg = ExperimentConfig.from_dict({**sweep, "sigma": [0.3]})
    assert cfg.k_mean == (0.5, 1.0) and cfg.w_d == (0.2, 0.4) and cfg.a0 == (1.0, 1.1)
    grid = {"kind": "symmetric-grid", "a0": [0.5, 1.0], "w_s": [0.0, 0.2],
            "w_d": [0.0, 0.4], "sigma": [0.3, 0.5]}
    assert ExperimentConfig.from_dict(grid).sigma == (0.3, 0.5)


def test_from_json_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json(bad)


def test_shipped_configs_parse():
    for name in ("symmetric_grid", "two_firm", "er_sweep_quick",
                 "er_sweep_paper", "price_example", "greeks_example",
                 "local_compare", "validate_example"):
        cfg = ExperimentConfig.from_json(CONFIGS / f"{name}.json")
        assert cfg.kind in ExperimentConfig.REQUIRED


def test_readme_config_table_lists_the_keys_each_kind_reads():
    # the "Config files" table: one row per group of kinds, then the
    # required and the optional keys in the order the code lists them
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 3 and "`" in cells[0]:
            kinds, required, optional = (re.findall(r"`([^`]+)`", cell) for cell in cells)
            for kind in kinds:
                assert kind not in table, kind
                table[kind] = (required, optional)
    assert table == {kind: (list(ExperimentConfig.REQUIRED[kind]),
                            list(ExperimentConfig.OPTIONAL[kind]))
                     for kind in ExperimentConfig.REQUIRED}


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [[True, 7, 0.1]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "True,7,0.10000000000000001"


# --- symmetric grid -------------------------------------------------------------

def test_symmetric_grid_rows(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "symmetric-grid",
        "a0": [0.3, 1.0],
        "w_s": [0.0, 0.2],
        "w_d": [0.0, 0.6],
        "sigma": [0.4],
    })
    out = tmp_path / "grid.csv"
    rows = run_symmetric_grid(cfg, out=out)
    assert len(rows) == 2 * 2 * 2 * 1
    assert all(len(r) == len(SYMMETRIC_GRID_HEADER) for r in rows)
    by_key = {tuple(r[:4]): r for r in rows}
    merton = by_key[(1.0, 0.0, 0.0, 0.4)]
    assert merton[SYMMETRIC_GRID_HEADER.index("s_t")] == pytest.approx(
        0.15851941887820603)
    insolvent = by_key[(0.3, 0.0, 0.6, 0.4)]
    assert insolvent[SYMMETRIC_GRID_HEADER.index("s_star")] == 0.0
    assert insolvent[SYMMETRIC_GRID_HEADER.index("r_star")] == pytest.approx(0.75)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(SYMMETRIC_GRID_HEADER)


# --- two-firm -------------------------------------------------------------------

def _two_firm_cfg(**kw):
    base = {"kind": "two-firm", "a0": 1.0, "w_d": 0.95, "sigma": 1.0,
            "d": 11.3, "draws": 50, "seed": 3}
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_two_firm_solvent_branch():
    rows = run_two_firm(_two_firm_cfg(a0=1000.0, sigma=0.1))
    assert len(rows) == 50
    for row in rows:
        _, _, a1, a2, v1, v2, xi1, xi2 = row
        assert xi1 == 1 and xi2 == 1
        assert v1 == pytest.approx(a1 + 0.95 * 11.3, rel=1e-12)
        assert v2 == pytest.approx(a2 + 0.95 * 11.3, rel=1e-12)


def test_two_firm_insolvent_branch():
    rows = run_two_firm(_two_firm_cfg(a0=0.01))
    for row in rows:
        _, _, a1, a2, v1, v2, xi1, xi2 = row
        assert xi1 == 0 and xi2 == 0
        expect = np.linalg.solve(np.eye(2) - 0.95 * (np.ones((2, 2)) - np.eye(2)),
                                 [a1, a2])
        assert v1 == pytest.approx(expect[0], rel=1e-10)
        assert v2 == pytest.approx(expect[1], rel=1e-10)


def test_two_firm_bad_asset_model_is_config_error():
    # a non-finite value is rejected with the config, before any model is built
    with pytest.raises(ConfigError, match="sigma must be finite"):
        run_two_firm(_two_firm_cfg(sigma=float("nan")))
    with pytest.raises(ConfigError, match="asset model"):
        run_two_firm(_two_firm_cfg(sigma=-0.1))


def test_two_firm_csv(tmp_path):
    out = tmp_path / "two.csv"
    run_two_firm(_two_firm_cfg(), out=out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(TWO_FIRM_HEADER)
    assert len(lines) == 51


def test_two_firm_csv_streams_its_rows(tmp_path):
    # 100,000 rows held as lists of Python numbers take about 32 MB; written
    # chunk by chunk, the peak is one chunk's arrays (about 5 MB)
    out = tmp_path / "two.csv"
    tracemalloc.start()
    try:
        assert run_two_firm(_two_firm_cfg(draws=100_000), out=out) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"
    assert len(out.read_text().splitlines()) == 100_001


def test_two_firm_chunks_match_one_batch():
    # draws in _chunk_size(2) chunks: the same draws and patterns, and values
    # within 1e-12, as one batch of every draw.  The 3-draw tail is plain
    # Picard, off the fixed point by up to tol / (1 - w_d) = 20 tol
    draws = _chunk_size(2) + 3
    cfg = _two_firm_cfg(draws=draws, tol=1e-14)
    rows = np.array(run_two_firm(cfg))
    net = symmetric_network(2, 0.0, 0.95, 11.3)
    gbm = GbmParams(a_t=np.ones(2), sigma=np.ones(2), r=0.0, tau=1.0, corr=np.eye(2))
    a_T = sample_terminal(gbm, normal_variates(cfg.seed, draws, 2))
    sol = solve_claims_batch(net, a_T, cfg.fixed_point_config())
    np.testing.assert_array_equal(rows[:, 0], np.arange(draws))
    np.testing.assert_array_equal(rows[:, 1], cfg.seed)
    np.testing.assert_array_equal(rows[:, 2:4], a_T)
    np.testing.assert_array_equal(rows[:, 6:], sol.xi)
    np.testing.assert_allclose(rows[:, 4:6], sol.v, rtol=0.0, atol=1e-12)


def test_chunked_runner_failure_names_the_draw_of_the_run(monkeypatch):
    # the second chunk fails at its draw 1, which is draw _chunk_size(2) + 1
    real, calls = experiments.solve_claims_batch, []

    def fail_second_chunk(net, a_T, cfg):
        calls.append(len(a_T))
        if len(calls) == 2:
            raise ConvergenceError("no convergence", draw=1)
        return real(net, a_T, cfg)

    monkeypatch.setattr(experiments, "solve_claims_batch", fail_second_chunk)
    draw = _chunk_size(2) + 1
    with pytest.raises(ConvergenceError, match=f"failed at draw {draw}:") as err:
        run_two_firm(_two_firm_cfg(draws=_chunk_size(2) + 3))
    assert err.value.draw == draw
    assert calls == [_chunk_size(2), 3]


def test_streamed_csv_is_removed_when_a_chunk_fails(monkeypatch, tmp_path):
    real = experiments.solve_claims_batch
    calls = []

    def fail_second_chunk(net, a_T, cfg):
        calls.append(len(a_T))
        if len(calls) == 2:
            raise ConvergenceError("no convergence", draw=0)
        return real(net, a_T, cfg)

    monkeypatch.setattr(experiments, "solve_claims_batch", fail_second_chunk)
    out = tmp_path / "two.csv"
    with pytest.raises(ConvergenceError):
        run_two_firm(_two_firm_cfg(draws=_chunk_size(2) + 3), out=out)
    assert len(calls) == 2 and not out.exists()


# --- er-sweep --------------------------------------------------------------------

def _sweep_cfg(**kw):
    base = {"kind": "er-sweep", "k_mean": [0.0, 2.0], "w_d": [0.0, 0.5],
            "a0": [1.05], "sigma": 0.4, "n": 5, "networks": 3, "draws": 64,
            "seed": 9}
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_er_sweep_shape_and_invariants(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = run_er_sweep(_sweep_cfg(), out=out)
    assert len(rows) == 2 * 2 * 1
    assert all(len(r) == len(ER_SWEEP_HEADER) for r in rows)
    col = {name: i for i, name in enumerate(ER_SWEEP_HEADER)}
    for r in rows:
        v = r[col["v_price"]]
        assert v == pytest.approx(r[col["s_price"]] + r[col["r_price"]])
        assert r[col["capital_ratio"]] == pytest.approx(r[col["s_price"]] / v)
        assert r[col["asset_ratio"]] == pytest.approx(r[col["a0"]] / v)
        assert 0.0 <= r[col["default_prob"]] <= 1.0
        # no cross-holdings: every firm responds only to itself, pi == 1
        if r[col["w_d"]] == 0.0 or r[col["k_mean"]] == 0.0:
            assert r[col["pi_hat"]] == pytest.approx(1.0, abs=1e-12)
    assert out.read_text().splitlines()[0] == ",".join(ER_SWEEP_HEADER)


def test_er_sweep_threads_do_not_change_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_er_sweep(_sweep_cfg(threads=1), out=a)
    run_er_sweep(_sweep_cfg(threads=4), out=b)
    assert a.read_bytes() == b.read_bytes()


def test_fan_out_tasks_pickle_and_replay_the_run(tmp_path, monkeypatch, capsys):
    # a worker process would get each fan-out's function and tasks by pickle:
    # the unpickled copies, run serially, must write the same bytes
    import pickle

    from netgreeks import mc

    configs = [_sweep_cfg(threads=2), ExperimentConfig.from_dict(
        {"kind": "greeks", "network": str(CONFIGS / "example_network.json"), "a_t": 1.0,
         "sigma": 0.4, "draws": 2 * _chunk_size(3) + 5, "seed": 3, "threads": 2})]
    for i, cfg in enumerate(configs):
        run_experiment(cfg, out=tmp_path / f"want{i}")
    fns = []
    member_task_bytes = []

    def unpickled_serial_map(fn, tasks, threads):
        fn, tasks = pickle.loads(pickle.dumps((fn, list(tasks))))
        fns.append(fn)
        if fn.func.__name__ == "_member_stats":
            member_task_bytes.extend(len(pickle.dumps(task)) for task in tasks)
        return [fn(task) for task in tasks]

    monkeypatch.setattr(experiments, "_ordered_map", unpickled_serial_map)
    monkeypatch.setattr(mc, "_ordered_map", unpickled_serial_map)
    for i, cfg in enumerate(configs):
        run_experiment(cfg, out=tmp_path / f"got{i}")
        assert (tmp_path / f"got{i}").read_bytes() == (tmp_path / f"want{i}").read_bytes()
    assert {fn.func.__name__ for fn in fns} == {"_member_stats", "_mc_chunk"}
    # an er-sweep task is the member's indices (ki, wi, m): no network, no array
    assert member_task_bytes and max(member_task_bytes) <= 100


def test_er_sweep_replay_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_er_sweep(_sweep_cfg(), out=a)
    run_er_sweep(_sweep_cfg(), out=b)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    run_er_sweep(_sweep_cfg(seed=10), out=c)
    assert a.read_bytes() != c.read_bytes()


def test_er_sweep_members_replay_from_task_seed(monkeypatch, tmp_path):
    # member m of cell (ki, wi) is er_network(seed=_task_seed(seed, 0, ki, wi, m)),
    # so any member can be rebuilt from the config alone
    import netgreeks.experiments as ex

    er_network = ex.er_network
    built = []

    def recording(n, k_mean, w_d, seed, **kw):
        net = er_network(n, k_mean, w_d, seed=seed, **kw)
        built.append((k_mean, w_d, seed, net))
        return net

    monkeypatch.setattr(ex, "er_network", recording)
    cfg = _sweep_cfg()
    run_er_sweep(cfg, out=tmp_path / "sweep.csv")
    expected = [(k, w, _task_seed(cfg.seed, 0, ki, wi, m))
                for ki, k in enumerate(cfg.k_mean) for wi, w in enumerate(cfg.w_d)
                for m in range(cfg.networks)]
    assert [b[:3] for b in built] == expected
    for k_mean, w_d, seed, net in built:
        replay = er_network(cfg.n, k_mean, w_d, seed=seed, d=cfg.d)
        np.testing.assert_array_equal(replay.m_d, net.m_d)


def test_member_aggregates_match_full_report_reductions():
    # the two block-average portfolios give every member entry of the row,
    # against the old reductions of the full (2n, n) report
    from netgreeks.fixpoint import FixedPointConfig
    from netgreeks.gbm import GbmParams
    from netgreeks.mc import mc_greeks
    from netgreeks.network import er_network

    fp_cfg = FixedPointConfig()
    worst = 0.0
    for i, (k_mean, w_d, a0, r) in enumerate(
            [(0.0, 0.5, 1.0, 0.0), (2.0, 0.0, 1.1, 0.0), (2.0, 0.6, 0.9, 0.0),
             (4.0, 0.4, 1.0833, 0.02), (1.0, 0.6, 1.2, 0.05)]):
        n = 7
        cfg = ExperimentConfig(kind="er-sweep", k_mean=(k_mean,), w_d=(w_d,), a0=(a0,),
                               n=n, networks=1, draws=300, seed=5 + i, r=r)
        gbm = GbmParams(a_t=np.full(n, a0), sigma=np.full(n, 0.4), r=r, tau=1.0,
                        corr=np.eye(n))
        got, got_hits = _member_stats((0, 0, 0), cfg, [gbm])
        net = er_network(n, k_mean, w_d, seed=_task_seed(cfg.seed, 0, 0, 0, 0), d=1.0)
        want, want_hits = member_stats_from_report(
            mc_greeks(net, gbm, 300, _task_seed(cfg.seed, 1, 0, 0, 0, 0), cfg=fp_cfg))
        assert got.shape == (1, 12) and want.shape == (12,)
        assert got_hits == [want_hits]
        scale = np.where(np.abs(want) > 1e-12, np.abs(want), 1.0)
        err = np.abs(got[0] - want) / scale
        worst = max(worst, err.max())
        assert np.all(err <= 1e-12), (k_mean, w_d, got, want)
    print(f"member statistics: worst relative deviation {worst:.1e}")


def _multi_a0_cfg(**kw):
    return ExperimentConfig.from_dict({**MULTI_A0_SWEEP, **kw})


MEMBER_COLUMNS = ["s_price", "r_price", "default_prob", "delta_s_hat", "delta_r_hat",
                  "vega_s_hat", "vega_r_hat", "theta_s_hat", "theta_r_hat", "rho_s_hat",
                  "rho_r_hat", "pi_hat", "boundary_hits"]


@pytest.mark.parametrize("threads", [1, 2])
def test_er_sweep_is_the_per_cell_member_loop_bit_for_bit(threads):
    # the reference runs each (a0, member) as its own mc_greeks call, in
    # (a0, member) order, with the sweep's seeds and its two block-average
    # portfolios, and averages each statistic over the contiguous member axis
    from netgreeks.mc import mc_greeks
    from netgreeks.network import er_network

    cfg = _multi_a0_cfg(threads=threads)
    weights = np.kron(np.eye(2), np.full((1, cfg.n), 1.0 / cfg.n))
    want = []
    for ki, k_mean in enumerate(cfg.k_mean):
        for wi, w_d in enumerate(cfg.w_d):
            nets = [er_network(cfg.n, k_mean, w_d, seed=_task_seed(cfg.seed, 0, ki, wi, m),
                               d=cfg.d) for m in range(cfg.networks)]
            for ai, a0 in enumerate(cfg.a0):
                gbm = GbmParams(a_t=np.full(cfg.n, a0), sigma=np.full(cfg.n, cfg.sigma[0]),
                                r=cfg.r, tau=cfg.tau, corr=np.eye(cfg.n))
                reps = [mc_greeks(net, gbm, cfg.draws, _task_seed(cfg.seed, 1, ki, wi, ai, m),
                                  cfg=cfg.fixed_point_config(), weights=weights)
                        for m, net in enumerate(nets)]
                members = np.array([[*rep.price, rep.default_prob.mean(),
                                     *rep.delta.sum(axis=1), *rep.vega.sum(axis=1),
                                     *rep.theta, *rep.rho, rep.pi.sum()] for rep in reps])
                want.append([*members.T.copy().mean(axis=1),
                             sum(rep.boundary_hits for rep in reps)])
    col = {name: i for i, name in enumerate(ER_SWEEP_HEADER)}
    got = [[row[col[name]] for name in MEMBER_COLUMNS] for row in run_er_sweep(cfg)]
    assert len(got) == 2 * 2 * 3
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("make_error", [lambda: ConvergenceError("no convergence", draw=7),
                                        lambda: SensitivityError("singular system")],
                         ids=["convergence", "sensitivity"])
def test_er_sweep_failure_names_a_later_a0_and_member(monkeypatch, make_error):
    # block (1, 0), third a0, second member: the message names that cell and
    # member, and the error keeps its type and draw
    cfg = _multi_a0_cfg()
    failing = _task_seed(cfg.seed, 1, 1, 0, 2, 1)
    real = experiments.mc_greeks

    def fail_one(net, gbm, draws, seed, **kw):
        if seed == failing:
            raise make_error()
        return real(net, gbm, draws, seed, **kw)

    monkeypatch.setattr(experiments, "mc_greeks", fail_one)
    with pytest.raises((ConvergenceError, SensitivityError)) as exc:
        run_er_sweep(cfg)
    want = make_error()
    assert type(exc.value) is type(want)
    assert str(exc.value) == f"cell k_mean=3 w_d=0.3 a0=1.4, member 1: {want}"
    assert getattr(exc.value, "draw", None) == getattr(want, "draw", None)


def test_er_sweep_progress_reports_elapsed_and_eta(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_er_sweep(_sweep_cfg(), out=out)
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 4
    clock = r"\d+:\d\d:\d\d"
    pattern = rf"er-sweep: k_mean=\S+ w_d=\S+ done \((\d)/4 rows, elapsed {clock}, ETA {clock}\)"
    assert [int(re.fullmatch(pattern, line).group(1)) for line in lines] == [1, 2, 3, 4]
    assert lines[-1].endswith("ETA 0:00:00)")


@pytest.mark.parametrize("flags,message", [
    (["--networks", "0"], "networks must be at least 1"),
    (["--networks", "-1"], "networks must be at least 1"),
    (["--threads", "0"], "threads must be at least 1"),
], ids=["networks0", "networks-1", "threads0"])
def test_paper_sweep_eta_rejects_bad_counts_as_usage_errors(flags, message):
    # the config is checked before the ETA's scale is computed and before
    # any Monte Carlo runs, and the error is argparse's, with exit code 2
    script = CONFIGS.parent / "scripts" / "paper_sweep_eta.py"
    proc = subprocess.run([sys.executable, str(script), *flags], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


# --- price / greeks / local-compare ----------------------------------------------

def test_price_runner(tmp_path):
    out = tmp_path / "price.json"
    cfg = ExperimentConfig.from_dict({
        "kind": "price", "network": str(CONFIGS / "example_network.json"),
        "a_t": 1.0, "sigma": 0.4, "draws": 500, "seed": 1,
    })
    payload = run_experiment(cfg, out=out)
    assert payload["n"] == 3 and len(payload["price"]) == 6
    on_disk = json.loads(out.read_text())
    assert on_disk == payload


def test_greeks_runner(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "greeks", "network": str(CONFIGS / "example_network.json"),
        "a_t": 1.0, "sigma": 0.4, "draws": 500, "seed": 1,
    })
    payload = run_experiment(cfg, out=tmp_path / "g.json")
    assert np.asarray(payload["delta"]).shape == (6, 3)
    assert payload["draws"] == 500
    assert "pi" in payload and "delta_total" in payload


def test_runner_rejects_missing_network(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "price", "network": str(tmp_path / "nope.json"),
        "a_t": 1.0, "sigma": 0.4,
    })
    with pytest.raises(ConfigError, match="cannot load"):
        run_experiment(cfg, out=tmp_path / "p.json")


def test_local_compare_runner(tmp_path):
    out = tmp_path / "local.csv"
    cfg = ExperimentConfig.from_dict({
        "kind": "local-compare", "network": str(CONFIGS / "debt_network.json"),
        "a_t": 1.05, "sigma": 0.4, "firm_vol": 0.4, "draws": 2000, "seed": 2,
    })
    rows = run_local_compare(cfg, out=out)
    assert len(rows) == 9
    assert all(len(r) == len(LOCAL_COMPARE_HEADER) for r in rows)
    col = {name: i for i, name in enumerate(LOCAL_COMPARE_HEADER)}
    for r in rows:
        assert 0.0 <= r[col["pd_i"]] <= 1.0
        assert r[col["exact_se"]] >= 0.0
    # diagonal of the exact sensitivity must dominate its own column spill-over
    diag = [r for r in rows if r[0] == r[1]]
    assert all(r[col["exact_drda"]] > 0 for r in diag)


def test_local_compare_honours_corr():
    # the exact Monte Carlo column samples correlated assets: pairwise
    # correlation 0.9 must move the sensitivities and default probabilities
    base = {"kind": "local-compare", "network": str(CONFIGS / "debt_network.json"),
            "a_t": 1.05, "sigma": 0.4, "firm_vol": 0.4, "draws": 2000, "seed": 2}
    corr = np.full((3, 3), 0.9)
    np.fill_diagonal(corr, 1.0)
    plain = run_local_compare(ExperimentConfig.from_dict(base))
    correlated = run_local_compare(ExperimentConfig.from_dict({**base, "corr": corr.tolist()}))
    identity = run_local_compare(ExperimentConfig.from_dict({**base, "corr": np.eye(3).tolist()}))
    col = {name: i for i, name in enumerate(LOCAL_COMPARE_HEADER)}
    assert identity == plain
    for name in ("exact_drda", "pd_i", "pd_j"):
        assert [r[col[name]] for r in correlated] != [r[col[name]] for r in plain]


# --- validate ----------------------------------------------------------------------

def test_validate_runner(tmp_path, capsys):
    cfg = ExperimentConfig.from_dict(
        {"kind": "validate", "network": str(CONFIGS / "example_network.json")})
    assert run_validate(cfg) is True
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad_net.json"
    bad.write_text(json.dumps({
        "n": 2, "m_s": [[0.5, 0.0], [0.0, 0.0]],
        "m_d": [[0.0, 0.0], [0.0, 0.0]], "d": [1.0, 1.0],
    }))
    cfg = ExperimentConfig.from_dict({"kind": "validate", "network": str(bad)})
    assert run_validate(cfg) is False
    assert "FAILED" in capsys.readouterr().out
