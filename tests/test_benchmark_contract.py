"""The names the benchmark harness wraps must exist and be on the call path.

``perfbench/layertrace.py`` times the package's layers by replacing module
globals (and one classmethod) by name at run time.  A refactor that drops one
of those names, or stops calling it through the traced module, makes the
traced benchmark raise or silently lose a layer.  This test only reads
``perfbench/``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from netgreeks.experiments import ExperimentConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def layertrace():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layertrace
        yield layertrace
    finally:
        sys.path.remove(str(PERFBENCH))


def _small_runs(tmp_path):
    """One small run of every path the benchmark workloads exercise."""
    configs = [
        {"kind": "greeks", "network": str(CONFIGS / "example_network.json"),
         "a_t": 1.0, "sigma": 0.4, "draws": 64, "seed": 1},
        # price-only: mc.solve_claims_batch without certify
        {"kind": "price", "network": str(CONFIGS / "example_network.json"),
         "a_t": 1.0, "sigma": 0.4, "draws": 64, "seed": 1},
        {"kind": "er-sweep", "k_mean": [2.0], "w_d": [0.5], "a0": [1.0],
         "sigma": 0.4, "n": 4, "networks": 1, "draws": 16, "seed": 2},
        {"kind": "two-firm", "a0": 1.0, "w_d": 0.4, "sigma": 0.4, "d": 1.0,
         "draws": 16},
        {"kind": "local-compare", "network": str(CONFIGS / "debt_network.json"),
         "a_t": 1.05, "sigma": 0.4, "firm_vol": 0.4, "draws": 64, "seed": 2},
    ]
    for i, obj in enumerate(configs):
        run_experiment(ExperimentConfig.from_dict(obj), out=tmp_path / f"run{i}.out")


def test_traced_names_resolve_are_called_and_restored(layertrace, tmp_path, capsys):
    originals = []
    for module_name, path, _, _ in layertrace.TRACED:
        owner, attr = layertrace._resolve(module_name, path)
        originals.append((owner, attr, owner.__dict__[attr]))
    assert len(originals) == 12

    tracer = layertrace.Tracer().install()
    try:
        _small_runs(tmp_path)
    finally:
        tracer.uninstall()
    seen = {span[1] for span in tracer.take()}
    missing = [name for _, _, name, _ in layertrace.TRACED if name not in seen]
    assert not missing, f"traced names never called: {missing}"
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, f"{attr} not restored"


def test_er_sweep_members_go_through_experiments_mc_greeks(layertrace, tmp_path, capsys):
    import netgreeks.experiments as ex

    original = ex.mc_greeks
    timer = layertrace.OpTimer().install()
    try:
        run_experiment(ExperimentConfig.from_dict(
            {"kind": "er-sweep", "k_mean": [2.0], "w_d": [0.0, 0.5], "a0": [1.0],
             "sigma": 0.4, "n": 4, "networks": 2, "draws": 16, "seed": 3}),
            out=tmp_path / "sweep.csv")
    finally:
        timer.uninstall()
    assert len(timer.latencies) == 4
    assert np.all(np.asarray(timer.latencies) >= 0.0)
    assert ex.mc_greeks is original
