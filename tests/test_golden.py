"""The shipped configs reproduce the golden files under out/.

Each run goes in-process into a temporary file.  The text between the
numbers must be identical, and so must the count of numbers.  Every number
must match its golden value within GOLDEN_REL relative; two numbers both
within GOLDEN_ZERO of zero count as equal.  Float rounding may move the
Monte Carlo sums (their order is numpy's, not fixed by the model), so the
tolerance sits well above the rounding seen so far (3.1e-12 relative) and
far below any change in a statistic.

The full er-sweep quick run takes about 11 s on 2 vCPUs, so its case runs
the first three k_mean values only.  Cell seeds follow the k_mean index,
so these are the golden file's first three rows.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from netgreeks.experiments import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_REL = 1e-10
GOLDEN_ZERO = 1e-12
_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|NaN|inf|nan)")

GOLDEN = [
    ("symmetric_grid.json", "symmetric_grid.csv"),
    ("two_firm.json", "two_firm.csv"),
    ("price_example.json", "price_example.json"),
    ("greeks_example.json", "greeks_example.json"),
    ("local_compare.json", "local_compare.csv"),
]


def _close(got: float, want: float) -> bool:
    if abs(got) <= GOLDEN_ZERO and abs(want) <= GOLDEN_ZERO:
        return True
    return abs(got - want) <= GOLDEN_REL * max(abs(got), abs(want))


def _assert_matches_golden(got: str, want: str) -> None:
    assert _NUMBER.split(got) == _NUMBER.split(want), "non-numeric text differs"
    got_x = [float(tok) for tok in _NUMBER.findall(got)]
    want_x = [float(tok) for tok in _NUMBER.findall(want)]
    assert len(got_x) == len(want_x)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got_x, want_x)) if not _close(g, w)]
    assert not bad, f"{len(bad)} numbers off by more than {GOLDEN_REL:g} relative, first {bad[:3]}"


@pytest.mark.parametrize("config, golden", GOLDEN)
def test_shipped_config_reproduces_golden_output(config, golden, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)   # configs name their networks relative to the repo root
    out = tmp_path / golden
    run_experiment(ExperimentConfig.from_json(ROOT / "configs" / config), out=out)
    _assert_matches_golden(out.read_text(), (ROOT / "out" / golden).read_text())


def test_er_sweep_quick_reproduces_first_golden_rows(tmp_path, capsys):
    cfg = ExperimentConfig.from_json(ROOT / "configs" / "er_sweep_quick.json")
    out = tmp_path / "er_sweep_quick.csv"
    run_experiment(replace(cfg, k_mean=cfg.k_mean[:3]), out=out)
    want = (ROOT / "out" / "er_sweep_quick.csv").read_text().splitlines(keepends=True)
    assert len(want) > 4
    _assert_matches_golden(out.read_text(), "".join(want[:4]))
