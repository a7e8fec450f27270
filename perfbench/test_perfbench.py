"""Tests of the benchmark itself, on the reduced-size smoke mode.

    python3 -m pytest perfbench -q

They check BENCHMARK.json against the benchmark's contract, every
workload's metric names and units in both modes, that tracing leaves the
outputs unchanged and the spans well nested, and the tolerance check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace as L  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, which is all the benchmark may touch."""
    path = ROOT / ".perfbench_work" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(W.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def _smoke(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result, stdout = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "environment {" in stdout and "fail_share = 0/" in stdout


def test_traced_pass_leaves_outputs_unchanged_and_spans_nest(workdir):
    checked = 0
    for name in W.WORKLOADS:
        wl = W.make(name, "smoke", workdir)
        wl.prepare()
        plain = wl.run_pass(0)
        tracer = L.Tracer().install()
        try:
            traced = wl.run_pass(0, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.take() + traced.spans
        assert [o["sha256"] for o in plain.outputs] == [o["sha256"] for o in traced.outputs]
        assert L.span_violations(spans) == []
        by_parent = {}
        for _, _, start, end, _, parent, _ in spans:
            by_parent[parent] = by_parent.get(parent, 0.0) + (end - start)
        for sid, _, start, end, _, _, _ in spans:
            assert (end - start) - by_parent.get(sid, 0.0) >= -1e-9   # self time
        checked += len(spans)
    assert checked > 0


def test_tracer_restores_every_name():
    def raw():
        return [owner.__dict__[attr] for owner, attr in
                (L._resolve(module, path) for module, path, *_ in L.TRACED)]

    before = raw()
    L.Tracer().install().uninstall()
    assert raw() == before


def test_tolerance_accepts_rounding_and_rejects_real_changes():
    text = "price,1.2345678901234567,0.5,-3e-05,0,1e-13,17\n"
    ref = W.fingerprint(text)
    assert W.compare(W.fingerprint(text), ref) == (True, True)
    rounding = text.replace("1.2345678901234567", "1.2345678901234569")
    assert W.compare(W.fingerprint(rounding), ref) == (False, True)
    tiny = text.replace("1e-13", "3e-13")     # both count as zero
    assert W.compare(W.fingerprint(tiny), ref) == (False, True)
    moved = text.replace("-3e-05", "-3.0001e-05")
    assert W.compare(W.fingerprint(moved), ref) == (False, False)
    flipped = text.replace("-3e-05", "3e-05")
    assert W.compare(W.fingerprint(flipped), ref) == (False, False)
    shorter = text.replace(",17", "")
    assert W.compare(W.fingerprint(shorter), ref) == (False, False)


def test_tail_percentile_has_ten_operations_beyond_it():
    assert run.tail_percentile(192) == 90.0     # 19 beyond p90, 9 beyond p95
    assert run.tail_percentile(440) == 95.0
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(19) is None
    lat = [float(i) for i in range(1, 101)]
    assert run.percentile(lat, 90.0) == 90.0 and run.percentile(lat, None) == 100.0


def test_fails_without_the_package(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sym_grid_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
