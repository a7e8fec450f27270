"""The three workloads: their inputs, one pass over them, and output checks.

A pass is one complete run of a workload's operations.  Its inputs come
from a variant number, which the benchmark derives from `--seed`; every
variant's outputs were recorded in `reference.json` at the seed commit, so
each pass can be checked against them for any seed.

Workloads and why they were chosen (see README.md for the predictions):

- sym_grid_mc: acceptance criterion 02's 96 exchangeable cells at n=2,
  one 8192-draw chunk per cell.  Tiny systems in large chunks with up to
  ~50 Picard iterations, so the fixed point dominates and few distinct
  solvency patterns occur; closed forms give an oracle.
- er_sweep_n60: a slice of the paper-scale sweep (n=60, 700 draws, all four
  w_d) at one thread.  The dx*/da solve and moments over (B, 2n, n) tensors
  dominate; it gives the paper-sweep ETA.
- cli_small: the six small shipped configs, each as a CLI subprocess.  Import
  and set-up dominate; the only workload over the closed forms, `local`,
  the CSV writer under load and the price-only path.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from layertrace import OpTimer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

VARIANTS = 8
# tolerance check: every number in an output agrees with the reference to a
# relative REL_TOL; numbers within ZERO of zero count as zero
REL_TOL = 1e-9
ZERO = 1e-12
BLOCK = 64

# criterion 02's axes in its loop order; cell k (1-based) has seed 1009 + k
SYM_CELLS = list(product((0.0, 0.2, 0.4, 0.6), (0.0, 0.2, 0.4, 0.6), (0.1, 0.4), (0.4, 1.0, 1.6)))
SYM_DRAWS = {"full": 8192, "smoke": 512}
SYM_FLOOR = 5e-5

# a slice of configs/er_sweep_paper.json, one network per (k_mean, w_d) cell
ER_N60 = {
    "kind": "er-sweep", "n": 60, "draws": 700, "networks": 1, "k_mean": [1.0, 3.0],
    "w_d": [0.0, 0.2, 0.4, 0.6], "a0": [1.0], "sigma": 0.4, "d": 1.0, "r": 0.0,
    "tau": 1.0, "threads": 1,
}
ER_N60_SMOKE = {"k_mean": [2.0], "w_d": [0.6], "draws": 100}

# (subcommand, config, golden file under out/ or None); smoke lowers draws
CLI_COMMANDS = [
    ("validate", "configs/validate_example.json", None),
    ("symmetric-grid", "configs/symmetric_grid.json", "out/symmetric_grid.csv"),
    ("two-firm", "configs/two_firm.json", "out/two_firm.csv"),
    ("price", "configs/price_example.json", "out/price_example.json"),
    ("greeks", "configs/greeks_example.json", "out/greeks_example.json"),
    ("local-compare", "configs/local_compare.json", "out/local_compare.csv"),
]
CLI_DRAWS = {"validate": 0, "symmetric-grid": 0, "two-firm": 10_000,
             "price": 20_000, "greeks": 20_000, "local-compare": 20_000}
CLI_SMOKE_DRAWS = 200

# paper-scale sweep, configs/er_sweep_paper.json: 11 k_mean x 4 w_d x 25 a0 x 1000
PAPER_MEMBERS = 11 * 4 * 25 * 1000

WORKLOADS = ("sym_grid_mc", "er_sweep_n60", "cli_small")


def variant_of(seed: int, pass_index: int = 0) -> int:
    return (seed + pass_index) % VARIANTS


# ---------------------------------------------------------------------------
# output fingerprints

_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|NaN|inf|nan)")


def fingerprint(text: str) -> dict:
    """sha256 of the bytes, plus a summary of the numbers for the tolerance check.

    Each block of BLOCK consecutive numbers is summarised by the sum of
    log|x| over its non-zero finite entries, so one entry moving by a
    relative e moves its block's sum by about e whatever its magnitude.
    """
    import hashlib

    values = [float(tok) for tok in _NUMBER.findall(text)]
    blocks, zero, negative, nonfinite = [], 0, 0, 0
    for start in range(0, len(values), BLOCK):
        acc = 0.0
        for x in values[start:start + BLOCK]:
            if not math.isfinite(x):
                nonfinite += 1
            elif abs(x) <= ZERO:
                zero += 1
            else:
                acc += math.log(abs(x))
                negative += x < 0
        blocks.append(acc)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "count": len(values),
            "zero": zero, "negative": negative, "nonfinite": nonfinite, "blocks": blocks}


def compare(got: dict, want: dict) -> tuple[bool, bool]:
    """(byte_identical, within_tolerance) of an output against its reference."""
    if got["sha256"] == want["sha256"]:
        return True, True
    same_shape = all(got[k] == want[k] for k in ("count", "zero", "negative", "nonfinite"))
    return False, same_shape and all(
        abs(a - b) <= REL_TOL * BLOCK for a, b in zip(got["blocks"], want["blocks"]))


# ---------------------------------------------------------------------------
# passes

@dataclass
class PassResult:
    """One pass: wall time, per-operation latency and output, draws solved."""

    wall: float = 0.0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # fingerprints, one per checked unit
    ops_per_output: int = 1
    draws: int = 0
    output_bytes: int = 0
    errors: list = field(default_factory=list)
    beyond_rule: int = 0
    spans: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.outputs) * self.ops_per_output


class Workload:
    name = ""
    threads = 1
    op_span = ""      # the span that times one operation
    min_passes = 2    # a timed run never stops before this many passes

    def __init__(self, size: str, workdir: Path):
        self.size = size
        self.workdir = workdir

    def prepare(self):
        """Build every input the passes need; this is what setup_s times."""

    def run_pass(self, variant: int, tracer=None) -> PassResult:
        raise NotImplementedError


class SymGridMC(Workload):
    name = "sym_grid_mc"
    op_span = "op.cell"

    def prepare(self):
        from netgreeks.symmetric import (SymmetricParams, symmetric_greeks,
                                         symmetric_mc_inputs, symmetric_price)

        cells = list(enumerate(SYM_CELLS, start=1))
        if self.size == "smoke":
            cells = cells[::12]
        self.cells = []
        for index, (w_s, w_d, sigma, a_t) in cells:
            p = SymmetricParams(w_s=w_s, w_d=w_d, d=1.0, a_t=a_t, sigma=sigma, r=0.0, tau=1.0)
            net, gbm = symmetric_mc_inputs(p, n=2)
            s_t, r_t = symmetric_price(p)
            self.cells.append((index, net, gbm, (s_t, r_t, symmetric_greeks(p))))
        self.draws = SYM_DRAWS[self.size]
        self.ops_per_pass = len(self.cells)

    def run_pass(self, variant, tracer=None):
        from netgreeks import mc

        res = PassResult()
        reports = []
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        t_pass = time.perf_counter()
        for index, net, gbm, _ in self.cells:
            start = time.perf_counter()
            try:
                with span("op.cell"):
                    rep = mc.mc_greeks(net, gbm, self.draws, seed=1009 + index + 1000 * variant)
            except Exception as exc:   # an operation failure is counted, not fatal
                res.errors.append(f"cell {index}: {exc!r}")
                rep = None
            res.latencies.append(time.perf_counter() - start)
            reports.append(rep)
        res.wall = time.perf_counter() - t_pass
        res.draws = self.draws * len(self.cells)
        for (_, _, _, oracle), rep in zip(self.cells, reports):
            if rep is None:
                res.outputs.append(None)
                continue
            res.outputs.append(fingerprint(json.dumps(rep.to_dict())))
            res.beyond_rule += _beyond_rule(rep, oracle)
        return res


def _beyond_rule(rep, oracle) -> int:
    """1 if any of criterion 02's ten statistics misses 3 SE + floor."""
    s_t, r_t, g = oracle
    n = rep.n
    checks = [
        (rep.price[0], rep.price_se[0], s_t), (rep.price[n], rep.price_se[n], r_t),
        (rep.delta_uniform[0], rep.delta_uniform_se[0], g.delta_s),
        (rep.delta_uniform[n], rep.delta_uniform_se[n], g.delta_r),
        (rep.vega_uniform[0], rep.vega_uniform_se[0], g.vega_s),
        (rep.vega_uniform[n], rep.vega_uniform_se[n], g.vega_r),
        (rep.theta[0], rep.theta_se[0], g.theta_s), (rep.theta[n], rep.theta_se[n], g.theta_r),
        (rep.rho[0], rep.rho_se[0], g.rho_s), (rep.rho[n], rep.rho_se[n], g.rho_r),
    ]
    return int(any(abs(got - want) > 3.0 * se + SYM_FLOOR for got, se, want in checks))


class ErSweepN60(Workload):
    name = "er_sweep_n60"
    op_span = "experiments.mc_greeks"
    min_passes = 5     # 40 members, so the tail can be p75

    def prepare(self):
        from netgreeks.experiments import ExperimentConfig

        base = dict(ER_N60, **(ER_N60_SMOKE if self.size == "smoke" else {}))
        self.configs = [ExperimentConfig.from_dict(dict(base, seed=1 + v)) for v in range(VARIANTS)]
        cfg = self.configs[0]
        self.members = self.ops_per_pass = (
            len(cfg.k_mean) * len(cfg.w_d) * len(cfg.a0) * cfg.networks)

    def run_pass(self, variant, tracer=None):
        from netgreeks.experiments import run_er_sweep

        cfg = self.configs[variant]
        out = self.workdir / f"{self.name}.csv"
        res = PassResult(ops_per_output=self.members)
        # members run inside run_er_sweep: time them there unless spans do
        timer = None if tracer else OpTimer().install()
        t_pass = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                with tracer.span("pass") if tracer else contextlib.nullcontext():
                    run_er_sweep(cfg, out=out)
        except Exception as exc:   # counted as failure of every member
            res.errors.append(repr(exc))
        finally:
            res.wall = time.perf_counter() - t_pass
            if timer:
                timer.uninstall()
                res.latencies = timer.latencies
        res.draws = self.members * cfg.draws
        if res.errors:
            res.outputs.append(None)
        else:
            text = out.read_text()
            res.output_bytes = len(text.encode())
            res.outputs.append(fingerprint(text))
        return res


class CliSmall(Workload):
    """The variant only orders the commands: the inputs are the shipped configs."""

    name = "cli_small"
    op_span = "op.cli"
    min_passes = 4     # 24 commands, so the tail can be a percentile
    ops_per_pass = len(CLI_COMMANDS)

    def prepare(self):
        from netgreeks.experiments import ExperimentConfig
        from netgreeks.network import load_network

        for sub, config, _ in CLI_COMMANDS:
            cfg = ExperimentConfig.from_json(ROOT / config, kind=sub)
            if cfg.network is not None:
                load_network(ROOT / cfg.network)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def command(self, sub, config, out, span_file=None):
        if span_file is None:
            cmd = [sys.executable, "-m", "netgreeks.cli"]
        else:
            cmd = [sys.executable, str(HERE / "cli_entry.py"), "--spans", str(span_file), "--"]
        cmd += [sub, "--config", config, "--out", str(out)]
        if self.size == "smoke" and CLI_DRAWS[sub]:
            cmd += ["--draws", str(CLI_SMOKE_DRAWS)]
        return cmd

    def run_pass(self, variant, tracer=None):
        res = PassResult()
        order = list(range(len(CLI_COMMANDS)))
        random.Random(variant).shuffle(order)
        texts = {}
        t_pass = time.perf_counter()
        for i in order:
            sub, config, _ = CLI_COMMANDS[i]
            out = self.workdir / f"cli-{sub}.out"
            span_file = self.workdir / f"cli-{sub}.spans.json" if tracer else None
            start = time.perf_counter()
            with (tracer.span("op.cli", command=sub) if tracer else contextlib.nullcontext()) as op:
                proc = subprocess.run(self.command(sub, config, out, span_file), cwd=ROOT,
                                      env=self.env, capture_output=True, text=True)
            res.latencies.append(time.perf_counter() - start)
            if proc.returncode != 0:
                res.errors.append(f"{sub}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                texts[i] = None
            else:
                text = out.read_text()
                res.output_bytes += len(text.encode())
                texts[i] = (proc.stdout + text) if sub == "validate" else text
            if tracer and span_file.exists():
                res.spans.extend(_adopt(tracer, json.loads(span_file.read_text()), op.sid))
        res.wall = time.perf_counter() - t_pass
        res.draws = sum(CLI_SMOKE_DRAWS if self.size == "smoke" and d else d
                        for d in CLI_DRAWS.values())
        # outputs in the fixed command order, whatever order they ran in
        res.outputs = [fingerprint(texts[i]) if texts[i] is not None else None
                       for i in range(len(CLI_COMMANDS))]
        return res


def _adopt(tracer, spans, parent_sid):
    """Renumber a subprocess's spans into this tracer, hung under the op span."""
    ids = {span[0]: next(tracer._ids) for span in spans}
    return [(ids[sid], name, start, end, tid, ids[parent] if parent is not None else parent_sid, attrs)
            for sid, name, start, end, tid, parent, attrs in spans]


def make(name: str, size: str, workdir: Path) -> Workload:
    if name == "sym_grid_mc":
        return SymGridMC(size, workdir)
    if name == "er_sweep_n60":
        return ErSweepN60(size, workdir)
    if name == "cli_small":
        return CliSmall(size, workdir)
    raise ValueError(f"unknown workload {name!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def expected(reference, workload, size, variant):
    """Reference outputs of one pass; cli_small has a single variant."""
    table = reference["workloads"][workload][size]
    return table["0" if workload == "cli_small" else str(variant)]
