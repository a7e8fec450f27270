"""Benchmark for netgreeks: end-to-end metrics, or per-layer metrics from spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]     # every workload
    python3 perfbench/run.py --smoke --workload NAME          # reduced size
    python3 perfbench/run.py --record                         # rewrite reference.json

Run from anywhere; the package is imported from `src/` beside this
directory.  With `--trace 0` the run times whole passes of the workload for
`--seconds` seconds and reports the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced passes of one variant and reports per-layer
metrics from the traced passes, plus the tracing overhead.  Every pass's
outputs are checked against `reference.json`.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import layertrace as L  # noqa: E402
import workloads as W  # noqa: E402

END_TO_END = {
    "wall_s": "s", "draws_per_s": "1/s", "op_ms.p50": "ms", "op_ms.tail": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "paper_sweep_eta_h": "h",
}
PER_LAYER = {
    "gbm.busy_s": "s", "gbm.normals": "count",
    "fixpoint.busy_s": "s", "fixpoint.calls": "count", "fixpoint.iterations": "count",
    "fixpoint.row_iterations": "count", "fixpoint.max_residual": "abs",
    "sensitivity.busy_s": "s", "sensitivity.systems": "count",
    "sensitivity.flops_computed": "flop", "sensitivity.distinct_pattern_ratio": "ratio",
    "mc.moments.busy_s": "s", "mc.moment_bytes": "B", "mc.chunk_self_s": "s",
    "mc.chunks": "count", "mc.boundary_hits": "count",
    "netgen.busy_s": "s", "netgen.networks": "count",
    "experiments.parallel_efficiency": "ratio",
    "experiments.write_csv.busy_s": "s", "experiments.output_bytes": "B",
    "symmetric.cells_beyond_rule": "count",
    "trace.overhead_share": "ratio",
}
# per-layer values that are timings take the median over traced passes; the
# rest are counts, which must repeat exactly from pass to pass
TIMED_LAYER = {name for name, unit in PER_LAYER.items() if unit == "s"} | {
    "experiments.parallel_efficiency", "trace.overhead_share"}
SETUPS = 5


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment record

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(wl, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "netgreeks").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name, "seed": seed, "threads": wl.threads,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}".strip(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(), "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# checks

class Checker:
    """Compares each pass's outputs with the reference; counts failed ops."""

    def __init__(self, workload: str, size: str):
        self.reference = W.load_reference()
        self.workload, self.size = workload, size
        self.attempted = self.failed = self.identical = self.close = self.units = 0
        self.notes = []

    def check(self, res, variant) -> None:
        want = W.expected(self.reference, self.workload, self.size, variant)
        outputs = want["outputs"]
        self.attempted += len(outputs) * res.ops_per_output
        if len(res.outputs) != len(outputs):
            self.failed += len(outputs) * res.ops_per_output
            self.notes.append(f"variant {variant}: {len(res.outputs)} outputs, expected {len(outputs)}")
        else:
            for i, (got, ref) in enumerate(zip(res.outputs, outputs)):
                self.units += 1
                same, close = W.compare(got, ref) if got is not None else (False, False)
                self.identical += same
                self.close += close
                if not close:
                    self.failed += res.ops_per_output
                    self.notes.append(f"variant {variant} output {i}: outside tolerance")
        self.notes.extend(res.errors)
        if res.beyond_rule != want["beyond_rule"]:
            self.notes.append(f"variant {variant}: {res.beyond_rule} cells beyond criterion 02's "
                              f"rule, {want['beyond_rule']} at the seed commit")

    def summary(self) -> str:
        share = self.failed / self.attempted if self.attempted else 0.0
        return (f"fail_share = {self.failed}/{self.attempted} = {share:.4g}; outputs "
                f"byte-identical {self.identical}/{self.units}, within relative {W.REL_TOL:g} "
                f"of the seed-commit reference {self.close}/{self.units}")


# ---------------------------------------------------------------------------
# runs

def setup_time(workload: str, size: str) -> float:
    """Fresh interpreter to inputs ready: import, config parsing, validation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload]
    if size == "smoke":
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def run_pass(wl, variant, checker, tracer=None):
    res = wl.run_pass(variant, tracer=tracer)
    checker.check(res, variant)
    return res


PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)


def tail_percentile(min_ops):
    """Highest of PERCENTILES with at least ten operations beyond it in any run.

    Chosen from the fewest operations a run can have, so every run of a
    workload reports the same percentile; None when none qualifies.
    """
    ok = [q for q in PERCENTILES if min_ops - math.ceil(q / 100.0 * min_ops) >= 10]
    return ok[-1] if ok else None


def percentile(values, q):
    """Nearest-rank percentile; the maximum when q is None."""
    ordered = sorted(values)
    if q is None:
        return ordered[-1]
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


def timed_run(wl, seed, seconds, size, checker):
    setups = [setup_time(wl.name, size) for _ in range(1 if size == "smoke" else SETUPS)]
    wl.prepare()
    min_passes = 1 if size == "smoke" else wl.min_passes
    tail_q = tail_percentile(min_passes * wl.ops_per_pass)
    passes = []
    start = time.perf_counter()
    # stop when another pass would end nearer past --seconds than this one did short of it
    while len(passes) < min_passes or (
            time.perf_counter() - start + passes[-1].wall / 2 < seconds):
        passes.append(run_pass(wl, W.variant_of(seed, len(passes)), checker))
    latencies = [t for p in passes for t in p.latencies]
    who = resource.RUSAGE_CHILDREN if isinstance(wl, W.CliSmall) else resource.RUSAGE_SELF
    ops_per_s = statistics.median(p.ops / p.wall for p in passes)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "draws_per_s": statistics.median(p.draws / p.wall for p in passes),
        "op_ms.p50": 1e3 * statistics.median(latencies),
        "op_ms.tail": 1e3 * percentile(latencies, tail_q),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "paper_sweep_eta_h": W.PAPER_MEMBERS / ops_per_s / 3600.0,
    }
    notes = [
        f"passes = {len(passes)}, operations = {len(latencies)}, draws per pass = {passes[0].draws}",
        f"op_ms.tail = p{tail_q:g} of {len(latencies)} operations (at least "
        f"{min_passes * wl.ops_per_pass} in every run)" if tail_q else
        f"op_ms.tail = max of {len(latencies)} operations (no percentile has ten beyond it)",
        f"setup_s = median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"paper_sweep_eta_h = {W.PAPER_MEMBERS:,} operations / {ops_per_s:.4g} operations/s "
        f"/ 3600 = {metrics['paper_sweep_eta_h']:.4g} h"
        + ("" if wl.name == "er_sweep_n60" else
           " (operations of this workload, not paper-sweep members: see README)"),
    ]
    if isinstance(wl, W.SymGridMC):
        notes.append("cells beyond criterion 02's rule (3 SE + 5e-5) per pass: "
                     + ", ".join(str(p.beyond_rule) for p in passes))
    return metrics, notes


def traced_run(wl, seed, seconds, size, checker):
    wl.prepare()
    variant = W.variant_of(seed)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + (plain[-1] + traced[-1]) / 2 < seconds:
        u = run_pass(wl, variant, checker)
        tracer = L.Tracer().install()
        try:
            t = run_pass(wl, variant, checker, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.take() + t.spans
        for msg in L.span_violations(spans):
            checker.notes.append(f"span check: {msg}")
        if [o and o["sha256"] for o in u.outputs] != [o and o["sha256"] for o in t.outputs]:
            checker.notes.append("traced pass changed the outputs")
        m = L.layer_metrics(spans, t.wall, wl.threads, wl.op_span)
        m["experiments.output_bytes"] = t.output_bytes
        m["symmetric.cells_beyond_rule"] = t.beyond_rule
        plain.append(u.wall)
        traced.append(t.wall)
        layers.append(m)
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_share":
            metrics[name] = statistics.median(traced) / statistics.median(plain) - 1.0
        elif name in TIMED_LAYER:
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = layers[0][name]
            if any(m[name] != metrics[name] for m in layers):
                checker.notes.append(f"{name} differs between traced passes of one input")
    notes = [f"pairs of untraced and traced passes = {len(traced)}, variant {variant}",
             f"pass wall untraced {statistics.median(plain):.4f} s, traced "
             f"{statistics.median(traced):.4f} s"]
    return metrics, notes


def run_workload(args) -> int:
    if args.workload not in W.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)} or all")
    size = "smoke" if args.smoke else "full"
    checker = Checker(args.workload, size)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    wl = W.make(args.workload, size, workdir)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, notes = traced_run(wl, args.seed, args.seconds, size, checker)
            units = PER_LAYER
        else:
            metrics, notes = timed_run(wl, args.seed, args.seconds, size, checker)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = checker.failed == 0 and not checker.notes
    print("environment " + json.dumps(environment(wl, args.seed), sort_keys=True))
    for line in notes + [checker.summary()] + checker.notes:
        print(line)
    for name, unit in units.items():
        print(f"{args.workload:>13}  {name:<36} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def setup_probe(args) -> int:
    wl = W.make(args.workload, "smoke" if args.smoke else "full", ROOT)
    wl.prepare()
    print("ready", flush=True)
    return 0


def record() -> int:
    """Rewrite reference.json from this source tree; cli_small must match out/."""
    table = {}
    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in W.WORKLOADS:
            table[name] = {}
            for size in ("full", "smoke"):
                wl = W.make(name, size, workdir)
                wl.prepare()
                entries = {}
                for variant in range(1 if name == "cli_small" else W.VARIANTS):
                    res = wl.run_pass(variant)
                    if res.errors:
                        return fail(f"{name}/{size}/{variant}: {res.errors}")
                    entries[str(variant)] = {"outputs": res.outputs, "beyond_rule": res.beyond_rule}
                    print(f"recorded {name} {size} variant {variant}: {res.wall:.2f} s", file=sys.stderr)
                if name == "cli_small" and size == "full":
                    for (sub, _, golden), got in zip(W.CLI_COMMANDS, entries["0"]["outputs"]):
                        if golden and W.fingerprint((ROOT / golden).read_text())["sha256"] != got["sha256"]:
                            return fail(f"{sub} output differs from {golden}")
                table[name][size] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({
        "about": "output fingerprints of every workload variant, recorded by "
                 "`python3 perfbench/run.py --record`; cli_small full equals the golden files in out/",
        "rel_tol": W.REL_TOL, "zero": W.ZERO, "block": W.BLOCK, "workloads": table,
    }, indent=1)
    # one line per output fingerprint keeps the file small and diffable
    text = re.sub(r"\{\n\s+\"sha256\"[^{}]*\}", lambda m: json.dumps(json.loads(m.group(0))), text)
    W.REFERENCE.write_text(text + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="|".join(W.WORKLOADS) + "|all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, one pass")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "netgreeks" / "__init__.py").is_file():
        return fail(f"no netgreeks package under {SRC}; run from a full checkout")
    if args.record:
        return record()
    if args.workload is None:
        return fail("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
