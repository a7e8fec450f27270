#!/usr/bin/env python3
"""sha256 of every output a refactor must leave byte-identical, one line each.

Prints `sha256  name` lines for:

- the six shipped configs with a golden file under out/ (the full
  er_sweep_quick among them), run in process, each to a temporary file;
- greeks_example and price_example again with r = 0.05 and tau = 1.5
  replaced in the config dict, since every shipped config has r = 0 and
  so cannot see a change to the discounting;
- the outputs of perfbench's cli_small pass, its shipped configs run as
  CLI subprocesses;
- variants 0-7 of perfbench's sym_grid_mc and er_sweep_n60 passes, one
  digest per variant, from perfbench/workloads.py's own inputs (a
  sym_grid_mc digest is the sha256 of its 96 reports' digests);
- the whole-grid slice of configs/er_sweep_paper.json, one network per
  cell, as scripts/paper_sweep_eta.py runs it.

Run it in two checkouts and compare them with diff:

    python3 scripts/output_digests.py > digests.txt
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from netgreeks.experiments import ExperimentConfig, run_experiment  # noqa: E402

SHIPPED = ["symmetric_grid", "two_firm", "price_example", "greeks_example", "local_compare",
           "er_sweep_quick"]
# shipped configs run again at a nonzero rate, with these keys replaced
RATED = ["greeks_example", "price_example"]
RATE = {"r": 0.05, "tau": 1.5}


def _run_quietly(cfg, out: Path) -> str:
    """sha256 of the output of one run; er-sweep's progress lines are dropped."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        run_experiment(cfg, out=out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _pass_digests(workload, variant) -> list[str]:
    """sha256 of each output of one perfbench pass; a failed operation stops the script."""
    res = workload.run_pass(variant)
    if res.errors:
        sys.exit(f"{workload.name} variant {variant}: {res.errors[0]}")
    return [fingerprint["sha256"] for fingerprint in res.outputs]


def main() -> None:
    # config files name their network files relative to the repository root
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in SHIPPED:
            cfg = ExperimentConfig.from_json(ROOT / "configs" / f"{name}.json")
            print(f"{_run_quietly(cfg, tmp / name)}  configs/{name}.json", flush=True)
        for name in RATED:
            obj = json.loads((ROOT / "configs" / f"{name}.json").read_text())
            cfg = ExperimentConfig.from_dict(dict(obj, **RATE))
            print(f"{_run_quietly(cfg, tmp / name)}  configs/{name}.json r=0.05 tau=1.5",
                  flush=True)

        cli = workloads.make("cli_small", "full", tmp)
        cli.prepare()
        for (sub, _, _), digest in zip(workloads.CLI_COMMANDS, _pass_digests(cli, 0)):
            print(f"{digest}  cli_small/{sub}", flush=True)

        for name in ("sym_grid_mc", "er_sweep_n60"):
            workload = workloads.make(name, "full", tmp)
            workload.prepare()
            for variant in range(workloads.VARIANTS):
                digests = _pass_digests(workload, variant)
                digest = (digests[0] if len(digests) == 1 else
                          hashlib.sha256("\n".join(digests).encode()).hexdigest())
                print(f"{digest}  {name}/variant{variant}", flush=True)

        obj = json.loads((ROOT / "configs" / "er_sweep_paper.json").read_text())
        cfg = ExperimentConfig.from_dict(dict(obj, networks=1, threads=1))
        print(f"{_run_quietly(cfg, tmp / 'slice.csv')}  er_sweep_paper/one_network_per_cell",
              flush=True)


if __name__ == "__main__":
    main()
