#!/usr/bin/env python3
"""sha256 of every output a refactor must leave byte-identical, one line each.

Prints `sha256  name` lines for:

- the six shipped configs with a golden file under out/ (the full
  er_sweep_quick among them), run in process, each to a temporary file;
- greeks_example and price_example again with r = 0.05 and tau = 1.5
  replaced in the config dict, since every shipped config has r = 0 and
  so cannot see a change to the discounting;
- mc_greeks on the equity network symmetric_network(12, 0.3, 0.4), run in
  process, with the two block-average portfolios (its patterns go to the
  sensitivity sweeps) and without weights (to the stacked LU), since every
  shipped equity network is too small to reach the sweeps;
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

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from netgreeks.experiments import ExperimentConfig, run_experiment  # noqa: E402
from netgreeks.gbm import GbmParams  # noqa: E402
from netgreeks.mc import mc_greeks  # noqa: E402
from netgreeks.network import symmetric_network  # noqa: E402

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


def _equity_digests():
    """(sha256, label) of mc_greeks' JSON on a 12-firm equity network, swept and factored."""
    n = 12
    net = symmetric_network(n, 0.3, 0.4)
    gbm = GbmParams(a_t=np.ones(n), sigma=np.full(n, 0.4), r=0.03, tau=1.0, corr=np.eye(n))
    block_average = np.kron(np.eye(2), np.full((1, n), 1.0 / n))
    for weights, label in ((block_average, "block_average_swept"), (None, "no_weights_factored")):
        payload = mc_greeks(net, gbm, 4000, 5, weights=weights).to_dict()
        yield hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest(), label


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
        for digest, label in _equity_digests():
            print(f"{digest}  mc_greeks/symmetric12/{label}", flush=True)

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
