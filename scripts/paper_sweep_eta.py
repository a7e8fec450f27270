#!/usr/bin/env python3
"""Projected time of the full paper-scale er-sweep.

Runs configs/er_sweep_paper.json with N networks per (k_mean, w_d) cell
(default 1): every cell of the k_mean x w_d x a0 grid, N/1000 of the paper's
1000 networks.  Prints the slice wall time and that time x 1000/N as hours,
the projected time of the whole sweep at the same worker count, then the
run's minor page faults and the process's peak RSS.

    python3 scripts/paper_sweep_eta.py [--networks N] [--threads N] [--out FILE]

--networks sets the networks per cell.  At 1 every block of the sweep is a
single task, so --threads cannot run two at once; measure worker counts at
N >= 2.  --threads sets the run's worker count (default 1).  --out keeps the
slice CSV in FILE, so that two checkouts' slices can be compared; without it
the CSV goes to a temporary file.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "er_sweep_paper.json"
sys.path.insert(0, str(ROOT / "src"))

from netgreeks.experiments import ExperimentConfig, run_experiment  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--networks", type=int, default=1, help="networks per cell (default 1)")
    parser.add_argument("--threads", type=int, default=1, help="worker count (default 1)")
    parser.add_argument("--out", type=Path, help="keep the slice CSV in this file")
    args = parser.parse_args()
    obj = json.loads(CONFIG.read_text())
    scale = obj["networks"] / args.networks
    obj.update(networks=args.networks, threads=args.threads)
    cfg = ExperimentConfig.from_dict(obj)
    with tempfile.TemporaryDirectory() as tmp:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        run_experiment(cfg, out=args.out or Path(tmp) / "slice.csv")
        seconds = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"slice: {seconds:.1f} s for {args.networks} network(s) per cell at {args.threads} "
          f"thread(s); paper-sweep ETA: {seconds * scale / 3600:.1f} h")
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    rss_mb = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    print(f"minor page faults: {usage.ru_minflt - faults}; peak RSS: {rss_mb:.1f} MB")


if __name__ == "__main__":
    main()
