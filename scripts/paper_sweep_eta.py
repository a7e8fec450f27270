#!/usr/bin/env python3
"""Projected time of the full paper-scale er-sweep.

Runs configs/er_sweep_paper.json with one network per (k_mean, w_d) cell:
every cell of the k_mean x w_d x a0 grid, 1/1000 of the paper's 1000
networks.  Prints the slice wall time and that time x 1000 as hours, the
projected time of the whole sweep at the same worker count.

    python3 scripts/paper_sweep_eta.py [--threads N] [--out FILE]

--threads sets the run's worker count (default 1).  --out keeps the slice
CSV in FILE, so that two checkouts' slices can be compared; without it the
CSV goes to a temporary file.
"""

import argparse
import json
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
    parser.add_argument("--threads", type=int, default=1, help="worker count (default 1)")
    parser.add_argument("--out", type=Path, help="keep the slice CSV in this file")
    args = parser.parse_args()
    obj = json.loads(CONFIG.read_text())
    scale = obj["networks"]
    obj.update(networks=1, threads=args.threads)
    cfg = ExperimentConfig.from_dict(obj)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        run_experiment(cfg, out=args.out or Path(tmp) / "slice.csv")
        seconds = time.perf_counter() - start
    print(f"slice: {seconds:.1f} s for one network per cell at {args.threads} thread(s); "
          f"paper-sweep ETA: {seconds * scale / 3600:.1f} h")


if __name__ == "__main__":
    main()
