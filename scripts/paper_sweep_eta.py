#!/usr/bin/env python3
"""Projected single-thread time of the full paper-scale er-sweep.

Runs configs/er_sweep_paper.json with one network per (k_mean, w_d) cell
and one thread: every cell of the k_mean x w_d x a0 grid, 1/1000 of the
paper's 1000 networks.  The slice CSV goes to a temporary file.  Prints the
slice wall time and that time x 1000 as hours, the projected time of the
whole sweep at one thread.

    python3 scripts/paper_sweep_eta.py
"""

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
    obj = json.loads(CONFIG.read_text())
    scale = obj["networks"]
    obj.update(networks=1, threads=1)
    cfg = ExperimentConfig.from_dict(obj)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        run_experiment(cfg, out=Path(tmp) / "slice.csv")
        seconds = time.perf_counter() - start
    print(f"slice: {seconds:.1f} s for one network per cell; "
          f"paper-sweep ETA at one thread: {seconds * scale / 3600:.1f} h")


if __name__ == "__main__":
    main()
