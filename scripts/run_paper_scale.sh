#!/bin/sh
# Full-scale ensemble sweep (n=60, 1000 networks, 700 draws, full a0 grid).
# For its run time see the paper-sweep ETA paragraph in README ("Command
# line"), or estimate it on this host with scripts/paper_sweep_eta.py.
# One thread is the default: on 2 vCPUs more threads are slower (same place).
set -e
cd "$(dirname "$0")/.."
mkdir -p out

netgreeks er-sweep --config configs/er_sweep_paper.json --threads "${THREADS:-1}"
