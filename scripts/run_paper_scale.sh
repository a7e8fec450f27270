#!/bin/sh
# Full-scale ensemble sweep (n=60, 1000 networks, 700 draws, full a0 grid).
# Expect about 4.5-7.5 h at one thread on 2 vCPUs: scripts/paper_sweep_eta.py
# (whole grid, under a minute) measured 4.5-6.6 h, and
# perfbench/run.py --workload er_sweep_n60 (a0 = 1 only) 6.0-7.4 h.  One
# thread is the default: on 2 vCPUs more threads are slower (README,
# "Command line").
set -e
cd "$(dirname "$0")/.."
mkdir -p out

netgreeks er-sweep --config configs/er_sweep_paper.json --threads "${THREADS:-1}"
