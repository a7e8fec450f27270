#!/bin/sh
# Full-scale ensemble sweep (n=60, 1000 networks, 700 draws, full a0 grid).
# Expect about 4-5.5 h at one thread on 2 vCPUs: the whole-grid slice of
# scripts/paper_sweep_eta.py took 15.0-19.7 s over four runs (Intel Xeon,
# one thread), so 4.2-5.5 h.  One thread is the default: on 2 vCPUs more
# threads are slower (README, "Command line").
set -e
cd "$(dirname "$0")/.."
mkdir -p out

netgreeks er-sweep --config configs/er_sweep_paper.json --threads "${THREADS:-1}"
