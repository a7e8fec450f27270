#!/bin/sh
# Full-scale ensemble sweep (n=60, 1000 networks, 700 draws, full a0 grid).
# Expect about 8-11 h at one thread on 2 vCPUs (scripts/paper_sweep_eta.py
# measures it in under a minute).  One thread is the default: on 2 vCPUs
# more threads are slower (README, "Command line").
set -e
cd "$(dirname "$0")/.."
mkdir -p out

netgreeks er-sweep --config configs/er_sweep_paper.json --threads "${THREADS:-1}"
