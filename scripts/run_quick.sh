#!/bin/sh
# Desk-scale run of every experiment family on the shipped configs.  Writes
# under out/quick/, never over the golden files in out/ that the tests and
# the benchmark compare against.
set -e
cd "$(dirname "$0")/.."
mkdir -p out/quick

netgreeks validate       --config configs/validate_example.json --out out/quick/validate.txt
netgreeks symmetric-grid --config configs/symmetric_grid.json --out out/quick/symmetric_grid.csv
netgreeks two-firm       --config configs/two_firm.json       --out out/quick/two_firm.csv
netgreeks price          --config configs/price_example.json  --out out/quick/price_example.json
netgreeks greeks         --config configs/greeks_example.json --out out/quick/greeks_example.json
netgreeks local-compare  --config configs/local_compare.json  --out out/quick/local_compare.csv
netgreeks er-sweep       --config configs/er_sweep_quick.json --out out/quick/er_sweep_quick.csv \
    --threads "${THREADS:-1}"

echo "all outputs in out/quick/"
