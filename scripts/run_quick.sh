#!/bin/sh
# Desk-scale run of every experiment family; writes CSV/JSON under out/.
set -e
cd "$(dirname "$0")/.."
mkdir -p out

netgreeks validate       --config configs/validate_example.json
netgreeks symmetric-grid --config configs/symmetric_grid.json
netgreeks two-firm       --config configs/two_firm.json
netgreeks price          --config configs/price_example.json
netgreeks greeks         --config configs/greeks_example.json
netgreeks local-compare  --config configs/local_compare.json
netgreeks er-sweep       --config configs/er_sweep_quick.json --threads "${THREADS:-1}"

echo "all outputs in out/"
