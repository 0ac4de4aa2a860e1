#!/usr/bin/env bash
# Runs every CLI command once, and a custom-pattern config through the chain
# commands with a load -> save round trip; fails on the first nonzero exit.
#
#   bash .github/scripts/cli_smoke.sh SCRATCH_DIR
set -euo pipefail
tmp=${1:?usage: cli_smoke.sh SCRATCH_DIR}
bellchain() { PYTHONPATH=src python -m bellchain "$@"; }
bellchain verify --n 7
bellchain generate --n 7
bellchain conveyor --n 7 --rounds 4
bellchain ghz --n 11
bellchain verify --n 15
bellchain verify --n 101
bellchain sweep --n 3 --grid 21 --out-dir "$tmp/sweep"
bellchain reference-point
bellchain flux-check --n 7
bellchain flux-check --n 7 --pattern perfect-transfer --t-star 1.3
bellchain conveyor --n 3 --rounds 5
cat > "$tmp/custom.cfg" <<'CFG'
n_sites = 5
lambda = 1.0
pattern = custom
b_fields = 0.01, 0.0, -0.02, 0.0, 0.0
j_x = 0.0, 1.7320508075688772, 0.0, 2.0
j_y = 2.0, 0.0, 1.7320508075688772, 0.0
CFG
bellchain generate --config "$tmp/custom.cfg"
bellchain verify --config "$tmp/custom.cfg" --min-fidelity 0
bellchain flux-check --config "$tmp/custom.cfg"
PYTHONPATH=src python -c "import sys, bellchain as b; b.save_chain_config(b.load_chain_config(sys.argv[1]), sys.argv[2])" "$tmp/custom.cfg" "$tmp/saved.cfg"
cmp "$tmp/custom.cfg" "$tmp/saved.cfg"
