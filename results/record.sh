#!/bin/bash
# Records every table/figure reproduction. Invoked for EXPERIMENTS.md.
set -x
export CUALIGN_SCALE=${CUALIGN_SCALE:-0.25}
export CUALIGN_BP_ITERS=${CUALIGN_BP_ITERS:-10}
export CUALIGN_SEED=${CUALIGN_SEED:-1}
cd "$(dirname "$0")/.."
for bin in table1 fig4 fig5 fig6 table2 fig7 ablation_gpu baselines; do
  echo "=== $bin ==="
  ./target/release/$bin > results/$bin.txt 2>&1
done
echo ALL_RECORDED
