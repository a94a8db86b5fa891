#!/usr/bin/env bash
# Run every visionbench workload, plain and traced, at the development
# seed and at the held-out seed. Exits non-zero unless every run reports
# "correct": true with no failed operation.
#
# Each run lasts 20 s, the run_seconds of BENCHMARK.json.
#
# Usage (from the repository root): visionbench/seeds.sh
set -euo pipefail

DEV_SEED=2024
HELD_OUT_SEED=90417
bench=(cargo run --quiet --offline --release --manifest-path visionbench/Cargo.toml --)

status=0
for seed in "$DEV_SEED" "$HELD_OUT_SEED"; do
  for trace in 0 1; do
    for workload in spatial_sfu video_2d serve_churn fleet; do
      last=$("${bench[@]}" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace "$trace" | tail -n 1)
      if [[ $last == '{"correct": true, '*', "failed": 0, '* ]]; then
        echo "ok    $workload seed=$seed trace=$trace"
      else
        echo "FAIL  $workload seed=$seed trace=$trace: ${last:0:160}"
        status=1
      fi
    done
  done
done
exit "$status"
