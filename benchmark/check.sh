#!/usr/bin/env bash
# Builds the benchmark offline, runs its unit tests (which include one smoke
# run of every workload, untraced and traced) and one smoke run per workload
# through the command line. scripts/verify.sh does not call this yet: the PR
# that defines the benchmark may not edit files outside benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/scnn-benchmark
for w in train_split_hmms train_plain serve_closed_c1 serve_open_burst8; do
  for trace in 0 1; do
    line=$("$bin" --workload "$w" --smoke --trace "$trace" | tail -n 1)
    case "$line" in
      '{"correct":true,'*'"failed":0,'*) echo "ok  $w --trace $trace" ;;
      *) echo "FAILED  $w --trace $trace: $line"; exit 1 ;;
    esac
  done
done
echo "benchmark check passed"
