#!/usr/bin/env bash
# Regenerates every table/figure of the paper and collects the outputs under
# exp_out/. EXPERIMENTS.md embeds a captured run of this script.
#
# Budget knobs (validated by ril-bench; malformed values are errors):
#   RIL_TIMEOUT_SECS   per-cell attack budget (default 60)
#   RIL_TABLE1_FULL=1  full 10-row Table I sweep
#   RIL_THREADS        sweep worker threads (default: all cores)
#
# Finished sweep cells are content-cached under exp_out/cache/, so an
# interrupted collection resumes where it stopped; each experiment also
# leaves MANIFEST_<name>.json and its span log SPANS_<name>.jsonl under
# exp_out/ (`ril-bench trace exp_out` renders TRACE_<name>.json from it).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p exp_out

export RIL_TIMEOUT_SECS="${RIL_TIMEOUT_SECS:-60}"
export RIL_TABLE1_FULL="${RIL_TABLE1_FULL:-1}"

cargo build --release -q -p ril-bench --bin ril-bench
RIL_BENCH=target/release/ril-bench

for name in $("$RIL_BENCH" list | tail -n +2 | awk '{print $1}'); do
  echo ">>> $name"
  "$RIL_BENCH" run "$name" >"exp_out/$name.txt" 2>"exp_out/$name.err"
done
echo "all outputs in exp_out/"
