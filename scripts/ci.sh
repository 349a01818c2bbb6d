#!/usr/bin/env bash
# Pre-PR gate: tier-1 tests, formatting, and lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cell-cache keys carry a search generation (`search=`), bumped by any
# encoder or solver change that alters search, but nothing else about the
# code: a reused out dir could still build tables from cells an earlier
# build of the same search computed. The smoke stages start from an empty
# dir and then check that every manifest computed all its cells.
assert_no_cached_cells() {
  local manifest
  for manifest in "$1"/MANIFEST_*.json; do
    grep -q '"cached_cells":0' "$manifest" \
      || { echo "$manifest reports cached cells"; exit 1; }
  done
}

echo "== tier-1: build (release) =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== benchmark suite (perfbench builds against the workspace crates by path) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== formatting =="
cargo fmt --all --check

echo "== rustdoc (warnings are errors: no broken intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (netlist analyses: no unordered hash-map iteration) =="
# The analysis cache promises deterministic, sorted results; iterating a
# HashMap/HashSet in ril-netlist would silently break that promise.
cargo clippy -p ril-netlist --all-targets -- -D warnings -D clippy::iter_over_hash_type

echo "== dead API (every pub fn/const has a non-test caller) =="
scripts/dead_api.sh

echo "== serve smoke (rilock serve + remote SAT attack with morphing) =="
mkdir -p exp_out
ADDR_FILE=exp_out/ci_serve.addr
rm -f "$ADDR_FILE"
target/release/rilock serve --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" \
  --morph-queries 2 >exp_out/ci_serve.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$ADDR_FILE" ] && break; sleep 0.1; done
[ -s "$ADDR_FILE" ] || { echo "serve never became ready"; kill "$SERVE_PID"; exit 1; }
# A morphing chip with an armed-by-morph SE stage: the attack itself may
# win or be defended, but the round trip, the re-keys, and the drain must
# all be clean. The server stays up afterwards so `rilock top` can poll
# the telemetry the attack just generated.
target/release/rilock remote-attack "$(cat "$ADDR_FILE")" \
  --benchmark adder:8 --spec 2x2 --blocks 2 --seed 7 --scan --zero-se \
  --timeout 30 --probe-batch 4 --probe-pipeline 8 >exp_out/ci_remote_attack.log 2>&1 \
  || { tail -20 exp_out/ci_serve.log exp_out/ci_remote_attack.log; exit 1; }
# The client connected and speaks binary protocol v1 (no handshake).
grep -q "connected: protocol v1" exp_out/ci_remote_attack.log
# The lane-packed QueryBatch round trip: one frame, four patterns.
grep -q "batch probe: 4 patterns answered in one round-trip" \
  exp_out/ci_remote_attack.log
# Pipelining: several requests written before any response is read, all
# answered in request order on one connection.
grep -q "pipelined probe: 8 requests answered in order" exp_out/ci_remote_attack.log
# The scheduler must actually have re-keyed the chip mid-attack (the
# design/seed/solver are all pinned, so the count is deterministic).
grep -q "re-key(s) observed" exp_out/ci_remote_attack.log
! grep -q "(0 re-key(s) observed" exp_out/ci_remote_attack.log
# The live dashboard: two frames of per-chip latency telemetry, the
# query-counter/histogram consistency invariant, then a drain.
target/release/rilock top "$(cat "$ADDR_FILE")" --interval-ms 200 --frames 2 \
  --shutdown >exp_out/ci_top.log 2>&1 \
  || { tail -30 exp_out/ci_serve.log exp_out/ci_top.log; exit 1; }
grep -q "stats consistent" exp_out/ci_top.log
grep -q "server drained" exp_out/ci_top.log
# Clean shutdown: the server process must exit 0 after the drain.
wait "$SERVE_PID"
grep -q "ril-serve drained" exp_out/ci_serve.log
tail -4 exp_out/ci_remote_attack.log

echo "== dynamic defense smoke (ril-bench run dynamic_defense --smoke) =="
rm -rf exp_out/ci_dynamic
RIL_OUT_DIR=exp_out/ci_dynamic RIL_LOG=error cargo run --release -q -p ril-bench --bin ril-bench -- \
  run dynamic_defense --smoke >exp_out/ci_dynamic.log 2>&1 \
  || { tail -50 exp_out/ci_dynamic.log; exit 1; }
tail -10 exp_out/ci_dynamic.log
cargo run --release -q -p ril-bench --bin ril-bench -- validate exp_out/ci_dynamic
assert_no_cached_cells exp_out/ci_dynamic

echo "== oracle throughput smoke (ril-bench run oracle_throughput --smoke) =="
# Timed live, never cached (--no-cache is belt-and-braces): the ≥10x
# batched-vs-single sim throughput floor is asserted inside the experiment.
RIL_OUT_DIR=exp_out/ci_oracle RIL_LOG=error cargo run --release -q -p ril-bench --bin ril-bench -- \
  run oracle_throughput --smoke --no-cache >exp_out/ci_oracle.log 2>&1 \
  || { tail -50 exp_out/ci_oracle.log; exit 1; }
tail -10 exp_out/ci_oracle.log
cargo run --release -q -p ril-bench --bin ril-bench -- validate exp_out/ci_oracle

echo "== serve load smoke (ril-bench run serve_load --smoke) =="
# Timed live, never cached (--no-cache is belt-and-braces): the qps floor,
# the p99 ceiling, and the server-side counter/histogram consistency are
# all asserted inside the experiment.
RIL_OUT_DIR=exp_out/ci_serve_load RIL_LOG=error cargo run --release -q -p ril-bench --bin ril-bench -- \
  run serve_load --smoke --no-cache >exp_out/ci_serve_load.log 2>&1 \
  || { tail -50 exp_out/ci_serve_load.log; exit 1; }
tail -10 exp_out/ci_serve_load.log
cargo run --release -q -p ril-bench --bin ril-bench -- validate exp_out/ci_serve_load

echo "== farm smoke (ril-bench run --workers 2 --smoke table1, one worker SIGKILL'd mid-run; scan_defense + lut_scaling + table5) =="
# The distributed phase: a loopback coordinator plus two spawned worker
# processes fill the cell cache before table1 assembles its rows. One
# worker is SIGKILL'd mid-run; its leases must expire, re-issue to the
# peer, and the sweep must still complete and validate cleanly.
rm -rf exp_out/ci_farm
RIL_OUT_DIR=exp_out/ci_farm RIL_LOG=error cargo run --release -q -p ril-bench --bin ril-bench -- \
  run --workers 2 --smoke table1 >exp_out/ci_farm.log 2>&1 &
FARM_PID=$!
sleep 3
WORKER_PID=$(pgrep -f "ril-bench worker --connect 127.0.0.1" | head -1 || true)
if [ -n "${WORKER_PID:-}" ]; then
  kill -9 "$WORKER_PID"
else
  echo "farm settled before the kill landed (still validates below)"
fi
wait "$FARM_PID" || { tail -50 exp_out/ci_farm.log; exit 1; }
grep -q "ok   table1" exp_out/ci_farm.log
# The manifest carries the farm telemetry snapshot, and cells really did
# travel over the wire.
grep -q '"farm":{' exp_out/ci_farm/MANIFEST_table1.json
grep -q '"farm.cells.completed"' exp_out/ci_farm/MANIFEST_table1.json
cargo run --release -q -p ril-bench --bin ril-bench -- validate exp_out/ci_farm
# Any experiment's cells farm, not only SAT sweeps: two non-SAT ones,
# and table5, whose budget-bound cells carry the largest payloads. A
# payload over the 1 MiB frame cap fails its cell on the farm (it is then
# computed in-process), so every table5 cell must come back over the wire.
rm -rf exp_out/ci_farm_cells
RIL_OUT_DIR=exp_out/ci_farm_cells RIL_LOG=error cargo run --release -q -p ril-bench --bin ril-bench -- \
  run --workers 2 --smoke scan_defense lut_scaling table5 >exp_out/ci_farm_cells.log 2>&1 \
  || { tail -50 exp_out/ci_farm_cells.log; exit 1; }
for exp in scan_defense lut_scaling table5; do
  grep -q '"farm.cells.completed"' "exp_out/ci_farm_cells/MANIFEST_$exp.json" \
    || { echo "$exp: no cells completed over the wire"; exit 1; }
done
! grep -q '"farm.cells.failed"' exp_out/ci_farm_cells/MANIFEST_table5.json \
  || { echo "table5: a farmed cell failed (payload over the frame cap?)"; exit 1; }
cargo run --release -q -p ril-bench --bin ril-bench -- validate exp_out/ci_farm_cells

echo "== experiment smoke (ril-bench run --all --smoke) =="
rm -rf exp_out/ci_smoke
RIL_OUT_DIR=exp_out/ci_smoke RIL_LOG=error cargo run --release -q -p ril-bench --bin ril-bench -- \
  run --all --smoke >exp_out/ci_smoke.log 2>&1 \
  || { tail -50 exp_out/ci_smoke.log; exit 1; }
tail -15 exp_out/ci_smoke.log
assert_no_cached_cells exp_out/ci_smoke

echo "== run artifacts (ril-bench validate + trace) =="
# One run record: a run leaves manifests, tables and span logs only.
# Chrome traces are rendered on demand by `trace`.
if compgen -G "exp_out/ci_smoke/EVENTS_*" >/dev/null \
  || compgen -G "exp_out/ci_smoke/TRACE_*" >/dev/null; then
  echo "a run wrote an EVENTS_ or TRACE_ file"; exit 1
fi
cargo run --release -q -p ril-bench --bin ril-bench -- validate exp_out/ci_smoke
cargo run --release -q -p ril-bench --bin ril-bench -- trace exp_out/ci_smoke \
  >exp_out/ci_trace.log || { tail -50 exp_out/ci_trace.log; exit 1; }
tail -5 exp_out/ci_trace.log
for spans in exp_out/ci_smoke/SPANS_*.jsonl; do
  exp=$(basename "$spans" .jsonl)
  [ -f "exp_out/ci_smoke/TRACE_${exp#SPANS_}.json" ] \
    || { echo "trace rendered no TRACE_ file for $spans"; exit 1; }
done

echo "ci.sh: all green"
