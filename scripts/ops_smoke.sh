#!/usr/bin/env bash
# Fleet-observability smoke test: 2 shard servers x 4 workers with
# central trace collection turned on.
#
# Starts an `ops_collector`, then the sharded demo (2 `elastic_server`s
# splitting the reference, 4 scatter-gathering `elastic_worker`s), every
# process running `EA_TRACE=spans` and `--ops-push`. After the fleet
# finishes and the collector quiesces, asserts:
#   * the merged Chrome trace (`fleet_trace.json`) is well-formed JSON
#     and carries per-process metadata plus exchange ctx ids
#   * the fleet Prometheus dump (`fleet.prom`) has `# HELP`/`# TYPE`
#     headers and `process=` labels
#   * `ops_report` reconstructs per-round timelines from the trace and
#     the uniform fleet trips no straggler flags
#
# Usage: scripts/ops_smoke.sh [logdir]
#   SKIP_BUILD=1  reuse existing ./target/release binaries

set -euo pipefail
cd "$(dirname "$0")/.."

LOGDIR="${1:-ops-logs}"
COLLECTOR_ADDR="127.0.0.1:7490"
ADDR0="127.0.0.1:7491"
ADDR1="127.0.0.1:7492"
ROUNDS=8
PIPELINES=4
mkdir -p "$LOGDIR"
rm -f "$LOGDIR"/*.log "$LOGDIR/fleet_trace.json" "$LOGDIR/fleet.prom"

if [ -z "${SKIP_BUILD:-}" ]; then
  cargo build --release --example elastic_server --example elastic_worker
  cargo build --release -p ea-ops --bins
fi
SERVER=./target/release/examples/elastic_server
WORKER=./target/release/examples/elastic_worker
COLLECTOR=./target/release/ops_collector
REPORT=./target/release/ops_report

WORKER_PIDS=()
cleanup() {
  for pid in "${COLLECTOR_PID:-}" "${S0_PID:-}" "${S1_PID:-}" "${WORKER_PIDS[@]}"; do
    if [ -n "$pid" ]; then
      kill "$pid" 2>/dev/null || true
    fi
  done
}
trap cleanup EXIT

wait_for_line() { # logfile, pattern
  for _ in $(seq 1 100); do
    if grep -q "$2" "$1" 2>/dev/null; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAILED: never saw '$2' in $1" >&2
  cat "$1" >&2 || true
  exit 1
}

echo "== starting the ops collector =="
"$COLLECTOR" --listen "$COLLECTOR_ADDR" --out "$LOGDIR" --quiesce-ms 2000 \
  --max-secs 90 > "$LOGDIR/collector.log" 2>&1 &
COLLECTOR_PID=$!
wait_for_line "$LOGDIR/collector.log" "listening on"

echo "== starting 2 shard servers with collection on =="
EA_TRACE=spans "$SERVER" --addr "$ADDR0" --shards 2 --shard-index 0 \
  --pipelines "$PIPELINES" --rounds "$ROUNDS" --ops-push "$COLLECTOR_ADDR" \
  > "$LOGDIR/server0.log" 2>&1 &
S0_PID=$!
EA_TRACE=spans "$SERVER" --addr "$ADDR1" --shards 2 --shard-index 1 \
  --pipelines "$PIPELINES" --rounds "$ROUNDS" --ops-push "$COLLECTOR_ADDR" \
  > "$LOGDIR/server1.log" 2>&1 &
S1_PID=$!
wait_for_line "$LOGDIR/server0.log" "LISTENING"
wait_for_line "$LOGDIR/server1.log" "LISTENING"

echo "== starting $PIPELINES workers =="
for pipe in $(seq 0 $((PIPELINES - 1))); do
  EA_TRACE=spans "$WORKER" --addr "$ADDR0" --addr "$ADDR1" --pipe "$pipe" \
    --pipelines "$PIPELINES" --target-rounds "$ROUNDS" \
    --ops-push "$COLLECTOR_ADDR" > "$LOGDIR/worker$pipe.log" 2>&1 &
  WORKER_PIDS+=($!)
done

for i in "${!WORKER_PIDS[@]}"; do
  if ! wait "${WORKER_PIDS[$i]}"; then
    echo "FAILED: worker $i exited nonzero" >&2
    cat "$LOGDIR/worker$i.log" >&2
    exit 1
  fi
done
wait "$S0_PID"
wait "$S1_PID"
echo "== fleet finished; waiting for the collector to quiesce =="
if ! wait "$COLLECTOR_PID"; then
  echo "FAILED: collector exited nonzero" >&2
  cat "$LOGDIR/collector.log" >&2
  exit 1
fi
cat "$LOGDIR/collector.log"

echo "== validating artifacts =="
python3 -m json.tool "$LOGDIR/fleet_trace.json" > /dev/null
echo "fleet_trace.json: valid JSON"
for pname in worker0 worker3 server0 server1; do
  if ! grep -q "\"$pname\"" "$LOGDIR/fleet_trace.json"; then
    echo "FAILED: fleet_trace.json lacks process $pname" >&2
    exit 1
  fi
done
grep -q '"ctx":' "$LOGDIR/fleet_trace.json" \
  || { echo "FAILED: no exchange ctx ids in the merged trace" >&2; exit 1; }
echo "fleet_trace.json: all 6 processes + ctx correlation present"

grep -q '^# HELP ' "$LOGDIR/fleet.prom" \
  || { echo "FAILED: fleet.prom lacks # HELP headers" >&2; exit 1; }
grep -q '^# TYPE ' "$LOGDIR/fleet.prom" \
  || { echo "FAILED: fleet.prom lacks # TYPE headers" >&2; exit 1; }
grep -q 'process="worker0"' "$LOGDIR/fleet.prom" \
  || { echo "FAILED: fleet.prom lacks process labels" >&2; exit 1; }
echo "fleet.prom: conformant headers and process labels"

grep -q 'no stragglers flagged' "$LOGDIR/collector.log" \
  || { echo "FAILED: uniform fleet flagged a straggler" >&2; exit 1; }

echo "== offline report from the merged trace =="
"$REPORT" "$LOGDIR/fleet_trace.json" | tee "$LOGDIR/report.log"
grep -q 'round ' "$LOGDIR/report.log" \
  || { echo "FAILED: ops_report reconstructed no round timelines" >&2; exit 1; }
grep -q 'no stragglers flagged' "$LOGDIR/report.log" \
  || { echo "FAILED: ops_report flagged a straggler in a uniform fleet" >&2; exit 1; }

echo "OPS SMOKE OK"
