#!/usr/bin/env bash
# End-to-end telemetry walkthrough, doubling as the CI metrics-smoke
# step.
#
#   1. start the daemon with structured logging, 1-in-2 request-trace
#      sampling and the flight recorder armed;
#   2. drive verified loadtest traffic through it;
#   3. snapshot the live dashboard (hca top) and scrape the Prometheus
#      exposition, asserting the key series are present and every
#      sample line parses;
#   4. validate a sampled per-request Chrome trace with hca tracecheck;
#   5. make a request miss its deadline on purpose and validate the
#      flight-recorder dump it leaves behind;
#   6. check the structured log: lifecycle events present, every line
#      one JSON object;
#   7. replay the same traffic against a telemetry-off daemon and let
#      bench_guard prove the served quality is bit-identical;
#   8. run the table1 experiment (hca bench table1) with and without the
#      flight ring armed and let bench_guard gate the telemetry overhead.
#
# Binaries are resolved from _build so the daemon can be backgrounded
# without a wrapper process swallowing its graceful-shutdown SIGTERM;
# override with HCA= / GUARD=.
set -euo pipefail
cd "$(dirname "$0")/.."

HCA=${HCA:-./_build/default/bin/hca_cli.exe}
GUARD=${GUARD:-./_build/default/bin/bench_guard.exe}

WORK=$(mktemp -d)
SOCK="$WORK/hca.sock"
LOG="$WORK/daemon.log.jsonl"
TRACES="$WORK/traces"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -TERM "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== 1. daemon: --log + --trace-sample 2 + flight recorder =="
"$HCA" serve --socket "$SOCK" --jobs 2 \
  --log "$LOG" --log-level debug \
  --trace-sample 2 --trace-dir "$TRACES" --slow-ms 30000 &
SERVE_PID=$!

echo "== 2. verified loadtest traffic =="
"$HCA" loadtest --socket "$SOCK" --count 20 --jobs 2 --verify \
  --out "$WORK/loadtest_on.json"

echo "== 3. live dashboard snapshot =="
"$HCA" top --socket "$SOCK" --once

echo "== 4. Prometheus scrape: parses, key series present =="
"$HCA" top --socket "$SOCK" --prometheus --check > "$WORK/metrics.prom"
for series in hca_requests_total hca_jobs_submitted_total \
              hca_jobs_done_total hca_request_latency_ms_bucket \
              hca_memo_hits_total hca_queue_depth; do
  grep -q "$series" "$WORK/metrics.prom" \
    || { echo "FAIL: series $series missing from the scrape"; exit 1; }
done

echo "== 5. sampled per-request trace validates =="
REQ=$(ls "$TRACES"/req-*.json | head -n 1)
"$HCA" tracecheck "$REQ" --expect report.run

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

echo "== 6. structured log: lifecycle events, one JSON object per line =="
for ev in daemon.listen job.submit job.start job.finish trace.write \
          daemon.exit; do
  grep -q "\"event\":\"$ev\"" "$LOG" \
    || { echo "FAIL: log event $ev missing"; exit 1; }
done
python3 - "$LOG" <<'EOF'
import json, sys
for n, line in enumerate(open(sys.argv[1]), 1):
    json.loads(line)
print(f"  {n} log lines, all valid JSON")
EOF

echo "== 7. deadline miss dumps the flight recorder (stdio transport) =="
printf '%s\n' \
  '{"verb":"submit","kernel":"h264deblocking","deadline_s":0.001}' \
  '{"verb":"shutdown"}' \
  | "$HCA" serve --stdio --jobs 1 --trace-dir "$TRACES" --slow-ms 30000 \
  > /dev/null
FLIGHT=$(ls "$TRACES"/flight-*.json | head -n 1)
"$HCA" tracecheck "$FLIGHT"

echo "== 8. telemetry off: same traffic, bit-identical quality =="
"$HCA" serve --socket "$SOCK" --jobs 2 --no-flight &
SERVE_PID=$!
"$HCA" loadtest --socket "$SOCK" --count 20 --jobs 2 --verify \
  --out "$WORK/loadtest_off.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
"$GUARD" "$WORK/loadtest_off.json" "$WORK/loadtest_on.json"

echo "== 9. telemetry overhead within budget on the table1 bench =="
"$HCA" bench table1 --json --jobs 1 > "$WORK/table1_off.json"
"$HCA" bench table1 --telemetry --json --jobs 1 > "$WORK/table1_on.json"
"$GUARD" --overhead-budget table1/h264deblocking=1.50 \
  "$WORK/table1_off.json" "$WORK/table1_on.json"

echo "demo_telemetry: all steps passed"
