#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke of the multi-process cluster:
# two sccd site daemons plus one sccd coordinator on loopback TCP,
# driven by sccctl. The coordinator is kill -9'd while a conservation
# load is running, restarted on the same decision log, and the load
# must complete with every stack's committed depth exactly equal to
# its committed pushes (exactly-once across the coordinator crash).
#
# The debug plane is on for all three processes: /metrics is scraped
# from each while the load is in flight, and after quiesce the
# coordinator's /statusz must show the decision-log conservation
# invariant (logged + adopted == resolved, live == 0) and live
# PolicyStats for the hold policy (none is named: the default ships).
#
# Usage: scripts/cluster_smoke.sh   (from the repo root; needs go)
set -u

DIR="$(mktemp -d /tmp/scc_smoke.XXXXXX)"
BIN="$DIR/bin"
LOG="$DIR/logs"
mkdir -p "$BIN" "$LOG"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]-}"; do
    kill "$pid" 2>/dev/null || true
    kill -CONT "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "SMOKE FAIL: $*" >&2
  echo "---- coordinator log ----" >&2; cat "$LOG"/coord*.log >&2 2>/dev/null || true
  echo "---- daemon logs ----" >&2; cat "$LOG"/site*.log >&2 2>/dev/null || true
  exit 1
}

echo "== build"
go build -o "$BIN/sccd" ./cmd/sccd || fail "build sccd"
go build -o "$BIN/sccctl" ./cmd/sccctl || fail "build sccctl"

# Ports: ask the kernel for free ones via a tiny helper. Three for
# the cluster itself, three for the per-process debug planes.
read -r P_CLIENT P_D0 P_D1 P_DBG_CO P_DBG_D0 P_DBG_D1 <<EOF
$(go run ./scripts/freeports 6 2>/dev/null || echo "7411 7412 7413 7414 7415 7416")
EOF

FLIGHT_DIR="$DIR/flight"
mkdir -p "$FLIGHT_DIR"
CFG="$DIR/cluster.json"
cat > "$CFG" <<EOF
{
  "client":   "127.0.0.1:$P_CLIENT",
  "log":      "$DIR/decision.log",
  "sync":     false,
  "workload": "pushes:32",
  "debug":    "127.0.0.1:$P_DBG_CO",
  "spans":    32768,
  "sample_rate": 1,
  "sample_seed": 42,
  "flight_dir": "$FLIGHT_DIR",
  "daemons": [
    {"listen": "127.0.0.1:$P_D0", "sites": [0, 1], "debug": "127.0.0.1:$P_DBG_D0"},
    {"listen": "127.0.0.1:$P_D1", "sites": [2, 3], "debug": "127.0.0.1:$P_DBG_D1"}
  ]
}
EOF

echo "== a retired cluster-file key stops sccd at start, named"
# The span ring is the one event ring: "trace" and "flight" (the old
# rings' sizes) are unknown keys now, and unknown keys are errors.
sed 's/"spans":/"flight": 2048, "spans":/' "$CFG" > "$DIR/stale.json"
if timeout 10 "$BIN/sccd" -config "$DIR/stale.json" -role coord > "$LOG/stale.log" 2>&1; then
  fail "sccd started on a cluster file with a retired \"flight\" key"
fi
grep -q 'unknown field "flight"' "$LOG/stale.log" || { cat "$LOG/stale.log" >&2; fail "sccd did not name the stale key"; }

# scrape HOST:PORT PATT...: curl a debug plane's /metrics and require
# every pattern to appear. curl retries cover the restart window.
scrape() {
  local addr="$1"; shift
  local body
  body="$(curl -sf --retry 5 --retry-connrefused "http://$addr/metrics")" \
    || fail "scrape http://$addr/metrics"
  for patt in "$@"; do
    echo "$body" | grep -q "$patt" \
      || fail "metrics from $addr missing '$patt'"
  done
}

echo "== start site daemons"
"$BIN/sccd" -config "$CFG" -role site -daemon 0 > "$LOG/site0.log" 2>&1 &
SITE0_PID=$!
PIDS+=($SITE0_PID)
"$BIN/sccd" -config "$CFG" -role site -daemon 1 > "$LOG/site1.log" 2>&1 &
SITE1_PID=$!
PIDS+=($SITE1_PID)

echo "== start coordinator"
"$BIN/sccd" -config "$CFG" -role coord > "$LOG/coord1.log" 2>&1 &
COORD_PID=$!
PIDS+=($COORD_PID)

echo "== init (readiness barrier)"
"$BIN/sccctl" -config "$CFG" -wait 20s init || fail "init"

echo "== load with mid-flight coordinator kill -9"
"$BIN/sccctl" -config "$CFG" load -workers 6 -txns 300 -seed 42 -verify > "$LOG/load.log" 2>&1 &
LOAD_PID=$!
PIDS+=($LOAD_PID)

# Let the load get a third of the way in (the whole load logs about
# 1,800 decisions), then scrape every debug plane while the cluster is
# under fire: the coordinator must be logging decisions and running the
# conversation, the site daemons must be executing. Polling the
# coordinator rather than sleeping keeps the kill inside the load
# however fast the machine runs it.
KILL_AT=600
logged=0
for _ in $(seq 1 2000); do
  kill -0 "$LOAD_PID" 2>/dev/null || fail "load exited before the coordinator kill (logged=$logged)"
  logged=$(curl -sf "http://127.0.0.1:$P_DBG_CO/metrics" \
    | awk '$1 == "scc_decisions_logged_total" { print $2 }')
  [ "${logged:-0}" -ge "$KILL_AT" ] && break
  sleep 0.01
done
[ "${logged:-0}" -ge "$KILL_AT" ] || fail "coordinator logged only ${logged:-0} decisions, want >= $KILL_AT before the kill"
echo "== mid-load /metrics scrape (all three processes, $logged decisions logged)"
scrape "127.0.0.1:$P_DBG_CO" \
  'scc_decisions_logged_total [1-9]' \
  'scc_wire_frames_out_total [1-9]' \
  'scc_policy_tail_aborts_total{policy="depth=4"}'
scrape "127.0.0.1:$P_DBG_D0" 'scc_sched_executes_total{site="0"} [0-9]'
scrape "127.0.0.1:$P_DBG_D1" 'scc_sched_executes_total{site="2"} [0-9]'

# Now kill the coordinator the hard way, with the load still running
# and a logged decision still open. A decision resolves within
# microseconds once its sites have acked it, so both site daemons are
# frozen (SIGSTOP) until the decision log (one "C <id>" line per commit
# decision, "T <id>" once it resolves) holds an open one: no site can
# ack it while they are stopped, so the restarted coordinator must
# adopt it. Its clients are still waiting on those sites for the
# outcome, so they resolve it from the new coordinator. The
# coordinator's own /metrics cannot be asked here: it sums the frozen
# sites' counters.
open_decisions() {
  awk '$1 == "C" { open[$2] = 1 } $1 == "T" { delete open[$2] }
       END { print length(open) }' "$DIR/decision.log" 2>/dev/null || echo 0
}
open=0
for _ in $(seq 1 100); do
  kill -0 "$LOAD_PID" 2>/dev/null || fail "load finished before the coordinator kill"
  kill -STOP "$SITE0_PID" "$SITE1_PID"
  sleep 0.05
  open=$(open_decisions)
  [ "$open" -ge 1 ] && break
  kill -CONT "$SITE0_PID" "$SITE1_PID"
  sleep 0.01
done
[ "$open" -ge 1 ] || fail "no logged decision was open at any of 100 frozen instants"
kill -9 "$COORD_PID" 2>/dev/null || fail "coordinator already gone before kill"
kill -CONT "$SITE0_PID" "$SITE1_PID"
echo "== coordinator killed (kill -9) with $open decision(s) open; flight-dumping the site daemons (SIGQUIT)"
# While the coordinator is dead, every hold the sites placed for it is
# in doubt. SIGQUIT makes each site daemon dump its flight recorder —
# the crash black box — and keep running; the dumps must contain an
# in-doubt transaction's partial causal trace: a sampled hold span with
# no matching release.
kill -QUIT "$SITE0_PID" 2>/dev/null || fail "site daemon 0 gone before SIGQUIT"
kill -QUIT "$SITE1_PID" 2>/dev/null || fail "site daemon 1 gone before SIGQUIT"
for _ in $(seq 1 50); do
  ls "$FLIGHT_DIR"/flight-site0-*.json >/dev/null 2>&1 \
    && ls "$FLIGHT_DIR"/flight-site1-*.json >/dev/null 2>&1 && break
  sleep 0.1
done
ls "$FLIGHT_DIR"/flight-site0-*.json >/dev/null 2>&1 || fail "site daemon 0 wrote no flight dump on SIGQUIT"
ls "$FLIGHT_DIR"/flight-site1-*.json >/dev/null 2>&1 || fail "site daemon 1 wrote no flight dump on SIGQUIT"
indoubt=""
for dump in "$FLIGHT_DIR"/flight-site*.json; do
  # The dump is indented JSON; compact it so the span fields sit on one
  # line for grep ("kind" directly precedes "txn" in a span record).
  compact=$(tr -d ' \n' < "$dump")
  echo "$compact" | grep -q '"trace":0,' && fail "flight dump $dump has an unsampled span (trace 0)"
  holds=$(echo "$compact" | grep -o '"kind":"hold","txn":[0-9]*' | grep -o '[0-9]*$' | sort -u)
  rels=$(echo "$compact" | grep -o '"kind":"release","txn":[0-9]*' | grep -o '[0-9]*$' | sort -u)
  orphan=$(comm -23 <(echo "$holds") <(echo "$rels") | head -1)
  if [ -n "$orphan" ]; then
    indoubt="$orphan"
    echo "flight dump $(basename "$dump"): in-doubt txn $orphan (hold span, no release)"
  fi
done
[ -n "$indoubt" ] || fail "no flight dump shows an in-doubt partial trace (hold without release)"
if [ -n "${FLIGHT_OUT:-}" ]; then
  mkdir -p "$FLIGHT_OUT"
  cp "$FLIGHT_DIR"/flight-*.json "$FLIGHT_OUT"/ 2>/dev/null || true
  echo "flight dumps copied to $FLIGHT_OUT"
fi

echo "== restarting coordinator on the same decision log"
sleep 0.5
"$BIN/sccd" -config "$CFG" -role coord > "$LOG/coord2.log" 2>&1 &
PIDS+=($!)

echo "== waiting for load to complete"
# Bounded wait: a wedged load must fail fast with goroutine dumps in
# the log, not hang the whole CI job. SIGQUIT makes the Go runtime
# print all stacks before exiting.
DEADLINE=${SMOKE_LOAD_TIMEOUT:-120}
waited=0
while kill -0 "$LOAD_PID" 2>/dev/null; do
  if [ "$waited" -ge "$DEADLINE" ]; then
    kill -QUIT "$LOAD_PID" 2>/dev/null || true
    sleep 2
    echo "---- load log (stalled, goroutine dump below) ----" >&2
    cat "$LOG/load.log" >&2 2>/dev/null || true
    fail "load still running after ${DEADLINE}s (stall; stacks above)"
  fi
  sleep 1
  waited=$((waited + 1))
done
if ! wait "$LOAD_PID"; then
  echo "---- load log ----" >&2; cat "$LOG/load.log" >&2 2>/dev/null || true
  fail "load did not survive the coordinator restart (see $LOG/load.log)"
fi
grep -q "conservation verified" "$LOG/load.log" || fail "load finished without verifying conservation"
cat "$LOG/load.log"

echo "== status after recovery"
"$BIN/sccctl" -config "$CFG" status || fail "status after recovery"

echo "== decision-log conservation at quiesce (/statusz)"
# Pull a named integer field out of the flat /statusz JSON; absent
# fields (omitempty) read as 0.
jint() {
  echo "$1" | grep -o "\"$2\": *-\{0,1\}[0-9]*" | grep -o -- '-\{0,1\}[0-9]*$' || echo 0
}
conserved=""
for _ in $(seq 1 100); do
  STATUS="$(curl -sf "http://127.0.0.1:$P_DBG_CO/statusz")" || fail "curl /statusz"
  logged=$(jint "$STATUS" decisions_logged)
  adopted=$(jint "$STATUS" decisions_adopted)
  resolved=$(jint "$STATUS" decisions_resolved)
  live=$(jint "$STATUS" live_decisions)
  if [ "$live" -eq 0 ] && [ $((logged + adopted)) -eq "$resolved" ]; then
    conserved=yes
    break
  fi
  sleep 0.1
done
[ -n "$conserved" ] \
  || fail "conservation violated at quiesce: logged=$logged adopted=$adopted resolved=$resolved live=$live"
# The kill landed mid-load, so the restarted coordinator must have
# adopted decisions the dead one logged but never resolved.
[ "$adopted" -gt 0 ] || fail "restarted coordinator adopted no decisions (adopted=0): the kill missed the load"
# The cluster file names no policy: the coordinator must report the
# default it installed (dist.DefaultPolicy), not "off".
echo "$STATUS" | grep -q '"policy": "depth=4"' || fail "/statusz does not report the default hold policy (depth=4)"
echo "$STATUS" | grep -q '"policy_stats"' || fail "/statusz missing policy_stats"
echo "conservation OK: logged=$logged adopted=$adopted resolved=$resolved live=$live"

echo "== sccctl stats / trace against the live cluster"
"$BIN/sccctl" -config "$CFG" stats > "$LOG/stats.log" 2>&1 || {
  cat "$LOG/stats.log" >&2; fail "sccctl stats"
}
grep -q 'commits' "$LOG/stats.log" || fail "sccctl stats printed no commit line"
"$BIN/sccctl" -config "$CFG" trace -last 5 > "$LOG/trace.log" 2>&1 || {
  cat "$LOG/trace.log" >&2; fail "sccctl trace"
}
[ "$(grep -c ' txn=' "$LOG/trace.log")" -eq 5 ] || { cat "$LOG/trace.log" >&2; fail "sccctl trace -last 5 did not print 5 span lines"; }

echo "== /statusz reports the tracing and flight-recorder planes"
echo "$STATUS" | grep -q '"tracing"' || fail "/statusz missing tracing block"
echo "$STATUS" | grep -q '"flight"' || fail "/statusz missing flight block"
echo "$STATUS" | grep -q '"sample_rate": *1' || fail "/statusz tracing block missing sample_rate"

echo "== cross-process span stitching (sccctl trace -txn)"
# Pick a transaction the restarted coordinator released (its span feed
# holds only what it ran, so the coordinator side of the timeline is
# there), then ask sccctl to reconstruct its cluster-wide causal
# timeline: rows must come from both the coordinator and a site daemon,
# and the chain must end in a release.
TXN=$(curl -sf "http://127.0.0.1:$P_DBG_CO/tracez?fmt=spans" | tr -d ' \n' \
  | grep -o '"kind":"release","txn":[0-9]*' | tail -1 | grep -o '[0-9]*$') \
  || fail "no release span retained at the restarted coordinator"
[ -n "$TXN" ] || fail "could not pick a released txn from the restarted coordinator's span feed"
"$BIN/sccctl" -config "$CFG" trace -txn "$TXN" > "$LOG/timeline.log" 2>&1 || {
  cat "$LOG/timeline.log" >&2; fail "sccctl trace -txn $TXN"
}
grep -q "span(s) across the cluster" "$LOG/timeline.log" || fail "timeline header missing"
grep -q ' coord ' "$LOG/timeline.log" || fail "timeline for txn $TXN has no coordinator spans"
grep -Eq ' site[01] ' "$LOG/timeline.log" || fail "timeline for txn $TXN has no site-daemon spans"
grep -q ' release ' "$LOG/timeline.log" || fail "timeline for txn $TXN never releases"
echo "timeline for txn $TXN stitched from coordinator + site daemon spans:"
head -5 "$LOG/timeline.log"

echo "== slowest traces and Chrome export (sccctl trace -slowest/-chrome)"
"$BIN/sccctl" -config "$CFG" trace -slowest 3 -chrome "$DIR/trace.json" > "$LOG/slowest.log" 2>&1 || {
  cat "$LOG/slowest.log" >&2; fail "sccctl trace -slowest"
}
grep -q 'slowest 3 of' "$LOG/slowest.log" || fail "slowest ranking missing"
grep -q '"traceEvents"' "$DIR/trace.json" || fail "Chrome trace export is not a trace_event document"
if [ -n "${FLIGHT_OUT:-}" ]; then
  cp "$DIR/trace.json" "$FLIGHT_OUT"/cluster-trace.json 2>/dev/null || true
fi

echo "== clean daemon shutdown via sccctl kill"
"$BIN/sccctl" -config "$CFG" kill -daemon 0 || fail "kill daemon 0"
"$BIN/sccctl" -config "$CFG" kill -daemon 1 || fail "kill daemon 1"

echo "SMOKE PASS"
