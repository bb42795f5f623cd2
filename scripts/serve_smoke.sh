#!/bin/sh
# End-to-end smoke test for the serving path: start gnumapd against a
# simulated workload, map the same reads through gnumap_client and the
# offline gnumap_snp_cli, and require byte-identical TSV and SAM outputs,
# then shut the server down gracefully and check it exits 0.  The server
# runs with its admin HTTP endpoint enabled, so the byte-identity checks
# double as "admin on changes nothing", and /healthz /metrics /statusz are
# validated over HTTP (python3 stdlib; skipped if python3 is missing).
#
# Fails fast: every client call runs under a hard deadline, and any
# timeout or mismatch dumps the server log before exiting, so a wedged
# run leaves a diagnosis instead of a hung CI job.  GNUMAP_WIRE_FAULT_PLAN
# is honoured by gnumapd, so the same script doubles as the chaos-matrix
# driver.
#
# With a sixth argument (the gnumap_index binary) the script also runs the
# fleet legs: a cold mmap instant-start drill (build the index file, start
# a daemon from it, require byte-identical output and a >=10x
# load-vs-rebuild speedup via bench_compare.py --startup), and a
# scatter/gather router over two shard daemons whose output must be
# byte-identical to the single daemon's.
#
#   serve_smoke.sh SIM_CLI SNP_CLI GNUMAPD GNUMAP_CLIENT WORKDIR [GNUMAP_INDEX]
set -eu

SIM_CLI=$1
SNP_CLI=$2
GNUMAPD=$3
CLIENT=$4
WORK=$5
INDEX_CLI=${6:-}

# Bound every client transaction; generous, because CI machines are slow
# and a fault plan may be stalling the wire on purpose.
CLIENT_DEADLINE_MS=${SERVE_SMOKE_DEADLINE_MS:-120000}

rm -rf "$WORK"
mkdir -p "$WORK"

SERVER_PID=
EXTRA_PIDS=

dump_server_log() {
  for log in "$WORK/server.log" "$WORK/cold.log" "$WORK/shard0.log" \
             "$WORK/shard1.log" "$WORK/router.log"; do
    if [ -s "$log" ]; then
      echo "serve_smoke: ---- $(basename "$log") ----" >&2
      cat "$log" >&2
      echo "serve_smoke: ---- end $(basename "$log") ----" >&2
    fi
  done
}

kill_all() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  for pid in $EXTRA_PIDS; do
    kill "$pid" 2>/dev/null || true
  done
}

fail() {
  echo "serve_smoke: $1" >&2
  dump_server_log
  kill_all
  exit 1
}

# Waits for a daemon to publish its port file (index build/load happens
# before listening).
wait_port() {
  port_file=$1
  pid=$2
  name=$3
  tries=0
  while [ ! -s "$port_file" ]; do
    kill -0 "$pid" 2>/dev/null || fail "$name died before listening"
    tries=$((tries + 1))
    if [ "$tries" -gt 300 ]; then
      fail "$name never wrote its port file (timed out after 30 s)"
    fi
    sleep 0.1
  done
}

"$SIM_CLI" --out "$WORK/sim" --length 60000 --coverage 8

"$SNP_CLI" --ref "$WORK/sim/reference.fa" --reads "$WORK/sim/reads.fastq" \
  --out "$WORK/offline.tsv" --sam "$WORK/offline.sam" --threads 2 --quiet

"$GNUMAPD" --ref "$WORK/sim/reference.fa" --threads 2 \
  --port-file "$WORK/port" \
  --admin-port 0 --admin-port-file "$WORK/admin_port" \
  > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
trap kill_all EXIT

wait_port "$WORK/port" "$SERVER_PID" "server"

"$CLIENT" --port-file "$WORK/port" --reads "$WORK/sim/reads.fastq" \
  --out "$WORK/served.tsv" --sam "$WORK/served.sam" \
  --deadline-ms "$CLIENT_DEADLINE_MS" --connect-retries 5 --quiet \
  || fail "map request failed"

cmp "$WORK/offline.tsv" "$WORK/served.tsv" \
  || fail "served TSV differs from the offline CLI"
cmp "$WORK/offline.sam" "$WORK/served.sam" \
  || fail "served SAM differs from the offline CLI"

"$CLIENT" --port-file "$WORK/port" --health > "$WORK/health.txt" \
  || fail "HEALTH probe failed"
grep -q "^ready=1" "$WORK/health.txt" || fail "server not ready after a map"

"$CLIENT" --port-file "$WORK/port" --stats > "$WORK/stats.txt" \
  || fail "STATS probe failed"
grep -q "^requests_total=" "$WORK/stats.txt" || fail "stats missing counters"
grep -q "^digest_requests=" "$WORK/stats.txt" \
  || fail "stats missing the request-digest counters"

# Admin HTTP endpoint: /healthz, /metrics, and /statusz must answer and
# reflect the request that just ran.
if command -v python3 > /dev/null 2>&1; then
  ADMIN_PORT=$(cat "$WORK/admin_port")
  python3 - "$ADMIN_PORT" <<'EOF' || fail "admin endpoint validation failed"
import json, sys, urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"

health = urllib.request.urlopen(f"{base}/healthz", timeout=10).read().decode()
assert health.startswith("ready=1"), f"/healthz not ready:\n{health}"

metrics = urllib.request.urlopen(f"{base}/metrics", timeout=10).read().decode()
assert "# TYPE gnumap_serve_requests_total counter" in metrics, metrics[:400]
assert any(
    line.startswith("gnumap_serve_requests_total ")
    and float(line.split()[1]) >= 1
    for line in metrics.splitlines()
), "/metrics does not count the completed request"

status = json.load(urllib.request.urlopen(f"{base}/statusz", timeout=10))
assert status["counters"]["requests_total"] >= 1, status
assert status["session"]["genome_bases"] > 0, status
assert status["digests"]["recorded"] >= 1, status

tracez = json.load(urllib.request.urlopen(f"{base}/tracez", timeout=10))
assert tracez["slowest_recent_requests"], tracez
print("serve_smoke: admin endpoint OK")
EOF
else
  echo "serve_smoke: python3 not found, skipping admin endpoint checks" >&2
fi

"$CLIENT" --port-file "$WORK/port" --shutdown || fail "SHUTDOWN failed"
wait "$SERVER_PID" || fail "server exited nonzero after drain"
SERVER_PID=

if [ -n "$INDEX_CLI" ]; then
  # ---- Fleet leg 1: cold mmap instant start -------------------------------
  # Build the index file offline, start a daemon that mmap()s it, and
  # require the same bytes as the offline CLI plus a >=10x load-vs-rebuild
  # speedup (the contract the file format exists to honour).
  "$INDEX_CLI" --ref "$WORK/sim/reference.fa" --out "$WORK/genome.gidx" \
    --verify --startup-json "$WORK/startup.json" --quiet \
    || fail "gnumap_index failed to build the fleet index file"

  "$GNUMAPD" --index "$WORK/genome.gidx" --threads 2 \
    --port-file "$WORK/cold_port" > "$WORK/cold.log" 2>&1 &
  SERVER_PID=$!
  wait_port "$WORK/cold_port" "$SERVER_PID" "cold-start server"

  "$CLIENT" --port-file "$WORK/cold_port" --reads "$WORK/sim/reads.fastq" \
    --out "$WORK/cold.tsv" --sam "$WORK/cold.sam" \
    --deadline-ms "$CLIENT_DEADLINE_MS" --connect-retries 5 --quiet \
    || fail "map request against the mmap'ed index failed"
  cmp "$WORK/offline.tsv" "$WORK/cold.tsv" \
    || fail "mmap'ed-index TSV differs from the offline CLI"
  cmp "$WORK/offline.sam" "$WORK/cold.sam" \
    || fail "mmap'ed-index SAM differs from the offline CLI"

  "$CLIENT" --port-file "$WORK/cold_port" --stats > "$WORK/cold_stats.txt" \
    || fail "STATS probe on the cold-start server failed"
  grep -q "^resident_bytes=" "$WORK/cold_stats.txt" \
    || fail "cold-start stats missing resident_bytes"
  grep -q "^index_load_seconds=" "$WORK/cold_stats.txt" \
    || fail "cold-start stats missing index_load_seconds"

  "$CLIENT" --port-file "$WORK/cold_port" --shutdown \
    || fail "cold-start SHUTDOWN failed"
  wait "$SERVER_PID" || fail "cold-start server exited nonzero after drain"
  SERVER_PID=

  if command -v python3 > /dev/null 2>&1; then
    python3 "$(dirname "$0")/bench_compare.py" "$WORK/startup.json" \
      --startup || fail "instant-start speedup gate failed"
  else
    echo "serve_smoke: python3 not found, skipping the startup gate" >&2
  fi

  # ---- Fleet leg 2: scatter/gather router over two shards -----------------
  # Two daemons each own half the genome; the router fans every chunk out,
  # gathers per-shard partials, and must reproduce the single daemon's
  # output byte for byte.
  "$GNUMAPD" --ref "$WORK/sim/reference.fa" --shard 0/2 --threads 2 \
    --port-file "$WORK/shard0_port" > "$WORK/shard0.log" 2>&1 &
  SHARD0_PID=$!
  EXTRA_PIDS="$EXTRA_PIDS $SHARD0_PID"
  "$GNUMAPD" --ref "$WORK/sim/reference.fa" --shard 1/2 --threads 2 \
    --port-file "$WORK/shard1_port" > "$WORK/shard1.log" 2>&1 &
  SHARD1_PID=$!
  EXTRA_PIDS="$EXTRA_PIDS $SHARD1_PID"
  wait_port "$WORK/shard0_port" "$SHARD0_PID" "shard 0"
  wait_port "$WORK/shard1_port" "$SHARD1_PID" "shard 1"

  "$GNUMAPD" --ref "$WORK/sim/reference.fa" \
    --route "127.0.0.1:$(cat "$WORK/shard0_port"),127.0.0.1:$(cat "$WORK/shard1_port")" \
    --port-file "$WORK/router_port" > "$WORK/router.log" 2>&1 &
  ROUTER_PID=$!
  EXTRA_PIDS="$EXTRA_PIDS $ROUTER_PID"
  wait_port "$WORK/router_port" "$ROUTER_PID" "router"

  "$CLIENT" --port-file "$WORK/router_port" --reads "$WORK/sim/reads.fastq" \
    --out "$WORK/routed.tsv" --sam "$WORK/routed.sam" \
    --deadline-ms "$CLIENT_DEADLINE_MS" --connect-retries 5 --quiet \
    || fail "map request through the router failed"
  cmp "$WORK/served.tsv" "$WORK/routed.tsv" \
    || fail "router TSV differs from the single daemon"
  cmp "$WORK/served.sam" "$WORK/routed.sam" \
    || fail "router SAM differs from the single daemon"

  kill_all
  EXTRA_PIDS=
  echo "serve_smoke: fleet legs OK (cold start and router byte-identical)"
fi

trap - EXIT

echo "serve_smoke: OK (served output byte-identical to offline CLI)"
