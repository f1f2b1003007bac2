#!/usr/bin/env bash
# Deterministic soak (tier-2): seeded open-loop traffic from bench_load
# against a real chocoq_serve process over loopback, then a clean
# SIGTERM drain. bench_load --check turns any protocol violation into a
# nonzero exit: malformed lines, per-connection sequence regressions,
# lost/duplicated/cross-connection responses, and a failed final
# counter reconciliation against the {"type":"stats"} probe.
#
# Opt-in by configuration so plain `ctest` (tier-1) never pays for it:
#   ctest -C soak -L soak --output-on-failure
# CHOCOQ_SOAK_SECONDS scales the traffic duration (default 60; CI uses
# a shorter window).
set -euo pipefail

BUILD_DIR="${1:-$(pwd)}"
SERVE="$BUILD_DIR/chocoq_serve"
BENCH="$BUILD_DIR/bench_load"
SECS="${CHOCOQ_SOAK_SECONDS:-60}"

for bin in "$SERVE" "$BENCH"; do
  if [ ! -x "$bin" ]; then
    echo "run_soak: missing binary $bin" >&2
    exit 1
  fi
done

workdir=$(mktemp -d)
server_pid=
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -KILL "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

# Ephemeral port; the server writes the bound port to a file.
"$SERVE" --listen 0 --workers 2 --quiet \
  --port-file "$workdir/port.txt" &
server_pid=$!

for _ in $(seq 1 100); do
  [ -s "$workdir/port.txt" ] && break
  sleep 0.1
done
if [ ! -s "$workdir/port.txt" ]; then
  echo "run_soak: server never wrote its port file" >&2
  exit 1
fi
port=$(cat "$workdir/port.txt")

echo "run_soak: ${SECS}s of open-loop traffic at 64 connections (port $port)"
"$BENCH" --port "$port" --connections 64 --rates 100 \
  --duration-s "$SECS" --seed 7 --check \
  --out "$workdir/BENCH_soak.json"

# Graceful drain: SIGTERM must finish in-flight work and exit 0.
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=
if [ "$rc" -ne 0 ]; then
  echo "run_soak: server exited $rc after SIGTERM (expected 0)" >&2
  exit 1
fi
echo "run_soak: ok"
