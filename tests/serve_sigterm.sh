#!/usr/bin/env bash
# `scoded serve` shutdown and `scoded top` attach, driven as a ctest entry:
#   serve_sigterm.sh SCODED_BIN WORK_DIR [WITH_TOP]
#
# 1. A daemon started with --metrics-port 0 is watched by
#    `SCODED_METRICS_PORT=<its metrics port> scoded top --iterations 1`,
#    which must exit 0: the variable is top's --port, and top must not try
#    to open an endpoint of its own on the same port. Skipped when
#    WITH_TOP is 0: a build with observability compiled out has no
#    metrics endpoint.
# 2. Twenty times over, a daemon gets SIGTERM as soon as its listening line
#    appears and must exit 0 after printing "scoded serve: shut down
#    cleanly".
set -u
BIN=$1
WORK=$2/serve_sigterm
WITH_TOP=${3:-1}
mkdir -p "$WORK"
cd "$WORK" || exit 1
PID=""
trap '[ -n "$PID" ] && kill -KILL "$PID" 2>/dev/null' EXIT

fail() {
  echo "FAIL: $*"
  echo "--- stdout"; cat serve.out
  echo "--- stderr"; cat serve.err
  exit 1
}

# Waits (up to 10 s) until FILE contains TEXT.
# Polls with builtins only (no fork per poll), so the SIGTERM that follows
# lands microseconds after the line is written.
wait_for() {
  local deadline=$((SECONDS + 10)) content
  while :; do
    IFS= read -r -d '' content < "$1"
    [[ $content == *"$2"* ]] && return
    ((SECONDS < deadline)) || fail "no '$2' in $1"
  done
}

# Starts a daemon with fresh output files, so an earlier run's lines
# cannot be mistaken for its own.
start() {
  : > serve.out
  : > serve.err
  "$BIN" serve --port 0 "$@" > serve.out 2> serve.err &
  PID=$!
}

# SIGTERMs the daemon and requires a clean exit.
stop_cleanly() {
  kill -TERM "$PID"
  wait "$PID"
  local rc=$?
  PID=""
  [ "$rc" = 0 ] || fail "serve exited $rc after SIGTERM"
  grep -q "scoded serve: shut down cleanly" serve.out || fail "no clean-shutdown line"
}

if [ "$WITH_TOP" = 1 ]; then
  start --metrics-port 0
  wait_for serve.out "listening on"
  wait_for serve.err "metrics endpoint listening"
  METRICS_PORT=$(sed -n 's/.*"metrics endpoint listening","port":\([0-9]*\).*/\1/p' serve.err)
  [ -n "$METRICS_PORT" ] || fail "no metrics port in the log"
  SCODED_METRICS_PORT=$METRICS_PORT "$BIN" top --iterations 1 > top.out 2> top.err ||
    { cat top.err; fail "scoded top with SCODED_METRICS_PORT=$METRICS_PORT failed"; }
  grep -q "scoded top - 127.0.0.1:$METRICS_PORT" top.out || fail "top rendered no frame"
  stop_cleanly
  echo "ok: top attached via SCODED_METRICS_PORT=$METRICS_PORT"
fi

for i in $(seq 1 20); do
  start
  wait_for serve.out "listening on"
  stop_cleanly
done
echo "ok: 20 SIGTERM shutdowns were clean"
