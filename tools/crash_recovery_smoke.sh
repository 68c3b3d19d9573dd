#!/usr/bin/env bash
# Crash-recovery smoke test (DESIGN.md §9): start the tuning daemon with
# round-interval autosave, tune two simulator tenants and one mini-engine
# tenant for a few rounds, SIGKILL it mid-flight, restart with --restore,
# and require every restored session trajectory to be byte-identical to the
# pre-kill one — then keep tuning to completion over the same protocol. A second phase repeats the exercise against the safety
# guardrail (DESIGN.md §12): a guarded session with an injected regression
# is killed -9 right after its rollback fired, and the restore must land
# the tenant back on its last-known-good config with identical guardrail
# telemetry. A third phase sends hostile requests (an endless stress test,
# a 10^8-wide agent, a repeated key, an over-cap ROUND) to a fresh daemon,
# which must refuse each with ERR, still answer PING, and hand the first
# OPEN after them id 0 (a refused OPEN takes no id). The daemon listens
# on an ephemeral loopback TCP port; every start reads the bound port from
# the daemon's "listening on tcp" line. A malformed flag value must be
# rejected with exit status 2. Usage:
#
#   tools/crash_recovery_smoke.sh [path/to/cdbtune_serve]
#
# Exits non-zero on any mismatch; this is the CI crash-recovery job.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SERVE="${1:-$ROOT/build/examples/cdbtune_serve}"
CKPT="$(mktemp -u /tmp/cdbtune_smoke_XXXXXX.ckpt)"
CKPT2="$(mktemp -u /tmp/cdbtune_smoke_guard_XXXXXX.ckpt)"
LOG="$(mktemp /tmp/cdbtune_smoke_XXXXXX.log)"
DAEMON_PID=""
ADDR=""

cleanup() {
  [[ -n "$DAEMON_PID" ]] && kill -9 "$DAEMON_PID" 2> /dev/null || true
  rm -f "$CKPT" "$CKPT".[0-9]* "$CKPT2" "$CKPT2".[0-9]* "$LOG"
}
trap cleanup EXIT

send() {
  "$SERVE" --send "$ADDR" "$@"
}

fail_with_log() {
  echo "FAIL: $1" >&2
  sed 's/^/   daemon: /' "$LOG" >&2
  exit 1
}

# Starts the daemon on 127.0.0.1:0 with the given flags, reads the port it
# bound from its log, and waits until it answers PING.
start_daemon() {
  "$SERVE" --listen 127.0.0.1:0 "$@" > "$LOG" 2>&1 &
  DAEMON_PID=$!
  ADDR=""
  for _ in $(seq 1 150); do
    if [[ -z "$ADDR" ]]; then
      ADDR="$(sed -n 's/^listening on tcp \([0-9.]*:[0-9]*\).*/\1/p' "$LOG")"
    fi
    if [[ -n "$ADDR" ]] && send PING > /dev/null 2>&1; then
      echo "   daemon pid $DAEMON_PID on $ADDR"
      return 0
    fi
    kill -0 "$DAEMON_PID" 2> /dev/null || fail_with_log "daemon exited early"
    sleep 0.2
  done
  fail_with_log "daemon never answered PING"
}

echo "== malformed flag values are rejected with exit status 2"
for bad in "127.0.0.1:http" "127.0.0.1:0 --max-conns abc" \
           "127.0.0.1:0 --autosave x" "127.0.0.1:0 --safety-margin 1e"; do
  status=0
  # shellcheck disable=SC2086  # Split the case into argv on purpose.
  timeout 30 "$SERVE" --listen $bad > /dev/null 2>&1 || status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "FAIL: --listen $bad exited $status, want 2" >&2
    exit 1
  fi
  echo "   --listen $bad -> exit 2"
done

echo "== start daemon with autosave -> $CKPT"
start_daemon --checkpoint "$CKPT" --autosave 1

echo "== open three sessions (one on the mini engine), tune two rounds" \
     "(each round autosaves)"
send 'OPEN engine=sim workload=sysbench_rw seed=7 steps=5' \
     'OPEN engine=sim workload=tpcc seed=11 steps=5' \
     'OPEN engine=mini workload=tpcc seed=13 steps=5 rows=2000 stress_s=10 ram_gb=8 disk_gb=300' \
     'ROUND n=2'
BEFORE_S0="$(send 'STATUS id=0')"
BEFORE_S1="$(send 'STATUS id=1')"
BEFORE_S2="$(send 'STATUS id=2')"
echo "   pre-kill:  $BEFORE_S0"
echo "   pre-kill:  $BEFORE_S1"
echo "   pre-kill:  $BEFORE_S2"
[[ "$BEFORE_S0" == *"steps=2"* ]] || {
  echo "FAIL: expected 2 steps before the kill" >&2
  exit 1
}

echo "== kill -9 the daemon mid-tuning"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
[[ -f "$CKPT" ]] || {
  echo "FAIL: autosave checkpoint $CKPT missing" >&2
  exit 1
}

echo "== restart with --restore"
start_daemon --checkpoint "$CKPT" --restore

AFTER_S0="$(send 'STATUS id=0')"
AFTER_S1="$(send 'STATUS id=1')"
AFTER_S2="$(send 'STATUS id=2')"
echo "   restored:  $AFTER_S0"
echo "   restored:  $AFTER_S1"
echo "   restored:  $AFTER_S2"
if [[ "$AFTER_S0" != "$BEFORE_S0" || "$AFTER_S1" != "$BEFORE_S1" ||
      "$AFTER_S2" != "$BEFORE_S2" ]]; then
  echo "FAIL: restored session status differs from pre-kill status" >&2
  exit 1
fi

echo "== finish tuning on the restored server"
FINAL_ROUND="$(send 'ROUND n=10')"
echo "   $FINAL_ROUND"
[[ "$FINAL_ROUND" == OK* ]] || {
  echo "FAIL: post-restore ROUND failed" >&2
  exit 1
}
for id in 0 1 2; do
  CLOSED="$(send "CLOSE id=$id")"
  echo "   $CLOSED"
  [[ "$CLOSED" == OK* && "$CLOSED" == *"steps=5"* ]] || {
    echo "FAIL: session $id did not finish its 5-step budget" >&2
    exit 1
  }
done
send SHUTDOWN > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""

echo "== phase 2: guardrail rollback survives kill -9"
echo "== start guarded daemon with autosave -> $CKPT2"
start_daemon --checkpoint "$CKPT2" --autosave 1 \
  --safety on --safety-margin 0.02 --safety-k 2 --safety-drift 100

# One guarded tenant whose simulated instance degrades every post-baseline
# stress run in proportion to how far the buffer pool moved from default:
# regressions are guaranteed, so K=2 consecutive violations (and the
# rollback) arrive within the step budget.
send 'OPEN engine=sim workload=sysbench_rw seed=19 steps=8 safety=1 degrade=innodb_buffer_pool_size degrade_after=1 degrade_sev=0.9' \
  > /dev/null

GUARD_STATUS=""
for _ in $(seq 1 8); do
  send 'ROUND n=1' > /dev/null
  GUARD_STATUS="$(send 'STATUS id=0')"
  if [[ "$GUARD_STATUS" != *"rollbacks=0"* && \
        "$GUARD_STATUS" == *"on_lkg=1"* ]]; then
    break
  fi
done
echo "   pre-kill:  $GUARD_STATUS"
[[ "$GUARD_STATUS" != *"rollbacks=0"* && "$GUARD_STATUS" == *"on_lkg=1"* ]] || {
  echo "FAIL: guarded session never rolled back onto last-known-good" >&2
  exit 1
}

echo "== kill -9 the daemon right after the rollback round autosaved"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
[[ -f "$CKPT2" ]] || {
  echo "FAIL: autosave checkpoint $CKPT2 missing" >&2
  exit 1
}

echo "== restart with --restore (guardrail flags must match the save)"
start_daemon --checkpoint "$CKPT2" --restore \
  --safety on --safety-margin 0.02 --safety-k 2 --safety-drift 100

RESTORED_STATUS="$(send 'STATUS id=0')"
echo "   restored:  $RESTORED_STATUS"
if [[ "$RESTORED_STATUS" != "$GUARD_STATUS" ]]; then
  echo "FAIL: restored guardrail status differs from pre-kill status" >&2
  exit 1
fi
[[ "$RESTORED_STATUS" == *"on_lkg=1"* ]] || {
  echo "FAIL: restored tenant is not on its last-known-good config" >&2
  exit 1
}

echo "== finish tuning on the restored guarded server"
FINAL_ROUND="$(send 'ROUND n=10')"
[[ "$FINAL_ROUND" == OK* ]] || {
  echo "FAIL: post-restore ROUND failed on the guarded server" >&2
  exit 1
}
CLOSED="$(send 'CLOSE id=0')"
echo "   $CLOSED"
[[ "$CLOSED" == OK* && "$CLOSED" == *"steps=8"* ]] || {
  echo "FAIL: guarded session did not finish its 8-step budget" >&2
  exit 1
}
send SHUTDOWN > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""

echo "== phase 3: hostile requests are refused and the daemon keeps serving"
# Its own daemon, so the id check below starts from a server with no
# sessions opened.
start_daemon
for request in 'OPEN engine=sim stress_s=1e300' 'STEP id=0' \
               'REBUILD actor_hidden=100000000-100000000' \
               'OPEN engine=sim seed=1 seed=2' 'ROUND n=101'; do
  # No session was opened, so the STEP is refused for its own reason.
  want="ERR INVALID_ARGUMENT"
  [[ "$request" == STEP* ]] && want="ERR"
  REPLY_LINE="$(send "$request")" || fail_with_log "no reply to '$request'"
  echo "   $request -> $REPLY_LINE"
  [[ "$REPLY_LINE" == "$want "* ]] ||
    fail_with_log "'$request' got '$REPLY_LINE', want '$want ...'"
done
PONG="$(send PING)" || fail_with_log "no reply to PING after hostile requests"
[[ "$PONG" == "OK pong=1" ]] || fail_with_log "PING got '$PONG'"
OPENED="$(send 'OPEN engine=sim steps=1')" ||
  fail_with_log "no reply to OPEN after hostile requests"
echo "   OPEN engine=sim steps=1 -> $OPENED"
[[ "$OPENED" == "OK id=0 "* ]] ||
  fail_with_log "a refused OPEN took a session id: got '$OPENED'"
send SHUTDOWN > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""

echo "PASS: kill -9 + --restore resumed the exact pre-kill trajectory," \
     "guardrail state and last-known-good config included; hostile" \
     "requests were refused without taking the daemon down"
