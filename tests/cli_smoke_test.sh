#!/usr/bin/env bash
# End-to-end smoke test of examples/anc_cli: drives the binary through its
# stdin command language and checks the printed answers.
#
#   tests/cli_smoke_test.sh <path-to-anc_cli> [<path-to-trace_check>]
#
# With one argument it covers one durable 2-shard session (start ->
# submit-file -> flush-durable -> checkpoint -> view-clusters -> stop ->
# recover -> view-local -> stop, with the recovered local cluster required
# to equal the pre-stop one), one tiered 1-shard session, a net-serve +
# connect + remote-local round trip, and the removal of the old per-family
# verbs (shard-start must print "unknown command"). Registered with ctest
# as AncCliSmokeTest.
#
# With trace_check as the second argument it instead runs one traced
# 2-shard session (trace-open -> start -> submit-file -> flush ->
# view-clusters -> view-local -> trace-close) and validates the trace:
# well-formed, properly nested spans, queue-wait/apply and query/gather
# correlation, and the ingest, serve and shard span names all present.
# Registered with ctest as AncCliTraceTest.
set -euo pipefail

cli="${1:?usage: cli_smoke_test.sh <anc_cli> [<trace_check>]}"
trace_check="${2:-}"
work="$(mktemp -d "${TMPDIR:-/tmp}/anc_cli_smoke.XXXXXX")"
pid=""
cleanup() {
  if [[ -n "$pid" ]]; then kill "$pid" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*"
  echo "--- anc_cli output ---"
  cat "$work/out"
  exit 1
}

# An activation file over the low node ids of the gen-ba graph: BA hubs are
# the oldest nodes, so most of these pairs are edges; the rest are skipped
# and counted by submit-file, as is the malformed last line.
t=0
for _ in 1 2 3 4 5 6; do
  for u in $(seq 0 11); do
    for v in $(seq $((u + 1)) 11); do
      t=$((t + 1))
      echo "$u $v $t"
    done
  done
done > "$work/acts.txt"
echo "not an activation" >> "$work/acts.txt"

if [[ -n "$trace_check" ]]; then
  printf '%s\n' "gen-ba 200 3" \
                "trace-open $work/trace.jsonl" \
                "start 2 ldg" \
                "submit-file $work/acts.txt" \
                "flush" \
                "view-clusters" \
                "view-local 3 2" \
                "trace-close" \
                "stop" \
                "quit" | "$cli" > "$work/out" 2>&1 ||
    fail "anc_cli exited with status $?"
  grep -q "^> trace closed: $work/trace.jsonl" "$work/out" ||
    fail "missing 'trace closed'"
  "$trace_check" "$work/trace.jsonl" \
    ingest.queue_wait serve.apply serve.publish \
    shard.query_clusters shard.gather shard.merge ||
    fail "trace_check rejected $work/trace.jsonl"
  echo "PASS"
  exit 0
fi

mkfifo "$work/in"
"$cli" < "$work/in" > "$work/out" 2>&1 &
pid=$!
exec 3> "$work/in"

send() { printf '%s\n' "$@" >&3; }

# Waits until the output holds a line matching `pattern`; the CLI flushes
# each answer when it prints its next prompt.
wait_for() {
  for _ in $(seq 1 300); do
    if grep -q -- "$1" "$work/out"; then return 0; fi
    sleep 0.1
  done
  fail "timed out waiting for '$1'"
}

send "gen-ba 200 3" \
     "start 2 ldg $work/durable" \
     "submit-file $work/acts.txt" \
     "flush-durable" \
     "checkpoint" \
     "view-clusters" \
     "view-local 3 2" \
     "status" \
     "stop" \
     "recover $work/durable" \
     "view-local 3 2" \
     "stop" \
     "shard-start 2" \
     "start 1 hash $work/tiered 8192" \
     "submit-file $work/acts.txt" \
     "flush-durable" \
     "checkpoint" \
     "status" \
     "stop" \
     "start 2 ldg" \
     "submit-file $work/acts.txt" \
     "flush" \
     "net-serve 0"
wait_for "^> rpc: serving 2 shard(s) on 127.0.0.1:"
port="$(sed -n 's/.*rpc: serving 2 shard(s) on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$work/out")"
send "connect 127.0.0.1 $port" \
     "remote-local 3 2" \
     "view-local 3 2" \
     "disconnect" \
     "stop" \
     "quit"
exec 3>&-
wait "$pid" || fail "anc_cli exited with status $?"
pid=""

out="$work/out"
expect() {
  grep -q -- "$1" "$out" || fail "missing '$1'"
}

# Durable 2-shard session.
expect "serving 2 shard(s): .* | durability $work/durable$"
expect "^> submitted [1-9][0-9]* activations through ticket [1-9][0-9]* ([1-9][0-9]* lines skipped)"
expect "^> durable: seq=[1-9]"
expect "^> checkpoint rotated on 2 shard(s)"
expect "^> snapshot at watermark seq [1-9][0-9]*:"
expect "clusters over 200 nodes"
expect "^  shard 1: accepted=[1-9].* | store generation="
expect "^> stopped 2 shard(s) at watermark seq=[1-9][0-9]* .* | store=OK"
expect "^> recovered 2 shard(s): "
expect "^  shard 0: watermark seq=[1-9]"
before="$(grep "snapshot cluster of 3 at level 2" "$out" | sed -n 1p)"
after="$(grep "snapshot cluster of 3 at level 2" "$out" | sed -n 2p)"
[[ -n "$before" && "$before" == "$after" ]] ||
  fail "recovered local cluster differs: '$before' vs '$after'"

# The per-family verbs are gone.
expect "^> unknown command: shard-start"

# Tiered 1-shard session.
expect "serving 1 shard(s): .* tier budget 8192 bytes/shard"
expect "^> checkpoint rotated on 1 shard(s)"
expect "^  shard 0: .* | tier resident=[0-9]*/8192 cold=[1-9]"

# Net round trip: the remote answer matches the in-process one.
expect "^> connected: watermark seq="
remote="$(grep -E "^> level 2:" "$out" | sed -n 1p | sed 's/^> level 2://; s/  (.*//')"
local_members="$(grep "snapshot cluster of 3 at level 2" "$out" | sed -n 3p |
  sed 's/.*members)://')"
[[ -n "$remote" && "$remote" == "$local_members" ]] ||
  fail "remote-local differs from view-local: '$remote' vs '$local_members'"
expect "^> disconnected"
expect "^> rpc: stopped"

echo "PASS"
