#!/usr/bin/env bash
# Sanitizer smoke runs of the serving benchmark: builds perfbench_driver
# (perfbench/) under ASan+UBSan or TSan and runs each named workload for a
# few seconds through the public serving API — producers, the per-shard
# writers, snapshot readers and, for net_durable, the RPC front-end and
# the WAL all live at once.
#
#   scripts/perfbench_smoke.sh <address|thread> <workload>...
#
#   address  -fsanitize=address,undefined (as -DANC_SANITIZE=address)
#   thread   -fsanitize=thread
#
# Each workload runs once as
#   perfbench_driver --workload W --seed 1 --seconds 3 --trace 0
# and the smoke fails on a non-zero exit (a sanitizer report included), on
# attempted == 0, on failed > 0, or on any failed answer check except
# generator_on_schedule: that one checks the open-loop generator's timing,
# which cannot hold under sanitizer slowdown. Timings are not judged here;
# measured runs go through perfbench/run.py.
set -euo pipefail

usage() {
  echo "usage: scripts/perfbench_smoke.sh <address|thread> <workload>..." >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
kind=$1
case "$kind" in
  address) sanitize="address,undefined" ;;
  thread) sanitize="thread" ;;
  *) usage ;;
esac
shift

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
build=".bench_build/smoke-$kind"
flags="-fsanitize=$sanitize -fno-omit-frame-pointer"

cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$sanitize"
cmake --build "$build" -j "$JOBS" --target perfbench_driver

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

work=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT

for workload in "$@"; do
  echo "=== perfbench smoke: $workload under -fsanitize=$sanitize ==="
  out="$work/$workload.out"
  if ! "$build/perfbench_driver" --workload "$workload" --seed 1 \
      --seconds 3 --trace 0 --work-dir "$work/$workload" > "$out"; then
    echo "FAIL: perfbench_driver exited non-zero on $workload" >&2
    exit 1
  fi
  # The result is the JSON object on the last line of stdout.
  tail -n 1 "$out" | python3 -c '
import json, sys
workload = sys.argv[1]
result = json.load(sys.stdin)
exempt = {"generator_on_schedule"}
problems = []
if result.get("attempted", 0) == 0:
    problems.append("attempted == 0")
if result.get("failed", 0) > 0:
    problems.append("failed = %d" % result["failed"])
for check in result.get("checks", []):
    if not check["ok"]:
        note = "check %s failed: %s" % (check["name"], check["detail"])
        if check["name"] in exempt:
            print("  exempt: " + note)
        else:
            problems.append(note)
print("  %s: attempted=%d failed=%d checks=%d" % (
    workload, result.get("attempted", 0), result.get("failed", 0),
    len(result.get("checks", []))))
for problem in problems:
    print("FAIL: %s: %s" % (workload, problem), file=sys.stderr)
sys.exit(1 if problems else 0)
' "$workload"
done
echo "=== perfbench smoke passed: $* ==="
