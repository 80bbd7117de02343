#!/usr/bin/env bash
# Tier-1 verification plus hardened configurations:
#   default     default build + full ctest          (the tier-1 gate)
#   nometrics   ANC_METRICS=OFF build + full ctest  (no-op escape hatch compiles)
#   asan        ASan/UBSan build + full ctest       (memory/UB audit)
#   tsan        TSan build + full ctest             (race audit of the thread
#               pool, metric shards, Lemma-13 parallel updates and the
#               serving stack, docs/serving.md)
#   invariants  ANC_CHECK_INVARIANTS=ON + full ctest (lemma-level validators
#               armed in the update path)
#   store-crash ASan/UBSan build, durability fault-injection suite only
#               (store_test crash matrix + persistence corruption tests,
#               docs/durability.md)
#   tier        ASan/UBSan build, tiered-storage suite only: segment
#               round-trip/corruption units, budgeted spill + compaction
#               byte-identity differentials, tiered recovery and the
#               crash-seam matrix (mid-segment-write, pre-manifest-swap,
#               mid-compaction), and the server-driven quiescent-point
#               maintenance test (docs/storage_tiers.md)
#   shard       TSan build, sharding suite only: partitioner/router/
#               ShardedServer differential + recovery tests and the
#               racing-producers scatter-gather stress in
#               concurrency_test.cc (docs/sharding.md)
#   tsa         Clang Thread Safety Analysis build
#               (-DANC_THREAD_SAFETY=ON, -Werror=thread-safety): every
#               GUARDED_BY / REQUIRES contract in serve/shard/store/obs/
#               thread_pool is checked at compile time
#               (docs/static_analysis.md). Self-skips with a message when
#               no clang++ is installed — the annotations are no-ops under
#               GCC, so a GCC "pass" would be meaningless.
#   rebalance   TSan build, adaptive re-partitioning suite only:
#               Fennel/HDRF partitioner units, cut-drift monitor +
#               planner units, live-migration differentials (byte-
#               identity vs the unsharded oracle before/during/after a
#               handoff), the migration crash-seam matrix, and the
#               concurrent ingest-during-migration stress
#               (docs/sharding.md "Rebalancing & live migration")
#   net         TSan build, networking suite only: RPC frame/body codec
#               units, query-cache semantics, loopback client/server
#               end-to-end (byte-identity vs. the in-process view, tenant
#               quotas, garbage connections) and the replication chain
#               (WAL shipping, follower staleness barrier) — plus a
#               net_durable smoke run of perfbench_driver under TSan
#               (scripts/perfbench_smoke.sh, docs/networking.md)
#   fuzz-smoke  ASan/UBSan build of the fuzz/ harnesses, replayed over the
#               checked-in corpora (plus bounded deterministic mutations)
#               by the standalone driver: WAL frames, checkpoints +
#               MANIFEST, obs JSON, activation streams. Malformed input
#               must come back as a Status, never a crash/leak/UB. Also
#               covers ANCSEG01 cold-segment parsing (fuzz_segment) and
#               ANCMIG01 migration journals (fuzz_journal).
#
# Usage: scripts/check.sh [--fast] [config ...]
#   With no arguments every configuration runs. Naming one or more configs
#   (e.g. `scripts/check.sh tsan` in a CI job) builds and tests only those.
#   --fast is an alias for `default`.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

run_config() {
  local dir=$1
  shift
  echo "=== [$dir] cmake $* ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_one() {
  case "$1" in
    default)
      run_config build
      ;;
    nometrics)
      run_config build-nometrics -DANC_METRICS=OFF
      ;;
    asan)
      run_config build-asan -DANC_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
      ;;
    tsan)
      run_config build-tsan -DANC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
      ;;
    invariants)
      run_config build-invariants -DANC_CHECK_INVARIANTS=ON
      ;;
    store-crash)
      # The fault-injection matrix under ASan: simulated crashes at every
      # seam, torn tails, corrupt checkpoints/manifests — the durability
      # suite, without re-running the full tier-1 battery.
      local dir=build-asan
      echo "=== [$dir] store-crash (fault-injection under ASan) ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANC_SANITIZE=address
      cmake --build "$dir" -j "$JOBS" --target store_test persistence_test
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        -R '^(WalTest|StoreCrashMatrixTest|StoreRecoveryTest|DurableServeTest|SerializationTest)\.'
      ;;
    tier)
      # The tiered-storage suite under ASan: cold-segment format units,
      # budgeted spill and compaction byte-identity differentials against
      # the untiered index, tiered recovery, the tier crash-seam matrix,
      # and tiered ShardedServer serving (per-shard maintenance at the
      # writers' quiescent points, RecoverAll) — without re-running the
      # full tier-1 battery.
      local dir=build-asan
      echo "=== [$dir] tier (tiered-storage suite under ASan) ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANC_SANITIZE=address
      cmake --build "$dir" -j "$JOBS" --target tier_test store_test
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        -R '^(SegmentTest|TieredStoreTest|TieredHeadTest|TierRecoveryTest|TierCrashMatrixTest|TierServeTest|StoreRecoveryTest)\.'
      ;;
    shard)
      # The sharding suite under TSan: partition/router unit tests, the
      # byte-identity and quality differentials, per-shard crash recovery,
      # and the racing-producers scatter-gather stress — without re-running
      # the full tier-1 battery.
      local dir=build-tsan
      echo "=== [$dir] shard (sharding suite under TSan) ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANC_SANITIZE=thread
      cmake --build "$dir" -j "$JOBS" --target shard_test concurrency_test
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        -R '^(ShardPartitionerTest|ShardRouterTest|ShardedServerTest|ShardRecoveryTest|ShardStressTest)\.'
      ;;
    rebalance)
      # The adaptive re-partitioning suite under TSan: streaming
      # partitioner units, monitor/planner units, and the live-migration
      # stack — migration runs concurrently with ingest, so the handoff
      # protocol (route lock, frontier tickets, side-buffer, epoch swap)
      # is the raciest new surface. Crash seams re-run under the asan
      # config via the full battery.
      local dir=build-tsan
      echo "=== [$dir] rebalance (re-partitioning suite under TSan) ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANC_SANITIZE=thread
      cmake --build "$dir" -j "$JOBS" --target rebalance_test
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        -R '^(RebalancePartitionerTest|ActivityTrackerTest|CutMonitorTest|RebalancePlanTest|MigrationJournalTest|LiveMigrationTest|MigrationCrashTest|MigrationStressTest|RebalanceRouterTest|RebalanceHealthTest|RebalancerTest)\.'
      ;;
    net)
      # The networking suite under TSan: codec + cache units, the loopback
      # end-to-end matrix, and leader/follower replication with its pause/
      # resume staleness stall — the raciest surfaces in src/net/. Finishes
      # with a net_durable smoke run of perfbench_driver (acceptor, workers,
      # client connections and the durable per-shard writers all live at
      # once).
      local dir=build-tsan
      echo "=== [$dir] net (networking suite under TSan) ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANC_SANITIZE=thread
      cmake --build "$dir" -j "$JOBS" --target net_test
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        -R '^(NetProtocolTest|QueryCacheTest|NetServerTest|NetReplicationTest)\.'
      scripts/perfbench_smoke.sh thread net_durable
      ;;
    tsa)
      # Compile-time lock-discipline audit. Build-only: the point is the
      # -Werror=thread-safety diagnostics, and runtime behavior is already
      # covered by the tsan configuration (annotations must not change it).
      if ! command -v clang++ >/dev/null 2>&1; then
        echo "=== [tsa] SKIPPED: clang++ not found (Thread Safety Analysis" \
          "is Clang-only; install clang or rely on the CI tsa job) ==="
        return 0
      fi
      local dir=build-tsa
      echo "=== [$dir] Clang Thread Safety Analysis (-Werror=thread-safety) ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_COMPILER=clang++ -DANC_THREAD_SAFETY=ON
      cmake --build "$dir" -j "$JOBS"
      ;;
    fuzz-smoke)
      # Bounded fuzz replay under ASan/UBSan: every harness over its
      # checked-in corpus plus ANC_FUZZ_MUTATIONS deterministic mutations
      # per input. Any crash, leak or sanitizer report fails the run.
      local dir=build-fuzz
      echo "=== [$dir] fuzz-smoke (corpus replay under ASan/UBSan) ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANC_FUZZ=ON -DANC_SANITIZE=address
      cmake --build "$dir" -j "$JOBS" \
        --target fuzz_wal fuzz_index fuzz_json fuzz_stream fuzz_rpc \
                 fuzz_segment fuzz_journal
      local target
      for target in wal index json stream rpc segment journal; do
        echo "--- fuzz_$target over fuzz/corpus/$target ---"
        ASAN_OPTIONS=detect_leaks=1 \
          ANC_FUZZ_MUTATIONS="${ANC_FUZZ_MUTATIONS:-256}" \
          "$dir/fuzz/fuzz_$target" "fuzz/corpus/$target"
      done
      ;;
    *)
      echo "unknown configuration '$1'" >&2
      echo "known: default nometrics asan tsan invariants store-crash tier shard rebalance net tsa fuzz-smoke" >&2
      exit 2
      ;;
  esac
}

CONFIGS=()
for arg in "$@"; do
  if [[ "$arg" == "--fast" ]]; then
    CONFIGS+=(default)
  else
    CONFIGS+=("$arg")
  fi
done
if [[ ${#CONFIGS[@]} -eq 0 ]]; then
  CONFIGS=(default nometrics asan tsan invariants)
fi

for config in "${CONFIGS[@]}"; do
  run_one "$config"
done

echo "=== configurations passed: ${CONFIGS[*]} ==="
