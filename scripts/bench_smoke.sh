#!/usr/bin/env bash
# Serving/durability/tiering/sharding/networking/rebalance bench smoke:
# builds bench_serve_throughput, bench_store_wal, bench_tier_spill,
# bench_shard_scaling, bench_net_qps and bench_rebalance, runs them on the shrunk
# ANC_*_SMOKE workloads (seconds, not minutes) and snapshots the
# StatsJsonExporter output as BENCH_serve.json / BENCH_store.json /
# BENCH_tier.json / BENCH_shard.json / BENCH_net.json /
# BENCH_rebalance.json at the repo root,
# so the serving stack's throughput/latency/staleness counters, the WAL's
# group-commit sweep, the tiered-store spill rows (tiered ingest within
# 2x of the in-RAM baseline with the resident delta under budget is the
# tiering acceptance bar), the sharded-ingest scaling rows
# (bench.speedup_x100 at ldg_s4, against the k=1 "single" row) and
# the networked front-end's QPS rows (cache off/on with hit rate,
# leader-only vs leader+2-follower scale-out) and the live-rebalance
# recovery rows (bench.recovery_pct >= 70 on the rebalanced run is the
# re-partitioning acceptance bar) are tracked in-tree next to
# the code that produces them (docs/serving.md, docs/durability.md,
# docs/storage_tiers.md, docs/sharding.md, docs/networking.md).
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}
JOBS=$(nproc 2>/dev/null || echo 4)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target bench_serve_throughput bench_store_wal bench_tier_spill \
  bench_shard_scaling bench_net_qps bench_rebalance

STATS_DIR=$(mktemp -d)
trap 'rm -rf "$STATS_DIR"' EXIT

ANC_SERVE_SMOKE=1 ANC_STATS_DIR="$STATS_DIR" \
  "$BUILD_DIR/bench/bench_serve_throughput"
ANC_STORE_SMOKE=1 ANC_STATS_DIR="$STATS_DIR" \
  "$BUILD_DIR/bench/bench_store_wal"
ANC_TIER_SMOKE=1 ANC_STATS_DIR="$STATS_DIR" \
  "$BUILD_DIR/bench/bench_tier_spill"
ANC_SHARD_SMOKE=1 ANC_STATS_DIR="$STATS_DIR" \
  "$BUILD_DIR/bench/bench_shard_scaling"
ANC_NET_SMOKE=1 ANC_STATS_DIR="$STATS_DIR" \
  "$BUILD_DIR/bench/bench_net_qps"
ANC_REBALANCE_SMOKE=1 ANC_STATS_DIR="$STATS_DIR" \
  "$BUILD_DIR/bench/bench_rebalance"

cp "$STATS_DIR/bench_serve_throughput_stats.json" BENCH_serve.json
cp "$STATS_DIR/bench_store_wal_stats.json" BENCH_store.json
cp "$STATS_DIR/bench_tier_spill_stats.json" BENCH_tier.json
cp "$STATS_DIR/bench_shard_scaling_stats.json" BENCH_shard.json
cp "$STATS_DIR/bench_net_qps_stats.json" BENCH_net.json
cp "$STATS_DIR/bench_rebalance_stats.json" BENCH_rebalance.json
echo "wrote BENCH_serve.json BENCH_store.json BENCH_tier.json" \
  "BENCH_shard.json BENCH_net.json BENCH_rebalance.json"
