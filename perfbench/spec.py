"""What the serving-stack benchmark measures: workloads, metrics, bounds.

run.py prints and records these metrics, compare.py judges two result sets
by them, and `python3 perfbench/run.py --write-manifest` writes them to
BENCHMARK.json. METRICS.md explains each one.
"""

RUN_SECONDS = 20

WORKLOADS = [
    {
        "name": "ingest",
        "why": "Write path alone: one producer, k=1, closed loop at kBlock "
               "backpressure, no durability; similarity, pyramid repair and "
               "publish do the work. Reads query the index before writes.",
    },
    {
        "name": "serve_mixed",
        "why": "Read path under steady writes: open loop at 20000 act/s into "
               "k=2 LDG with an in-process reader; view gather, vote-owner "
               "merge, queries, publish cadence and halo routing.",
    },
    {
        "name": "net_durable",
        "why": "Net front-end and store: k=1 at kGroupCommit behind NetServer, "
               "64-activation batches at 100/s each with FlushDurable, two "
               "client readers via the cache, then RecoverAll.",
        # Not in BENCHMARK.json: its timings follow the shared disk's fsync
        # latency and the cache's hit rate, and spread 0.5-0.9 over ten
        # seeds. The net and store layers stay measured on every traced run
        # (probes through a NetServer, the store replay).
        "manifest": False,
    },
]

# Reported by every workload and bounded on each.
# Bounds: on the 4-core VM this was tuned on, CPU-bound timings drift by
# 10-20% between runs minutes apart (the host's other tenants), so every
# timing gets the widest allowed bound; memory does not drift.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ingest_aps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "visible_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "query_local_p50_us", "unit": "us", "better": "lower",
     "bound": 0.25},
    {"name": "query_clusters_p50_us", "unit": "us", "better": "lower",
     "bound": 0.25},
    {"name": "query_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# End-to-end metrics kept out of BENCHMARK.json, where every listed metric
# must exist on every workload and stay within its bound from run to run.
# run.py records them and compare.py bounds them (reporting "unresolved"
# while a spread is wider than the bound):
#  - the p99 tails, whose spread over ten runs reached 0.3-1.4 on
#    net_durable (fsync and scheduler stalls) and 0.27-0.77 on serve_mixed;
#  - metrics that exist on one workload only;
#  - failed_frac, zero on a healthy run, where a relative bound is void.
WORKLOAD_END_TO_END = [
    {"name": "visible_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": ["ingest", "serve_mixed", "net_durable"]},
    {"name": "query_local_p99_us", "unit": "us", "better": "lower",
     "bound": 0.25, "workloads": ["ingest", "serve_mixed", "net_durable"]},
    {"name": "durable_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": ["net_durable"]},
    {"name": "durable_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": ["net_durable"]},
    {"name": "recover_s", "unit": "s", "better": "lower", "bound": 0.25,
     "workloads": ["net_durable"]},
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0,
     "workloads": ["ingest", "serve_mixed", "net_durable"]},
]

# Reported by the traced run (--trace 1). No bounds: they explain where an
# end-to-end change came from. METRICS.md maps each to the end-to-end
# metric and workload it should move.
PER_LAYER = [
    {"name": "shard.submit_us", "unit": "us", "better": "lower"},
    {"name": "shard.halo_ratio", "unit": "ratio", "better": "lower"},
    {"name": "shard.view_us", "unit": "us", "better": "lower"},
    {"name": "shard.merged_local_us", "unit": "us", "better": "lower"},
    {"name": "shard.owner_local_us", "unit": "us", "better": "lower"},
    {"name": "serve.flush_ms", "unit": "ms", "better": "lower"},
    {"name": "serve.batch_mean", "unit": "count", "better": "higher"},
    {"name": "serve.epochs_per_kact", "unit": "count", "better": "lower"},
    {"name": "serve.queue_depth_max", "unit": "count", "better": "lower"},
    {"name": "core.build_s", "unit": "s", "better": "lower"},
    {"name": "core.apply_us", "unit": "us", "better": "lower"},
    {"name": "core.export_us", "unit": "us", "better": "lower"},
    {"name": "core.touched_per_apply", "unit": "count", "better": "lower"},
    {"name": "core.local_us", "unit": "us", "better": "lower"},
    {"name": "core.clusters_us", "unit": "us", "better": "lower"},
    {"name": "similarity.apply_us", "unit": "us", "better": "lower"},
    {"name": "similarity.rescales", "unit": "count", "better": "lower"},
    {"name": "pyramid.update_us", "unit": "us", "better": "lower"},
    {"name": "pyramid.touched_per_update", "unit": "count", "better": "lower"},
    {"name": "net.local_rtt_us", "unit": "us", "better": "lower"},
    {"name": "net.backend_local_us", "unit": "us", "better": "lower"},
    {"name": "net.cache_hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "net.submit_rtt_us", "unit": "us", "better": "lower"},
    {"name": "store.append_us", "unit": "us", "better": "lower"},
    {"name": "store.sync_us", "unit": "us", "better": "lower"},
    {"name": "store.checkpoint_ms", "unit": "ms", "better": "lower"},
    {"name": "store.wal_bytes_per_act", "unit": "B", "better": "lower"},
    {"name": "store.recover_ms", "unit": "ms", "better": "lower"},
    {"name": "gen.late_p99_ms", "unit": "ms", "better": "lower"},
    {"name": "replay.coverage", "unit": "ratio", "better": "higher"},
    {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
]

# The metric each workload's tracing overhead is measured on.
OVERHEAD_METRIC = {
    "ingest": "ingest_aps",
    "serve_mixed": "query_local_p50_us",
    "net_durable": "query_local_p50_us",
}


def listed_workloads():
    """Names of the workloads BENCHMARK.json lists, in order."""
    return [w["name"] for w in WORKLOADS if w.get("manifest", True)]


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS
                      if w["name"] in listed_workloads()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def bounded_metrics(workload):
    """Every end-to-end metric compare.py judges on `workload`."""
    return END_TO_END + [m for m in WORKLOAD_END_TO_END
                         if workload in m["workloads"]]
