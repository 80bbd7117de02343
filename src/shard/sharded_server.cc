#include "shard/sharded_server.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "rebalance/journal.h"
#include "store/test_hooks.h"
#include "util/crc32c.h"

namespace anc::shard {

namespace fs = std::filesystem;

namespace {

/// shards.meta layout: magic, shard count, graph shape, the node → shard
/// assignment, CRC32C over everything after the magic. Written atomically
/// (temp + rename) so RecoverAll never reads a torn partition.
constexpr char kMetaMagic[8] = {'A', 'N', 'C', 'S', 'H', 'R', 'D', '1'};
constexpr const char* kMetaName = "shards.meta";

struct ScopedFile {
  std::FILE* file = nullptr;
  ~ScopedFile() {
    if (file != nullptr) std::fclose(file);
  }
};

Status RemainingBudget(std::chrono::steady_clock::time_point deadline,
                       std::chrono::milliseconds* remaining) {
  const auto now = std::chrono::steady_clock::now();
  *remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - now);
  if (*remaining < std::chrono::milliseconds(0)) {
    *remaining = std::chrono::milliseconds(0);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ShardedServer>> ShardedServer::Create(
    const Graph& graph, const AncConfig& config, ShardedOptions options) {
  if (options.serve.store != nullptr) {
    return Status::InvalidArgument(
        "leave ShardedOptions::serve.store null: per-shard stores are "
        "opened by Start()");
  }
  if (options.serve.durability != serve::DurabilityPolicy::kNone &&
      options.store_dir.empty()) {
    return Status::InvalidArgument(
        "durability requires ShardedOptions::store_dir");
  }
  Result<Partition> partition = MakePartition(graph, options.partition);
  if (!partition.ok()) return partition.status();

  std::vector<Shard> shards(partition.value().num_shards);
  for (Shard& shard : shards) {
    // Every replica is built from the same (graph, config): index
    // construction is deterministic (seeded pyramids, Lemma 7), so all
    // shards start byte-identical and diverge only by the activations
    // routed to them.
    Result<std::unique_ptr<AncIndex>> index = AncIndex::Create(graph, config);
    if (!index.ok()) return index.status();
    shard.index = std::move(index.value());
  }
  return std::unique_ptr<ShardedServer>(
      new ShardedServer(&graph, std::move(shards),
                        std::move(partition.value()), std::move(options)));
}

Result<std::unique_ptr<ShardedServer>> ShardedServer::RecoverAll(
    const std::string& dir, ShardedOptions options) {
  Result<std::pair<Partition, uint32_t>> meta = ReadMeta(dir);
  if (!meta.ok()) return meta.status();
  Partition& partition = meta.value().first;
  const uint32_t num_edges = meta.value().second;

  // An in-flight live migration leaves a journal next to shards.meta
  // (docs/sharding.md "Rebalancing & live migration"). Phase kPrepare:
  // the move never committed — recover under the old assignment and let
  // Start() retire the artifacts. Phase kCommitted: the move owns the
  // target's state — roll it forward below. A journal that exists but
  // cannot be parsed is real corruption (writes are atomic renames), and
  // guessing either way could lose or double-apply a migration.
  bool roll_forward = false;
  rebalance::MigrationJournal journal;
  {
    Result<rebalance::MigrationJournal> read = rebalance::ReadJournal(dir);
    if (read.ok()) {
      journal = std::move(read.value());
      if (journal.from >= partition.num_shards ||
          journal.to >= partition.num_shards || journal.from == journal.to) {
        return Status::IoError("migration journal names bad shards");
      }
      for (const NodeId v : journal.moving) {
        if (v >= partition.node_shard.size()) {
          return Status::IoError("migration journal names bad vertices");
        }
      }
      roll_forward = journal.phase == rebalance::MigrationPhase::kCommitted;
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  // When rolling forward, the target shard recovers last: the deferral
  // gate below needs a graph (for edge incidence), and any already
  // recovered sibling provides the identical one.
  std::vector<uint32_t> order;
  order.reserve(partition.num_shards);
  for (uint32_t s = 0; s < partition.num_shards; ++s) {
    if (!(roll_forward && s == journal.to)) order.push_back(s);
  }
  if (roll_forward) order.push_back(journal.to);

  std::vector<Shard> shards(partition.num_shards);
  std::vector<ShardRecoveryInfo> info(partition.num_shards);
  for (const uint32_t s : order) {
    const std::string shard_dir =
        (fs::path(dir) / ("shard-" + std::to_string(s))).string();
    store::RecoverOptions recover_options;
    std::vector<uint8_t> edge_in_move;
    const bool is_target = roll_forward && s == journal.to;
    if (is_target) {
      // Defer the target's own post-commit deliveries for the moving set:
      // they postdate the sidecar content (per-shard seq > S_B) but sit
      // earlier in its WAL than the splice point. Collected, they are
      // re-applied after the sidecars, reconstructing the live order of
      // everything touching the moving vertices.
      const Graph& graph = *shards[order.front()].owned_graph;
      edge_in_move.assign(graph.NumEdges(), 0);
      for (const NodeId v : journal.moving) {
        for (const Neighbor& nb : graph.Neighbors(v)) {
          edge_in_move[nb.edge] = 1;
        }
      }
      const uint64_t s_b = journal.s_b;
      const std::vector<uint8_t>* bitmap = &edge_in_move;
      recover_options.defer = [bitmap, s_b](const Activation& activation,
                                            uint64_t seq) {
        return seq > s_b && activation.edge < bitmap->size() &&
               (*bitmap)[activation.edge] != 0;
      };
    }
    // Shards recover independently: one shard's torn WAL tail rolls only
    // that shard back to its own durable horizon.
    Result<store::RecoveredStore> recovered =
        store::Recover(shard_dir, recover_options);
    if (!recovered.ok()) {
      return Status(recovered.status().code(),
                    "shard " + std::to_string(s) + ": " +
                        recovered.status().message());
    }
    store::RecoveredStore& r = recovered.value();
    if (r.graph->NumNodes() != partition.node_shard.size() ||
        r.graph->NumEdges() != num_edges) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) +
          ": recovered graph does not match shards.meta");
    }

    if (is_target) {
      AncIndex* index = r.index.get();
      double max_time = r.watermark.time;
      const auto apply_all = [index, &max_time](const store::WalRecord& rec) {
        for (const Activation& a : rec.activations) {
          // Sidecar content replays through the same anchored
          // out-of-order path the live import used (the timestamps sit
          // behind the target's own replayed stream), so the splice is
          // byte-identical to the state the live index reached.
          ANC_RETURN_NOT_OK(index->ApplyOutOfOrder(a));
          max_time = std::max(max_time, a.time);
        }
        return Status::OK();
      };
      // The deferred records were applied live in seq order and succeeded;
      // by the time they re-apply here the replay of later non-deferred
      // records has advanced the strict clock past them, so they must go
      // through the same anchored out-of-order path as the sidecar splice
      // (exact for any t) — a strict Apply would reject them as
      // time-reversed and silently lose their mass.
      const auto apply_deferred =
          [index, &max_time](const std::vector<Activation>& deferred) {
            for (const Activation& a : deferred) {
              ANC_RETURN_NOT_OK(index->ApplyOutOfOrder(a));
              max_time = std::max(max_time, a.time);
            }
            return Status::OK();
          };
      if (r.generation > journal.g0) {
        // A post-commit checkpoint (the cleanup phase) already folded the
        // imports into the recovered state: the sidecars must not be
        // re-applied. The gated records were ordinary post-checkpoint
        // traffic — apply them now.
        ANC_RETURN_NOT_OK(apply_deferred(r.deferred));
      } else {
        // Splice: sidecar-0 (the owner's WAL tail), sidecar-1 (catch-up +
        // residual), then the target's own deferred post-commit records.
        for (const int stage : {0, 1}) {
          const std::string sidecar =
              rebalance::SidecarPath(dir, journal.id, stage);
          Result<store::WalSegmentInfo> applied = store::ReadWalSegment(
              sidecar, apply_all, /*truncate_torn_tail=*/false);
          if (!applied.ok()) {
            return Status(applied.status().code(),
                          "migration sidecar " + sidecar + ": " +
                              applied.status().message());
          }
        }
        ANC_RETURN_NOT_OK(apply_deferred(r.deferred));
      }
      r.watermark.time = max_time;
    }

    ShardRecoveryInfo entry;
    entry.shard = s;
    entry.watermark = r.watermark;
    entry.generation = r.generation;
    entry.checkpoint_seq = r.checkpoint_seq;
    entry.replayed_records = r.replayed_records;
    entry.replayed_activations = r.replayed_activations;
    entry.truncated_tail = r.truncated_tail;
    info[s] = entry;

    Shard& shard = shards[s];
    shard.owned_graph = std::move(r.graph);
    shard.index = std::move(r.index);
    // A new serving session restarts ticket numbering at 1, so the store
    // reopens at {0, recovered time}: the Open-time checkpoint collapses
    // the replayed WAL (same idiom as single-server recovery).
    shard.start_mark = store::Mark{0, r.watermark.time};
  }
  if (roll_forward) {
    // The committed assignment, whether or not it reached shards.meta
    // before the crash (idempotent when it did). Start()'s WriteMeta
    // persists it.
    for (const NodeId v : journal.moving) partition.node_shard[v] = journal.to;
  }
  const Graph* graph = shards[0].owned_graph.get();
  std::unique_ptr<ShardedServer> server(
      new ShardedServer(graph, std::move(shards), std::move(partition),
                        std::move(options)));
  server->recovery_info_ = std::move(info);
  return server;
}

ShardedServer::ShardedServer(const Graph* graph, std::vector<Shard> shards,
                             Partition partition, ShardedOptions options)
    : graph_(graph), options_(std::move(options)), shards_(std::move(shards)) {
  num_shards_ = partition.num_shards;
  import_dirty_ = std::make_unique<std::atomic<bool>[]>(num_shards_);
  {
    util::MutexLock lock(router_mutex_);
    router_ = std::make_shared<const Router>(*graph_, std::move(partition));
    partition_stats_ = ComputeStats(*graph_, router_->partition());
  }
  shard_last_ticket_.assign(num_shards_, 0);
  staging_.resize(num_shards_);
  for (auto& buffer : staging_) buffer.reserve(kRouteBatch);
  staging_traces_.resize(num_shards_);
  for (auto& buffer : staging_traces_) buffer.reserve(kRouteBatch);
  queries_ = registry_.Counter("anc.shard.queries");
  query_us_ = registry_.Histogram("anc.shard.query_us");
  gather_us_ = registry_.Histogram("anc.shard.gather_us");
  merge_us_ = registry_.Histogram("anc.shard.merge_us");
}

ShardedServer::~ShardedServer() { Stop(); }

std::string ShardedServer::ShardDir(uint32_t s) const {
  return (fs::path(options_.store_dir) / ("shard-" + std::to_string(s)))
      .string();
}

std::shared_ptr<const Router> ShardedServer::router() const {
  util::MutexLock lock(router_mutex_);
  return router_;
}

PartitionStats ShardedServer::partition_stats() const {
  util::MutexLock lock(router_mutex_);
  return partition_stats_;
}

Status ShardedServer::WriteMeta() const {
  const std::shared_ptr<const Router> router = this->router();
  const Partition& partition = router->partition();
  std::vector<char> payload;
  const auto append_u32 = [&payload](uint32_t value) {
    char bytes[4];
    std::memcpy(bytes, &value, 4);
    payload.insert(payload.end(), bytes, bytes + 4);
  };
  append_u32(partition.num_shards);
  append_u32(graph_->NumNodes());
  append_u32(graph_->NumEdges());
  for (const uint32_t s : partition.node_shard) append_u32(s);
  const uint32_t crc = Crc32c(payload.data(), payload.size());

  const fs::path path = fs::path(options_.store_dir) / kMetaName;
  const fs::path tmp = path.string() + ".tmp";
  {
    ScopedFile out;
    out.file = std::fopen(tmp.c_str(), "wb");
    if (out.file == nullptr) {
      return Status::IoError("cannot write " + tmp.string());
    }
    if (std::fwrite(kMetaMagic, 1, sizeof(kMetaMagic), out.file) !=
            sizeof(kMetaMagic) ||
        std::fwrite(payload.data(), 1, payload.size(), out.file) !=
            payload.size() ||
        std::fwrite(&crc, 1, 4, out.file) != 4 ||
        std::fflush(out.file) != 0) {
      return Status::IoError("short write to " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IoError("cannot rename " + tmp.string());
  return Status::OK();
}

Result<std::pair<Partition, uint32_t>> ShardedServer::ReadMeta(
    const std::string& dir) {
  const fs::path path = fs::path(dir) / kMetaName;
  ScopedFile in;
  in.file = std::fopen(path.c_str(), "rb");
  if (in.file == nullptr) {
    return Status::NotFound("no " + path.string());
  }
  char magic[sizeof(kMetaMagic)];
  if (std::fread(magic, 1, sizeof(magic), in.file) != sizeof(magic) ||
      std::memcmp(magic, kMetaMagic, sizeof(magic)) != 0) {
    return Status::IoError(path.string() + ": bad magic");
  }
  uint32_t header[3];  // num_shards, num_nodes, num_edges
  if (std::fread(header, 1, sizeof(header), in.file) != sizeof(header)) {
    return Status::IoError(path.string() + ": truncated header");
  }
  const uint32_t num_shards = header[0];
  const uint32_t num_nodes = header[1];
  if (num_shards == 0 || num_shards > (1u << 20) ||
      num_nodes > (1u << 28)) {
    return Status::IoError(path.string() + ": implausible header");
  }
  std::vector<uint32_t> assignment(num_nodes);
  if (num_nodes > 0 &&
      std::fread(assignment.data(), 4, num_nodes, in.file) != num_nodes) {
    return Status::IoError(path.string() + ": truncated assignment");
  }
  uint32_t crc = 0;
  if (std::fread(&crc, 1, 4, in.file) != 4) {
    return Status::IoError(path.string() + ": missing checksum");
  }
  uint32_t expected = Crc32c(header, sizeof(header));
  expected = Crc32c(assignment.data(), size_t{num_nodes} * 4, expected);
  if (crc != expected) {
    return Status::IoError(path.string() + ": checksum mismatch");
  }
  for (const uint32_t s : assignment) {
    if (s >= num_shards) {
      return Status::IoError(path.string() + ": assignment names bad shard");
    }
  }
  Partition partition;
  partition.num_shards = num_shards;
  partition.node_shard = std::move(assignment);
  return std::make_pair(std::move(partition), header[2]);
}

Status ShardedServer::Start() {
  if (started_once_) {
    return Status::FailedPrecondition(
        "ShardedServer cannot restart; build a new instance (RecoverAll "
        "for durable state)");
  }
  if (options_.serve.durability != serve::DurabilityPolicy::kNone) {
    if (options_.store_dir.empty()) {
      return Status::InvalidArgument(
          "durability requires ShardedOptions::store_dir");
    }
    std::error_code ec;
    fs::create_directories(options_.store_dir, ec);
    if (ec) {
      return Status::IoError("cannot create " + options_.store_dir);
    }
    ANC_RETURN_NOT_OK(WriteMeta());
    // Live migration replays the session's full delivery history out of
    // the WAL (the sidecar splice reads back to ticket 1), so serving-time
    // checkpoints must retain sealed segments.
    store::StoreOptions store_options = options_.store;
    store_options.retain_wal_history = true;
    for (uint32_t s = 0; s < num_shards(); ++s) {
      Shard& shard = shards_[s];
      Result<std::unique_ptr<store::DurableStore>> store =
          store::DurableStore::Open(ShardDir(s), *shard.index,
                                    shard.start_mark, store_options,
                                    &shard.index->metrics());
      if (!store.ok()) {
        return Status(store.status().code(), "shard " + std::to_string(s) +
                                                 ": " +
                                                 store.status().message());
      }
      shard.store = std::move(store.value());
    }
    // Only now — with every store open and its Open-time checkpoint
    // durable — is a rolled-forward migration's state independent of its
    // artifacts. Retire them, journal first (while it exists, recovery
    // would re-run the roll-forward; orphan sidecars are plain garbage).
    for (const std::string& artifact :
         rebalance::ListMigrationArtifacts(options_.store_dir)) {
      fs::remove(artifact, ec);
    }
    // Import archives from a previous session are folded into the
    // Open-time checkpoints and their filter tickets restarted — a later
    // handoff must not splice them again.
    for (uint32_t s = 0; s < num_shards(); ++s) {
      for (const std::string& stale :
           rebalance::ListImportArchives(ShardDir(s))) {
        fs::remove(stale, ec);
      }
    }
  }
  for (uint32_t s = 0; s < num_shards(); ++s) {
    Shard& shard = shards_[s];
    serve::ServeOptions serve_options = options_.serve;
    serve_options.store = shard.store.get();
    serve_options.shard_ordinal = static_cast<int>(s);
    if (serve_options.store == nullptr) {
      serve_options.durability = serve::DurabilityPolicy::kNone;
    }
    shard.server =
        std::make_unique<serve::AncServer>(shard.index.get(), serve_options);
    const Status status = shard.server->Start();
    if (!status.ok()) {
      for (uint32_t t = 0; t < s; ++t) shards_[t].server->Stop();
      return status;
    }
  }
  started_once_ = true;
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void ShardedServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Hand any staged deliveries over before closing the queues so a
  // Submit-then-Stop sequence loses nothing.
  FlushStaging();
  for (Shard& shard : shards_) {
    if (shard.server != nullptr) shard.server->Stop();
  }
}

void ShardedServer::RouteLocked(const Router& router,
                                const Activation& activation,
                                obs::TraceContext trace) {
  const auto [owner, halo] = router.DeliveryOf(activation.edge);
  StageLocked(owner, activation, trace);
  if (halo != Router::kNoShard) {
    halo_deliveries_.fetch_add(1, std::memory_order_relaxed);
    StageLocked(halo, activation, trace);
  }
  if (handoff_ != nullptr && handoff_->edge_in_handoff[activation.edge]) {
    // Live migration in progress: the moving vertices' target shard gets a
    // side-buffered copy on top of the normal delivery (the old owner
    // stays authoritative until the swap).
    handoff_->buffer.push_back(activation);
  }
}

void ShardedServer::StageLocked(uint32_t s, const Activation& activation,
                                obs::TraceContext trace) {
  if (staged_total_ == 0) {
    staging_oldest_ = std::chrono::steady_clock::now();
  }
  staging_[s].push_back(activation);
  staging_traces_[s].push_back(trace);
  ++staged_total_;
  if (staging_[s].size() >= kRouteBatch) FlushShardLocked(s);
}

void ShardedServer::FlushShardLocked(uint32_t s) {
  std::vector<Activation>& buffer = staging_[s];
  if (buffer.empty()) return;
  uint64_t last = 0;
  const Result<size_t> pushed = shards_[s].server->SubmitBatch(
      buffer.data(), buffer.size(), &last, staging_traces_[s].data());
  const size_t accepted = pushed.ok() ? pushed.value() : 0;
  if (accepted > 0) shard_last_ticket_[s] = last;
  if (accepted < buffer.size()) {
    // The queue refused part of the batch (closed, kReject backpressure,
    // or a timestamp race with clamping off): those replicas go stale on
    // the affected edges; the other replicas keep their copies.
    halo_partial_.fetch_add(buffer.size() - accepted,
                            std::memory_order_relaxed);
  }
  staged_total_ -= buffer.size();
  buffer.clear();
  staging_traces_[s].clear();
}

void ShardedServer::FlushAllLocked() {
  for (uint32_t s = 0; s < num_shards(); ++s) FlushShardLocked(s);
}

void ShardedServer::FlushStaging() {
  if (!started_once_) return;
  util::MutexLock lock(route_mutex_);
  FlushAllLocked();
}

Result<uint64_t> ShardedServer::Submit(const Activation& activation,
                                       obs::TraceContext trace) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ShardedServer is not running");
  }
  if (activation.edge >= graph_->NumEdges()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("activation edge out of range");
  }
  if (obs::kMetricsEnabled && !trace.active() &&
      registry_.trace_sink() != nullptr) {
    trace = obs::TraceContext::NewTrace();
  }
  util::MutexLock lock(route_mutex_);
  // Holding route_mutex_ pins the assignment (FinalizeHandoff swaps it
  // only under both locks), so one snapshot covers the whole routing step.
  const std::shared_ptr<const Router> router = this->router();
  RouteLocked(*router, activation, trace);
  // Bound the visibility latency of half-full batches under continued
  // traffic (idle buffers drain on the next Flush/AwaitSeq instead).
  if (staged_total_ > 0 &&
      std::chrono::steady_clock::now() - staging_oldest_ > kMaxStageAge) {
    FlushAllLocked();
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return ++issued_;
}

Status ShardedServer::SubmitStream(const ActivationStream& stream,
                                   uint64_t* last_seq) {
  for (const Activation& activation : stream) {
    Result<uint64_t> seq = Submit(activation);
    if (!seq.ok()) return seq.status();
    if (last_seq != nullptr) *last_seq = seq.value();
  }
  return Status::OK();
}

Result<size_t> ShardedServer::SubmitBatch(const Activation* data, size_t count,
                                          uint64_t* last_seq) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ShardedServer is not running");
  }
  for (size_t i = 0; i < count; ++i) {
    if (data[i].edge >= graph_->NumEdges()) {
      rejected_.fetch_add(count, std::memory_order_relaxed);
      return Status::InvalidArgument("activation edge out of range");
    }
  }
  obs::TraceContext trace;
  if (obs::kMetricsEnabled && registry_.trace_sink() != nullptr) {
    trace = obs::TraceContext::NewTrace();
  }
  util::MutexLock lock(route_mutex_);
  // Hand earlier submissions' staged deliveries over first, so the refusals
  // counted below are this batch's alone.
  FlushAllLocked();
  const uint64_t refused_before =
      halo_partial_.load(std::memory_order_relaxed);
  const std::shared_ptr<const Router> router = this->router();
  for (size_t i = 0; i < count; ++i) RouteLocked(*router, data[i], trace);
  FlushAllLocked();
  const uint64_t refused =
      halo_partial_.load(std::memory_order_relaxed) - refused_before;
  issued_ += count;
  accepted_.fetch_add(count, std::memory_order_relaxed);
  if (last_seq != nullptr) *last_seq = issued_;
  return count - static_cast<size_t>(std::min<uint64_t>(refused, count));
}

Result<std::vector<uint64_t>> ShardedServer::ShardFrontiers(uint64_t seq) {
  util::MutexLock lock(route_mutex_);
  if (seq > issued_) {
    return Status::OutOfRange("ticket was never issued");
  }
  // Everything staged was routed at or before issued_ >= seq: drain it so
  // the frontier tickets below cover `seq`.
  FlushAllLocked();
  return shard_last_ticket_;
}

Status ShardedServer::AwaitSeq(uint64_t seq,
                               std::chrono::milliseconds timeout) {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  // Conservative per-shard frontier: every delivery routed at or before
  // global ticket `seq` has a per-shard ticket <= the snapshot (the route
  // lock orders ticket issue with shard pushes), so awaiting the snapshot
  // covers `seq` — possibly waiting for a few later deliveries too.
  Result<std::vector<uint64_t>> frontiers = ShardFrontiers(seq);
  if (!frontiers.ok()) return frontiers.status();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (frontiers.value()[s] == 0) continue;
    std::chrono::milliseconds remaining;
    ANC_RETURN_NOT_OK(RemainingBudget(deadline, &remaining));
    ANC_RETURN_NOT_OK(
        shards_[s].server->AwaitSeq(frontiers.value()[s], remaining));
  }
  return Status::OK();
}

serve::Watermark ShardedServer::GlobalMark(bool durable) const {
  if (!started_once_) return {};
  serve::Watermark global;
  util::MutexLock lock(route_mutex_);
  global.seq = issued_;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const serve::AncServer& server = *shards_[s].server;
    const serve::Watermark mark =
        durable ? server.durable_watermark() : server.watermark();
    global.time = std::max(global.time, mark.time);
    // A delivery's per-shard ticket never exceeds its global one, so a
    // shard that still owes deliveries covers every global ticket up to its
    // own mark, and no further one is known to be covered.
    if (!staging_[s].empty() || mark.seq < shard_last_ticket_[s]) {
      global.seq = std::min(global.seq, mark.seq);
    }
  }
  return global;
}

serve::Watermark ShardedServer::watermark() const { return GlobalMark(false); }

serve::Watermark ShardedServer::durable_watermark() const {
  return durable() ? GlobalMark(true) : serve::Watermark{};
}

Status ShardedServer::Flush(std::chrono::milliseconds timeout) {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  FlushStaging();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (Shard& shard : shards_) {
    std::chrono::milliseconds remaining;
    ANC_RETURN_NOT_OK(RemainingBudget(deadline, &remaining));
    ANC_RETURN_NOT_OK(shard.server->Flush(remaining));
  }
  return Status::OK();
}

Status ShardedServer::FlushDurable(std::chrono::milliseconds timeout) {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  FlushStaging();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (Shard& shard : shards_) {
    std::chrono::milliseconds remaining;
    ANC_RETURN_NOT_OK(RemainingBudget(deadline, &remaining));
    ANC_RETURN_NOT_OK(shard.server->FlushDurable(remaining));
  }
  return Status::OK();
}

Status ShardedServer::RequestCheckpointAll(std::chrono::milliseconds timeout) {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  FlushStaging();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (Shard& shard : shards_) {
    std::chrono::milliseconds remaining;
    ANC_RETURN_NOT_OK(RemainingBudget(deadline, &remaining));
    ANC_RETURN_NOT_OK(shard.server->RequestCheckpoint(remaining));
  }
  return Status::OK();
}

Status ShardedServer::store_status() const {
  for (const Shard& shard : shards_) {
    if (shard.server == nullptr) continue;
    const Status status = shard.server->store_status();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ShardedServer::writer_status() const {
  for (const Shard& shard : shards_) {
    if (shard.server == nullptr) continue;
    const Status status = shard.server->writer_status();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void ShardedServer::SetTraceSink(obs::TraceSink* sink) {
  registry_.SetTraceSink(sink);
  for (Shard& shard : shards_) {
    if (shard.index != nullptr) shard.index->SetTraceSink(sink);
  }
}

ShardedView ShardedServer::View() const {
  ANC_CHECK(started_once_, "ShardedServer::View before Start()");
  // Router snapshot FIRST, per-shard views second. A migration publishes
  // the target shard's post-import view *before* swapping the router, so
  // in this order a capture holding the new assignment always sees the
  // target's imported state; the reverse order could pair a new router
  // with a pre-import view.
  const std::shared_ptr<const Router> router = this->router();
  std::vector<std::shared_ptr<const serve::ClusterView>> views;
  views.reserve(shards_.size());
  for (const Shard& shard : shards_) views.push_back(shard.server->View());
  return ShardedView(*graph_, router, std::move(views));
}

ShardedView ShardedServer::GatherView(obs::TraceContext trace) const {
  ANC_CHECK(started_once_, "ShardedServer::GatherView before Start()");
  obs::ScopedTimer gather_timer(&registry_, gather_us_);
  obs::TraceSink* sink =
      obs::kMetricsEnabled ? registry_.trace_sink() : nullptr;
  // Same router-before-views capture order as View() (see the comment
  // there): required for migration consistency.
  const std::shared_ptr<const Router> router = this->router();
  std::vector<std::shared_ptr<const serve::ClusterView>> views;
  views.reserve(shards_.size());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    obs::TraceSpan span(sink, "shard.gather", trace, static_cast<int>(s));
    views.push_back(shards_[s].server->View());
  }
  return ShardedView(*graph_, router, std::move(views));
}

Result<Clustering> ShardedServer::Clusters(uint32_t level) const {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  obs::TraceSink* sink =
      obs::kMetricsEnabled ? registry_.trace_sink() : nullptr;
  const obs::TraceContext trace =
      sink != nullptr ? obs::TraceContext::NewTrace() : obs::TraceContext{};
  obs::ScopedTimer timer(&registry_, query_us_, "shard.query_clusters",
                         trace);
  registry_.Add(queries_);
  const ShardedView view = GatherView(trace);
  if (level < 1 || level > view.num_levels()) {
    return Status::InvalidArgument("level out of range");
  }
  obs::ScopedTimer merge(&registry_, merge_us_, "shard.merge", trace);
  return view.Clusters(level);
}

Result<Clustering> ShardedServer::Clusters() const {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  return Clusters(View().DefaultLevel());
}

Result<std::vector<NodeId>> ShardedServer::LocalCluster(
    NodeId node, uint32_t level) const {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  if (node >= graph_->NumNodes()) {
    return Status::InvalidArgument("node out of range");
  }
  obs::TraceSink* sink =
      obs::kMetricsEnabled ? registry_.trace_sink() : nullptr;
  const obs::TraceContext trace =
      sink != nullptr ? obs::TraceContext::NewTrace() : obs::TraceContext{};
  obs::ScopedTimer timer(&registry_, query_us_, "shard.query_local", trace);
  registry_.Add(queries_);
  const ShardedView view = GatherView(trace);
  if (level < 1 || level > view.num_levels()) {
    return Status::InvalidArgument("level out of range");
  }
  obs::ScopedTimer merge(&registry_, merge_us_, "shard.merge", trace);
  return view.LocalCluster(node, level);
}

Result<std::vector<NodeId>> ShardedServer::LocalCluster(NodeId node) const {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  return LocalCluster(node, View().DefaultLevel());
}

Result<std::vector<NodeId>> ShardedServer::SmallestCluster(
    NodeId node, uint32_t min_size, uint32_t* level_out) const {
  if (!started_once_) {
    return Status::FailedPrecondition("ShardedServer never started");
  }
  if (node >= graph_->NumNodes()) {
    return Status::InvalidArgument("node out of range");
  }
  obs::TraceSink* sink =
      obs::kMetricsEnabled ? registry_.trace_sink() : nullptr;
  const obs::TraceContext trace =
      sink != nullptr ? obs::TraceContext::NewTrace() : obs::TraceContext{};
  obs::ScopedTimer timer(&registry_, query_us_, "shard.query_smallest",
                         trace);
  registry_.Add(queries_);
  const ShardedView view = GatherView(trace);
  obs::ScopedTimer merge(&registry_, merge_us_, "shard.merge", trace);
  return view.SmallestCluster(node, min_size, level_out);
}

size_t ShardedServer::IngestDepth() const {
  size_t depth = 0;
  {
    util::MutexLock lock(route_mutex_);
    depth += staged_total_;
  }
  for (const Shard& shard : shards_) {
    if (shard.server != nullptr) depth += shard.server->IngestDepth();
  }
  return depth;
}

obs::StatsSnapshot ShardedServer::Stats() const {
  // Start from the router registry (queries counter + query/gather/merge
  // histograms), then fold in the synthetic router-level series.
  obs::StatsSnapshot snapshot = registry_.Snapshot();
  const std::shared_ptr<const Router> router = this->router();
  const PartitionStats stats = partition_stats();
  snapshot.counters.push_back({"anc.shard.accepted", accepted()});
  snapshot.counters.push_back({"anc.shard.rejected", rejected()});
  snapshot.counters.push_back(
      {"anc.shard.halo_deliveries", halo_deliveries()});
  snapshot.counters.push_back({"anc.shard.halo_partial", halo_partial()});
  snapshot.gauges.push_back(
      {"anc.shard.num_shards", static_cast<int64_t>(num_shards())});
  snapshot.gauges.push_back(
      {"anc.shard.cut_edges", static_cast<int64_t>(router->cut_edges())});
  snapshot.gauges.push_back(
      {"anc.shard.balance_x1000",
       static_cast<int64_t>(stats.balance * 1000.0)});
  snapshot.gauges.push_back(
      {"anc.shard.cut_ratio_x1000",
       static_cast<int64_t>(stats.cut_ratio * 1000.0)});
  snapshot.gauges.push_back(
      {"anc.shard.assignment_epoch",
       static_cast<int64_t>(assignment_epoch())});
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const std::string prefix = "anc.shard." + std::to_string(s) + ".";
    const serve::AncServer* server = shards_[s].server.get();
    snapshot.counters.push_back(
        {prefix + "accepted", server != nullptr ? server->accepted() : 0});
    snapshot.gauges.push_back(
        {prefix + "queue_depth",
         server != nullptr ? static_cast<int64_t>(server->IngestDepth())
                           : 0});
    snapshot.gauges.push_back(
        {prefix + "queue_high_watermark",
         server != nullptr
             ? static_cast<int64_t>(server->IngestHighWatermark())
             : 0});
    snapshot.gauges.push_back(
        {prefix + "queue_oldest_age_us",
         server != nullptr
             ? static_cast<int64_t>(server->IngestOldestAgeSeconds() * 1e6)
             : 0});
    snapshot.gauges.push_back(
        {prefix + "epoch",
         started_once_ && server != nullptr
             ? static_cast<int64_t>(server->View()->epoch())
             : 0});
  }
  return snapshot;
}

Result<uint64_t> ShardedServer::BeginHandoff(const std::vector<NodeId>& moving,
                                             uint32_t from, uint32_t to) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ShardedServer is not running");
  }
  if (from >= num_shards_ || to >= num_shards_ || from == to) {
    return Status::InvalidArgument("bad handoff shards");
  }
  if (moving.empty()) {
    return Status::InvalidArgument("empty moving set");
  }
  // Build the handoff-edge bitmap outside the route lock (O(sum of moving
  // degrees)): an edge is in handoff when it touches a moving vertex and
  // shard `to` does not already receive it under the current assignment —
  // those deliveries are the ones `to` would otherwise never see.
  const std::shared_ptr<const Router> router = this->router();
  for (const NodeId v : moving) {
    if (v >= graph_->NumNodes()) {
      return Status::InvalidArgument("moving vertex out of range");
    }
    if (router->NodeOwner(v) != from) {
      return Status::InvalidArgument("vertex " + std::to_string(v) +
                                     " is not owned by shard " +
                                     std::to_string(from));
    }
  }
  auto handoff = std::make_unique<Handoff>();
  handoff->from = from;
  handoff->to = to;
  handoff->edge_in_handoff.assign(graph_->NumEdges(), 0);
  for (const NodeId v : moving) {
    for (const Neighbor& nb : graph_->Neighbors(v)) {
      const auto [owner, halo] = router->DeliveryOf(nb.edge);
      if (owner == to || halo == to) continue;  // `to` already gets these
      handoff->edge_in_handoff[nb.edge] = 1;
    }
  }

  util::MutexLock lock(route_mutex_);
  if (handoff_ != nullptr) {
    return Status::FailedPrecondition("another handoff is active");
  }
  // Drain staging so the frontier ticket below covers every delivery
  // routed before side-buffering starts.
  FlushAllLocked();
  const uint64_t from_frontier = shard_last_ticket_[from];
  handoff_ = std::move(handoff);
  return from_frontier;
}

std::vector<Activation> ShardedServer::TakeHandoffChunk() {
  util::MutexLock lock(route_mutex_);
  if (handoff_ == nullptr) return {};
  std::vector<Activation> chunk = std::move(handoff_->buffer);
  handoff_->buffer.clear();
  return chunk;
}

size_t ShardedServer::HandoffBacklog() const {
  util::MutexLock lock(route_mutex_);
  return handoff_ != nullptr ? handoff_->buffer.size() : 0;
}

Status ShardedServer::FinalizeHandoff(
    std::shared_ptr<const Router> new_router, PartitionStats new_stats,
    const std::function<Status(std::vector<Activation> residual)>& commit) {
  ANC_CHECK(new_router != nullptr, "FinalizeHandoff needs a router");
  ANC_CHECK(new_router->num_shards() == num_shards_,
            "FinalizeHandoff cannot change the shard count");
  {
    util::MutexLock lock(route_mutex_);
    if (handoff_ == nullptr) {
      return Status::FailedPrecondition("no handoff is active");
    }
    // No routing is in flight (we hold the route lock) and nothing stays
    // staged, so the side buffer now holds *every* handoff delivery not
    // yet handed to the target: the exact residual.
    FlushAllLocked();
    std::vector<Activation> residual = std::move(handoff_->buffer);
    handoff_->buffer.clear();
    const Status committed = commit(std::move(residual));
    if (!committed.ok()) {
      // The durable commit record was not written: the old assignment
      // stays authoritative. The residual may already be (partially)
      // applied to the target's live index, so a retry cannot reuse this
      // buffer — the caller rolls back with AbortHandoff.
      return committed;
    }
    {
      util::MutexLock router_lock(router_mutex_);
      router_ = std::move(new_router);
      partition_stats_ = std::move(new_stats);
    }
    assignment_epoch_.fetch_add(1, std::memory_order_acq_rel);
    handoff_.reset();
  }
  // The swap is committed; persist the new assignment so a clean restart
  // reads it straight from shards.meta. Death in this window is exactly
  // the kPostMigrationCommitPreMeta seam: the committed journal rolls the
  // move forward in RecoverAll instead.
  if (options_.serve.durability != serve::DurabilityPolicy::kNone) {
    if (store::TestHooks::ShouldCrash(
            store::CrashPoint::kPostMigrationCommitPreMeta)) {
      return Status::Unavailable(
          "simulated crash: post-migration-commit-pre-meta");
    }
    return WriteMeta();
  }
  return Status::OK();
}

void ShardedServer::AbortHandoff() {
  util::MutexLock lock(route_mutex_);
  handoff_.reset();
}

serve::HarnessTarget ShardedServer::HarnessTarget() {
  serve::HarnessTarget target;
  target.submit = [this](const Activation& activation) {
    return Submit(activation);
  };
  target.flush = [this](std::chrono::milliseconds timeout) {
    return Flush(timeout);
  };
  target.accepted = [this] { return accepted(); };
  target.dropped = [this] {
    uint64_t dropped = 0;
    for (const Shard& shard : shards_) dropped += shard.server->dropped();
    return dropped;
  };
  target.rejected = [this] { return rejected(); };
  // Staleness in delivery units (halo duplicates counted once per
  // receiving shard) so frontier and view_seq share a scale.
  target.frontier = [this] {
    uint64_t frontier = 0;
    for (const Shard& shard : shards_) frontier += shard.server->accepted();
    return frontier;
  };
  target.view_seq = [this] {
    uint64_t seq = 0;
    for (const Shard& shard : shards_) {
      seq += shard.server->View()->watermark().seq;
    }
    return seq;
  };
  target.epochs = [this] {
    uint64_t epochs = 0;
    for (const Shard& shard : shards_) {
      epochs += shard.server->Stats().counter("anc.serve.epochs");
    }
    return epochs;
  };
  target.num_nodes = [this] { return graph_->NumNodes(); };
  // Merged queries bypass per-shard admission (docs/sharding.md), so they
  // are never shed. Routing through Clusters()/LocalCluster() (not a raw
  // View()) means harness-driven queries carry traces and land in the
  // router registry's query histograms.
  target.query_clusters = [this](const serve::QueryOptions&) {
    return Clusters().ok();
  };
  target.query_local = [this](NodeId node, const serve::QueryOptions&) {
    return LocalCluster(node).ok();
  };
  target.record_load_report = [this](const StreamLoadReport& report) {
    shards_[0].server->RecordLoadReport(report);
  };
  return target;
}

}  // namespace anc::shard
