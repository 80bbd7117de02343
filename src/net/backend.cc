#include "net/backend.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace anc::net {
namespace {

/// How long a leader read waits for its min_seq barrier.
constexpr std::chrono::milliseconds kBarrierTimeout{5000};

/// Resolves a requested level (0 = default) against a view's geometry.
Result<uint32_t> ResolveLevel(const shard::ShardedView& view,
                              uint32_t requested) {
  const uint32_t level = requested == 0 ? view.DefaultLevel() : requested;
  if (level < 1 || level > view.num_levels()) {
    return Status::InvalidArgument(
        "level " + std::to_string(requested) + " out of range [1, " +
        std::to_string(view.num_levels()) + "]");
  }
  return level;
}

Status CheckNode(const shard::ShardedView& view, uint32_t node) {
  if (node >= view.graph().NumNodes()) {
    return Status::InvalidArgument(
        "node " + std::to_string(node) + " out of range (graph has " +
        std::to_string(view.graph().NumNodes()) + " nodes)");
  }
  return Status::OK();
}

/// Adds every entry of `from` into the same-named entry of `into`,
/// appending the names `into` lacks.
template <typename Entry, typename Add>
void SumByName(const std::vector<Entry>& from, std::vector<Entry>* into,
               const Add& add) {
  for (const Entry& entry : from) {
    const auto same =
        std::find_if(into->begin(), into->end(),
                     [&entry](const Entry& e) { return e.name == entry.name; });
    if (same == into->end()) {
      into->push_back(entry);
    } else {
      add(entry, &*same);
    }
  }
}

}  // namespace

// --- Backend: the one read path ----------------------------------------------

uint64_t Backend::StampFor(const shard::ShardedView& view) {
  // One shard never changes owner (a handoff needs two), so its epoch is
  // already a collision-free monotone stamp.
  if (view.num_shards() == 1) return view.shard(0).epoch();
  // Fold the view's assignment epoch in alongside the per-shard view
  // epochs: live migration changes which shard owns an edge without touching
  // any shard's view epoch, so a cached answer merged under the old
  // assignment would otherwise survive the swap. The epoch is the one
  // captured with the view's router; the server's current one could pair a
  // view merged under the old router with the new assignment.
  std::vector<uint64_t> epochs = view.Epochs();
  epochs.push_back(view.assignment_epoch());
  util::MutexLock lock(stamp_mutex_);
  if (epochs != last_epochs_) {
    last_epochs_ = std::move(epochs);
    ++stamp_;
  }
  return stamp_;
}

uint64_t Backend::Epoch() { return StampFor(server_->View()); }

Result<ClustersBody> Backend::Clusters(const QueryBody& query) {
  auto pinned = Pin(query.min_seq);
  ANC_RETURN_NOT_OK(pinned.status());
  const shard::ShardedView& view = pinned->view;
  auto level = ResolveLevel(view, query.level);
  ANC_RETURN_NOT_OK(level.status());
  Clustering clustering = view.Clusters(*level);
  ClustersBody body;
  body.epoch = StampFor(view);
  body.watermark_seq = pinned->covered_seq;
  body.level = *level;
  body.num_clusters = clustering.num_clusters;
  body.labels = std::move(clustering.labels);
  return body;
}

Result<MembersBody> Backend::LocalCluster(const QueryBody& query) {
  auto pinned = Pin(query.min_seq);
  ANC_RETURN_NOT_OK(pinned.status());
  const shard::ShardedView& view = pinned->view;
  ANC_RETURN_NOT_OK(CheckNode(view, query.node));
  auto level = ResolveLevel(view, query.level);
  ANC_RETURN_NOT_OK(level.status());
  MembersBody body;
  body.epoch = StampFor(view);
  body.watermark_seq = pinned->covered_seq;
  body.level = *level;
  body.members = view.LocalCluster(query.node, *level);
  return body;
}

Result<MembersBody> Backend::SmallestCluster(const QueryBody& query) {
  auto pinned = Pin(query.min_seq);
  ANC_RETURN_NOT_OK(pinned.status());
  const shard::ShardedView& view = pinned->view;
  ANC_RETURN_NOT_OK(CheckNode(view, query.node));
  MembersBody body;
  body.epoch = StampFor(view);
  body.watermark_seq = pinned->covered_seq;
  uint32_t level = 0;
  body.members = view.SmallestCluster(query.node, query.min_size, &level);
  body.level = level;
  return body;
}

Result<ZoomBody> Backend::Zoom(const QueryBody& query) {
  auto pinned = Pin(query.min_seq);
  ANC_RETURN_NOT_OK(pinned.status());
  const shard::ShardedView& view = pinned->view;
  ANC_RETURN_NOT_OK(CheckNode(view, query.node));
  ZoomBody body;
  body.epoch = StampFor(view);
  body.watermark_seq = pinned->covered_seq;
  body.default_level = view.DefaultLevel();
  body.cluster_sizes.reserve(view.num_levels());
  for (uint32_t level = 1; level <= view.num_levels(); ++level) {
    body.cluster_sizes.push_back(
        static_cast<uint32_t>(view.LocalCluster(query.node, level).size()));
  }
  return body;
}

obs::StatsSnapshot Backend::Stats() {
  obs::StatsSnapshot merged = server_->Stats();
  const auto add_value = [](const auto& from, auto* into) {
    into->value += from.value;
  };
  const auto add_histogram = [](const obs::StatsSnapshot::HistogramEntry& from,
                                obs::StatsSnapshot::HistogramEntry* into) {
    into->count += from.count;
    into->sum += from.sum;
    // Every histogram shares one bucket layout (obs/stats.h).
    for (size_t b = 0; b < into->buckets.size() && b < from.buckets.size();
         ++b) {
      into->buckets[b] += from.buckets[b];
    }
  };
  for (uint32_t s = 0; s < server_->num_shards(); ++s) {
    const obs::StatsSnapshot shard = server_->ShardStats(s);
    SumByName(shard.counters, &merged.counters, add_value);
    SumByName(shard.gauges, &merged.gauges, add_value);
    SumByName(shard.histograms, &merged.histograms, add_histogram);
  }
  return merged;
}

std::string Backend::StatsJson() { return Stats().ToJson(); }

std::string Backend::HealthJson() {
  const WatermarkBody mark = Watermark();
  const Status writer_status = server_->writer_status();
  const Status store_status = server_->store_status();
  obs::Json doc = obs::Json::Object();
  doc.Set("status", obs::Json::Str(writer_status.ok() && store_status.ok()
                                       ? "ok"
                                       : "degraded"));
  doc.Set("role", obs::Json::Str(follower() ? "follower" : "leader"));
  doc.Set("epoch", obs::Json::Number(static_cast<double>(mark.epoch)));
  doc.Set("watermark_seq", obs::Json::Number(static_cast<double>(mark.seq)));
  doc.Set("watermark_time", obs::Json::Number(mark.time));
  doc.Set("durable_seq",
          obs::Json::Number(static_cast<double>(mark.durable_seq)));
  doc.Set("ingest_depth",
          obs::Json::Number(static_cast<double>(server_->IngestDepth())));
  if (!writer_status.ok()) {
    doc.Set("writer_error", obs::Json::Str(writer_status.ToString()));
  }
  if (!store_status.ok()) {
    doc.Set("store_error", obs::Json::Str(store_status.ToString()));
  }
  return doc.Dump(2);
}

// --- ShardedBackend ---------------------------------------------------------

Result<SubmitAck> ShardedBackend::Submit(const Activation* data,
                                         size_t count) {
  SubmitAck ack;
  auto accepted = server_->SubmitBatch(data, count, &ack.last_seq);
  ANC_RETURN_NOT_OK(accepted.status());
  ack.accepted = *accepted;
  return ack;
}

Status ShardedBackend::Flush(std::chrono::milliseconds timeout) {
  return server_->Flush(timeout);
}

Status ShardedBackend::AwaitSeq(uint64_t seq,
                                std::chrono::milliseconds timeout) {
  return server_->AwaitSeq(seq, timeout);
}

Status ShardedBackend::FlushDurable(std::chrono::milliseconds timeout) {
  return server_->FlushDurable(timeout);
}

WatermarkBody ShardedBackend::Watermark() {
  const serve::Watermark published = server_->watermark();
  const serve::Watermark durable = server_->durable_watermark();
  return WatermarkBody{published.seq, published.time, durable.seq,
                       durable.time, Epoch()};
}

Result<Backend::Pinned> ShardedBackend::Pin(uint64_t min_seq) {
  // The watermark is read before the view: everything it covers is already
  // published, so the view captured after it covers it too.
  uint64_t covered = server_->watermark().seq;
  if (covered < min_seq) {
    // Once AwaitSeq returns, every later View() covers min_seq.
    ANC_RETURN_NOT_OK(server_->AwaitSeq(min_seq, kBarrierTimeout));
    covered = std::max(min_seq, server_->watermark().seq);
  }
  return Pinned{server_->View(), covered};
}

Result<LogChunkBody> ShardedBackend::PullLog(const PullLogBody& req) {
  if (server_->num_shards() != 1) {
    return Status::FailedPrecondition(
        "a sharded leader serves no single-stream replication log; "
        "replicate a one-shard leader (docs/networking.md)");
  }
  if (!server_->durable()) {
    return Status::FailedPrecondition(
        "only a durable leader replicates: its WAL is the replication log");
  }
  if (!server_->recovery_info().empty()) {
    return Status::FailedPrecondition(
        "a recovered leader restarted its tickets at 1 on top of the "
        "recovered state, so its log does not replay from a fresh replica");
  }
  // Only what leader recovery reproduces ships. The mark is read before
  // the WAL, so every frame it covers is already on disk.
  LogChunkBody chunk;
  chunk.ship_seq = server_->shard(0).durable_watermark().seq;
  const uint32_t max_records = req.max_records == 0 ? 64 : req.max_records;
  util::MutexLock lock(cursor_mutex_);
  store::WalReader wal(
      server_->shard_store(0)->dir(), req.after_seq,
      cursor_seq_ == req.after_seq ? cursor_position_ : store::WalPosition{});
  uint64_t covered = req.after_seq;
  store::WalPosition position = wal.position();
  store::WalRecord record;
  std::string_view frame;
  uint32_t shipped = 0;
  while (shipped < max_records && wal.Next(&record, &frame)) {
    if (record.last_seq() > chunk.ship_seq) break;  // not yet durable
    if (record.last_seq() > req.after_seq) {
      chunk.frames.append(frame);
      covered = record.last_seq();
      ++shipped;
    }
    position = wal.position();
  }
  if (shipped == 0 && !wal.status().ok()) return wal.status();
  cursor_seq_ = covered;
  cursor_position_ = position;
  return chunk;
}

}  // namespace anc::net
