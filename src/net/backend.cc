#include "net/backend.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"
#include "store/wal.h"

namespace anc::net {
namespace {

/// How long a leader read waits for its min_seq barrier.
constexpr std::chrono::milliseconds kBarrierTimeout{5000};

/// Replication log budget. Overflow drops the oldest frames, and a follower
/// that still needed them gets FailedPrecondition and must re-bootstrap.
/// Bounds the RAM of a leader that no follower drains.
constexpr size_t kMaxLogBytes = size_t{64} << 20;

/// A follower that has not pulled within this window no longer pins the
/// replication log (it re-bootstraps if it comes back too late).
constexpr std::chrono::milliseconds kFollowerExpiry{10000};

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

ShardedBackend::ShardedBackend(shard::ShardedServer* server)
    : Backend(server),
      repl_log_bytes_id_(server->metrics().Gauge("anc.net.repl_log_bytes")) {}

void ShardedBackend::UpdateLogGaugeLocked() {
  server_->metrics().Set(repl_log_bytes_id_, static_cast<int64_t>(log_bytes_));
}

size_t ShardedBackend::replication_log_bytes() const {
  util::MutexLock lock(log_mutex_);
  return log_bytes_;
}

void ShardedBackend::TrimAckedLocked() {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = followers_.begin(); it != followers_.end();) {
    if (now - it->second.last_seen > kFollowerExpiry) {
      it = followers_.erase(it);
    } else {
      ++it;
    }
  }
  if (followers_.empty()) return;
  uint64_t min_acked = UINT64_MAX;
  for (const auto& [id, ack] : followers_) {
    min_acked = std::min(min_acked, ack.acked_seq);
  }
  // Every live follower holds tickets <= min_acked; shipping them again
  // is impossible (pulls are strictly after the ack), so the entries are
  // dead weight.
  while (!log_.empty() && log_.front().last_seq <= min_acked) {
    log_bytes_ -= log_.front().frame.size();
    log_base_seq_ = std::max(log_base_seq_, log_.front().last_seq);
    log_.pop_front();
  }
}

Result<SubmitAck> ShardedBackend::Submit(const Activation* data,
                                         size_t count) {
  // Ticket issue and log append are one critical section: once the batch
  // holds tickets, the record covering them is already in the log, so the
  // watermark can never advance past a ticket PullLog cannot ship.
  // (SubmitBatch can block on ingest backpressure while this is held —
  // replication pulls then wait too, which is the correct order: a
  // follower must not outrun the leader's own ingest.)
  util::MutexLock lock(log_mutex_);
  uint64_t last_seq = 0;
  auto accepted = server_->SubmitBatch(data, count, &last_seq);
  ANC_RETURN_NOT_OK(accepted.status());
  SubmitAck ack;
  ack.accepted = *accepted;
  ack.last_seq = last_seq;
  if (server_->num_shards() == 1 && *accepted > 0) {
    if (*accepted == count) {
      LogEntry entry;
      entry.first_seq = last_seq - count + 1;
      entry.last_seq = last_seq;
      store::AppendWalFrame(&entry.frame, data, count, entry.first_seq);
      log_bytes_ += entry.frame.size();
      log_.push_back(std::move(entry));
      while (log_bytes_ > kMaxLogBytes && !log_.empty()) {
        log_bytes_ -= log_.front().frame.size();
        log_base_seq_ = log_.front().last_seq;
        log_.pop_front();
      }
    } else {
      // The queue refused some entries mid-batch; which tickets map to
      // which applied activations is no longer known, so the log has a
      // hole. Followers past this point must re-bootstrap.
      log_base_seq_ = std::max(log_base_seq_, last_seq);
      log_bytes_ = 0;
      log_.clear();
    }
    UpdateLogGaugeLocked();
  }
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
  // The ship mark caps what followers may apply: the durable watermark
  // when the leader runs with durability (a follower must never be ahead
  // of what leader recovery reproduces), the published watermark
  // otherwise.
  const uint64_t ship_mark = server_->durable()
                                 ? server_->durable_watermark().seq
                                 : server_->watermark().seq;
  LogChunkBody chunk;
  chunk.ship_seq = ship_mark;
  util::MutexLock lock(log_mutex_);
  if (req.follower_id != 0) {
    // The pull is the ack: the follower owns everything <= after_seq, so
    // record it (even when this pull then fails the trimmed-log check —
    // the ack is true regardless) and drop whatever every live follower
    // has acked.
    FollowerAck& ack = followers_[req.follower_id];
    ack.acked_seq = std::max(ack.acked_seq, req.after_seq);
    ack.last_seen = std::chrono::steady_clock::now();
    TrimAckedLocked();
    UpdateLogGaugeLocked();
  }
  if (req.after_seq < log_base_seq_) {
    return Status::FailedPrecondition(
        "replication log trimmed past seq " + std::to_string(req.after_seq) +
        " (log starts after " + std::to_string(log_base_seq_) +
        "); follower must re-bootstrap");
  }
  uint32_t shipped = 0;
  const uint32_t max_records = req.max_records == 0 ? 64 : req.max_records;
  for (const LogEntry& entry : log_) {
    if (entry.last_seq <= req.after_seq) continue;
    if (entry.last_seq > ship_mark) break;  // not yet shippable
    if (shipped == max_records) break;
    chunk.frames.append(entry.frame);
    ++shipped;
  }
  return chunk;
}

}  // namespace anc::net
