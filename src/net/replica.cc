#include "net/replica.h"

#include <utility>
#include <vector>

#include "store/wal.h"

namespace anc::net {
namespace {

/// How long a follower read waits for replication to reach its min_seq
/// barrier before refusing Unavailable. Deliberately short: a follower's
/// job is to be cheap, not to block.
constexpr std::chrono::milliseconds kBarrierWait{20};

}  // namespace

// --- Follower ---------------------------------------------------------------

Result<std::unique_ptr<Follower>> Follower::Create(
    const Graph& graph, const AncConfig& config,
    serve::ServeOptions serve_options) {
  if (serve_options.durability != serve::DurabilityPolicy::kNone) {
    return Status::InvalidArgument(
        "followers run without local durability: the leader's log is the "
        "record of truth, a lost follower re-bootstraps from it");
  }
  shard::ShardedOptions options;
  options.partition.num_shards = 1;
  options.serve = serve_options;
  auto server = shard::ShardedServer::Create(graph, config, std::move(options));
  ANC_RETURN_NOT_OK(server.status());
  ANC_RETURN_NOT_OK(server.value()->Start());
  auto follower = std::unique_ptr<Follower>(new Follower());
  follower->server_ = std::move(server).value();
  return follower;
}

Status Follower::ApplyChunk(const LogChunkBody& chunk) {
  util::MutexLock apply_lock(apply_mutex_);
  const uint8_t* data =
      reinterpret_cast<const uint8_t*>(chunk.frames.data());
  size_t remaining = chunk.frames.size();
  // Dedup against the *submitted* mark, not the applied one: after a
  // mid-chunk or publish failure the puller retries from the (stale)
  // applied mark, and the records it re-ships must be skipped — submitting
  // them again would apply activations twice and silently diverge the
  // replica from the leader.
  Status failure;
  while (remaining > 0 && failure.ok()) {
    size_t consumed = 0;
    auto record = store::DecodeWalFrame(data, remaining, &consumed);
    if (!record.ok()) {
      failure = record.status();
      break;
    }
    data += consumed;
    remaining -= consumed;
    if (record->activations.empty()) continue;
    if (record->last_seq() <= submitted_) continue;  // duplicate delivery
    if (record->first_seq <= submitted_) {
      failure = Status::InvalidArgument(
          "replication record [" + std::to_string(record->first_seq) + ", " +
          std::to_string(record->last_seq()) +
          "] straddles the submitted mark " + std::to_string(submitted_));
      break;
    }
    auto accepted = server_->SubmitBatch(record->activations.data(),
                                         record->activations.size());
    if (!accepted.ok()) {
      failure = accepted.status();
      break;
    }
    if (*accepted != record->activations.size()) {
      failure = Status::Internal(
          "replica ingest refused " +
          std::to_string(record->activations.size() - *accepted) +
          " of a replicated record — replica state would diverge");
      break;
    }
    submitted_ = record->last_seq();
  }
  if (submitted_ > applied_.load(std::memory_order_acquire)) {
    // Publish the fully-applied prefix even when a later record failed —
    // the retry path depends on the mark covering everything already
    // ingested. Publish before the mark moves: a reader that sees the new
    // mark must find every covered record in the replica's published view.
    // If the Flush itself fails the mark stays put and the next
    // (re-pulled) chunk retries the publish; the submitted mark keeps the
    // retry idempotent.
    Status flushed = server_->Flush();
    if (!flushed.ok()) return failure.ok() ? flushed : failure;
    {
      util::MutexLock lock(applied_mutex_);
      applied_.store(submitted_, std::memory_order_release);
    }
    applied_cv_.NotifyAll();
  }
  return failure;
}

Status Follower::AwaitApplied(uint64_t seq,
                              std::chrono::milliseconds timeout) {
  util::MutexLock lock(applied_mutex_);
  const bool covered = applied_cv_.WaitFor(applied_mutex_, timeout, [&] {
    applied_mutex_.AssertHeld();
    return applied_.load(std::memory_order_acquire) >= seq;
  });
  if (!covered) {
    return Status::Unavailable(
        "follower applied mark " +
        std::to_string(applied_.load(std::memory_order_acquire)) +
        " has not reached " + std::to_string(seq) +
        " (replication lag exceeds the staleness bound)");
  }
  return Status::OK();
}

// --- FollowerBackend --------------------------------------------------------

FollowerBackend::FollowerBackend(Follower* follower)
    : Backend(&follower->server()), follower_(follower) {}

Result<SubmitAck> FollowerBackend::Submit(const Activation* data,
                                          size_t count) {
  (void)data;
  (void)count;
  return Status::FailedPrecondition(
      "follower replicas are read-only; submit to the leader");
}

Status FollowerBackend::Flush(std::chrono::milliseconds timeout) {
  (void)timeout;
  return Status::FailedPrecondition(
      "follower replicas take no writes, so there is nothing to flush; "
      "flush the leader");
}

Status FollowerBackend::AwaitSeq(uint64_t seq,
                                 std::chrono::milliseconds timeout) {
  return follower_->AwaitApplied(seq, timeout);
}

Status FollowerBackend::FlushDurable(std::chrono::milliseconds timeout) {
  (void)timeout;
  return Status::FailedPrecondition(
      "follower replicas run without local durability; FlushDurable on the "
      "leader");
}

WatermarkBody FollowerBackend::Watermark() {
  // Capture the mark before the view: the mark only advances after
  // publication, so the view is always at least as fresh as the mark.
  const uint64_t applied = follower_->applied_leader_seq();
  const shard::ShardedView view = server_->View();
  WatermarkBody mark;
  mark.seq = applied;  // leader ticket space
  mark.time = view.MaxTime();
  mark.epoch = StampFor(view);
  return mark;
}

Result<Backend::Pinned> FollowerBackend::Pin(uint64_t min_seq) {
  if (follower_->applied_leader_seq() < min_seq) {
    ANC_RETURN_NOT_OK(follower_->AwaitApplied(min_seq, kBarrierWait));
  }
  const uint64_t applied = follower_->applied_leader_seq();
  return Pinned{server_->View(), applied};
}

Result<LogChunkBody> FollowerBackend::PullLog(const PullLogBody& req) {
  (void)req;
  return Status::FailedPrecondition(
      "followers do not re-ship the log; pull from the leader");
}

// --- ReplicationPuller ------------------------------------------------------

ReplicationPuller::ReplicationPuller(Follower* follower,
                                     std::unique_ptr<Client> leader,
                                     Options options)
    : follower_(follower), leader_(std::move(leader)), options_(options) {}

ReplicationPuller::~ReplicationPuller() { Stop(); }

void ReplicationPuller::Start() {
  if (running_.exchange(true)) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void ReplicationPuller::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

Status ReplicationPuller::last_status() const {
  util::MutexLock lock(status_mutex_);
  return last_status_;
}

void ReplicationPuller::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (paused_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(options_.poll_interval);
      continue;
    }
    auto chunk = leader_->PullLog(follower_->applied_leader_seq(),
                                  options_.max_records_per_pull,
                                  options_.follower_id);
    pulls_.fetch_add(1, std::memory_order_relaxed);
    // Re-check the pause between pull and apply: a pull in flight when
    // Pause() landed may carry records written after it, and a "stalled"
    // puller must not apply them (the stall must be an actual stall).
    if (paused_.load(std::memory_order_acquire)) continue;
    Status status = chunk.status();
    if (status.ok() && !chunk->frames.empty()) {
      status = follower_->ApplyChunk(*chunk);
    }
    {
      util::MutexLock lock(status_mutex_);
      last_status_ = status;
    }
    if (!status.ok() || !chunk.ok() || chunk->frames.empty()) {
      // Idle or unhealthy: back off one poll interval and retry —
      // replication never gives up, it just lags.
      std::this_thread::sleep_for(options_.poll_interval);
    }
  }
}

}  // namespace anc::net
