#ifndef ANC_NET_REPLICA_H_
#define ANC_NET_REPLICA_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "core/anc.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/protocol.h"
#include "shard/sharded_server.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::net {

/// A WAL-shipping follower replica (docs/networking.md "Replication").
///
/// The follower owns a full replica of the leader's index — same graph,
/// same config, hence (by construction determinism, the same argument the
/// sharding layer rests on) an identical initial state — and applies the
/// leader's WAL records in ticket order through its own one-shard
/// ShardedServer. Because the activation stream fully determines the index
/// state, replica snapshots are byte-identical to leader snapshots at the
/// same ticket horizon.
///
/// The applied mark (`applied_leader_seq`, in LEADER ticket space)
/// advances only after the applied records are *published* in the replica
/// view, so a read answered under a captured mark is always covered by the
/// pinned snapshot — the min_seq barrier is exact.
class Follower {
 public:
  /// Builds the replica server over `graph` (must outlive the follower)
  /// and starts serving. `serve_options` shapes the replica's publish
  /// cadence; durability/store must stay unset (the leader owns the log of
  /// record — a follower re-bootstraps from it).
  static Result<std::unique_ptr<Follower>> Create(
      const Graph& graph, const AncConfig& config,
      serve::ServeOptions serve_options = {});

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Applies every WAL record in `chunk.frames` (store:: frame bytes, in
  /// ticket order): records at or below the submitted mark are skipped as
  /// duplicates, the rest are submitted to the replica and published
  /// (Flush) before the applied mark advances. A corrupt frame fails
  /// InvalidArgument, and a record that does not start right after the
  /// submitted mark (a lost record) fails FailedPrecondition, with nothing
  /// past either applied — but the prefix before it IS published, so the
  /// puller's retry (which re-pulls from the applied mark) never re-applies
  /// a record that already made it in.
  Status ApplyChunk(const LogChunkBody& chunk);

  /// Last leader ticket covered by the replica's published view.
  uint64_t applied_leader_seq() const {
    return applied_.load(std::memory_order_acquire);
  }

  /// Blocks until the applied mark covers `seq` (Unavailable on timeout).
  Status AwaitApplied(uint64_t seq, std::chrono::milliseconds timeout);

  shard::ShardedServer& server() { return *server_; }
  const shard::ShardedServer& server() const { return *server_; }

 private:
  Follower() = default;

  std::unique_ptr<shard::ShardedServer> server_;

  util::Mutex apply_mutex_;  ///< serializes ApplyChunk (puller + tests)
  /// Last leader ticket *ingested* into the replica server — the dedup
  /// horizon. Runs ahead of `applied_` when a chunk fails mid-way (or its
  /// publish Flush fails): the puller re-pulls from the applied mark and
  /// ApplyChunk skips everything at or below this mark, so a retried
  /// record is never submitted twice (which would silently diverge the
  /// replica from the leader).
  uint64_t submitted_ ANC_GUARDED_BY(apply_mutex_) = 0;
  std::atomic<uint64_t> applied_{0};

  util::Mutex applied_mutex_;  ///< wait-side of the applied mark
  util::CondVar applied_cv_;
};

/// Read-only Backend over a Follower: the NetServer fronting a replica
/// serves the same read ops as a leader, flags every response kFlagFollower,
/// reports watermarks in leader ticket space, and refuses writes
/// (FailedPrecondition — write to the leader).
///
/// Bounded staleness: a read whose min_seq barrier exceeds the applied
/// mark waits a few milliseconds for replication to catch up, then refuses
/// Unavailable — the client's cue to fall back to the leader.
class FollowerBackend : public Backend {
 public:
  /// `follower` must outlive the backend.
  explicit FollowerBackend(Follower* follower);

  bool follower() const override { return true; }

  Result<SubmitAck> Submit(const Activation* data, size_t count) override;
  Status Flush(std::chrono::milliseconds timeout) override;
  Status AwaitSeq(uint64_t seq, std::chrono::milliseconds timeout) override;
  Status FlushDurable(std::chrono::milliseconds timeout) override;
  WatermarkBody Watermark() override;
  Result<LogChunkBody> PullLog(const PullLogBody& req) override;

 private:
  /// Enforces the barrier, then captures (applied mark, pinned view) in
  /// that order — the mark advances only after publication, so the view
  /// always covers the mark it is reported under.
  Result<Pinned> Pin(uint64_t min_seq) override;

  Follower* follower_;
};

/// The follower's pull loop: a background thread that drains the leader's
/// replication log (kPullLog) into Follower::ApplyChunk. Pausable — the
/// injected-stall lever the staleness tests use.
class ReplicationPuller {
 public:
  /// `follower` must outlive the puller; `leader` is the puller's own
  /// connection to the leader front-end.
  ReplicationPuller(Follower* follower, std::unique_ptr<Client> leader);
  ~ReplicationPuller();

  void Start();
  void Stop();

  /// Pauses (true) / resumes (false) pulling — simulates a leader stall /
  /// partition without tearing down connections.
  void Pause(bool paused) {
    paused_.store(paused, std::memory_order_release);
  }
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  /// Most recent pull/apply error (OK when healthy). Errors do not stop
  /// the loop — replication retries forever; staleness is the damage.
  Status last_status() const;

  uint64_t pulls() const { return pulls_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  Follower* follower_;
  std::unique_ptr<Client> leader_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> pulls_{0};

  mutable util::Mutex status_mutex_;
  Status last_status_ ANC_GUARDED_BY(status_mutex_);
};

}  // namespace anc::net

#endif  // ANC_NET_REPLICA_H_
