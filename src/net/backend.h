#ifndef ANC_NET_BACKEND_H_
#define ANC_NET_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "shard/sharded_server.h"
#include "shard/sharded_view.h"
#include "store/store.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::net {

/// What the networked front-end serves (docs/networking.md): one
/// ShardedServer engine (k >= 1 shards), either as the leader that takes
/// writes or as a follower replica fed by the leader's log.
///
/// Contract for the read ops (Clusters / LocalCluster / SmallestCluster /
/// Zoom), one code path for every backend: Pin enforces the `min_seq` read
/// barrier and captures ONE ShardedView, the answer comes entirely from it,
/// and the body reports the view's publish stamp and the leader ticket the
/// view covers. The stamp is the cache key the front-end stores the
/// response under — pinning makes the pair (stamp, response) exact even
/// while the shards publish newer epochs mid-request. A leader waits for
/// the barrier; a follower refuses Unavailable (the client then falls back
/// to the leader).
class Backend {
 public:
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// True for a follower replica: reads are flagged kFlagFollower and
  /// writes are refused.
  virtual bool follower() const { return false; }

  // --- Writes -------------------------------------------------------------
  virtual Result<SubmitAck> Submit(const Activation* data, size_t count) = 0;
  virtual Status Flush(std::chrono::milliseconds timeout) = 0;
  virtual Status AwaitSeq(uint64_t seq, std::chrono::milliseconds timeout) = 0;
  virtual Status FlushDurable(std::chrono::milliseconds timeout) = 0;

  // --- Watermarks / provenance --------------------------------------------
  virtual WatermarkBody Watermark() = 0;
  /// Current publish stamp: monotone, advances exactly when a read could
  /// observe a different snapshot. The front-end invalidates its cache
  /// wholesale whenever this moves.
  ///
  /// Per-shard epochs form a vector, and no single u64 of it (e.g. the sum)
  /// is collision-free — shard A publishing while B idles must not collide
  /// with B publishing while A idles. Each distinct epoch vector (plus the
  /// assignment epoch) is therefore registered under a process-local
  /// monotone stamp; a cache hit requires the exact same registered vector.
  /// With one shard the epoch itself is the stamp.
  uint64_t Epoch();

  // --- Reads (pin one snapshot; fill epoch + watermark_seq) ---------------
  Result<ClustersBody> Clusters(const QueryBody& query);
  Result<MembersBody> LocalCluster(const QueryBody& query);
  Result<MembersBody> SmallestCluster(const QueryBody& query);
  Result<ZoomBody> Zoom(const QueryBody& query);

  // --- Introspection ------------------------------------------------------
  std::string StatsJson();
  std::string HealthJson();
  /// Metric snapshot for the Prometheus exposition op: the router's series
  /// plus every shard's own registry, summed by name.
  obs::StatsSnapshot Stats();

  // --- Replication --------------------------------------------------------
  /// Leader-side log stream: WAL frames covering tickets after
  /// `req.after_seq`, capped at the ship mark. FailedPrecondition when this
  /// backend does not serve a log. `req.follower_id` is ignored.
  virtual Result<LogChunkBody> PullLog(const PullLogBody& req) = 0;

 protected:
  /// `server` answers the reads; it must be started and outlive the
  /// backend.
  explicit Backend(shard::ShardedServer* server) : server_(server) {}

  /// One pinned snapshot and the leader ticket it is known to cover.
  struct Pinned {
    shard::ShardedView view;
    uint64_t covered_seq = 0;
  };

  /// Enforces the min_seq barrier, then pins one view.
  virtual Result<Pinned> Pin(uint64_t min_seq) = 0;

  /// The publish stamp of a captured view (see Epoch()).
  uint64_t StampFor(const shard::ShardedView& view);

  shard::ShardedServer* const server_;

 private:
  util::Mutex stamp_mutex_;
  std::vector<uint64_t> last_epochs_ ANC_GUARDED_BY(stamp_mutex_);
  uint64_t stamp_ ANC_GUARDED_BY(stamp_mutex_) = 0;
};

/// The leader backend over a ShardedServer (k >= 1): writes route through
/// the sharded ingest as one SubmitBatch, reads are byte-identical to
/// in-process ShardedView queries, and every watermark is in the server's
/// global tickets.
///
/// A durable one-shard leader replicates: its WAL is the replication log,
/// and PullLog ships shard 0's on-disk frames up to its durable mark, so a
/// follower is never ahead of what leader recovery reproduces. The frames
/// carry shard-0 tickets. They equal the global tickets until a delivery is
/// refused and trail them afterwards, so a follower's marks stay a lower
/// bound of the leader tickets it covers. PullLog is FailedPrecondition for
/// a non-durable leader, for k > 1 (the shards' streams do not form one;
/// docs/networking.md "Replication and sharding") and for a leader built by
/// RecoverAll (its tickets restarted at 1 on top of the recovered state).
class ShardedBackend : public Backend {
 public:
  /// `server` must be started and outlive the backend.
  explicit ShardedBackend(shard::ShardedServer* server) : Backend(server) {}

  Result<SubmitAck> Submit(const Activation* data, size_t count) override;
  Status Flush(std::chrono::milliseconds timeout) override;
  Status AwaitSeq(uint64_t seq, std::chrono::milliseconds timeout) override;
  Status FlushDurable(std::chrono::milliseconds timeout) override;
  WatermarkBody Watermark() override;
  Result<LogChunkBody> PullLog(const PullLogBody& req) override;

 private:
  Result<Pinned> Pin(uint64_t min_seq) override;

  /// Where the last pull stopped: every frame before `position` covers
  /// tickets <= `seq`, so a pull after `seq` (a caught-up follower's next
  /// poll) resumes there instead of rescanning its segment.
  util::Mutex cursor_mutex_;
  uint64_t cursor_seq_ ANC_GUARDED_BY(cursor_mutex_) = 0;
  store::WalPosition cursor_position_ ANC_GUARDED_BY(cursor_mutex_);
};

}  // namespace anc::net

#endif  // ANC_NET_BACKEND_H_
