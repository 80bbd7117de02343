#ifndef ANC_NET_CLIENT_H_
#define ANC_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::net {

/// Blocking RPC client over one TCP connection (docs/networking.md). One
/// request is in flight at a time; calls are serialized on an internal
/// mutex, so a client may be shared across threads (per-thread clients
/// scale better — the bench uses one per worker). A server-side Status is
/// surfaced verbatim: the response carries the code and message, and the
/// call returns exactly that Status.
struct ClientOptions {
  /// Stamped into every request frame; the server does not enforce it.
  uint64_t tenant_id = 0;
};

class Client {
 public:
  using Options = ClientOptions;

  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 Options options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Ops ----------------------------------------------------------------
  Result<WatermarkBody> Ping();
  Result<SubmitAck> Submit(const Activation& activation);
  Result<SubmitAck> SubmitBatch(const std::vector<Activation>& activations);
  Result<WatermarkBody> Flush();
  Result<WatermarkBody> AwaitSeq(uint64_t seq, uint32_t timeout_ms = 60000);
  Result<WatermarkBody> FlushDurable();
  Result<WatermarkBody> Watermark();
  Result<ClustersBody> Clusters(uint32_t level = 0, uint64_t min_seq = 0);
  Result<MembersBody> LocalCluster(uint32_t node, uint32_t level = 0,
                                   uint64_t min_seq = 0);
  Result<MembersBody> SmallestCluster(uint32_t node, uint32_t min_size = 2,
                                      uint64_t min_seq = 0);
  Result<ZoomBody> Zoom(uint32_t node, uint64_t min_seq = 0);
  Result<std::string> StatsJson();
  Result<std::string> HealthJson();
  /// Prometheus text exposition of the server's metrics (the /metrics op).
  Result<std::string> Metrics();
  Result<LogChunkBody> PullLog(uint64_t after_seq, uint32_t max_records = 64);

  // --- Introspection ------------------------------------------------------
  /// Response flags of the last completed call (kFlagCacheHit /
  /// kFlagFollower) — how the answer was produced.
  uint16_t last_flags() const {
    return last_flags_.load(std::memory_order_relaxed);
  }
  uint64_t tenant_id() const { return options_.tenant_id; }

 private:
  Client(int fd, Options options);

  /// One round trip: frames (header, body) out, one response frame in.
  /// On a response carrying a non-OK code, returns that exact Status.
  /// On a transport error the connection is dead (mid-stream state is
  /// unrecoverable) and every later call fails.
  Result<std::string> Call(Op op, const std::string& body);

  Options options_;
  util::Mutex mutex_;
  int fd_ ANC_GUARDED_BY(mutex_);
  uint64_t next_request_id_ ANC_GUARDED_BY(mutex_) = 1;
  bool broken_ ANC_GUARDED_BY(mutex_) = false;
  std::atomic<uint16_t> last_flags_{0};
};

/// Read fan-out over one leader and N followers (docs/networking.md
/// "Bounded staleness"). Writes always go to the leader. Reads carry a
/// `min_seq` barrier (the session's last write ticket, tracked
/// automatically) and round-robin across followers; a follower that cannot
/// cover the barrier — or whose connection died — falls back to the
/// leader, so staleness never exceeds the bound and answers are always
/// served. Thread-safe to share; per-thread instances scale better.
class ReplicaSetClient {
 public:
  /// Connects the leader plus each follower endpoint. Follower connect
  /// failures are fatal here (fail fast at wiring time); runtime follower
  /// failures fall back to the leader per call.
  static Result<std::unique_ptr<ReplicaSetClient>> Connect(
      const std::string& leader_host, uint16_t leader_port,
      const std::vector<std::pair<std::string, uint16_t>>& followers,
      Client::Options options = {});

  // --- Writes (leader) ----------------------------------------------------
  Result<SubmitAck> Submit(const Activation& activation);
  Result<SubmitAck> SubmitBatch(const std::vector<Activation>& activations);
  Result<WatermarkBody> Flush();
  Result<WatermarkBody> FlushDurable();

  // --- Reads (followers, leader fallback) ---------------------------------
  Result<ClustersBody> Clusters(uint32_t level = 0);
  Result<MembersBody> LocalCluster(uint32_t node, uint32_t level = 0);
  Result<MembersBody> SmallestCluster(uint32_t node, uint32_t min_size = 2);
  Result<ZoomBody> Zoom(uint32_t node);

  /// The read barrier used for follower reads: the last ticket this
  /// client's writes were acknowledged at (read-your-writes). Overridable
  /// for sessions that need a stronger/weaker bound.
  uint64_t min_seq() const { return min_seq_.load(std::memory_order_relaxed); }
  void set_min_seq(uint64_t seq) {
    min_seq_.store(seq, std::memory_order_relaxed);
  }

  /// Reads answered by a follower vs. the leader-fallback count.
  uint64_t follower_reads() const {
    return follower_reads_.load(std::memory_order_relaxed);
  }
  uint64_t leader_fallbacks() const {
    return leader_fallbacks_.load(std::memory_order_relaxed);
  }

  Client& leader() { return *leader_; }
  size_t num_followers() const { return followers_.size(); }

 private:
  ReplicaSetClient() = default;

  void NoteWrite(const SubmitAck& ack);
  /// Raises min_seq_ to at least `seq` (CAS loop; concurrent writers).
  void RaiseMinSeq(uint64_t seq);

  /// Runs `read` against the next follower with the current barrier; on a
  /// failure the leader could answer differently (barrier refusal, dead
  /// connection, unusable reply), retries on the leader. Deterministic
  /// failures (e.g. InvalidArgument for a bad node/level) are returned
  /// directly — they would fail identically there.
  template <typename BodyT, typename Fn>
  Result<BodyT> ReadWithFallback(const Fn& read);

  std::unique_ptr<Client> leader_;
  std::vector<std::unique_ptr<Client>> followers_;
  std::atomic<size_t> next_follower_{0};
  std::atomic<uint64_t> min_seq_{0};
  std::atomic<uint64_t> follower_reads_{0};
  std::atomic<uint64_t> leader_fallbacks_{0};
};

}  // namespace anc::net

#endif  // ANC_NET_CLIENT_H_
