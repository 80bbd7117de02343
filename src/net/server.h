#ifndef ANC_NET_SERVER_H_
#define ANC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/backend.h"
#include "net/cache.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace anc::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port from port()
};

/// The networked serving front-end (docs/networking.md): a blocking
/// acceptor thread plus a fixed worker pool (over anc::ThreadPool)
/// serving the length-prefixed CRC-framed RPC protocol of net/protocol.h
/// over TCP, in front of a Backend (a leader over k >= 1 shards, or a
/// follower replica).
///
/// Request path per frame: decode + validate (parser discipline of PR 7)
/// -> epoch-keyed cache lookup for read ops -> backend dispatch -> cache
/// fill under the *answering* epoch. The frame's tenant id is carried but
/// not enforced.
/// The first request that observes a newer backend epoch invalidates the
/// cache wholesale (publish = invalidation).
///
/// Concurrency: one worker owns one connection at a time (requests on a
/// connection are processed in order; different connections in parallel).
/// ThreadPool only offers a blocking ParallelFor, so a dedicated runner
/// thread parks inside pool.ParallelFor(kNumWorkers, worker_loop) for the
/// server's lifetime and the workers pop connections from a bounded queue
/// (kAcceptBacklog; accepts beyond it are closed at once).
class NetServer {
 public:
  /// `backend` must outlive the server. Metrics (anc.net.*) land in the
  /// server's own registry, exposed alongside the backend's by kMetrics.
  NetServer(Backend* backend, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and starts acceptor + workers.
  Status Start();

  /// Shuts the listener and every live connection down, then joins all
  /// threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolves an ephemeral request); valid after Start().
  uint16_t port() const { return port_; }

  QueryCache& cache() { return cache_; }
  obs::MetricsRegistry& metrics() { return registry_; }
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop(size_t worker);
  /// Serves one connection until EOF / error / shutdown.
  void ServeConn(int fd);
  /// Handles one decoded request payload; appends the response frame to
  /// *out. Returns false when the payload is malformed beyond answering
  /// (the connection must drop).
  bool HandleRequest(std::string_view payload, std::string* out);
  /// Dispatches an admitted request to the backend; returns the response
  /// body or the error to encode. *cacheable marks read ops whose OK
  /// responses may be cached; *answer_epoch receives the answering epoch.
  Status Dispatch(Op op, ByteReader* in, std::string* body, bool* cacheable,
                  std::string* cache_args, uint64_t* answer_epoch);

  /// Wholesale invalidation: drops entries below the newest observed
  /// backend epoch (monotone; lock-free fast path when unchanged).
  void ObserveEpoch(uint64_t epoch);

  Backend* backend_;
  NetServerOptions options_;

  mutable obs::MetricsRegistry registry_;
  QueryCache cache_;

  ThreadPool pool_;
  std::thread runner_;    ///< parks inside pool_.ParallelFor
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  /// Bounded hand-off queue acceptor -> workers.
  util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  std::vector<int> conn_queue_ ANC_GUARDED_BY(queue_mutex_);

  /// Live connection fds, so Stop() can shutdown() blocked workers.
  util::Mutex conns_mutex_;
  std::vector<int> active_conns_ ANC_GUARDED_BY(conns_mutex_);

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> highest_epoch_{0};

  obs::CounterId requests_id_;
  obs::CounterId bad_frames_id_;
  obs::CounterId conns_id_;
  obs::CounterId conns_shed_id_;
  obs::HistogramId request_us_;
};

}  // namespace anc::net

#endif  // ANC_NET_SERVER_H_
