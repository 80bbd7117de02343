#ifndef ANC_REBALANCE_MIGRATOR_H_
#define ANC_REBALANCE_MIGRATOR_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "shard/sharded_server.h"
#include "util/status.h"

namespace anc::rebalance {

/// Executes one live vertex migration against a running ShardedServer
/// (docs/sharding.md "Rebalancing & live migration"). Ingest continues
/// throughout; the old owner stays authoritative until a single atomic
/// router swap. The protocol, with `A` = old owner, `B` = new owner,
/// `M` = the moving vertex set:
///
///   0. BeginHandoff: route-lock flush, record A's frontier ticket S_A,
///      start side-buffering M-incident deliveries B doesn't already get;
///      journal the migration (phase = prepare).
///   1. Snapshot: fsync A, then filter A's WAL segments for M-incident
///      records with seq <= S_A that B never received, into sidecar-0
///      (a plain WAL segment file). [crash seam kMidMigrationImport]
///   2. Import: apply sidecar-0 to B's live index at a writer quiescent
///      point (never B's WAL — an aborted migration must leave B's
///      durable state untouched).
///   3. Catch-up: repeatedly drain the side buffer into B the same way
///      until the backlog is small.
///   4. Finalize (ShardedServer::FinalizeHandoff): under the route lock,
///      apply the residual to B, persist sidecar-1 (catch-up + residual),
///      journal phase = committed with B's quiesce ticket S_B and store
///      generation g0 [seam kPreMigrationCommit fires just before the
///      committed journal is the durable commit point], republish B, then
///      swap the router and bump the assignment epoch; persist the new
///      partition to shards.meta [seam kPostMigrationCommitPreMeta].
///   5. Cleanup: checkpoint B (folding the imports into its durable
///      state), then delete the journal and sidecars.
///
/// A crash before the committed journal rolls back (B's durable state
/// never changed; A is still the owner everywhere durable); a crash after
/// it rolls forward in ShardedServer::RecoverAll, which replays B under a
/// deferral gate and splices the sidecars back in at S_B.
///
/// Not thread-safe; run migrations from one coordinator thread.
class Migrator {
 public:
  /// `server` must be durable (a WAL is what makes the handoff
  /// recoverable and replayable) and outlive the migrator.
  explicit Migrator(shard::ShardedServer* server);

  /// Moves `moving` — vertices currently owned by one shard — to shard
  /// `to`, live. Exactness contract (docs/sharding.md): merged queries
  /// stay byte-identical to the unsharded oracle when the moving set's
  /// active neighborhood is closed (whole-community moves), same as the
  /// partition-local guarantee for static sharding.
  ///
  /// FailedPrecondition: server not running / not durable / another
  /// handoff active / A's WAL doesn't reach back to ticket 1 (a retention
  /// policy trimmed history the import needs) / B still holds imports
  /// from a previously rolled-back migration (an abort cannot undo live
  /// imports, so re-importing would double-count; rebuild from durable
  /// state first). InvalidArgument: bad shards, empty set, or vertices
  /// with mixed owners.
  Status Migrate(const std::vector<NodeId>& moving, uint32_t to);

  uint64_t migrations() const { return migrations_; }

 private:
  /// Writes the filtered WAL tail of shard `from` into sidecar path
  /// `path`: M-incident records with per-shard seq <= s_a whose edge is
  /// not already delivered to `to` under the current assignment.
  Status WriteWalTailSidecar(const std::string& path, uint32_t from,
                             uint64_t s_a,
                             const std::vector<uint8_t>& edge_in_handoff);

  /// Applies `batch` to shard `s`'s live index at a writer quiescent
  /// point.
  Status ApplyQuiesced(uint32_t s, const std::vector<Activation>& batch);

  shard::ShardedServer* server_;
  uint64_t migrations_ = 0;
};

}  // namespace anc::rebalance

#endif  // ANC_REBALANCE_MIGRATOR_H_
