#ifndef ANC_TIER_TIERED_STORE_H_
#define ANC_TIER_TIERED_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/anc.h"
#include "obs/metrics.h"
#include "tier/column.h"
#include "tier/compactor.h"
#include "tier/segment.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::tier {

struct TierOptions {
  /// Resident-delta cap for the tiered columns. 0 = no cap (pages still
  /// spill at checkpoints so heads stay incremental, but Maintain never
  /// demotes for space).
  uint64_t tier_budget_bytes = 0;
  /// Elements per column page (power of two). Smaller pages track the
  /// hot set more precisely; larger pages amortize directory overhead.
  size_t page_elems = 4096;
  /// Background compaction fires once this many live segments accumulate.
  size_t compact_min_segments = 8;
  /// Run the background compactor thread (tests and the CLI use
  /// CompactNow() instead when false).
  bool background_compaction = true;
};

/// Point-in-time tier health for tier-stats / bench reporting.
struct TierStats {
  uint64_t budget_bytes = 0;
  uint64_t resident_bytes = 0;  ///< column payload bytes held in RAM
  uint64_t cold_bytes = 0;      ///< payload bytes in live segments
  uint64_t segments = 0;        ///< live (referenced) segment files
  uint64_t columns = 0;
  uint64_t pages_total = 0;
  uint64_t pages_resident = 0;
  uint64_t spills = 0;          ///< spill rounds that wrote a segment
  uint64_t spilled_pages = 0;
  uint64_t spilled_bytes = 0;
  uint64_t promotions = 0;      ///< cold pages copied back for writes
  uint64_t promoted_bytes = 0;
  uint64_t compactions = 0;     ///< merged segment installs
  uint64_t segments_deleted = 0;
};

/// The tier manifest ("ANCTMN01", file `<tier_dir>/TIERMANIFEST`): the
/// durable record of which sealed segments are live plus the next segment
/// id, swapped atomically (temp file + rename + dir fsync) after every
/// spill and every compaction install. Segments on disk but not in the
/// manifest (and not referenced by the installed checkpoint head) are
/// garbage a crash left behind.
struct TierManifest {
  uint64_t next_segment_id = 1;
  std::vector<std::string> segments;  ///< live segment file names, oldest first
};

/// NotFound when no manifest exists yet.
Result<TierManifest> ReadTierManifest(const std::string& tier_dir);
/// Atomic swap; the kPreTierManifestSwap crash seam fires before the
/// rename.
Status WriteTierManifest(const std::string& tier_dir,
                         const TierManifest& manifest);

/// Segment file name for `id` (seg-<id>.tseg); Parse inverts it.
std::string SegmentFileName(uint64_t id);
bool ParseSegmentFileName(const std::string& name, uint64_t* id);

/// The hot/cold tier façade (docs/storage_tiers.md): owns the cold side —
/// sealed segments, their mmap readers, the tier manifest, the background
/// compactor — and drives demotion of the columns attached to it via
/// AncIndex::AttachTier. The in-RAM delta is simply the set of resident
/// column pages; demotion picks the pages whose *peak anchored activeness*
/// is lowest (Def. 1 decay makes inactive edges' anchored values small
/// relative to the rescale anchor, so the coldest pages are exactly the
/// edges the paper's machinery calls inactive).
///
/// Threading: every method runs on the single writer thread at quiescent
/// points, except OnPromote (called from pyramid repair pool threads;
/// touches only atomics) and the compactor's worker (touches only sealed
/// files and the Compactor mailbox). Destroying the store detaches all
/// columns, promoting their cold pages back to RAM first.
class TieredStore : public ColumnHost {
 public:
  /// Opens the tier under `<store_dir>/tier` (created if missing),
  /// restoring the manifest when one exists. Torn `.tmp`/`.swap` files a
  /// crash left behind are deleted and every existing segment is
  /// CRC-verified. Existing segments stay protected from GC until the
  /// first OnCheckpointInstalled() — until a new head is durable, the
  /// previous head may still rule recovery; that first install deletes
  /// every segment the new head does not reference.
  static Result<std::unique_ptr<TieredStore>> Open(
      const std::string& store_dir, TierOptions options,
      obs::MetricsRegistry* metrics = nullptr);

  ~TieredStore() override;

  // --- ColumnHost --------------------------------------------------------
  size_t PageElems() const override { return options_.page_elems; }
  void Register(ColumnBase* column) override;
  void Unregister(ColumnBase* column) override;
  void OnPromote(ColumnBase* column, size_t page, size_t bytes) override;

  /// Writer-thread quiescent-point driver: installs any finished
  /// background compaction, spills the coldest pages until the resident
  /// delta fits the budget, and kicks off compaction when enough segments
  /// accumulated. Cheap when under budget.
  Status Maintain();

  /// Checkpoint snapshot writer (plugs into StoreOptions::checkpoint_writer):
  /// spills the dirty pages of the anchored/similarity columns into a fresh
  /// segment ("segment promotion"), then writes a checkpoint through
  /// SaveIndex whose page tables reference the sealed segments — checkpoint
  /// cost scales with the delta, not the index. With nothing attached it
  /// writes every page inline.
  Status WriteHead(const AncIndex& index, const std::string& path);

  /// The WriteHead hook in StoreOptions::checkpoint_writer form. The
  /// returned callable references this store.
  std::function<Status(const AncIndex&, const std::string&)>
  CheckpointWriter();

  /// The head written by the last WriteHead is now the store's installed
  /// checkpoint: its segment references become the recovery roots and
  /// everything unreferenced is garbage-collected. Call after
  /// DurableStore::WriteCheckpoint returns OK.
  void OnCheckpointInstalled();

  /// Synchronous compaction: merges every live segment into one and
  /// installs it (the `anc_cli tier-compact` core; also exercises the
  /// mid-compaction crash seam deterministically in tests).
  Status CompactNow();

  /// CRC-audits every live segment and the manifest (tier-verify).
  Status VerifySegments() const;

  /// Promotes every cold page back to RAM and detaches all columns (used
  /// before handing the index to a non-tiered consumer; the destructor
  /// does this implicitly).
  void DetachAll();

  TierStats Stats() const;
  uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  const std::string& dir() const { return tier_dir_; }
  const TierOptions& options() const { return options_; }

 private:
  TieredStore(std::string tier_dir, TierOptions options,
              obs::MetricsRegistry* metrics);

  struct SpillPlan {
    // (column, page) pairs that need their bytes written to a segment,
    // and pairs whose newest spilled copy is still valid (free demotion).
    std::vector<std::pair<ColumnBase*, size_t>> write;
    std::vector<std::pair<ColumnBase*, size_t>> free_demote;
  };

  ColumnBase* FindColumnLocked(uint16_t id) const ANC_REQUIRES(mutex_);
  uint64_t RecomputeResidentLocked() ANC_REQUIRES(mutex_);
  /// Writes `plan.write` into a fresh sealed segment, swaps the manifest,
  /// then demotes every planned page. No-op for an all-free plan.
  Status SpillLocked(SpillPlan plan) ANC_REQUIRES(mutex_);
  Status WriteManifestLocked() ANC_REQUIRES(mutex_);
  void MaybeStartCompactionLocked() ANC_REQUIRES(mutex_);
  Status InstallCompactionLocked(const Compactor::Job& job)
      ANC_REQUIRES(mutex_);
  Status PollCompactionLocked() ANC_REQUIRES(mutex_);
  void GcLocked() ANC_REQUIRES(mutex_);
  void UpdateGaugesLocked() ANC_REQUIRES(mutex_);

  const std::string tier_dir_;
  const TierOptions options_;

  mutable util::Mutex mutex_;
  std::vector<ColumnBase*> columns_ ANC_GUARDED_BY(mutex_);
  /// Live segments by id (ascending = oldest first).
  std::map<uint64_t, std::unique_ptr<SegmentReader>> segments_
      ANC_GUARDED_BY(mutex_);
  uint64_t next_segment_id_ ANC_GUARDED_BY(mutex_) = 1;
  /// Segment names referenced by the head WriteHead last staged / the head
  /// the store last installed — recovery roots the GC must keep.
  std::set<std::string> staged_refs_ ANC_GUARDED_BY(mutex_);
  std::set<std::string> head_refs_ ANC_GUARDED_BY(mutex_);
  /// Disk state predating this Open, protected until the first installed
  /// head supersedes whatever checkpoint referenced it.
  bool protect_preexisting_ ANC_GUARDED_BY(mutex_) = false;
  std::set<std::string> preexisting_ ANC_GUARDED_BY(mutex_);
  std::unique_ptr<Compactor> compactor_ ANC_GUARDED_BY(mutex_);
  bool compaction_inflight_ ANC_GUARDED_BY(mutex_) = false;
  /// Segment file name the in-flight merge seals into (GC must keep it).
  std::string compaction_output_ ANC_GUARDED_BY(mutex_);

  std::atomic<uint64_t> resident_bytes_{0};

  // Counters mirrored into TierStats (mutated under mutex_ except the
  // promotion pair, which pool threads bump through OnPromote).
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> promoted_bytes_{0};
  uint64_t spills_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t spilled_pages_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t spilled_bytes_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t compactions_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t segments_deleted_ ANC_GUARDED_BY(mutex_) = 0;

  obs::MetricsRegistry* metrics_;
  struct Metrics {
    obs::GaugeId resident_bytes;
    obs::GaugeId cold_bytes;
    obs::GaugeId segments;
    obs::CounterId spills;
    obs::CounterId spilled_bytes;
    obs::CounterId promotions;
    obs::CounterId compactions;
  } m_;
};

}  // namespace anc::tier

#endif  // ANC_TIER_TIERED_STORE_H_
