#include "tier/tiered_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/serialization.h"
#include "store/test_hooks.h"
#include "store/wal.h"
#include "util/crc32c.h"

namespace anc::tier {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestMagic[8] = {'A', 'N', 'C', 'T', 'M', 'N', '0', '1'};
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestFile[] = "TIERMANIFEST";
// Corruption guard for the manifest's segment list.
constexpr uint32_t kMaxManifestSegments = 1u << 20;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

/// Segment (`.tmp`) and manifest (`.swap`) staging files.
bool IsTempFileName(const std::string& name) {
  return name.ends_with(".tmp") || name.ends_with(".swap");
}

}  // namespace

std::string SegmentFileName(uint64_t id) {
  char buf[64];
  // lint-ok: output (formats the file name, no I/O)
  std::snprintf(buf, sizeof(buf), "seg-%012" PRIu64 ".tseg", id);
  return buf;
}

bool ParseSegmentFileName(const std::string& name, uint64_t* id) {
  unsigned long long value = 0;  // NOLINT(runtime/int) — sscanf width
  int consumed = 0;
  if (std::sscanf(name.c_str(), "seg-%12llu.tseg%n", &value, &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *id = value;
  return true;
}

Result<TierManifest> ReadTierManifest(const std::string& tier_dir) {
  const std::string path = tier_dir + "/" + kManifestFile;
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("no tier manifest at " + path);
  char magic[sizeof(kManifestMagic)] = {};
  uint32_t version = 0;
  uint32_t payload_bytes = 0;
  uint32_t crc = 0;
  file.read(magic, sizeof(magic));
  if (!file || std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(path + ": not a tier manifest");
  }
  if (!ReadPod(file, &version) || !ReadPod(file, &payload_bytes) ||
      !ReadPod(file, &crc)) {
    return Status::InvalidArgument(path + ": truncated manifest header");
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument(path + ": unsupported manifest version " +
                                   std::to_string(version));
  }
  if (payload_bytes > (64u << 20)) {
    return Status::InvalidArgument(path + ": implausible manifest size");
  }
  std::string payload(payload_bytes, '\0');
  file.read(payload.data(), payload_bytes);
  if (!file) return Status::InvalidArgument(path + ": truncated manifest");
  if (Crc32c(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument(path + ": manifest checksum mismatch");
  }
  std::istringstream in(payload, std::ios::binary);
  TierManifest manifest;
  uint32_t count = 0;
  if (!ReadPod(in, &manifest.next_segment_id) || !ReadPod(in, &count) ||
      count > kMaxManifestSegments) {
    return Status::InvalidArgument(path + ": malformed manifest payload");
  }
  manifest.segments.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!ReadPod(in, &len) || len > 4096) {
      return Status::InvalidArgument(path + ": malformed manifest entry");
    }
    std::string name(len, '\0');
    in.read(name.data(), len);
    if (!in) return Status::InvalidArgument(path + ": truncated entry");
    manifest.segments.push_back(std::move(name));
  }
  return manifest;
}

Status WriteTierManifest(const std::string& tier_dir,
                         const TierManifest& manifest) {
  std::ostringstream out(std::ios::binary);
  WritePod(out, manifest.next_segment_id);
  WritePod<uint32_t>(out, static_cast<uint32_t>(manifest.segments.size()));
  for (const std::string& name : manifest.segments) {
    WritePod<uint32_t>(out, static_cast<uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  const std::string payload = out.str();

  const std::string path = tier_dir + "/" + kManifestFile;
  const std::string tmp = path + ".swap";  // .tmp is GC'd by the store layer
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return Status::IoError("cannot open " + tmp);
    file.write(kManifestMagic, sizeof(kManifestMagic));
    WritePod(file, kManifestVersion);
    WritePod<uint32_t>(file, static_cast<uint32_t>(payload.size()));
    WritePod<uint32_t>(file, Crc32c(payload.data(), payload.size()));
    file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!file) return Status::IoError("write error on " + tmp);
  }
  ANC_RETURN_NOT_OK(store::FsyncFile(tmp));
  if (store::TestHooks::ShouldCrash(store::CrashPoint::kPreTierManifestSwap)) {
    // The new segment set is durable but the swap never happens: the
    // previous manifest — and the installed checkpoint head's segment
    // references — still rule recovery.
    return Status::Unavailable("simulated crash: pre-tier-manifest-swap");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IoError("cannot swap tier manifest: " + ec.message());
  return store::FsyncDir(tier_dir);
}

// ---------------------------------------------------------------------------

TieredStore::TieredStore(std::string tier_dir, TierOptions options,
                         obs::MetricsRegistry* metrics)
    : tier_dir_(std::move(tier_dir)),
      options_(options),
      metrics_(metrics) {
  if (metrics_ != nullptr) {
    m_.resident_bytes = metrics_->Gauge("anc.tier.resident_bytes");
    m_.cold_bytes = metrics_->Gauge("anc.tier.cold_bytes");
    m_.segments = metrics_->Gauge("anc.tier.segments");
    m_.spills = metrics_->Counter("anc.tier.spills");
    m_.spilled_bytes = metrics_->Counter("anc.tier.spilled_bytes");
    m_.promotions = metrics_->Counter("anc.tier.promotions");
    m_.compactions = metrics_->Counter("anc.tier.compactions");
  }
}

Result<std::unique_ptr<TieredStore>> TieredStore::Open(
    const std::string& store_dir, TierOptions options,
    obs::MetricsRegistry* metrics) {
  if (options.page_elems == 0 ||
      (options.page_elems & (options.page_elems - 1)) != 0) {
    return Status::InvalidArgument("tier page_elems must be a power of two");
  }
  const std::string tier_dir = store_dir + "/" + kTierDirName;
  std::error_code ec;
  fs::create_directories(tier_dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + tier_dir + ": " + ec.message());
  }
  auto store = std::unique_ptr<TieredStore>(
      new TieredStore(tier_dir, options, metrics));

  util::MutexLock lock(store->mutex_);
  uint64_t next = 1;
  const Result<TierManifest> manifest = ReadTierManifest(tier_dir);
  if (manifest.ok()) next = manifest->next_segment_id;
  for (const auto& entry : fs::directory_iterator(tier_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (IsTempFileName(name)) {
      // A torn segment or manifest write: nothing ever referenced it.
      fs::remove(entry.path(), ec);
      continue;
    }
    uint64_t id = 0;
    if (!ParseSegmentFileName(name, &id)) continue;
    next = std::max(next, id + 1);
    // Disk state from a previous incarnation: some of it is referenced by
    // the store's installed checkpoint head, so nothing may be deleted
    // until a new head supersedes it (OnCheckpointInstalled clears this).
    store->preexisting_.insert(name);
    auto reader =
        SegmentReader::Open(entry.path().string(), /*verify_pages=*/true);
    if (!reader.ok()) return reader.status();
  }
  store->next_segment_id_ = next;
  store->protect_preexisting_ = !store->preexisting_.empty();
  return store;
}

TieredStore::~TieredStore() {
  DetachAll();
  std::unique_ptr<Compactor> compactor;
  {
    util::MutexLock lock(mutex_);
    compactor = std::move(compactor_);
  }
  compactor.reset();  // joins the worker
}

void TieredStore::Register(ColumnBase* column) {
  util::MutexLock lock(mutex_);
  columns_.push_back(column);
  resident_bytes_.store(RecomputeResidentLocked(), std::memory_order_relaxed);
}

void TieredStore::Unregister(ColumnBase* column) {
  util::MutexLock lock(mutex_);
  columns_.erase(std::remove(columns_.begin(), columns_.end(), column),
                 columns_.end());
  resident_bytes_.store(RecomputeResidentLocked(), std::memory_order_relaxed);
}

void TieredStore::OnPromote(ColumnBase* /*column*/, size_t /*page*/,
                            size_t bytes) {
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  promoted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->Add(m_.promotions);
}

ColumnBase* TieredStore::FindColumnLocked(uint16_t id) const {
  for (ColumnBase* column : columns_) {
    if (column->id() == id) return column;
  }
  return nullptr;
}

uint64_t TieredStore::RecomputeResidentLocked() {
  uint64_t bytes = 0;
  for (const ColumnBase* column : columns_) bytes += column->ResidentBytes();
  return bytes;
}

void TieredStore::DetachAll() {
  std::vector<ColumnBase*> columns;
  {
    util::MutexLock lock(mutex_);
    columns = columns_;
  }
  // DetachFromHost promotes the column's cold pages (no OnPromote
  // notifications) and calls back into Unregister, which takes the lock.
  for (ColumnBase* column : columns) column->DetachFromHost(/*notify=*/true);
}

Status TieredStore::Maintain() {
  util::MutexLock lock(mutex_);
  ANC_RETURN_NOT_OK(PollCompactionLocked());
  const uint64_t resident = RecomputeResidentLocked();
  resident_bytes_.store(resident, std::memory_order_relaxed);
  if (options_.tier_budget_bytes > 0 && resident > options_.tier_budget_bytes) {
    ColumnBase* anchored_base = FindColumnLocked(kColAnchored);
    if (anchored_base != nullptr &&
        anchored_base->elem_size() == sizeof(double)) {
      const auto* anchored = static_cast<const Column<double>*>(anchored_base);
      const size_t num_pages = anchored_base->num_pages();
      const size_t page_elems = anchored_base->page_elems();
      const size_t num_elems = anchored_base->size();

      // Score each edge-page by its hottest edge: the maximum anchored
      // activeness over the page. Anchored values only shrink relative to
      // the decay anchor (Def. 1 decay, Lemma 1 rescale), so a low peak
      // means every edge in the page has been inactive for a while. The
      // scan reads through operator[], which never changes residency.
      struct Candidate {
        double score;
        size_t page;
        size_t bytes;
      };
      std::vector<Candidate> candidates;
      candidates.reserve(num_pages);
      for (size_t p = 0; p < num_pages; ++p) {
        size_t bytes = 0;
        for (const ColumnBase* column : columns_) {
          ANC_CHECK(column->num_pages() == num_pages,
                    "tiered columns must share page geometry");
          if (column->IsResident(p)) bytes += column->PageBytes(p);
        }
        if (bytes == 0) continue;  // the page is already fully cold
        const size_t begin = p * page_elems;
        const size_t end = std::min(num_elems, begin + page_elems);
        double score = 0.0;
        for (size_t e = begin; e < end; ++e) {
          score = std::max(score, (*anchored)[e]);
        }
        candidates.push_back({score, p, bytes});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.score < b.score;
                });

      SpillPlan plan;
      uint64_t excess = resident - options_.tier_budget_bytes;
      for (const Candidate& candidate : candidates) {
        if (excess == 0) break;
        for (ColumnBase* column : columns_) {
          if (!column->IsResident(candidate.page)) continue;
          if (column->IsDirty(candidate.page) ||
              column->ColdCopy(candidate.page) == nullptr) {
            plan.write.emplace_back(column, candidate.page);
          } else {
            plan.free_demote.emplace_back(column, candidate.page);
          }
        }
        excess -= std::min<uint64_t>(excess, candidate.bytes);
      }
      ANC_RETURN_NOT_OK(SpillLocked(std::move(plan)));
    }
  }
  MaybeStartCompactionLocked();
  UpdateGaugesLocked();
  return Status::OK();
}

Status TieredStore::SpillLocked(SpillPlan plan) {
  SegmentReader* reader = nullptr;
  if (!plan.write.empty()) {
    const uint64_t id = next_segment_id_;
    const std::string path = tier_dir_ + "/" + SegmentFileName(id);
    auto writer = SegmentWriter::Create(path);
    if (!writer.ok()) return writer.status();
    uint64_t written = 0;
    for (const auto& [column, page] : plan.write) {
      const size_t bytes = column->PageBytes(page);
      ANC_RETURN_NOT_OK((*writer)->AddPage(
          column->id(), static_cast<uint16_t>(column->elem_size()),
          static_cast<uint32_t>(page), column->PageData(page),
          static_cast<uint32_t>(bytes)));
      written += bytes;
    }
    ANC_RETURN_NOT_OK((*writer)->Finish());  // kMidSegmentWrite seam inside
    next_segment_id_ = id + 1;
    auto opened = SegmentReader::Open(path, /*verify_pages=*/false);
    if (!opened.ok()) return opened.status();
    reader = opened->get();
    segments_[id] = std::move(*opened);
    const Status manifest = WriteManifestLocked();
    if (!manifest.ok()) {
      // The sealed file exists but the durable manifest never learned of
      // it: treat it as the crash it simulates — drop it from the live set
      // (recovery will sweep the file) and demote nothing.
      segments_.erase(id);
      return manifest;
    }
    ++spills_;
    spilled_pages_ += plan.write.size();
    spilled_bytes_ += written;
    if (metrics_ != nullptr) {
      metrics_->Add(m_.spills);
      metrics_->Add(m_.spilled_bytes, static_cast<int64_t>(written));
    }
  }
  uint64_t freed = 0;
  for (const auto& [column, page] : plan.write) {
    const SegmentPage* cold =
        reader->Find(column->id(), static_cast<uint32_t>(page));
    ANC_CHECK(cold != nullptr, "spilled page missing from its own segment");
    column->Demote(page, cold->data);
    freed += cold->bytes;
  }
  for (const auto& [column, page] : plan.free_demote) {
    const void* cold = column->ColdCopy(page);
    ANC_CHECK(cold != nullptr, "free demotion without a cold copy");
    freed += column->PageBytes(page);
    column->Demote(page, cold);
  }
  resident_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return Status::OK();
}

Status TieredStore::WriteManifestLocked() {
  TierManifest manifest;
  manifest.next_segment_id = next_segment_id_;
  for (const auto& [id, reader] : segments_) {
    manifest.segments.push_back(SegmentFileName(id));
  }
  return WriteTierManifest(tier_dir_, manifest);
}

void TieredStore::MaybeStartCompactionLocked() {
  if (!options_.background_compaction || compaction_inflight_) return;
  if (segments_.size() < compact_min_segments_) return;
  if (compactor_ == nullptr) compactor_ = std::make_unique<Compactor>();
  Compactor::Job job;
  for (const auto& [id, reader] : segments_) {
    job.inputs.push_back(reader->path());
  }
  const uint64_t out_id = next_segment_id_++;
  job.output = tier_dir_ + "/" + SegmentFileName(out_id);
  compaction_output_ = SegmentFileName(out_id);
  compaction_inflight_ = compactor_->Submit(std::move(job)).ok();
}

Status TieredStore::PollCompactionLocked() {
  if (!compaction_inflight_ || compactor_ == nullptr) return Status::OK();
  std::optional<Compactor::Outcome> outcome = compactor_->Poll();
  if (!outcome.has_value()) return Status::OK();
  compaction_inflight_ = false;
  if (!outcome->status.ok()) {
    // The merge failed (or a simulated crash fired): the inputs stay live
    // and referenced; a truncated output temp is swept later. Compaction
    // retries once the trigger fires again.
    return Status::OK();
  }
  return InstallCompactionLocked(outcome->job);
}

Status TieredStore::InstallCompactionLocked(const Compactor::Job& job) {
  uint64_t out_id = 0;
  const std::string out_name =
      fs::path(job.output).filename().string();
  if (!ParseSegmentFileName(out_name, &out_id)) {
    return Status::Internal("unparseable merged segment name " + out_name);
  }
  auto opened = SegmentReader::Open(job.output, /*verify_pages=*/false);
  if (!opened.ok()) return opened.status();

  // Pull the inputs out of the live set but keep their mmaps alive until
  // every column pointer has been re-homed into the merged mapping.
  std::map<uint64_t, std::unique_ptr<SegmentReader>> inputs;
  for (const std::string& path : job.inputs) {
    uint64_t id = 0;
    if (!ParseSegmentFileName(fs::path(path).filename().string(), &id)) {
      continue;
    }
    auto it = segments_.find(id);
    if (it != segments_.end()) {
      inputs[id] = std::move(it->second);
      segments_.erase(it);
    }
  }
  SegmentReader* merged = opened->get();
  segments_[out_id] = std::move(*opened);

  const Status manifest = WriteManifestLocked();
  if (!manifest.ok()) {
    // Roll the live set back; the merged file is swept as garbage later.
    segments_.erase(out_id);
    for (auto& [id, reader] : inputs) segments_[id] = std::move(reader);
    return manifest;
  }

  for (ColumnBase* column : columns_) {
    for (size_t p = 0; p < column->num_pages(); ++p) {
      const void* cold = column->ColdCopy(p);
      if (cold == nullptr) continue;
      bool in_input = false;
      for (const auto& [id, reader] : inputs) {
        if (reader->file().Contains(cold)) {
          in_input = true;
          break;
        }
      }
      if (!in_input) continue;
      const SegmentPage* page =
          merged->Find(column->id(), static_cast<uint32_t>(p));
      ANC_CHECK(page != nullptr,
                "compaction lost a live page (newest-wins merge bug)");
      column->Repoint(p, page->data);
    }
  }
  ++compactions_;
  if (metrics_ != nullptr) metrics_->Add(m_.compactions);
  inputs.clear();  // munmap the input segments
  GcLocked();      // their files go too, unless a checkpoint head needs them
  return Status::OK();
}

Status TieredStore::CompactNow() {
  util::MutexLock lock(mutex_);
  if (compaction_inflight_) {
    return Status::FailedPrecondition("background compaction in flight");
  }
  if (segments_.size() < 2) return Status::OK();
  Compactor::Job job;
  for (const auto& [id, reader] : segments_) {
    job.inputs.push_back(reader->path());
  }
  const uint64_t out_id = next_segment_id_++;
  job.output = tier_dir_ + "/" + SegmentFileName(out_id);
  ANC_RETURN_NOT_OK(Compactor::MergeSegments(job.inputs, job.output));
  ANC_RETURN_NOT_OK(InstallCompactionLocked(job));
  UpdateGaugesLocked();
  return Status::OK();
}

void TieredStore::GcLocked() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(tier_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t id = 0;
    if (ParseSegmentFileName(name, &id)) {
      if (segments_.count(id) != 0) continue;           // live
      if (head_refs_.count(name) != 0) continue;        // recovery root
      if (staged_refs_.count(name) != 0) continue;      // head in flight
      if (protect_preexisting_ && preexisting_.count(name) != 0) continue;
      // A finished background merge is sealed under its final name before
      // the next Maintain installs it.
      if (compaction_inflight_ && name == compaction_output_) continue;
      fs::remove(entry.path(), ec);
      if (!ec) ++segments_deleted_;
    } else if (IsTempFileName(name) && !compaction_inflight_) {
      // Never sweep the temp file a running background merge is writing.
      fs::remove(entry.path(), ec);
    }
  }
}

Status TieredStore::WriteHead(const AncIndex& index, const std::string& path) {
  util::MutexLock lock(mutex_);
  ColumnBase* const sources[3] = {FindColumnLocked(kColAnchored),
                                  FindColumnLocked(kColSimilarity),
                                  FindColumnLocked(kColSigma)};
  for (const ColumnBase* column : sources) {
    // Nothing attached (e.g. the index was rebuilt without re-attaching):
    // an all-inline checkpoint is always correct.
    if (column == nullptr) return SaveIndex(index, path);
  }

  // Segment promotion: every page of the three persisted columns whose
  // current bytes are not already in a sealed segment gets spilled now —
  // the pages stay resident (NoteClean), only their bytes gain a durable
  // cold home. The head below then references segments exclusively, so
  // checkpoint I/O scales with the pages dirtied since the last head, not
  // with the index.
  std::vector<std::pair<ColumnBase*, size_t>> promote;
  for (ColumnBase* column : sources) {
    for (size_t p = 0; p < column->num_pages(); ++p) {
      if (column->ColdCopy(p) == nullptr) promote.emplace_back(column, p);
    }
  }
  if (!promote.empty()) {
    const uint64_t id = next_segment_id_;
    const std::string seg_path = tier_dir_ + "/" + SegmentFileName(id);
    auto writer = SegmentWriter::Create(seg_path);
    if (!writer.ok()) return writer.status();
    for (const auto& [column, page] : promote) {
      ANC_RETURN_NOT_OK((*writer)->AddPage(
          column->id(), static_cast<uint16_t>(column->elem_size()),
          static_cast<uint32_t>(page), column->PageData(page),
          static_cast<uint32_t>(column->PageBytes(page))));
    }
    ANC_RETURN_NOT_OK((*writer)->Finish());
    next_segment_id_ = id + 1;
    auto opened = SegmentReader::Open(seg_path, /*verify_pages=*/false);
    if (!opened.ok()) return opened.status();
    SegmentReader* reader = opened->get();
    segments_[id] = std::move(*opened);
    const Status manifest = WriteManifestLocked();
    if (!manifest.ok()) {
      segments_.erase(id);
      return manifest;
    }
    for (const auto& [column, page] : promote) {
      const SegmentPage* cold =
          reader->Find(column->id(), static_cast<uint32_t>(page));
      ANC_CHECK(cold != nullptr, "promoted page missing from its segment");
      column->NoteClean(page, cold->data);
    }
    ++spills_;
    spilled_pages_ += promote.size();
  }

  // Build the page tables: after promotion every page has a cold copy
  // inside some live segment; resolve each pointer back to its
  // (segment, offset, crc) directory entry.
  staged_refs_.clear();
  HeadColumn tables[3];
  for (int c = 0; c < 3; ++c) {
    ColumnBase* column = sources[c];
    HeadColumn& table = tables[c];
    table.elems = column->size();
    table.page_elems = static_cast<uint32_t>(column->page_elems());
    table.pages.resize(column->num_pages());
    for (size_t p = 0; p < column->num_pages(); ++p) {
      HeadPage& head_page = table.pages[p];
      const void* cold = column->ColdCopy(p);
      if (cold == nullptr) {
        // Unreachable after a successful promotion pass, but a correct
        // head either way.
        head_page.inline_data = static_cast<const char*>(column->PageData(p));
        head_page.bytes = static_cast<uint32_t>(column->PageBytes(p));
        continue;
      }
      const SegmentReader* owner = nullptr;
      uint64_t owner_id = 0;
      for (const auto& [id, reader] : segments_) {
        if (reader->file().Contains(cold)) {
          owner = reader.get();
          owner_id = id;
          break;
        }
      }
      ANC_CHECK(owner != nullptr, "cold page points outside live segments");
      const SegmentPage* seg_page =
          owner->Find(column->id(), static_cast<uint32_t>(p));
      ANC_CHECK(seg_page != nullptr && seg_page->data == cold,
                "cold pointer does not match its segment directory");
      head_page.segment = SegmentFileName(owner_id);
      head_page.offset = seg_page->offset;
      head_page.bytes = seg_page->bytes;
      head_page.crc = seg_page->crc;
      staged_refs_.insert(head_page.segment);
    }
  }
  return SaveIndex(index, tables[0], tables[1], tables[2], path);
}

std::function<Status(const AncIndex&, const std::string&)>
TieredStore::CheckpointWriter() {
  return [this](const AncIndex& index, const std::string& path) {
    return WriteHead(index, path);
  };
}

void TieredStore::OnCheckpointInstalled() {
  util::MutexLock lock(mutex_);
  head_refs_ = staged_refs_;
  protect_preexisting_ = false;
  preexisting_.clear();
  GcLocked();
  UpdateGaugesLocked();
}

Status TieredStore::VerifySegments() const {
  util::MutexLock lock(mutex_);
  for (const auto& [id, reader] : segments_) {
    ANC_RETURN_NOT_OK(reader->VerifyAll());
  }
  const Result<TierManifest> manifest = ReadTierManifest(tier_dir_);
  if (!manifest.ok()) {
    if (segments_.empty() &&
        manifest.status().code() == StatusCode::kNotFound) {
      return Status::OK();  // nothing spilled yet
    }
    return manifest.status();
  }
  std::set<std::string> listed(manifest->segments.begin(),
                               manifest->segments.end());
  for (const auto& [id, reader] : segments_) {
    if (listed.count(SegmentFileName(id)) == 0) {
      return Status::Internal("live segment " + SegmentFileName(id) +
                              " missing from the tier manifest");
    }
  }
  for (const std::string& name : manifest->segments) {
    uint64_t id = 0;
    if (!ParseSegmentFileName(name, &id) || segments_.count(id) == 0) {
      return Status::Internal("tier manifest lists unknown segment " + name);
    }
  }
  return Status::OK();
}

TierStats TieredStore::Stats() const {
  util::MutexLock lock(mutex_);
  TierStats stats;
  stats.budget_bytes = options_.tier_budget_bytes;
  stats.columns = columns_.size();
  for (const ColumnBase* column : columns_) {
    stats.pages_total += column->num_pages();
    for (size_t p = 0; p < column->num_pages(); ++p) {
      if (column->IsResident(p)) {
        ++stats.pages_resident;
        stats.resident_bytes += column->PageBytes(p);
      }
    }
  }
  stats.segments = segments_.size();
  for (const auto& [id, reader] : segments_) {
    stats.cold_bytes += reader->file().size();
  }
  stats.spills = spills_;
  stats.spilled_pages = spilled_pages_;
  stats.spilled_bytes = spilled_bytes_;
  stats.promotions = promotions_.load(std::memory_order_relaxed);
  stats.promoted_bytes = promoted_bytes_.load(std::memory_order_relaxed);
  stats.compactions = compactions_;
  stats.segments_deleted = segments_deleted_;
  return stats;
}

void TieredStore::UpdateGaugesLocked() {
  if (metrics_ == nullptr) return;
  metrics_->Set(m_.resident_bytes,
                static_cast<int64_t>(RecomputeResidentLocked()));
  uint64_t cold = 0;
  for (const auto& [id, reader] : segments_) cold += reader->file().size();
  metrics_->Set(m_.cold_bytes, static_cast<int64_t>(cold));
  metrics_->Set(m_.segments, static_cast<int64_t>(segments_.size()));
}

}  // namespace anc::tier
