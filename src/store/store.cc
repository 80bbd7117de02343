#include "store/store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "util/crc32c.h"
#include "store/test_hooks.h"

namespace anc::store {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kManifestMagic[8] = {'A', 'N', 'C', 'M', 'A', 'N', '0', '1'};
constexpr char kManifestName[] = "MANIFEST";
constexpr uint32_t kMaxManifestBytes = 1u << 20;

double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

std::string SegmentName(uint64_t base_seq) {
  char buffer[64];
  std::snprintf(  // lint-ok: output (formats a file name, no I/O)
      buffer, sizeof(buffer), "wal-%020" PRIu64 ".log", base_seq);
  return buffer;
}

std::string CheckpointName(uint64_t generation, uint64_t seq) {
  char buffer[80];
  std::snprintf(  // lint-ok: output (formats a file name, no I/O)
      buffer, sizeof(buffer), "ckpt-%06" PRIu64 "-%020" PRIu64 ".idx",
      generation, seq);
  return buffer;
}

bool ParseSegmentName(const std::string& name, uint64_t* base_seq) {
  return std::sscanf(name.c_str(), "wal-%20" SCNu64 ".log", base_seq) == 1 &&
         name.size() == SegmentName(*base_seq).size();
}

bool ParseCheckpointName(const std::string& name, uint64_t* generation,
                         uint64_t* seq) {
  return std::sscanf(name.c_str(), "ckpt-%6" SCNu64 "-%20" SCNu64 ".idx",
                     generation, seq) == 2 &&
         name == CheckpointName(*generation, *seq);
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendString(std::string* out, const std::string& value) {
  AppendPod(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

/// Bounds-checked cursor over a manifest payload.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& data) : data_(data) {}

  template <typename T>
  bool Read(T* value) {
    if (pos_ + sizeof(T) > data_.size()) return false;
    std::memcpy(value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* value) {
    uint32_t length = 0;
    if (!Read(&length) || pos_ + length > data_.size()) return false;
    value->assign(data_.data() + pos_, length);
    pos_ += length;
    return true;
  }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

struct ManifestData {
  uint64_t generation = 0;
  Mark mark;
  std::string checkpoint_file;
  std::vector<std::string> segments;
};

Result<ManifestData> ReadManifestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open manifest " + path);
  char header[16];
  in.read(header, sizeof(header));
  if (!in || std::memcmp(header, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::InvalidArgument(path + ": not a store manifest");
  }
  uint32_t length = 0;
  uint32_t crc = 0;
  std::memcpy(&length, header + 8, sizeof(length));
  std::memcpy(&crc, header + 12, sizeof(crc));
  if (length == 0 || length > kMaxManifestBytes) {
    return Status::InvalidArgument(path + ": implausible manifest size");
  }
  std::string payload(length, '\0');
  in.read(payload.data(), length);
  if (!in) return Status::InvalidArgument(path + ": truncated manifest");
  if (Crc32c(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument(path + ": manifest checksum mismatch");
  }

  ManifestData data;
  PayloadReader reader(payload);
  uint32_t num_segments = 0;
  if (!reader.Read(&data.generation) || !reader.Read(&data.mark.seq) ||
      !reader.Read(&data.mark.time) ||
      !reader.ReadString(&data.checkpoint_file) ||
      !reader.Read(&num_segments) || num_segments > 1u << 16) {
    return Status::InvalidArgument(path + ": malformed manifest payload");
  }
  data.segments.resize(num_segments);
  for (std::string& segment : data.segments) {
    if (!reader.ReadString(&segment)) {
      return Status::InvalidArgument(path + ": malformed manifest payload");
    }
  }
  return data;
}

}  // namespace

// ---------------------------------------------------------------------------
// DurableStore

DurableStore::DurableStore(std::string dir, StoreOptions options,
                           obs::MetricsRegistry* metrics)
    : dir_(std::move(dir)), options_(options), metrics_(metrics) {
  if (metrics_ != nullptr) {
    m_.append_records = metrics_->Counter("anc.store.wal_append_records");
    m_.append_bytes = metrics_->Counter("anc.store.wal_append_bytes");
    m_.syncs = metrics_->Counter("anc.store.fsyncs");
    m_.checkpoints = metrics_->Counter("anc.store.checkpoints");
    m_.fsync_us = metrics_->Histogram("anc.store.fsync_us");
    m_.checkpoint_us = metrics_->Histogram("anc.store.checkpoint_us");
    m_.wal_bytes = metrics_->Gauge("anc.store.wal_bytes");
    m_.durable_seq = metrics_->Gauge("anc.store.durable_seq");
    m_.generation = metrics_->Gauge("anc.store.generation");
  }
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir, const AncIndex& index, Mark start,
    StoreOptions options, obs::MetricsRegistry* metrics) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create store directory " + dir + ": " +
                           ec.message());
  }

  std::unique_ptr<DurableStore> store(
      new DurableStore(dir, options, metrics));

  // Resume the generation counter past anything already on disk (a crash
  // between checkpoint rename and manifest swap leaves a newer-generation
  // checkpoint file than the manifest records) and clear stray temp files.
  uint64_t max_generation = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
      continue;
    }
    uint64_t generation = 0;
    uint64_t seq = 0;
    if (ParseCheckpointName(name, &generation, &seq)) {
      max_generation = std::max(max_generation, generation);
    }
  }
  const Result<ManifestData> manifest =
      ReadManifestFile(dir + "/" + kManifestName);
  if (manifest.ok()) {
    max_generation = std::max(max_generation, manifest.value().generation);
  }
  store->generation_ = max_generation;

  // The fresh checkpoint is the recovery base: a store directory is always
  // self-contained from the moment Open returns. Prior-session segments
  // are trimmed even under retain_wal_history — their ticket numbering
  // restarted, so they would alias this session's tickets.
  const bool retain = store->options_.retain_wal_history;
  store->options_.retain_wal_history = false;
  ANC_RETURN_NOT_OK(store->WriteCheckpoint(index, start));
  store->options_.retain_wal_history = retain;

  if (options.flush_interval_s > 0.0) {
    store->flusher_ = std::thread([s = store.get()] {
      const auto interval =
          std::chrono::duration<double>(s->options_.flush_interval_s);
      // One lock acquisition per flush tick, released before the durable
      // callback fires (NotifyDurable excludes mutex_).
      while (true) {
        Mark durable;
        bool advanced = false;
        {
          util::MutexLock lock(s->mutex_);
          if (s->stop_flusher_) break;
          s->flusher_cv_.WaitFor(s->mutex_, interval, [s] {
            s->mutex_.AssertHeld();
            return s->stop_flusher_;
          });
          if (s->stop_flusher_) break;
          if (s->wal_ == nullptr || s->pending_records_ == 0) continue;
          if (!s->SyncLocked().ok()) continue;  // sticky error surfaces later
          durable = s->wal_->durable();
          advanced = true;
        }
        if (advanced) s->NotifyDurable(durable);
      }
    });
  }
  return store;
}

DurableStore::~DurableStore() {
  {
    util::MutexLock lock(mutex_);
    stop_flusher_ = true;
  }
  flusher_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  util::MutexLock lock(mutex_);
  if (wal_ != nullptr) {
    if (crashed_) wal_->Abandon();  // frozen disk state: no parting sync
    (void)wal_->Close();
  }
}

void DurableStore::SetDurableCallback(std::function<void(Mark)> callback) {
  util::MutexLock lock(callback_mutex_);
  durable_callback_ = std::move(callback);
}

void DurableStore::NotifyDurable(Mark mark) {
  // Invoked under callback_mutex_ (never the store mutex): the callback
  // may run store accessors, and SetDurableCallback(nullptr) doubles as a
  // barrier — once it returns, no invocation is in flight.
  util::MutexLock lock(callback_mutex_);
  if (durable_callback_) durable_callback_(mark);
}

Status DurableStore::Append(const std::vector<Activation>& batch,
                            uint64_t first_seq) {
  if (batch.empty()) return Status::OK();
  bool notify = false;
  Mark durable;
  Status status;
  {
    util::MutexLock lock(mutex_);
    if (crashed_) return Status::Unavailable("store crashed (simulated)");
    if (wal_ == nullptr) {
      return Status::FailedPrecondition("store has no open WAL segment");
    }
    // Segment rotation: seal the durable prefix, then start a fresh file.
    if (wal_->flushed_bytes() + wal_->buffered_bytes() >=
        options_.segment_bytes) {
      status = SyncLocked();
      if (status.ok()) {
        notify = true;
        durable = wal_->durable();
        status = RotateSegmentLocked(first_seq);
      }
    }
    if (status.ok()) {
      status = AppendLocked(batch, first_seq);
    }
    if (status.ok() && options_.group_commit_records > 0 &&
        pending_records_ >= options_.group_commit_records) {
      status = SyncLocked();
      if (status.ok()) {
        notify = true;
        durable = wal_->durable();
      }
    }
  }
  if (notify) NotifyDurable(durable);
  return status;
}

Status DurableStore::AppendLocked(const std::vector<Activation>& batch,
                                  uint64_t first_seq) {
  const Status status = wal_->Append(batch.data(), batch.size(), first_seq);
  if (!status.ok()) return status;
  ++records_;
  pending_records_ += batch.size();
  if (metrics_ != nullptr) {
    metrics_->Add(m_.append_records, batch.size());
    metrics_->Add(m_.append_bytes,
                  kWalFrameHeaderBytes + 12 + batch.size() * kWalEntryBytes);
  }
  return Status::OK();
}

Status DurableStore::Sync() {
  Mark durable;
  {
    util::MutexLock lock(mutex_);
    if (crashed_) return Status::Unavailable("store crashed (simulated)");
    if (wal_ == nullptr) return Status::OK();
    ANC_RETURN_NOT_OK(SyncLocked());
    durable = wal_->durable();
  }
  NotifyDurable(durable);
  return Status::OK();
}

Status DurableStore::SyncLocked() {
  const Clock::time_point start = Clock::now();
  ANC_RETURN_NOT_OK(wal_->Sync());
  ++syncs_;
  pending_records_ = 0;
  if (metrics_ != nullptr) {
    metrics_->Add(m_.syncs);
    metrics_->Record(m_.fsync_us, MicrosSince(start));
    metrics_->Set(m_.wal_bytes,
                  static_cast<int64_t>(sealed_bytes_ + wal_->flushed_bytes()));
    metrics_->Set(m_.durable_seq,
                  static_cast<int64_t>(wal_->durable().seq));
  }
  return Status::OK();
}

Status DurableStore::RotateSegmentLocked(uint64_t base_seq) {
  if (wal_ != nullptr) {
    ANC_RETURN_NOT_OK(wal_->Close());
    sealed_segments_.push_back(wal_->path());
    sealed_bytes_ += wal_->flushed_bytes();
    wal_.reset();
  }
  Result<std::unique_ptr<WalAppender>> appender =
      WalAppender::Create(dir_ + "/" + SegmentName(base_seq), base_seq);
  if (!appender.ok()) return appender.status();
  wal_ = std::move(appender.value());
  ANC_RETURN_NOT_OK(FsyncDir(dir_));
  return Status::OK();
}

Status DurableStore::WriteManifestLocked(const std::string& checkpoint_file,
                                         Mark at) {
  std::string payload;
  AppendPod(&payload, generation_);
  AppendPod(&payload, at.seq);
  AppendPod(&payload, at.time);
  AppendString(&payload, checkpoint_file);
  AppendPod(&payload, static_cast<uint32_t>(1));
  AppendString(&payload,
               wal_ != nullptr ? fs::path(wal_->path()).filename().string()
                               : std::string());

  std::string framed;
  framed.append(kManifestMagic, sizeof(kManifestMagic));
  AppendPod(&framed, static_cast<uint32_t>(payload.size()));
  AppendPod(&framed, Crc32c(payload.data(), payload.size()));
  framed.append(payload);

  const std::string manifest = dir_ + "/" + kManifestName;
  const std::string tmp = manifest + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    if (!out) return Status::IoError("cannot write " + tmp);
  }
  ANC_RETURN_NOT_OK(FsyncFile(tmp));

  if (TestHooks::ShouldCrash(CrashPoint::kPreManifestSwap)) {
    // The new checkpoint and MANIFEST.tmp are durable, but the swap never
    // happens: the previous manifest generation still rules recovery.
    crashed_ = true;
    return Status::Unavailable(std::string("simulated crash at ") +
                               CrashPointName(CrashPoint::kPreManifestSwap));
  }

  std::error_code ec;
  fs::rename(tmp, manifest, ec);
  if (ec) {
    return Status::IoError("cannot swap manifest: " + ec.message());
  }
  return FsyncDir(dir_);
}

Status DurableStore::WriteCheckpoint(const AncIndex& index, Mark at) {
  bool notify = false;
  Mark durable;
  Status status;
  {
    util::MutexLock lock(mutex_);
    if (crashed_) return Status::Unavailable("store crashed (simulated)");
    const Clock::time_point start = Clock::now();
    if (wal_ != nullptr) {
      if (at.seq < wal_->appended().seq) {
        return Status::InvalidArgument(
            "checkpoint mark " + std::to_string(at.seq) +
            " is behind the appended WAL mark " +
            std::to_string(wal_->appended().seq) +
            "; checkpoint at a batch boundary");
      }
      status = SyncLocked();
      if (!status.ok()) return status;
      notify = true;
      durable = wal_->durable();
    }

    const uint64_t generation = generation_ + 1;
    const std::string checkpoint_file = CheckpointName(generation, at.seq);
    const std::string checkpoint_path = dir_ + "/" + checkpoint_file;
    const std::string tmp = checkpoint_path + ".tmp";
    status = options_.checkpoint_writer
                 ? options_.checkpoint_writer(index, tmp)
                 : SaveIndex(index, tmp);
    if (status.ok() && TestHooks::ShouldCrash(CrashPoint::kMidCheckpoint)) {
      // Die halfway through writing the snapshot: a truncated temp file,
      // never renamed into place. The previous checkpoint still rules.
      std::error_code ec;
      const auto size = fs::file_size(tmp, ec);
      if (!ec) fs::resize_file(tmp, size / 2, ec);
      crashed_ = true;
      status = Status::Unavailable(std::string("simulated crash at ") +
                                   CrashPointName(CrashPoint::kMidCheckpoint));
    }
    if (status.ok()) status = FsyncFile(tmp);
    if (status.ok()) {
      std::error_code ec;
      fs::rename(tmp, checkpoint_path, ec);
      if (ec) status = Status::IoError("cannot publish checkpoint: " +
                                       ec.message());
    }
    if (status.ok()) status = FsyncDir(dir_);

    // Rotate to a fresh segment: every sealed segment only holds tickets
    // <= at.seq (enforced above), so after the manifest swap they are
    // garbage.
    if (status.ok()) status = RotateSegmentLocked(at.seq + 1);
    if (status.ok()) {
      generation_ = generation;
      status = WriteManifestLocked(checkpoint_file, at);
      if (!status.ok()) generation_ = generation - 1;
    }

    if (status.ok()) {
      checkpoint_file_ = checkpoint_file;
      ++checkpoints_;
      // GC: with the new generation durable, older checkpoints, obsolete
      // segments and stray temp files are unreferenced.
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        uint64_t file_generation = 0;
        uint64_t seq = 0;
        uint64_t base_seq = 0;
        if (ParseCheckpointName(name, &file_generation, &seq)) {
          if (file_generation != generation_) fs::remove(entry.path(), ec);
        } else if (ParseSegmentName(name, &base_seq)) {
          // Sealed segments are garbage for durability (the checkpoint
          // covers them) but under retain_wal_history they stay: they are
          // the session's delivery history, which a live shard migration
          // out of this store replays.
          if (!options_.retain_wal_history &&
              (wal_ == nullptr || entry.path() != fs::path(wal_->path()))) {
            fs::remove(entry.path(), ec);
          }
        } else if (name.size() > 4 &&
                   name.compare(name.size() - 4, 4, ".tmp") == 0) {
          fs::remove(entry.path(), ec);
        }
      }
      sealed_segments_.clear();
      sealed_bytes_ = 0;
      // The checkpoint itself covers every ticket <= at.seq — including
      // drop-oldest gaps the WAL never saw — so the durable mark jumps
      // to the checkpoint mark.
      notify = true;
      durable = at;
      if (metrics_ != nullptr) {
        metrics_->Add(m_.checkpoints);
        metrics_->Record(m_.checkpoint_us, MicrosSince(start));
        metrics_->Set(m_.generation, static_cast<int64_t>(generation_));
        metrics_->Set(m_.wal_bytes,
                      static_cast<int64_t>(wal_->flushed_bytes()));
      }
    }
  }
  if (notify) NotifyDurable(durable);
  return status;
}

Mark DurableStore::appended() const {
  util::MutexLock lock(mutex_);
  return wal_ != nullptr ? wal_->appended() : Mark{};
}

Mark DurableStore::durable() const {
  util::MutexLock lock(mutex_);
  return wal_ != nullptr ? wal_->durable() : Mark{};
}

uint64_t DurableStore::generation() const {
  util::MutexLock lock(mutex_);
  return generation_;
}

StoreStats DurableStore::Stats() const {
  util::MutexLock lock(mutex_);
  StoreStats stats;
  stats.generation = generation_;
  if (wal_ != nullptr) {
    stats.appended = wal_->appended();
    stats.durable = wal_->durable();
    stats.wal_bytes = sealed_bytes_ + wal_->flushed_bytes();
  }
  stats.wal_segments = sealed_segments_.size() + (wal_ != nullptr ? 1 : 0);
  stats.records = records_;
  stats.syncs = syncs_;
  stats.checkpoints = checkpoints_;
  stats.checkpoint_file = checkpoint_file_;
  return stats;
}

// ---------------------------------------------------------------------------
// Recovery

Result<RecoveredStore> Recover(const std::string& dir) {
  return Recover(dir, RecoverOptions{});
}

Result<RecoveredStore> Recover(const std::string& dir,
                               const RecoverOptions& options) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("store directory " + dir + " does not exist");
  }

  // Candidate checkpoints: the manifest's first (the committed
  // generation), then every on-disk checkpoint newest-generation first —
  // the fallback when the manifest or its checkpoint is damaged.
  std::vector<std::string> candidates;
  const Result<ManifestData> manifest =
      ReadManifestFile(dir + "/" + kManifestName);
  if (manifest.ok()) candidates.push_back(manifest.value().checkpoint_file);
  std::vector<std::pair<uint64_t, std::string>> on_disk;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t generation = 0;
    uint64_t seq = 0;
    if (ParseCheckpointName(name, &generation, &seq)) {
      on_disk.emplace_back(generation, name);
    }
  }
  std::sort(on_disk.begin(), on_disk.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [generation, name] : on_disk) {
    if (candidates.empty() || candidates.front() != name) {
      candidates.push_back(name);
    }
  }

  RecoveredStore recovered;
  bool loaded = false;
  for (const std::string& name : candidates) {
    uint64_t generation = 0;
    uint64_t seq = 0;
    if (!ParseCheckpointName(name, &generation, &seq)) continue;
    Result<LoadedIndex> checkpoint = LoadIndex(dir + "/" + name);
    if (!checkpoint.ok()) continue;  // damaged: fall back to the next newest
    recovered.graph = std::move(checkpoint.value().graph);
    recovered.index = std::move(checkpoint.value().index);
    recovered.generation = generation;
    recovered.checkpoint_seq = seq;
    loaded = true;
    break;
  }
  if (!loaded) {
    return Status::NotFound("no recoverable checkpoint in " + dir);
  }
  recovered.watermark.seq = recovered.checkpoint_seq;
  recovered.watermark.time =
      recovered.index->engine().activeness().last_time();

  // Replay the WAL tail in segment order. Stops at the first invalid frame
  // (torn tails are truncated); a torn segment ends the replay — records in
  // later segments would leave a gap in the ticket prefix.
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t base_seq = 0;
    if (ParseSegmentName(name, &base_seq)) {
      segments.emplace_back(base_seq, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());

  AncIndex* index = recovered.index.get();
  RecoveredStore* rec = &recovered;
  for (size_t s = 0; s < segments.size(); ++s) {
    const auto& [base_seq, path] = segments[s];
    // A segment is provably covered by the checkpoint when the *next*
    // segment starts at or before checkpoint_seq + 1: every record in this
    // one then has seq <= checkpoint_seq. Skip it without reading a byte.
    if (s + 1 < segments.size() &&
        segments[s + 1].first <= recovered.checkpoint_seq + 1) {
      ++recovered.skipped_segments;
      continue;
    }
    const auto replay = [index, rec, &options](const WalRecord& record) {
      // Replay must start strictly after the checkpoint: a record whose
      // whole ticket run is covered is counted and dropped, never applied.
      const uint64_t last_seq =
          record.first_seq + record.activations.size() - 1;
      if (!record.activations.empty() && last_seq <= rec->checkpoint_seq) {
        ++rec->skipped_records;
        return Status::OK();
      }
      // Activations up to the checkpoint are covered by the snapshot.
      const std::span<const Activation> acts(record.activations);
      size_t begin = record.first_seq > rec->checkpoint_seq
                         ? 0
                         : rec->checkpoint_seq - record.first_seq + 1;
      while (begin < acts.size()) {
        // Each run of non-deferred activations replays as one batch.
        size_t end = begin;
        while (end < acts.size() &&
               !(options.defer &&
                 options.defer(acts[end], record.first_seq + end))) {
          ++end;
        }
        if (end > begin) {
          // Mirror the serve writer: a failed apply is counted and skipped,
          // so replay converges to the same state the live index reached.
          const AncIndex::BatchOutcome outcome =
              index->ApplyBatch(acts.subspan(begin, end - begin));
          rec->replayed_activations += outcome.applied;
          rec->skipped_applies += outcome.refused;
          rec->watermark.time = std::max(rec->watermark.time, outcome.max_time);
          rec->watermark.seq =
              std::max(rec->watermark.seq, record.first_seq + end - 1);
        }
        if (end < acts.size()) {
          // Held back for the caller to re-apply after migration sidecars;
          // the ticket itself is accounted for (the live writer applied it).
          rec->deferred.push_back(acts[end]);
          ++rec->replayed_activations;
          rec->watermark.seq =
              std::max(rec->watermark.seq, record.first_seq + end);
        }
        begin = end + 1;
      }
      ++rec->replayed_records;
      return Status::OK();
    };
    Result<WalSegmentInfo> info =
        ReadWalSegment(path, replay, /*truncate_torn_tail=*/true);
    if (!info.ok()) break;  // unreadable segment header: end of trusted log
    if (info.value().torn_tail) {
      recovered.truncated_tail = true;
      break;
    }
  }
  return recovered;
}

}  // namespace anc::store
