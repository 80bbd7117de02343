#ifndef ANC_TIER_SEGMENT_H_
#define ANC_TIER_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/mapped_file.h"
#include "util/status.h"

namespace anc::tier {

/// Cold-segment layout (docs/storage_tiers.md), versioned like the other
/// on-disk formats (ANCTHD01 / ANCWAL01 / ANCMAN01):
///
///   [8B magic "ANCSEG01"][u32 version = 1][u32 reserved]     header
///   repeat: raw page payload, start 8-byte aligned            pages
///   directory: count x entry                                  footer dir
///     entry: [u16 column_id][u16 elem_size][u32 page_index]
///            [u64 offset][u32 payload_bytes][u32 crc32c(payload)]
///   tail: [u64 dir_offset][u32 dir_count][u32 crc32c(dir)]
///         [8B magic "ANCSEGF1"]
///
/// A segment is immutable once sealed: the writer creates it as a temp
/// file, fsyncs, renames it into place and fsyncs the directory, so a
/// crash mid-write leaves at worst an unreferenced temp file. Readers mmap
/// the whole file; page payloads are 8-byte aligned so double columns read
/// directly from the mapping. The tail is parsed back to front: a file
/// without a valid tail magic + CRC'd directory is rejected wholesale
/// (nothing in a torn segment can be trusted), and every directory entry
/// is bounds-checked against the file before use.
inline constexpr char kSegmentMagic[8] = {'A', 'N', 'C', 'S', 'E', 'G',
                                          '0', '1'};
inline constexpr char kSegmentFooterMagic[8] = {'A', 'N', 'C', 'S', 'E', 'G',
                                                'F', '1'};
inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr size_t kSegmentHeaderBytes = 16;
inline constexpr size_t kSegmentDirEntryBytes = 24;
inline constexpr size_t kSegmentTailBytes = 24;
/// Corruption guard: refuse directories claiming more pages than this.
inline constexpr uint32_t kMaxSegmentPages = 1u << 22;
/// Corruption guard: refuse single pages larger than this.
inline constexpr uint32_t kMaxSegmentPageBytes = 64u << 20;

/// One page payload inside an open segment.
struct SegmentPage {
  uint16_t column_id = 0;
  uint16_t elem_size = 0;
  uint32_t page_index = 0;
  uint64_t offset = 0;  ///< payload offset within the file
  uint32_t bytes = 0;   ///< payload size
  uint32_t crc = 0;
  const char* data = nullptr;  ///< into the reader's mapping
};

/// Builds one segment file. Pages are streamed to disk as they are added;
/// Finish() appends the directory + tail, fsyncs and atomically renames
/// the temp file into place. A SegmentWriter that is destroyed without a
/// successful Finish() leaves only its temp file behind (removed).
///
/// Crash seam: store::TestHooks kMidSegmentWrite fires inside Finish(),
/// leaving a truncated temp file exactly as a process death mid-write
/// would — never a live, referenced segment.
class SegmentWriter {
 public:
  /// `path` is the final segment path; data is staged at `path + ".tmp"`.
  static Result<std::unique_ptr<SegmentWriter>> Create(const std::string& path);
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Appends one page payload. (column_id, page_index) pairs must be
  /// unique within a segment.
  Status AddPage(uint16_t column_id, uint16_t elem_size, uint32_t page_index,
                 const void* data, uint32_t bytes);

  /// Directory + tail + fsync + rename + directory fsync. After OK the
  /// sealed segment is durable under its final name.
  Status Finish();

  /// Simulated-crash support (store::TestHooks): closes the descriptor and
  /// leaves the temp file on disk exactly as a process death mid-write
  /// would (the normal destructor tidies unfinished temp files away).
  void AbandonForCrash();

  const std::string& path() const { return path_; }
  size_t pages() const { return dir_.size(); }
  uint64_t bytes_written() const { return offset_; }

 private:
  SegmentWriter(std::string path, int fd);

  std::string path_;
  std::string tmp_path_;
  int fd_;
  uint64_t offset_ = 0;
  std::vector<SegmentPage> dir_;
  bool finished_ = false;
};

/// Opens a sealed segment read-only via mmap and indexes its directory.
/// `verify_pages` additionally CRCs every payload up front (recovery and
/// `anc_cli tier-verify` do; the writer's own freshly spilled segments
/// skip it — the bytes were just written and are CRC'd in the directory).
class SegmentReader {
 public:
  static Result<std::unique_ptr<SegmentReader>> Open(const std::string& path,
                                                     bool verify_pages);

  const std::vector<SegmentPage>& pages() const { return pages_; }
  const SegmentPage* Find(uint16_t column_id, uint32_t page_index) const;
  const MappedFile& file() const { return *file_; }
  const std::string& path() const { return file_->path(); }

  /// CRCs every page payload against its directory entry.
  Status VerifyAll() const;

 private:
  explicit SegmentReader(std::unique_ptr<MappedFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<MappedFile> file_;
  std::vector<SegmentPage> pages_;
  std::unordered_map<uint64_t, size_t> by_key_;  // (column<<32|page) -> index
};

/// Parses a segment image in memory (the decoder the fuzz harness drives):
/// on success fills `pages` with bounds-checked directory entries whose
/// `data` pointers aim into `data`. Never reads outside [data, data+size).
Status DecodeSegment(const char* data, size_t size,
                     std::vector<SegmentPage>* pages, bool verify_pages);

}  // namespace anc::tier

#endif  // ANC_TIER_SEGMENT_H_
