#ifndef ANC_TIER_COLUMN_H_
#define ANC_TIER_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace anc::tier {

// Column ids of the tiered per-edge arrays (docs/storage_tiers.md). The id
// keys a column's pages inside cold segments and the tiered checkpoint
// head, so it must be stable across sessions.
inline constexpr uint16_t kColAnchored = 1;    ///< anchored activeness a*(e)
inline constexpr uint16_t kColSimilarity = 2;  ///< anchored similarity S*(e)
inline constexpr uint16_t kColSigma = 3;       ///< sigma numerators num(e)
/// Per-level vote tallies: id = kColVotesBase + (level - 1).
inline constexpr uint16_t kColVotesBase = 16;
/// Per-partition same-seed bits: id = kColBitsBase + slot.
inline constexpr uint16_t kColBitsBase = 4096;

class ColumnBase;

/// The demotion side of the tier (implemented by TieredStore): columns
/// register themselves here and report promotions, the host decides when
/// resident pages spill to cold segments. All methods are invoked from the
/// single writer thread, except OnPromote, which may fire from the pyramid
/// index's level-parallel repair tasks and must be thread-safe.
class ColumnHost {
 public:
  virtual ~ColumnHost() = default;

  /// Page granularity (elements per page, a power of two) columns adopt
  /// when they attach.
  virtual size_t PageElems() const = 0;

  virtual void Register(ColumnBase* column) = 0;
  virtual void Unregister(ColumnBase* column) = 0;

  /// A cold page was copied back to RAM for writing (`bytes` of payload).
  virtual void OnPromote(ColumnBase* column, size_t page, size_t bytes) = 0;
};

/// Type-erased page-level view of a Column<T>, the interface TieredStore
/// drives demotion/spill/compaction through. One page is either *resident*
/// (an owned heap buffer, writable) or *cold* (the read pointer aims into
/// an mmap'd segment; the first write promotes it back). A resident page
/// additionally remembers the newest spilled copy of its bytes while it
/// stays clean, so re-demoting an untouched page costs no I/O.
class ColumnBase {
 public:
  ColumnBase() = default;
  ColumnBase(const ColumnBase&) = delete;
  ColumnBase& operator=(const ColumnBase&) = delete;
  virtual ~ColumnBase() { DetachFromHost(/*notify=*/true); }

  uint16_t id() const { return id_; }
  size_t size() const { return size_; }
  size_t page_elems() const { return size_t{1} << shift_; }
  size_t num_pages() const { return pages_.size(); }
  virtual size_t elem_size() const = 0;

  /// Payload bytes of page `p` (the last page may be partial).
  size_t PageBytes(size_t p) const {
    const size_t begin = p << shift_;
    const size_t elems =
        p + 1 == pages_.size() ? size_ - begin : page_elems();
    return elems * elem_size();
  }

  bool IsResident(size_t p) const { return pages_[p].write != nullptr; }
  bool IsDirty(size_t p) const { return pages_[p].dirty; }

  /// Payload bytes currently held in RAM (cold pages excluded).
  size_t ResidentBytes() const {
    size_t bytes = 0;
    for (size_t p = 0; p < pages_.size(); ++p) {
      if (IsResident(p)) bytes += PageBytes(p);
    }
    return bytes;
  }

  /// The live bytes of page `p` (resident buffer or cold mapping).
  const void* PageData(size_t p) const { return pages_[p].read; }

  /// Newest clean on-disk copy of page `p` (inside an mmap'd segment), or
  /// null when the page has been written since its last spill.
  const void* ColdCopy(size_t p) const { return pages_[p].cold; }

  /// Drops page `p`'s resident buffer; reads serve from `cold` (an mmap'd
  /// copy of the page's exact current bytes — the caller just spilled it,
  /// or ColdCopy(p) is still valid).
  void Demote(size_t p, const void* cold) {
    Page& page = pages_[p];
    page.owned.reset();
    page.write = nullptr;
    page.read = static_cast<const char*>(cold);
    page.cold = static_cast<const char*>(cold);
    page.dirty = false;
  }

  /// Repoints a non-dirty page's cold copy (and, when demoted, its live
  /// read pointer) at `ptr` — compaction install, after the merged segment
  /// re-homed the bytes.
  void Repoint(size_t p, const void* ptr) {
    Page& page = pages_[p];
    page.cold = static_cast<const char*>(ptr);
    if (page.write == nullptr) page.read = page.cold;
  }

  /// Records that page `p`'s current bytes were spilled to `cold` while it
  /// stays resident: the page turns clean and re-demotion becomes free.
  void NoteClean(size_t p, const void* cold) {
    pages_[p].cold = static_cast<const char*>(cold);
    pages_[p].dirty = false;
  }

  /// Promotes every cold page and forgets the host (safe to call from
  /// either side of the column/host pair during teardown).
  void DetachFromHost(bool notify) {
    if (host_ == nullptr) return;
    for (size_t p = 0; p < pages_.size(); ++p) {
      if (!IsResident(p)) PromotePage(p, /*notify=*/false);
      pages_[p].cold = nullptr;  // the host's mappings are going away
    }
    ColumnHost* host = host_;
    host_ = nullptr;
    if (notify) host->Unregister(this);
  }

 protected:
  struct Page {
    const char* read = nullptr;  ///< always valid: owned buffer or mapping
    char* write = nullptr;       ///< null while cold
    std::unique_ptr<char[]> owned;
    const char* cold = nullptr;  ///< newest spilled copy; null when dirty
    bool dirty = false;
  };

  /// Copies a cold page back into an owned buffer. The promotion is always
  /// in service of a write, so the page turns dirty and the cold copy is
  /// invalidated.
  void PromotePage(size_t p, bool notify) {
    Page& page = pages_[p];
    const size_t bytes = PageBytes(p);
    auto owned = std::make_unique<char[]>(bytes);
    std::memcpy(owned.get(), page.read, bytes);
    page.owned = std::move(owned);
    page.write = page.owned.get();
    page.read = page.owned.get();
    page.cold = nullptr;
    page.dirty = true;
    if (notify && host_ != nullptr) host_->OnPromote(this, p, bytes);
  }

  void MoveFrom(ColumnBase& other) {
    DetachFromHost(/*notify=*/true);
    size_ = other.size_;
    shift_ = other.shift_;
    mask_ = other.mask_;
    pages_ = std::move(other.pages_);
    id_ = other.id_;
    host_ = other.host_;
    // The host tracks columns by pointer: hand the registration over.
    if (host_ != nullptr) {
      host_->Unregister(&other);
      other.host_ = nullptr;
      host_->Register(this);
    }
    other.size_ = 0;
    other.pages_.clear();
  }

  size_t size_ = 0;
  uint32_t shift_ = 63;       ///< single spanning page until attached
  size_t mask_ = ~size_t{0};  ///< index mask within a page
  std::vector<Page> pages_;
  uint16_t id_ = 0;
  ColumnHost* host_ = nullptr;
};

/// A flat array of POD elements, paged so that cold pages can live in
/// mmap'd segments (docs/storage_tiers.md). Unattached, it is a single
/// resident page and behaves like std::vector<T> with one extra indirection
/// per access; Attach() repages it at the host's granularity and hands the
/// host demotion control. Reads never change residency — a cold page is
/// read straight from the mapping; the first *write* to a cold page copies
/// it back to RAM (transparent promotion).
template <typename T>
class Column : public ColumnBase {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Column() = default;
  Column(size_t n, T value) { assign(n, value); }
  Column(Column&& other) noexcept { MoveFrom(other); }
  Column& operator=(Column&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  size_t elem_size() const override { return sizeof(T); }

  T operator[](size_t i) const {
    return reinterpret_cast<const T*>(pages_[i >> shift_].read)[i & mask_];
  }

  /// Writable reference; promotes a cold page and marks it dirty.
  T& Mut(size_t i) {
    Page& page = pages_[i >> shift_];
    if (page.write == nullptr) PromotePage(i >> shift_, /*notify=*/true);
    page.dirty = true;
    page.cold = nullptr;
    return reinterpret_cast<T*>(page.write)[i & mask_];
  }

  void Set(size_t i, T value) { Mut(i) = value; }

  /// Applies fn(index, T&) to every element, promoting all pages (the
  /// batched-rescale path: a uniform scale touches everything by design).
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (size_t p = 0; p < pages_.size(); ++p) {
      if (pages_[p].write == nullptr) PromotePage(p, /*notify=*/true);
      pages_[p].dirty = true;
      pages_[p].cold = nullptr;
      T* data = reinterpret_cast<T*>(pages_[p].write);
      const size_t begin = p << shift_;
      const size_t elems = PageBytes(p) / sizeof(T);
      for (size_t i = 0; i < elems; ++i) fn(begin + i, data[i]);
    }
  }

  void Fill(T value) {
    ForEachMutable([value](size_t, T& v) { v = value; });
  }

  /// Re-sizes to `n` fresh resident elements of `value`.
  void assign(size_t n, T value) {
    size_ = n;
    RebuildPages();
    Fill(value);
  }

  void Assign(const std::vector<T>& values) {
    if (values.size() != size_) {
      size_ = values.size();
      RebuildPages();
    }
    ForEachMutable([&values](size_t i, T& v) { v = values[i]; });
  }

  /// A flat copy; each page's bytes are copied once, with no zero pass.
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (size_t p = 0; p < pages_.size(); ++p) {
      const T* page = reinterpret_cast<const T*>(pages_[p].read);
      out.insert(out.end(), page, page + PageBytes(p) / sizeof(T));
    }
    return out;
  }

  /// Adopts the host's page granularity (repaging the resident data) and
  /// registers for demotion control. The host must outlive the attachment
  /// (or detach first — see TieredStore).
  void Attach(ColumnHost* host, uint16_t id) {
    ANC_CHECK(host_ == nullptr, "column is already attached to a tier");
    const std::vector<T> data = ToVector();
    host_ = host;
    id_ = id;
    size_t elems = host->PageElems();
    ANC_CHECK(elems > 0 && (elems & (elems - 1)) == 0,
              "tier page size must be a power of two");
    uint32_t shift = 0;
    while ((size_t{1} << shift) < elems) ++shift;
    shift_ = shift;
    mask_ = elems - 1;
    RebuildPages();
    ForEachMutable([&data](size_t i, T& v) { v = data[i]; });
    host->Register(this);
  }

 private:
  void RebuildPages() {
    pages_.clear();
    const size_t elems = size_t{1} << shift_;
    const size_t count = size_ == 0 ? 0 : (size_ + elems - 1) >> shift_;
    pages_.resize(count);
    for (size_t p = 0; p < count; ++p) {
      const size_t bytes = PageBytes(p);
      pages_[p].owned = std::make_unique<char[]>(bytes);
      pages_[p].write = pages_[p].owned.get();
      pages_[p].read = pages_[p].owned.get();
      pages_[p].dirty = true;
    }
  }
};

}  // namespace anc::tier

#endif  // ANC_TIER_COLUMN_H_
