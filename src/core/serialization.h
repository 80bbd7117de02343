#ifndef ANC_CORE_SERIALIZATION_H_
#define ANC_CORE_SERIALIZATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/anc.h"
#include "util/status.h"

namespace anc {

/// The checkpoint format ("ANCTHD01", docs/durability.md): graph topology,
/// configuration, anchored similarity/activeness state, ANCOR bookkeeping
/// and the pyramid partition trees (exact, tie-breaks included). The three
/// large per-edge arrays — anchored activeness, anchored similarity and the
/// sigma numerators — are stored as page tables: each page is either inline
/// payload or a {segment, offset, bytes, crc} reference into a sealed tier
/// segment (docs/storage_tiers.md). Vote tallies are recomputed on load, so
/// every page-table shape of one state loads byte-identically.

/// Directory, next to a checkpoint file, that its page references resolve
/// against (the TieredStore of the same store directory).
inline constexpr char kTierDirName[] = "tier";

/// Elements per page of the columns SaveIndex writes inline.
inline constexpr uint32_t kCheckpointPageElems = 4096;

/// One page of a checkpoint column: raw payload (`inline_data`) or, when
/// `segment` is non-empty, a reference into a sealed segment.
struct HeadPage {
  const char* inline_data = nullptr;
  uint32_t bytes = 0;
  std::string segment;  ///< non-empty selects the reference form
  uint64_t offset = 0;  ///< payload offset within the segment file
  uint32_t crc = 0;     ///< crc32c of the referenced payload
};

/// The page table of one per-edge column of doubles.
struct HeadColumn {
  uint64_t elems = 0;
  uint32_t page_elems = 0;
  std::vector<HeadPage> pages;
};

/// Writes a checkpoint of `index` with every page inline. Writes `path`
/// without fsync — the store's checkpoint flow owns temp-file/fsync/rename.
Status SaveIndex(const AncIndex& index, const std::string& path);

/// Writes a checkpoint of `index` whose anchored-activeness, similarity and
/// sigma-numerator arrays are the given page tables (TieredStore::WriteHead
/// passes segment references built from its live columns).
Status SaveIndex(const AncIndex& index, const HeadColumn& anchored,
                 const HeadColumn& similarity, const HeadColumn& sigma,
                 const std::string& path);

/// A loaded index together with the graph it references. The graph is heap
/// allocated and pointer-stable, so the AncIndex's internal reference stays
/// valid for the lifetime of this struct.
struct LoadedIndex {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<AncIndex> index;
};

/// Loads a checkpoint into a fully resident index, materializing every
/// referenced page from `<dir of path>/tier/` after checking its bounds and
/// CRC. Fails with IoError on unreadable files, truncated sections and
/// missing segments, and with InvalidArgument on format mismatches (older
/// ANCIDX01/ANCIDX02 generations included), checksum mismatches and
/// malformed page tables.
Result<LoadedIndex> LoadIndex(const std::string& path);

}  // namespace anc

#endif  // ANC_CORE_SERIALIZATION_H_
