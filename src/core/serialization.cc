#include "core/serialization.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "util/crc32c.h"
#include "util/mapped_file.h"

namespace anc {

namespace {

// Frame: [magic "ANCTHD01"][u32 version][u64 payload_bytes]
// [u32 crc32c(payload)][payload]. The checksum rejects bit rot and
// truncation with InvalidArgument instead of loading silently-corrupt
// state; the magic and the explicit version field reject files from a
// different format generation (the ANCIDX01/ANCIDX02 full snapshots
// included) rather than misparsing them.
constexpr char kMagic[8] = {'A', 'N', 'C', 'T', 'H', 'D', '0', '1'};
constexpr char kOldMagicPrefix[6] = {'A', 'N', 'C', 'I', 'D', 'X'};
constexpr uint32_t kFormatVersion = 1;
// Corruption guard: refuse to allocate payloads beyond this (a corrupt
// size field must not drive a multi-GB resize).
constexpr uint64_t kMaxPayloadBytes = 16ull << 30;
// Generous corruption guard for vector lengths (64M elements).
constexpr uint64_t kMaxElements = 1ull << 26;
constexpr uint8_t kPageInline = 0;
constexpr uint8_t kPageRef = 1;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void WriteVec(std::ostream& out, const std::vector<T>& values) {
  WritePod<uint64_t>(out, values.size());
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
bool ReadVec(std::istream& in, std::vector<T>* values,
             uint64_t max_elements) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  if (size > max_elements) return false;  // corruption guard
  values->resize(size);
  in.read(reinterpret_cast<char*>(values->data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  return static_cast<bool>(in);
}

/// Every page of `values` inline, kCheckpointPageElems elements each.
HeadColumn InlineColumn(const std::vector<double>& values) {
  HeadColumn column;
  column.elems = values.size();
  column.page_elems = kCheckpointPageElems;
  for (size_t begin = 0; begin < values.size();
       begin += kCheckpointPageElems) {
    const size_t count =
        std::min<size_t>(kCheckpointPageElems, values.size() - begin);
    HeadPage page;
    page.inline_data = reinterpret_cast<const char*>(values.data() + begin);
    page.bytes = static_cast<uint32_t>(count * sizeof(double));
    column.pages.push_back(std::move(page));
  }
  return column;
}

void WritePageTable(std::ostream& out, const HeadColumn& column) {
  WritePod<uint64_t>(out, column.elems);
  WritePod<uint32_t>(out, column.page_elems);
  WritePod<uint32_t>(out, static_cast<uint32_t>(column.pages.size()));
  for (const HeadPage& page : column.pages) {
    if (page.segment.empty()) {
      WritePod<uint8_t>(out, kPageInline);
      WritePod<uint32_t>(out, page.bytes);
      out.write(page.inline_data, page.bytes);
    } else {
      WritePod<uint8_t>(out, kPageRef);
      WritePod<uint16_t>(out, static_cast<uint16_t>(page.segment.size()));
      out.write(page.segment.data(),
                static_cast<std::streamsize>(page.segment.size()));
      WritePod<uint64_t>(out, page.offset);
      WritePod<uint32_t>(out, page.bytes);
      WritePod<uint32_t>(out, page.crc);
    }
  }
}

/// Materializes one page-table column of doubles, resolving references
/// against mmap'd segments under `tier_dir` (opened once each, cached in
/// `mappings`) with per-page bounds and CRC checks.
Status ReadPageTable(std::istream& in, const std::string& path,
                     const std::string& tier_dir,
                     std::map<std::string, std::unique_ptr<MappedFile>>*
                         mappings,
                     std::vector<double>* out) {
  uint64_t elems = 0;
  uint32_t page_elems = 0;
  uint32_t page_count = 0;
  if (!ReadPod(in, &elems) || !ReadPod(in, &page_elems) ||
      !ReadPod(in, &page_count) || elems > kMaxElements) {
    return Status::IoError(path + ": truncated page table header");
  }
  if (page_elems == 0 ||
      (page_count == 0) != (elems == 0) ||
      (page_count != 0 &&
       (uint64_t{page_count - 1} * page_elems >= elems ||
        uint64_t{page_count} * page_elems < elems))) {
    return Status::InvalidArgument(path + ": inconsistent page geometry");
  }
  out->assign(elems, 0.0);
  for (uint32_t p = 0; p < page_count; ++p) {
    const uint64_t begin = uint64_t{p} * page_elems;
    const uint64_t page_end = std::min<uint64_t>(elems, begin + page_elems);
    const uint64_t expected_bytes = (page_end - begin) * sizeof(double);
    uint8_t kind = 0;
    if (!ReadPod(in, &kind)) {
      return Status::IoError(path + ": truncated page table");
    }
    if (kind == kPageInline) {
      uint32_t bytes = 0;
      if (!ReadPod(in, &bytes) || bytes != expected_bytes) {
        return Status::InvalidArgument(path + ": bad inline page size");
      }
      in.read(reinterpret_cast<char*>(out->data() + begin), bytes);
      if (!in) return Status::IoError(path + ": truncated inline page");
      continue;
    }
    if (kind != kPageRef) {
      return Status::InvalidArgument(path + ": unknown page kind");
    }
    uint16_t name_len = 0;
    if (!ReadPod(in, &name_len) || name_len == 0 || name_len > 512) {
      return Status::InvalidArgument(path + ": bad segment name length");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    uint64_t offset = 0;
    uint32_t bytes = 0;
    uint32_t crc = 0;
    if (!in || !ReadPod(in, &offset) || !ReadPod(in, &bytes) ||
        !ReadPod(in, &crc)) {
      return Status::IoError(path + ": truncated page reference");
    }
    if (bytes != expected_bytes ||
        name.find('/') != std::string::npos) {  // refs never escape tier_dir
      return Status::InvalidArgument(path + ": malformed page reference");
    }
    auto it = mappings->find(name);
    if (it == mappings->end()) {
      auto mapped = MappedFile::Open(tier_dir + "/" + name);
      if (!mapped.ok()) {
        return Status(mapped.status().code(),
                      path + ": referenced segment " + name + ": " +
                          mapped.status().message());
      }
      it = mappings->emplace(name, std::move(*mapped)).first;
    }
    const MappedFile& file = *it->second;
    if (offset > file.size() || bytes > file.size() - offset) {
      return Status::InvalidArgument(path + ": page reference out of bounds "
                                     "in " + name);
    }
    const char* data = file.data() + offset;
    if (Crc32c(data, bytes) != crc) {
      return Status::InvalidArgument(path + ": page checksum mismatch in " +
                                     name);
    }
    std::memcpy(out->data() + begin, data, bytes);
  }
  return Status::OK();
}

}  // namespace

Status SaveIndex(const AncIndex& index, const std::string& path) {
  const SimilarityEngine::Snapshot snapshot = index.engine().TakeSnapshot();
  return SaveIndex(index, InlineColumn(snapshot.anchored_activeness),
                   InlineColumn(snapshot.similarity), path);
}

Status SaveIndex(const AncIndex& index, const HeadColumn& anchored,
                 const HeadColumn& similarity, const std::string& path) {
  // Serialize the payload into memory first so its checksum and size can
  // frame it.
  std::ostringstream out(std::ios::binary);

  // --- graph topology ---
  const Graph& g = index.graph();
  WritePod<uint32_t>(out, g.NumNodes());
  std::vector<uint64_t> edges(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto& [u, v] = g.Endpoints(e);
    edges[e] = (static_cast<uint64_t>(u) << 32) | v;
  }
  WriteVec(out, edges);

  // --- configuration ---
  const AncConfig& config = index.config();
  WritePod(out, config.similarity.lambda);
  WritePod(out, config.similarity.epsilon);
  WritePod(out, config.similarity.mu);
  WritePod(out, config.similarity.min_similarity);
  WritePod(out, config.similarity.max_similarity);
  WritePod(out, config.similarity.initial_activeness);
  WritePod(out, config.pyramid.num_pyramids);
  WritePod(out, config.pyramid.theta);
  WritePod(out, config.pyramid.seed);
  WritePod(out, config.pyramid.num_threads);
  WritePod<uint8_t>(out, static_cast<uint8_t>(config.mode));
  WritePod(out, config.rep);
  WritePod(out, config.reinforce_interval);

  // --- similarity / activeness state, as page tables ---
  const ActivenessStore& activeness = index.engine().activeness();
  WritePod(out, activeness.anchor_time());
  WritePod(out, activeness.last_time());
  WritePageTable(out, anchored);
  WritePageTable(out, similarity);

  // --- ANCOR interval bookkeeping ---
  WritePod(out, index.last_reinforce_time());
  WriteVec(out, index.PendingReinforceEdges());

  // --- pyramid partition trees (exact, including tie-breaks) ---
  std::vector<VoronoiPartition::TreeState> trees =
      index.index().ExportTreeStates();
  WritePod<uint64_t>(out, trees.size());
  for (const auto& tree : trees) {
    WriteVec(out, tree.seeds);
    WriteVec(out, tree.seed_of);
    WriteVec(out, tree.dist);
    WriteVec(out, tree.parent);
    WriteVec(out, tree.parent_edge);
    WriteVec(out, tree.first_child);
    WriteVec(out, tree.next_sibling);
    WriteVec(out, tree.prev_sibling);
  }

  if (!out) return Status::IoError("serialization error for " + path);
  const std::string payload = out.str();

  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file.write(kMagic, sizeof(kMagic));
  WritePod<uint32_t>(file, kFormatVersion);
  WritePod<uint64_t>(file, payload.size());
  WritePod<uint32_t>(file, Crc32c(payload.data(), payload.size()));
  file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!file) return Status::IoError("write error on " + path);
  return Status::OK();
}

Result<LoadedIndex> LoadIndex(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path);

  char magic[sizeof(kMagic)] = {};
  file.read(magic, sizeof(magic));
  if (file && std::memcmp(magic, kOldMagicPrefix,
                          sizeof(kOldMagicPrefix)) == 0) {
    return Status::InvalidArgument(
        path + ": unsupported index format generation '" +
        std::string(magic, sizeof(magic)) + "' (this build reads ANCTHD01)");
  }
  if (!file || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": not an ANC checkpoint file");
  }
  uint32_t version = 0;
  uint64_t payload_bytes = 0;
  uint32_t crc = 0;
  if (!ReadPod(file, &version) || !ReadPod(file, &payload_bytes) ||
      !ReadPod(file, &crc)) {
    return Status::InvalidArgument(path + ": truncated index header");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument(path + ": index format version " +
                                   std::to_string(version) +
                                   " does not match this build's " +
                                   std::to_string(kFormatVersion));
  }
  if (payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument(path + ": implausible payload size");
  }
  std::string payload(payload_bytes, '\0');
  file.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
  if (!file) {
    return Status::InvalidArgument(path + ": truncated index payload");
  }
  if (Crc32c(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument(path + ": index checksum mismatch "
                                   "(file is corrupted)");
  }
  std::istringstream in(payload, std::ios::binary);

  // --- graph ---
  uint32_t num_nodes = 0;
  std::vector<uint64_t> edges;
  if (!ReadPod(in, &num_nodes) || !ReadVec(in, &edges, kMaxElements)) {
    return Status::IoError(path + ": truncated graph section");
  }
  GraphBuilder builder;
  builder.SetNumNodes(num_nodes);
  for (uint64_t packed : edges) {
    const NodeId u = static_cast<NodeId>(packed >> 32);
    const NodeId v = static_cast<NodeId>(packed & 0xFFFFFFFFu);
    ANC_RETURN_NOT_OK(builder.AddEdge(u, v));
  }
  auto graph = std::make_unique<Graph>(builder.Build());
  if (graph->NumNodes() != num_nodes || graph->NumEdges() != edges.size()) {
    return Status::InvalidArgument(path + ": inconsistent graph section");
  }

  // --- configuration ---
  AncConfig config;
  uint8_t mode = 0;
  // The persisted worker count is read and discarded: it is a runtime
  // choice, so a restored index runs on this build's default.
  uint32_t saved_num_threads = 0;
  bool ok = ReadPod(in, &config.similarity.lambda) &&
            ReadPod(in, &config.similarity.epsilon) &&
            ReadPod(in, &config.similarity.mu) &&
            ReadPod(in, &config.similarity.min_similarity) &&
            ReadPod(in, &config.similarity.max_similarity) &&
            ReadPod(in, &config.similarity.initial_activeness) &&
            ReadPod(in, &config.pyramid.num_pyramids) &&
            ReadPod(in, &config.pyramid.theta) &&
            ReadPod(in, &config.pyramid.seed) &&
            ReadPod(in, &saved_num_threads) && ReadPod(in, &mode) &&
            ReadPod(in, &config.rep) && ReadPod(in, &config.reinforce_interval);
  if (!ok) return Status::IoError(path + ": truncated config section");
  if (mode > static_cast<uint8_t>(AncMode::kOnlineReinforce)) {
    return Status::InvalidArgument(path + ": unknown mode byte");
  }
  config.mode = static_cast<AncMode>(mode);

  // --- similarity state: materialize the page tables ---
  SimilarityEngine::Snapshot snapshot;
  if (!ReadPod(in, &snapshot.anchor_time) ||
      !ReadPod(in, &snapshot.last_time)) {
    return Status::IoError(path + ": truncated similarity section");
  }
  const std::string tier_dir =
      (std::filesystem::path(path).parent_path() / kTierDirName).string();
  std::map<std::string, std::unique_ptr<MappedFile>> mappings;
  ANC_RETURN_NOT_OK(ReadPageTable(in, path, tier_dir, &mappings,
                                  &snapshot.anchored_activeness));
  ANC_RETURN_NOT_OK(
      ReadPageTable(in, path, tier_dir, &mappings, &snapshot.similarity));

  // --- ANCOR interval bookkeeping ---
  double last_reinforce_time = 0.0;
  std::vector<EdgeId> pending_edges;
  if (!ReadPod(in, &last_reinforce_time) ||
      !ReadVec(in, &pending_edges, kMaxElements)) {
    return Status::IoError(path + ": truncated reinforce section");
  }

  // --- pyramid partition trees ---
  uint64_t num_slots = 0;
  if (!ReadPod(in, &num_slots) || num_slots > kMaxElements) {
    return Status::IoError(path + ": truncated partition section");
  }
  std::vector<VoronoiPartition::TreeState> trees(num_slots);
  for (auto& tree : trees) {
    if (!ReadVec(in, &tree.seeds, kMaxElements) ||
        !ReadVec(in, &tree.seed_of, kMaxElements) ||
        !ReadVec(in, &tree.dist, kMaxElements) ||
        !ReadVec(in, &tree.parent, kMaxElements) ||
        !ReadVec(in, &tree.parent_edge, kMaxElements) ||
        !ReadVec(in, &tree.first_child, kMaxElements) ||
        !ReadVec(in, &tree.next_sibling, kMaxElements) ||
        !ReadVec(in, &tree.prev_sibling, kMaxElements)) {
      return Status::IoError(path + ": truncated partition tree");
    }
  }

  // FromSnapshot rebuilds sigma caches and votes from the materialized
  // vectors, so inline and referenced pages load to the same bytes.
  LoadedIndex loaded;
  loaded.index =
      AncIndex::FromSnapshot(*graph, config, snapshot, std::move(trees));
  if (loaded.index == nullptr) {
    return Status::InvalidArgument(path + ": state does not match graph");
  }
  loaded.index->RestoreReinforceState(last_reinforce_time,
                                      std::move(pending_edges));
  loaded.graph = std::move(graph);
  return loaded;
}

}  // namespace anc
