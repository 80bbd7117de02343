#include "core/serialization.h"
#include <cstring>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/crc32c.h"

namespace anc {

namespace {

// Format v2 (current): [magic "ANCIDX02"][u32 version][u64 payload_bytes]
// [u32 crc32c(payload)][payload]. The checksum rejects bit rot and
// truncation with InvalidArgument instead of loading silently-corrupt
// state; the explicit version field rejects files from a different format
// generation ("ANCIDX01" seeds included) rather than misparsing them.
constexpr char kMagic[8] = {'A', 'N', 'C', 'I', 'D', 'X', '0', '2'};
constexpr char kMagicPrefix[6] = {'A', 'N', 'C', 'I', 'D', 'X'};
constexpr uint32_t kFormatVersion = 2;
// Corruption guard: refuse to allocate payloads beyond this (a corrupt
// size field must not drive a multi-GB resize).
constexpr uint64_t kMaxPayloadBytes = 16ull << 30;

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

// Generous corruption guard for vector lengths (64M elements).
constexpr uint64_t kMaxElements = 1ull << 26;

}  // namespace

Status SaveIndex(const AncIndex& index, const std::string& path) {
  // Serialize the payload into memory first so its checksum and size can
  // frame it; index snapshots are bounded by kMaxElements sections, so
  // this stays well under the write-then-rename working set of a
  // checkpoint anyway.
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

  // --- similarity / activeness state ---
  SimilarityEngine::Snapshot snapshot = index.engine().TakeSnapshot();
  WritePod(out, snapshot.anchor_time);
  WritePod(out, snapshot.last_time);
  WriteVec(out, snapshot.anchored_activeness);
  WriteVec(out, snapshot.similarity);

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
  if (!file || std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) != 0) {
    return Status::InvalidArgument(path + ": not an ANC index file");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        path + ": unsupported index format generation '" +
        std::string(magic, sizeof(magic)) + "' (this build reads ANCIDX02)");
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

  // --- similarity state ---
  SimilarityEngine::Snapshot snapshot;
  ok = ReadPod(in, &snapshot.anchor_time) && ReadPod(in, &snapshot.last_time) &&
       ReadVec(in, &snapshot.anchored_activeness, kMaxElements) &&
       ReadVec(in, &snapshot.similarity, kMaxElements);
  if (!ok) return Status::IoError(path + ": truncated similarity section");

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
