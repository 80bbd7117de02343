// Seed-corpus generator: writes one well-formed exemplar per fuzz target
// into <out_dir>/{wal,index,json,stream,rpc,segment}/ using the real
// production writers (WalAppender, DurableStore, SaveIndex, the net::
// frame codec, tier::SegmentWriter, tier::TieredStore::WriteHead), so the
// checked-in corpora under fuzz/corpus/ always decode on the current
// format version.
// Rerun after a format change:
//
//   cmake -B build -S . -DANC_FUZZ=ON && cmake --build build --target make_corpus
//   ./build/fuzz/make_corpus fuzz/corpus

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/anc.h"
#include "core/serialization.h"
#include "graph/graph.h"
#include "net/protocol.h"
#include "rebalance/journal.h"
#include "store/store.h"
#include "store/wal.h"
#include "tier/segment.h"
#include "tier/tiered_store.h"
#include "util/status.h"

namespace fs = std::filesystem;
using anc::Activation;

namespace {

anc::Graph MakeGraph() {
  anc::GraphBuilder builder;
  builder.SetNumNodes(6);
  const std::pair<anc::NodeId, anc::NodeId> edges[] = {
      {0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5},
  };
  for (const auto& [u, v] : edges) (void)builder.AddEdge(u, v);
  return builder.Build();
}

void WriteText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out_dir>\n", argv[0]);
    return 2;
  }
  const fs::path out(argv[1]);
  for (const char* sub :
       {"wal", "index", "json", "stream", "rpc", "segment", "journal"}) {
    fs::create_directories(out / sub);
  }

  const anc::Graph graph = MakeGraph();

  // wal/: a real two-record segment plus a truncated copy (torn tail).
  {
    const std::string path = (out / "wal" / "segment").string();
    auto appender = anc::store::WalAppender::Create(path, 1);
    if (!appender.ok()) return 1;
    const std::vector<Activation> batch1 = {{0, 1.0}, {1, 2.0}, {2, 2.5}};
    const std::vector<Activation> batch2 = {{3, 3.0}, {4, 4.0}};
    ANC_CHECK(appender.value()->Append(batch1.data(), batch1.size(), 1).ok(),
              "wal append");
    ANC_CHECK(appender.value()->Append(batch2.data(), batch2.size(), 4).ok(),
              "wal append");
    ANC_CHECK(appender.value()->Close().ok(), "wal close");
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    fs::copy_file(path, out / "wal" / "torn",
                  fs::copy_options::overwrite_existing, ec);
    fs::resize_file(out / "wal" / "torn", size - 5, ec);
  }

  // segment/: a real sealed ANCSEG01 cold segment (several pages across
  // two columns) plus a truncated copy (torn mid-compaction) and a
  // payload-corrupted copy (bit rot under the directory CRC).
  {
    const std::string path = (out / "segment" / "sealed").string();
    auto writer = anc::tier::SegmentWriter::Create(path);
    if (!writer.ok()) return 1;
    std::vector<double> payload(64);
    for (size_t i = 0; i < payload.size(); ++i) payload[i] = 0.25 * i;
    const uint32_t bytes =
        static_cast<uint32_t>(payload.size() * sizeof(double));
    ANC_CHECK(writer.value()
                  ->AddPage(/*column_id=*/1, sizeof(double), /*page_index=*/0,
                            payload.data(), bytes)
                  .ok(),
              "segment page");
    ANC_CHECK(writer.value()
                  ->AddPage(/*column_id=*/1, sizeof(double), /*page_index=*/1,
                            payload.data(), bytes / 2)
                  .ok(),
              "segment page");
    ANC_CHECK(writer.value()
                  ->AddPage(/*column_id=*/2, sizeof(double), /*page_index=*/0,
                            payload.data(), bytes)
                  .ok(),
              "segment page");
    ANC_CHECK(writer.value()->Finish().ok(), "segment finish");
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    fs::copy_file(path, out / "segment" / "torn",
                  fs::copy_options::overwrite_existing, ec);
    fs::resize_file(out / "segment" / "torn", size - 7, ec);
    fs::copy_file(path, out / "segment" / "badpage",
                  fs::copy_options::overwrite_existing, ec);
    std::fstream bad(out / "segment" / "badpage",
                     std::ios::in | std::ios::out | std::ios::binary);
    const auto at =
        static_cast<std::streamoff>(anc::tier::kSegmentHeaderBytes + 3);
    bad.seekg(at);
    const int orig = bad.get();
    bad.seekp(at);
    bad.put(static_cast<char>(orig ^ 0x5a));
  }

  // index/: a real all-inline checkpoint, a checkpoint whose page tables
  // reference a sealed tier segment (written by TieredStore::WriteHead),
  // and a real MANIFEST (produced by opening a store in a scratch dir),
  // plus a truncated checkpoint.
  {
    anc::AncConfig config;
    auto index = anc::AncIndex::Create(graph, config);
    if (!index.ok()) return 1;
    const std::string ckpt = (out / "index" / "checkpoint.idx").string();
    ANC_CHECK(anc::SaveIndex(*index.value(), ckpt).ok(), "save index");

    {
      const fs::path tier_scratch = out / "index" / ".tier_scratch";
      auto tier = anc::tier::TieredStore::Open(tier_scratch.string(), {});
      if (!tier.ok()) return 1;
      index.value()->AttachTier(tier.value().get());
      ANC_CHECK(tier.value()
                    ->WriteHead(*index.value(),
                                (out / "index" / "page_refs.idx").string())
                    .ok(),
                "write head");
      tier.value()->DetachAll();
      tier.value().reset();
      std::error_code ec;
      fs::remove_all(tier_scratch, ec);
    }

    const fs::path scratch = out / "index" / ".store_scratch";
    auto store = anc::store::DurableStore::Open(scratch.string(),
                                                *index.value(), {});
    if (!store.ok()) return 1;
    store.value().reset();
    std::error_code ec;
    fs::copy_file(scratch / "MANIFEST", out / "index" / "manifest",
                  fs::copy_options::overwrite_existing, ec);
    fs::remove_all(scratch, ec);

    fs::copy_file(ckpt, out / "index" / "truncated.idx",
                  fs::copy_options::overwrite_existing, ec);
    const auto size = fs::file_size(out / "index" / "truncated.idx", ec);
    fs::resize_file(out / "index" / "truncated.idx", size / 2, ec);
  }

  // json/: shapes the obs layer actually round-trips, plus adversarial
  // exemplars (deep nesting at the parser's depth cap, escapes, numbers).
  {
    WriteText(out / "json" / "telemetry",
              R"({"t_s":1.5,"interval_s":0.5,"delta":{"counters":{"anc.serve.ingest_accepted":42},"gauges":{"anc.store.wal_bytes":4096},"histograms":{"anc.apply.us":{"count":7,"sum":123.5,"buckets":[0,3,4]}}}})");
    WriteText(out / "json" / "health",
              R"({"overall":"degraded","shards":[{"shard":0,"state":"healthy","reasons":[]},{"shard":1,"state":"degraded","reasons":["queue_depth 9000 >= 1024"]}]})");
    WriteText(out / "json" / "escapes",
              "{\"s\":\"a\\\"b\\\\c\\nd\\u0041\\u00e9\",\"n\":[-1.5e-3,1e308,0.0,9007199254740993]}");
    std::string deep;
    for (int i = 0; i < 120; ++i) deep += '[';
    deep += "null";
    for (int i = 0; i < 120; ++i) deep += ']';
    WriteText(out / "json" / "deep", deep);
    WriteText(out / "json" / "scalars", "true");
  }

  // stream/: a valid "u v t" trace over the fuzz graph, one with comments
  // and blank lines, and one with a bad line (skip_bad_lines territory).
  {
    WriteText(out / "stream" / "valid",
              "0 1 0.5\n1 2 1.0\n2 3 1.5\n3 4 2.0\n4 5 2.5\n");
    WriteText(out / "stream" / "comments",
              "# activation trace\n\n0 2 0.25\n2 3 0.75\n\n# tail comment\n");
    WriteText(out / "stream" / "mixed",
              "0 1 1.0\nnot a line\n5 5 2.0\n1 2 0.5\n3 5 9.0\n");
  }

  // rpc/: real frames produced by the production codec — one request per
  // op family, one OK response, one error response, and a two-frame
  // stream — plus a truncated and a CRC-corrupted copy.
  {
    using anc::net::Op;
    const auto frame_request = [](Op op, const std::string& body) {
      std::string payload;
      anc::net::RequestHeader header;
      header.request_id = 7;
      header.tenant_id = 3;
      header.op = op;
      anc::net::AppendRequestHeader(&payload, header);
      payload += body;
      std::string wire;
      anc::net::AppendFrame(&wire, payload);
      return wire;
    };

    std::string submit_body;
    anc::net::SubmitBody submit;
    submit.activations = {{0, 1.0}, {1, 2.0}, {2, 2.5}};
    anc::net::AppendSubmitBody(&submit_body, submit);
    WriteText(out / "rpc" / "submit", frame_request(Op::kSubmitBatch,
                                                    submit_body));

    std::string query_body;
    anc::net::QueryBody query;
    query.node = 2;
    query.level = 1;
    query.min_seq = 3;
    anc::net::AppendQueryBody(&query_body, query);
    WriteText(out / "rpc" / "query", frame_request(Op::kLocalCluster,
                                                   query_body));

    std::string await_body;
    anc::net::AwaitBody await;
    await.seq = 3;
    anc::net::AppendAwaitBody(&await_body, await);
    WriteText(out / "rpc" / "await", frame_request(Op::kAwaitSeq,
                                                   await_body));

    std::string pull_body;
    anc::net::PullLogBody pull;
    pull.after_seq = 1;
    anc::net::AppendPullLogBody(&pull_body, pull);
    WriteText(out / "rpc" / "pull", frame_request(Op::kPullLog, pull_body));

    // An OK response carrying a ClustersBody.
    std::string response;
    anc::net::ResponseHeader response_header;
    response_header.request_id = 7;
    response_header.op = Op::kClusters;
    anc::net::AppendResponseHeader(&response, response_header);
    anc::net::ClustersBody clusters;
    clusters.epoch = 2;
    clusters.watermark_seq = 3;
    clusters.level = 1;
    clusters.num_clusters = 2;
    clusters.labels = {0, 0, 1, 1, 1, 0};
    anc::net::AppendClustersBody(&response, clusters);
    std::string response_wire;
    anc::net::AppendFrame(&response_wire, response);
    WriteText(out / "rpc" / "response", response_wire);

    // An error response (non-OK code, message bytes as body).
    std::string error;
    anc::net::ResponseHeader error_header;
    error_header.request_id = 8;
    error_header.op = Op::kClusters;
    error_header.code = anc::StatusCode::kUnavailable;
    anc::net::AppendResponseHeader(&error, error_header);
    error += "replication lag exceeds the staleness bound";
    std::string error_wire;
    anc::net::AppendFrame(&error_wire, error);
    WriteText(out / "rpc" / "error", error_wire);

    // Two frames back to back (the server's streaming read loop).
    WriteText(out / "rpc" / "stream",
              frame_request(Op::kPing, "") + frame_request(Op::kStats, ""));

    // Truncated and CRC-corrupted copies of a valid frame.
    std::string wire = frame_request(Op::kClusters, query_body);
    WriteText(out / "rpc" / "truncated", wire.substr(0, wire.size() - 3));
    wire.back() ^= 0x5a;
    WriteText(out / "rpc" / "badcrc", wire);
  }

  // journal/: a real ANCMIG01 migration journal in each phase (the two
  // shapes recovery can find on disk), plus a truncated and a
  // CRC-corrupted copy.
  {
    anc::rebalance::MigrationJournal journal;
    journal.id = 11;
    journal.from = 0;
    journal.to = 2;
    journal.s_a = 37;
    journal.moving = {1, 3, 4};
    std::string prepare;
    anc::rebalance::EncodeJournal(journal, &prepare);
    WriteText(out / "journal" / "prepare", prepare);

    journal.phase = anc::rebalance::MigrationPhase::kCommitted;
    journal.s_b = 29;
    journal.g0 = 2;
    std::string committed;
    anc::rebalance::EncodeJournal(journal, &committed);
    WriteText(out / "journal" / "committed", committed);

    WriteText(out / "journal" / "truncated",
              committed.substr(0, committed.size() - 5));
    committed.back() ^= 0x5a;
    WriteText(out / "journal" / "badcrc", committed);
  }

  std::fprintf(stderr, "corpus written under %s\n", out.string().c_str());
  return 0;
}
