// Networked front-end tests (src/net/): RPC frame/body codecs under the
// PR 7 parser discipline (garbage, truncation and oversized lengths must
// yield Status, never a crash), the epoch-keyed query cache (byte-identity
// within an epoch, wholesale invalidation on publish), loopback
// end-to-end byte-identity against in-process
// ShardedServer views (one and two shards), the read barrier on a sharded
// leader, and the WAL-shipping replication chain: follower reads never
// claim tickets past the leader's ship mark, the min_seq barrier refuses
// under an injected leader stall, and the replica-set client falls back to
// the leader.

#include <atomic>
#include <chrono>
#include <cstring>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/test_hooks.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "net/backend.h"
#include "net/cache.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/replica.h"
#include "net/server.h"
#include "net/socket.h"
#include "parked_writer.h"
#include "serve/server.h"
#include "shard/sharded_server.h"
#include "store/test_hooks.h"
#include "store/wal.h"
#include "util/rng.h"

namespace anc {
namespace {

using net::Backend;
using net::ByteReader;
using net::Client;
using net::ClustersBody;
using net::Follower;
using net::FollowerBackend;
using net::LogChunkBody;
using net::MembersBody;
using net::NetServer;
using net::NetServerOptions;
using net::Op;
using net::PullLogBody;
using net::QueryBody;
using net::QueryCache;
using net::ReplicaSetClient;
using net::ReplicationPuller;
using net::ShardedBackend;
using net::SubmitAck;
using net::SubmitBody;
using net::WatermarkBody;
using net::ZoomBody;

constexpr std::chrono::milliseconds kAwait{5000};

AncConfig SmallConfig() {
  AncConfig config;
  config.pyramid.num_pyramids = 3;
  config.pyramid.seed = 7;
  config.mode = AncMode::kOnline;
  return config;
}

GroundTruthGraph SmallCommunityGraph(uint64_t seed = 11) {
  PlantedPartitionParams pp;
  pp.num_communities = 4;
  pp.min_size = 10;
  pp.max_size = 14;
  Rng rng(seed);
  return PlantedPartition(pp, rng);
}

// Activation times must advance monotonically across batches (the ingest
// queue rejects regressed timestamps), so later batches pass a time base.
std::vector<Activation> MakeActivations(const Graph& g, size_t count,
                                        uint64_t seed = 3, double t0 = 0.0) {
  Rng rng(seed);
  std::vector<Activation> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(Activation{
        static_cast<EdgeId>(rng.Next() % g.NumEdges()),
        t0 + static_cast<double>(i + 1)});
  }
  return out;
}

shard::ShardedOptions ShardOptions(uint32_t num_shards) {
  shard::ShardedOptions options;
  options.partition.num_shards = num_shards;
  return options;
}

// A started ShardedServer over `graph` (null after a reported failure).
std::unique_ptr<shard::ShardedServer> StartSharded(
    const Graph& graph, shard::ShardedOptions options) {
  auto created = shard::ShardedServer::Create(graph, SmallConfig(), options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return nullptr;
  Status started = (*created)->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return std::move(created).value();
}

// Durable one-shard options over a fresh store directory named after the
// running test.
shard::ShardedOptions DurableOptions(std::string* dir) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  *dir = (std::filesystem::temp_directory_path() /
          (std::string("anc_net_") + test->test_suite_name() + "_" +
           test->name()))
             .string();
  std::filesystem::remove_all(*dir);
  shard::ShardedOptions options = ShardOptions(1);
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = *dir;
  return options;
}

// A started leader stack: a durable one-shard ShardedServer (its WAL is the
// replication log) + ShardedBackend + NetServer, torn down in reverse
// order. `server` is the single shard's engine, whose published view the
// remote answers must match.
struct LeaderStack {
  std::string dir;
  std::unique_ptr<shard::ShardedServer> sharded;
  serve::AncServer* server = nullptr;
  std::unique_ptr<ShardedBackend> backend;
  std::unique_ptr<NetServer> net;

  static LeaderStack Start(const Graph& graph) {
    LeaderStack s;
    s.sharded = StartSharded(graph, DurableOptions(&s.dir));
    s.server = &s.sharded->shard(0);
    s.backend = std::make_unique<ShardedBackend>(s.sharded.get());
    s.net = std::make_unique<NetServer>(s.backend.get(), NetServerOptions{});
    Status started = s.net->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return s;
  }

  LeaderStack() = default;
  LeaderStack(LeaderStack&&) = default;

  ~LeaderStack() {
    if (net) net->Stop();
    if (sharded) {
      sharded->Stop();
      std::filesystem::remove_all(dir);
    }
  }
};

// The cut edges of a two-shard server, and an edge delivered to shard 1
// alone (false when the partition has none).
bool SplitEdges(const shard::ShardedServer& server,
                std::vector<EdgeId>* cut, EdgeId* shard1_only) {
  const std::shared_ptr<const shard::Router> router = server.router();
  bool found = false;
  for (EdgeId e = 0; e < server.graph().NumEdges(); ++e) {
    const auto [owner, halo] = router->DeliveryOf(e);
    if (halo != shard::Router::kNoShard) {
      cut->push_back(e);
    } else if (owner == 1 && !found) {
      *shard1_only = e;
      found = true;
    }
  }
  return found && !cut->empty();
}

// Twenty activations on cut edges (so both shards publish per-shard ticket
// 20), at times 1..20.
std::vector<Activation> CutEdgeActivations(const std::vector<EdgeId>& cut) {
  std::vector<Activation> out;
  for (size_t i = 0; i < 20; ++i) {
    out.push_back(Activation{cut[i % cut.size()], static_cast<double>(i + 1)});
  }
  return out;
}

// --- Frame codec ----------------------------------------------------------

TEST(NetProtocolTest, FrameRoundTrip) {
  std::string wire;
  net::AppendFrame(&wire, "hello payload");
  std::string_view payload;
  size_t consumed = 0;
  Status s = net::DecodeFrame(reinterpret_cast<const uint8_t*>(wire.data()),
                              wire.size(), &payload, &consumed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(payload, "hello payload");
  EXPECT_EQ(consumed, wire.size());
}

TEST(NetProtocolTest, TruncatedFrameIsOutOfRange) {
  std::string wire;
  net::AppendFrame(&wire, "a longer payload for truncation");
  std::string_view payload;
  size_t consumed = 0;
  // Every proper prefix must report OutOfRange (read more), never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    Status s = net::DecodeFrame(reinterpret_cast<const uint8_t*>(wire.data()),
                                len, &payload, &consumed);
    ASSERT_FALSE(s.ok()) << "prefix " << len;
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << "prefix " << len;
  }
}

TEST(NetProtocolTest, BadMagicOversizeAndCrcAreInvalidArgument) {
  std::string wire;
  net::AppendFrame(&wire, "payload");
  std::string_view payload;
  size_t consumed = 0;

  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_EQ(net::DecodeFrame(reinterpret_cast<const uint8_t*>(bad_magic.data()),
                             bad_magic.size(), &payload, &consumed)
                .code(),
            StatusCode::kInvalidArgument);

  std::string oversize = wire;
  const uint32_t huge = net::kMaxFramePayloadBytes + 1;
  std::memcpy(&oversize[4], &huge, sizeof(huge));
  EXPECT_EQ(net::DecodeFrame(reinterpret_cast<const uint8_t*>(oversize.data()),
                             oversize.size(), &payload, &consumed)
                .code(),
            StatusCode::kInvalidArgument);

  std::string bad_crc = wire;
  bad_crc.back() ^= 0x5a;
  EXPECT_EQ(net::DecodeFrame(reinterpret_cast<const uint8_t*>(bad_crc.data()),
                             bad_crc.size(), &payload, &consumed)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NetProtocolTest, GarbageNeverCrashes) {
  Rng rng(99);
  std::string_view payload;
  size_t consumed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk(rng.Next() % 64, '\0');
    for (char& c : junk) c = static_cast<char>(rng.Next());
    Status s = net::DecodeFrame(reinterpret_cast<const uint8_t*>(junk.data()),
                                junk.size(), &payload, &consumed);
    // Random bytes essentially never form a valid CRC frame; either error
    // code is acceptable, a crash is not.
    if (s.ok()) {
      ADD_FAILURE() << "random junk decoded as a frame";
    }
  }
}

TEST(NetProtocolTest, RequestHeaderRejectsUnknownOp) {
  std::string payload;
  net::PutU64(&payload, 1);    // request_id
  net::PutU64(&payload, 0);    // tenant_id
  net::PutU16(&payload, 999);  // unknown op
  net::PutU16(&payload, 0);    // flags
  ByteReader in(payload);
  net::RequestHeader header;
  EXPECT_EQ(net::DecodeRequestHeader(&in, &header).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetProtocolTest, BodiesRoundTrip) {
  {
    SubmitBody body;
    body.activations = {{3, 1.5}, {7, 2.5}};
    std::string bytes;
    net::AppendSubmitBody(&bytes, body);
    ByteReader in(bytes);
    SubmitBody out;
    ASSERT_TRUE(net::DecodeSubmitBody(&in, &out).ok());
    ASSERT_EQ(out.activations.size(), 2u);
    EXPECT_EQ(out.activations[1].edge, 7u);
    EXPECT_DOUBLE_EQ(out.activations[1].time, 2.5);
  }
  {
    WatermarkBody body{42, 6.5, 40, 6.0, 9};
    std::string bytes;
    net::AppendWatermarkBody(&bytes, body);
    ByteReader in(bytes);
    WatermarkBody out;
    ASSERT_TRUE(net::DecodeWatermarkBody(&in, &out).ok());
    EXPECT_EQ(out.seq, 42u);
    EXPECT_EQ(out.durable_seq, 40u);
    EXPECT_EQ(out.epoch, 9u);
  }
  {
    ClustersBody body;
    body.epoch = 5;
    body.watermark_seq = 17;
    body.level = 2;
    body.num_clusters = 3;
    body.labels = {0, 1, 2, 1};
    std::string bytes;
    net::AppendClustersBody(&bytes, body);
    ByteReader in(bytes);
    ClustersBody out;
    ASSERT_TRUE(net::DecodeClustersBody(&in, &out).ok());
    EXPECT_EQ(out.labels, body.labels);
    EXPECT_EQ(out.epoch, 5u);
    EXPECT_EQ(out.watermark_seq, 17u);
    // The uniform [epoch][watermark_seq] prefix the server's barrier check
    // relies on (CachedCoversBarrier reads the u64 at offset 8).
    ASSERT_GE(bytes.size(), 16u);
    uint64_t prefix_epoch = 0, prefix_seq = 0;
    std::memcpy(&prefix_epoch, bytes.data(), 8);
    std::memcpy(&prefix_seq, bytes.data() + 8, 8);
    EXPECT_EQ(prefix_epoch, 5u);
    EXPECT_EQ(prefix_seq, 17u);
  }
  {
    MembersBody body;
    body.epoch = 4;
    body.watermark_seq = 10;
    body.level = 1;
    body.members = {2, 4, 8};
    std::string bytes;
    net::AppendMembersBody(&bytes, body);
    ByteReader in(bytes);
    MembersBody out;
    ASSERT_TRUE(net::DecodeMembersBody(&in, &out).ok());
    EXPECT_EQ(out.members, body.members);
  }
  {
    ZoomBody body;
    body.epoch = 3;
    body.watermark_seq = 6;
    body.default_level = 2;
    body.cluster_sizes = {48, 12, 4};
    std::string bytes;
    net::AppendZoomBody(&bytes, body);
    ByteReader in(bytes);
    ZoomBody out;
    ASSERT_TRUE(net::DecodeZoomBody(&in, &out).ok());
    EXPECT_EQ(out.cluster_sizes, body.cluster_sizes);
  }
  {
    LogChunkBody body;
    body.ship_seq = 12;
    body.frames = "opaque-frame-bytes";
    std::string bytes;
    net::AppendLogChunkBody(&bytes, body);
    ByteReader in(bytes);
    LogChunkBody out;
    ASSERT_TRUE(net::DecodeLogChunkBody(&in, &out).ok());
    EXPECT_EQ(out.ship_seq, 12u);
    EXPECT_EQ(out.frames, body.frames);
  }
}

TEST(NetProtocolTest, TruncatedBodyIsRejected) {
  ClustersBody body;
  body.num_clusters = 2;
  body.labels = {0, 1, 1};
  std::string bytes;
  net::AppendClustersBody(&bytes, body);
  // Chop the label array short: the count no longer matches the remaining
  // payload and the decoder must refuse before allocating.
  std::string chopped = bytes.substr(0, bytes.size() - 2);
  ByteReader in(chopped);
  ClustersBody out;
  EXPECT_FALSE(net::DecodeClustersBody(&in, &out).ok());
}

TEST(NetProtocolTest, CanonicalQueryArgsExcludesMinSeq) {
  QueryBody a;
  a.node = 5;
  a.level = 2;
  a.min_seq = 0;
  QueryBody b = a;
  b.min_seq = 999;  // the barrier gates admission, not the answer
  EXPECT_EQ(net::CanonicalQueryArgs(Op::kLocalCluster, a),
            net::CanonicalQueryArgs(Op::kLocalCluster, b));
  QueryBody c = a;
  c.node = 6;
  EXPECT_NE(net::CanonicalQueryArgs(Op::kLocalCluster, a),
            net::CanonicalQueryArgs(Op::kLocalCluster, c));
  EXPECT_NE(net::CanonicalQueryArgs(Op::kLocalCluster, a),
            net::CanonicalQueryArgs(Op::kZoom, a));
}

// --- Query cache ----------------------------------------------------------

TEST(QueryCacheTest, HitMissAndInvalidate) {
  QueryCache cache;

  std::string payload;
  EXPECT_FALSE(cache.Get(1, Op::kClusters, "args", &payload));
  cache.Put(1, Op::kClusters, "args", "response-bytes");
  ASSERT_TRUE(cache.Get(1, Op::kClusters, "args", &payload));
  EXPECT_EQ(payload, "response-bytes");

  // A different epoch is a different key.
  EXPECT_FALSE(cache.Get(2, Op::kClusters, "args", &payload));

  cache.Put(2, Op::kClusters, "args", "newer-bytes");
  cache.InvalidateBelowEpoch(2);
  EXPECT_FALSE(cache.Get(1, Op::kClusters, "args", &payload));
  ASSERT_TRUE(cache.Get(2, Op::kClusters, "args", &payload));
  EXPECT_EQ(payload, "newer-bytes");
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(QueryCacheTest, EvictsUnderByteBudget) {
  QueryCache cache;
  check::TestHooks::SetCacheShardBudget(cache, 512);
  const std::string value(100, 'v');
  for (int i = 0; i < 256; ++i) {
    cache.Put(1, Op::kClusters, "key-" + std::to_string(i), value);
  }
  // Eight lock shards, each held to its 512-byte budget.
  EXPECT_LE(cache.bytes(), 8 * 512u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GE(cache.entries(), 1u);
}

// --- Loopback end-to-end: leader over one shard ---------------------------

TEST(NetServerTest, EndToEndMatchesInProcessView) {
  GroundTruthGraph gt = SmallCommunityGraph();
  LeaderStack stack = LeaderStack::Start(gt.graph);

  auto connected = Client::Connect("127.0.0.1", stack.net->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client& client = **connected;

  Result<WatermarkBody> ping = client.Ping();
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();

  std::vector<Activation> batch = MakeActivations(gt.graph, 64);
  Result<SubmitAck> ack = client.SubmitBatch(batch);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->accepted, batch.size());
  EXPECT_GE(ack->last_seq, batch.size());

  Result<WatermarkBody> flushed = client.Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_GE(flushed->seq, ack->last_seq);

  // Remote answers must byte-equal the in-process published view.
  std::shared_ptr<const serve::ClusterView> view = stack.server->View();
  Result<ClustersBody> remote = client.Clusters(/*level=*/0);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const Clustering local = view->Clusters(view->DefaultLevel());
  EXPECT_EQ(remote->labels, local.labels);
  EXPECT_EQ(remote->num_clusters, local.num_clusters);
  EXPECT_EQ(remote->level, view->DefaultLevel());
  EXPECT_EQ(remote->epoch, view->epoch());

  for (NodeId v = 0; v < gt.graph.NumNodes(); v += 7) {
    Result<MembersBody> members = client.LocalCluster(v);
    ASSERT_TRUE(members.ok()) << members.status().ToString();
    EXPECT_EQ(members->members, view->LocalCluster(v, view->DefaultLevel()))
        << "node " << v;
  }

  Result<ZoomBody> zoom = client.Zoom(0);
  ASSERT_TRUE(zoom.ok());
  ASSERT_EQ(zoom->cluster_sizes.size(), view->num_levels());
  for (uint32_t level = 1; level <= view->num_levels(); ++level) {
    EXPECT_EQ(zoom->cluster_sizes[level - 1],
              view->LocalCluster(0, level).size());
  }

  Result<std::string> health = client.HealthJson();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->find("\"role\""), std::string::npos);

  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("anc_net_requests"), std::string::npos);
}

TEST(NetServerTest, CacheHitIsByteIdenticalAndInvalidatedOnPublish) {
  GroundTruthGraph gt = SmallCommunityGraph();
  LeaderStack stack = LeaderStack::Start(gt.graph);

  auto connected = Client::Connect("127.0.0.1", stack.net->port());
  ASSERT_TRUE(connected.ok());
  Client& client = **connected;

  std::vector<Activation> batch = MakeActivations(gt.graph, 32);
  ASSERT_TRUE(client.SubmitBatch(batch).ok());
  ASSERT_TRUE(client.Flush().ok());

  Result<ClustersBody> first = client.Clusters();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(client.last_flags() & net::kFlagCacheHit, 0);

  Result<ClustersBody> second = client.Clusters();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(client.last_flags() & net::kFlagCacheHit, 0)
      << "identical query within the epoch must be served from cache";

  // Cached vs uncached must be byte-identical within an epoch.
  EXPECT_EQ(second->epoch, first->epoch);
  EXPECT_EQ(second->watermark_seq, first->watermark_seq);
  EXPECT_EQ(second->labels, first->labels);
  EXPECT_EQ(second->num_clusters, first->num_clusters);
  EXPECT_GE(stack.net->cache().hits(), 1u);

  // Publish a new snapshot: the next request observes a newer epoch and
  // the cache is invalidated wholesale.
  std::vector<Activation> more =
      MakeActivations(gt.graph, 32, /*seed=*/5, /*t0=*/1000.0);
  ASSERT_TRUE(client.SubmitBatch(more).ok());
  ASSERT_TRUE(client.Flush().ok());

  Result<ClustersBody> third = client.Clusters();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(client.last_flags() & net::kFlagCacheHit, 0)
      << "publish must invalidate the cache";
  EXPECT_GT(third->epoch, first->epoch);

  // And the fresh epoch caches again.
  Result<ClustersBody> fourth = client.Clusters();
  ASSERT_TRUE(fourth.ok());
  EXPECT_NE(client.last_flags() & net::kFlagCacheHit, 0);
  EXPECT_EQ(fourth->labels, third->labels);
}

TEST(NetServerTest, ServerSurvivesGarbageConnection) {
  GroundTruthGraph gt = SmallCommunityGraph();
  LeaderStack stack = LeaderStack::Start(gt.graph);

  // A raw connection that sends junk gets dropped without hurting others.
  Result<int> fd = net::ConnectTcp("127.0.0.1", stack.net->port());
  ASSERT_TRUE(fd.ok());
  std::string junk = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(net::SendAll(*fd, junk.data(), junk.size()).ok());
  char buf[16];
  // The server drops the connection; the read returns EOF or error.
  (void)net::RecvAll(*fd, buf, sizeof(buf));
  net::CloseFd(*fd);

  auto connected = Client::Connect("127.0.0.1", stack.net->port());
  ASSERT_TRUE(connected.ok());
  EXPECT_TRUE((*connected)->Ping().ok());
}

// --- Loopback end-to-end: sharded leader ----------------------------------

TEST(NetServerTest, ShardedBackendMatchesShardedView) {
  GroundTruthGraph gt = SmallCommunityGraph();
  shard::ShardedOptions shard_options;
  shard_options.partition.num_shards = 2;
  auto created =
      shard::ShardedServer::Create(gt.graph, SmallConfig(), shard_options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  shard::ShardedServer& sharded = **created;
  ASSERT_TRUE(sharded.Start().ok());

  ShardedBackend backend(&sharded);
  NetServer net_server(&backend, NetServerOptions{});
  ASSERT_TRUE(net_server.Start().ok());

  auto connected = Client::Connect("127.0.0.1", net_server.port());
  ASSERT_TRUE(connected.ok());
  Client& client = **connected;

  std::vector<Activation> batch = MakeActivations(gt.graph, 48);
  Result<SubmitAck> ack = client.SubmitBatch(batch);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->accepted, batch.size());
  ASSERT_TRUE(client.Flush().ok());

  shard::ShardedView view = sharded.View();
  const Clustering local = view.Clusters();
  Result<ClustersBody> remote = client.Clusters();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->labels, local.labels);
  EXPECT_EQ(remote->num_clusters, local.num_clusters);

  for (NodeId v = 0; v < gt.graph.NumNodes(); v += 9) {
    Result<MembersBody> members_remote = client.LocalCluster(v);
    ASSERT_TRUE(members_remote.ok());
    EXPECT_EQ(members_remote->members,
              view.LocalCluster(v, view.DefaultLevel()))
        << "node " << v;
  }

  // Writes route through the sharded ingest: replication pull is refused.
  Result<LogChunkBody> chunk = client.PullLog(0);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kFailedPrecondition);

  net_server.Stop();
  sharded.Stop();
}

// --- Cache stamps across a live migration ---------------------------------

/// A leader backend whose view stamps the test can read directly.
class StampingBackend : public ShardedBackend {
 public:
  using ShardedBackend::ShardedBackend;
  using Backend::StampFor;
};

// A view captured inside FinalizeHandoff's commit merges under the old
// assignment, after the target shard republished. Stamped after the swap,
// it must not share its stamp with a post-swap view of the same shard
// epochs: NetServer would cache its answer under a stamp that reads of the
// new assignment hit.
TEST(NetServerTest, ViewPinnedDuringHandoffKeepsTheOldAssignmentStamp) {
  GroundTruthGraph gt = SmallCommunityGraph();
  std::unique_ptr<shard::ShardedServer> sharded =
      StartSharded(gt.graph, ShardOptions(2));
  ASSERT_NE(sharded, nullptr);
  StampingBackend backend(sharded.get());
  const std::vector<Activation> batch = MakeActivations(gt.graph, 48);
  ASSERT_TRUE(backend.Submit(batch.data(), batch.size()).ok());
  ASSERT_TRUE(backend.Flush(kAwait).ok());

  // Move one vertex of shard 0 to shard 1.
  shard::Partition moved = sharded->router()->partition();
  NodeId mover = 0;
  while (mover < gt.graph.NumNodes() && moved.node_shard[mover] != 0) {
    ++mover;
  }
  ASSERT_LT(mover, gt.graph.NumNodes());
  moved.node_shard[mover] = 1;
  ASSERT_TRUE(sharded->BeginHandoff({mover}, 0, 1).ok());
  std::vector<shard::ShardedView> during;
  const Status finalized = sharded->FinalizeHandoff(
      std::make_shared<const shard::Router>(gt.graph, moved),
      shard::ComputeStats(gt.graph, moved),
      [&](std::vector<Activation>) {
        during.push_back(sharded->View());
        return Status::OK();
      });
  ASSERT_TRUE(finalized.ok()) << finalized.ToString();
  ASSERT_EQ(during.size(), 1u);
  const shard::ShardedView after = sharded->View();
  ASSERT_EQ(during[0].Epochs(), after.Epochs()) << "a shard published";
  EXPECT_LT(during[0].assignment_epoch(), after.assignment_epoch());
  EXPECT_NE(backend.StampFor(during[0]), backend.StampFor(after));
}

// --- Read barrier on a sharded leader -------------------------------------
//
// Both shards have published 20 cut-edge deliveries; shard 1's writer is
// then parked and one write lands on an edge only shard 1 receives. A read
// with that write's ticket as its barrier must wait for shard 1 — a
// watermark built from the other shard's progress would answer at once
// from a view missing the write.

/// Releases `parked` once a reader blocks on `shard`'s published
/// watermark, or once `answered` shows a read returned without blocking.
std::thread ReleaseWhenAwaited(ParkedWriter& parked,
                               const serve::AncServer& shard,
                               const std::atomic<bool>& answered) {
  return std::thread([&parked, &shard, &answered] {
    while (check::TestHooks::WatermarkWaiters(shard) == 0 &&
           !answered.load()) {
      std::this_thread::yield();
    }
    parked.Release();
  });
}

TEST(NetServerTest, BarrierReadWaitsForTheOwningShard) {
  GroundTruthGraph gt = SmallCommunityGraph();
  std::unique_ptr<shard::ShardedServer> sharded =
      StartSharded(gt.graph, ShardOptions(2));
  ASSERT_NE(sharded, nullptr);
  ShardedBackend backend(sharded.get());
  std::vector<EdgeId> cut;
  EdgeId shard1_edge = 0;
  ASSERT_TRUE(SplitEdges(*sharded, &cut, &shard1_edge));

  const std::vector<Activation> warmup = CutEdgeActivations(cut);
  ASSERT_TRUE(backend.Submit(warmup.data(), warmup.size()).ok());
  ASSERT_TRUE(backend.Flush(kAwait).ok());

  ParkedWriter parked(&sharded->shard(1));
  const Activation write{shard1_edge, 21.0};
  Result<SubmitAck> ack = backend.Submit(&write, 1);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();

  std::atomic<bool> answered{false};
  std::thread releaser =
      ReleaseWhenAwaited(parked, sharded->shard(1), answered);
  QueryBody query;
  query.min_seq = ack->last_seq;
  Result<MembersBody> answer = backend.LocalCluster(query);
  const bool waited = parked.released();
  answered.store(true);
  releaser.join();
  EXPECT_TRUE(waited) << "barrier read returned before shard 1 applied "
                         "ticket " << ack->last_seq;
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GE(answer->watermark_seq, ack->last_seq);
}

TEST(NetServerTest, CachedAnswerDoesNotCoverAnUnpublishedShardWrite) {
  GroundTruthGraph gt = SmallCommunityGraph();
  std::unique_ptr<shard::ShardedServer> sharded =
      StartSharded(gt.graph, ShardOptions(2));
  ASSERT_NE(sharded, nullptr);
  ShardedBackend backend(sharded.get());
  NetServer net_server(&backend, NetServerOptions{});
  ASSERT_TRUE(net_server.Start().ok());
  std::vector<EdgeId> cut;
  EdgeId shard1_edge = 0;
  ASSERT_TRUE(SplitEdges(*sharded, &cut, &shard1_edge));

  auto connected = Client::Connect("127.0.0.1", net_server.port());
  ASSERT_TRUE(connected.ok());
  Client& client = **connected;
  ASSERT_TRUE(client.SubmitBatch(CutEdgeActivations(cut)).ok());
  ASSERT_TRUE(client.Flush().ok());

  ParkedWriter parked(&sharded->shard(1));
  Result<SubmitAck> ack = client.Submit(Activation{shard1_edge, 21.0});
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  // No shard has published since the write, so this plain read caches its
  // body under the stamp the barrier read below looks up.
  ASSERT_TRUE(client.LocalCluster(0).ok());

  std::atomic<bool> answered{false};
  std::thread releaser =
      ReleaseWhenAwaited(parked, sharded->shard(1), answered);
  Result<MembersBody> answer =
      client.LocalCluster(0, /*level=*/0, /*min_seq=*/ack->last_seq);
  const bool waited = parked.released();
  answered.store(true);
  releaser.join();
  EXPECT_TRUE(waited) << "cached body served a barrier it does not cover";
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GE(answer->watermark_seq, ack->last_seq);
  net_server.Stop();
}

// --- Replication ----------------------------------------------------------

TEST(NetReplicationTest, PullLogShipsDecodableWalFrames) {
  GroundTruthGraph gt = SmallCommunityGraph();
  LeaderStack stack = LeaderStack::Start(gt.graph);

  auto connected = Client::Connect("127.0.0.1", stack.net->port());
  ASSERT_TRUE(connected.ok());
  Client& client = **connected;

  std::vector<Activation> batch = MakeActivations(gt.graph, 24);
  Result<SubmitAck> ack = client.SubmitBatch(batch);
  ASSERT_TRUE(ack.ok());
  ASSERT_TRUE(client.Flush().ok());

  Result<LogChunkBody> chunk = client.PullLog(0);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_GE(chunk->ship_seq, ack->last_seq);

  // The stream is byte-identical store:: WAL frames, in ticket order.
  const uint8_t* data = reinterpret_cast<const uint8_t*>(chunk->frames.data());
  size_t size = chunk->frames.size();
  uint64_t next_seq = 1;
  size_t total = 0;
  while (size > 0) {
    size_t consumed = 0;
    Result<store::WalRecord> record = store::DecodeWalFrame(data, size,
                                                            &consumed);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(record->first_seq, next_seq);
    next_seq = record->last_seq() + 1;
    total += record->activations.size();
    data += consumed;
    size -= consumed;
  }
  EXPECT_EQ(total, batch.size());
}

TEST(NetReplicationTest, FollowerNeverAheadOfLeaderAndBarrierHolds) {
  GroundTruthGraph gt = SmallCommunityGraph();
  LeaderStack leader = LeaderStack::Start(gt.graph);

  auto follower_created = Follower::Create(gt.graph, SmallConfig());
  ASSERT_TRUE(follower_created.ok())
      << follower_created.status().ToString();
  Follower& follower = **follower_created;

  FollowerBackend follower_backend(&follower);
  NetServer follower_net(&follower_backend, NetServerOptions{});
  ASSERT_TRUE(follower_net.Start().ok());

  auto puller_conn = Client::Connect("127.0.0.1", leader.net->port());
  ASSERT_TRUE(puller_conn.ok());
  ReplicationPuller puller(&follower, std::move(*puller_conn));
  puller.Start();

  auto client_created = ReplicaSetClient::Connect(
      "127.0.0.1", leader.net->port(),
      {{"127.0.0.1", follower_net.port()}});
  ASSERT_TRUE(client_created.ok()) << client_created.status().ToString();
  ReplicaSetClient& client = **client_created;

  std::vector<Activation> batch = MakeActivations(gt.graph, 40);
  Result<SubmitAck> ack = client.SubmitBatch(batch);
  ASSERT_TRUE(ack.ok());
  ASSERT_TRUE(client.Flush().ok());

  // Read-your-writes through the replica set: the barrier is the last
  // acked ticket, so the answer covers it whether a follower or the
  // leader serves it.
  Result<ClustersBody> remote = client.Clusters();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_GE(remote->watermark_seq, ack->last_seq);

  // Let replication catch up fully, then check the staleness invariant:
  // the follower's applied mark never exceeds the leader's ship mark.
  ASSERT_TRUE(follower.AwaitApplied(ack->last_seq, kAwait).ok());
  Result<LogChunkBody> probe =
      client.leader().PullLog(follower.applied_leader_seq());
  ASSERT_TRUE(probe.ok());
  EXPECT_LE(follower.applied_leader_seq(), probe->ship_seq);

  // Follower reads answer byte-identically to the leader at the same
  // ticket horizon (replication is deterministic replay).
  auto direct = Client::Connect("127.0.0.1", follower_net.port());
  ASSERT_TRUE(direct.ok());
  Result<ClustersBody> from_follower = (*direct)->Clusters();
  ASSERT_TRUE(from_follower.ok()) << from_follower.status().ToString();
  EXPECT_NE((*direct)->last_flags() & net::kFlagFollower, 0);
  std::shared_ptr<const serve::ClusterView> leader_view =
      leader.server->View();
  EXPECT_EQ(from_follower->labels,
            leader_view->Clusters(leader_view->DefaultLevel()).labels);

  // Injected leader stall: pause the puller, write on the leader; a
  // barrier read on the follower must refuse (never serve staler than
  // min_seq) and the replica-set client must fall back to the leader.
  puller.Pause(true);
  std::vector<Activation> more =
      MakeActivations(gt.graph, 16, /*seed=*/21, /*t0=*/1000.0);
  Result<SubmitAck> ack2 = client.SubmitBatch(more);
  ASSERT_TRUE(ack2.ok());
  ASSERT_TRUE(client.Flush().ok());

  EXPECT_LT(follower.applied_leader_seq(), ack2->last_seq)
      << "paused puller must not have applied the stalled writes";
  Result<ClustersBody> stalled =
      (*direct)->Clusters(/*level=*/0, /*min_seq=*/ack2->last_seq);
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.status().code(), StatusCode::kUnavailable);

  const uint64_t fallbacks_before = client.leader_fallbacks();
  Result<ClustersBody> fallback = client.Clusters();
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_GE(fallback->watermark_seq, ack2->last_seq);
  EXPECT_GT(client.leader_fallbacks(), fallbacks_before);

  // Resume: the follower catches up and serves barrier reads again.
  puller.Pause(false);
  ASSERT_TRUE(follower.AwaitApplied(ack2->last_seq, kAwait).ok());
  Result<ClustersBody> caught_up =
      (*direct)->Clusters(/*level=*/0, /*min_seq=*/ack2->last_seq);
  ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
  EXPECT_GE(caught_up->watermark_seq, ack2->last_seq);

  puller.Stop();
  follower_net.Stop();
}

TEST(NetReplicationTest, MidChunkFailurePublishesPrefixAndRetryIsIdempotent) {
  GroundTruthGraph gt = SmallCommunityGraph();
  std::vector<Activation> first = MakeActivations(gt.graph, 8);
  std::vector<Activation> second =
      MakeActivations(gt.graph, 8, /*seed=*/9, /*t0=*/100.0);

  // A chunk whose second frame is corrupt: the decode fails only after the
  // first record has already been ingested (the mid-chunk failure).
  LogChunkBody torn;
  store::AppendWalFrame(&torn.frames, first.data(), first.size(),
                        /*first_seq=*/1);
  const size_t prefix_bytes = torn.frames.size();
  store::AppendWalFrame(&torn.frames, second.data(), second.size(),
                        /*first_seq=*/9);
  torn.frames[prefix_bytes + store::kWalFrameHeaderBytes] ^= 0x40;  // CRC

  auto follower_created = Follower::Create(gt.graph, SmallConfig());
  ASSERT_TRUE(follower_created.ok());
  Follower& follower = **follower_created;
  Status failed = follower.ApplyChunk(torn);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(follower.applied_leader_seq(), 8u)
      << "the fully-applied prefix must be published before the error "
         "surfaces, or the puller's retry re-applies it (divergence)";

  // Retry with duplicate delivery of the applied record plus the clean
  // tail — exactly what a re-pull from the published mark can ship.
  LogChunkBody retry;
  store::AppendWalFrame(&retry.frames, first.data(), first.size(),
                        /*first_seq=*/1);
  store::AppendWalFrame(&retry.frames, second.data(), second.size(),
                        /*first_seq=*/9);
  Status retried = follower.ApplyChunk(retry);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(follower.applied_leader_seq(), 16u);

  // State must match a replica that applied the stream cleanly in one
  // chunk: a double-applied record would silently diverge the labels.
  auto clean_created = Follower::Create(gt.graph, SmallConfig());
  ASSERT_TRUE(clean_created.ok());
  Follower& clean = **clean_created;
  LogChunkBody whole;
  store::AppendWalFrame(&whole.frames, first.data(), first.size(),
                        /*first_seq=*/1);
  store::AppendWalFrame(&whole.frames, second.data(), second.size(),
                        /*first_seq=*/9);
  ASSERT_TRUE(clean.ApplyChunk(whole).ok());
  std::shared_ptr<const serve::ClusterView> retried_view =
      follower.server().shard(0).View();
  std::shared_ptr<const serve::ClusterView> clean_view =
      clean.server().shard(0).View();
  EXPECT_EQ(retried_view->Clusters(retried_view->DefaultLevel()).labels,
            clean_view->Clusters(clean_view->DefaultLevel()).labels);
}

TEST(NetReplicationTest, FollowerRefusesWrites) {
  GroundTruthGraph gt = SmallCommunityGraph();
  auto follower_created = Follower::Create(gt.graph, SmallConfig());
  ASSERT_TRUE(follower_created.ok());
  Follower& follower = **follower_created;

  FollowerBackend backend(&follower);
  NetServer net_server(&backend, NetServerOptions{});
  ASSERT_TRUE(net_server.Start().ok());

  auto connected = Client::Connect("127.0.0.1", net_server.port());
  ASSERT_TRUE(connected.ok());
  Result<SubmitAck> ack = (*connected)->Submit(Activation{0, 1.0});
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kFailedPrecondition);
  net_server.Stop();
}

TEST(NetProtocolTest, PullLogBodyCarriesFollowerIdAndDecodesLegacy) {
  PullLogBody body;
  body.after_seq = 5;
  body.max_records = 9;
  body.follower_id = 77;
  std::string bytes;
  net::AppendPullLogBody(&bytes, body);

  ByteReader reader(bytes);
  PullLogBody out;
  ASSERT_TRUE(net::DecodePullLogBody(&reader, &out).ok());
  EXPECT_EQ(out.after_seq, 5u);
  EXPECT_EQ(out.max_records, 9u);
  EXPECT_EQ(out.follower_id, 77u);

  // A pre-follower_id body (just after_seq + max_records) must still
  // decode, as an anonymous pull.
  std::string legacy;
  net::PutU64(&legacy, 5);
  net::PutU32(&legacy, 9);
  ByteReader legacy_reader(legacy);
  PullLogBody legacy_out;
  ASSERT_TRUE(net::DecodePullLogBody(&legacy_reader, &legacy_out).ok());
  EXPECT_EQ(legacy_out.after_seq, 5u);
  EXPECT_EQ(legacy_out.follower_id, 0u);
}

TEST(NetReplicationTest, FollowerOfTheWalMatchesTheLeaderAtEveryLevel) {
  GroundTruthGraph gt = SmallCommunityGraph();
  LeaderStack leader = LeaderStack::Start(gt.graph);
  shard::ShardedServer& server = *leader.sharded;

  auto follower_created = Follower::Create(gt.graph, SmallConfig());
  ASSERT_TRUE(follower_created.ok());
  Follower& follower = **follower_created;
  auto puller_conn = Client::Connect("127.0.0.1", leader.net->port());
  ASSERT_TRUE(puller_conn.ok());
  ReplicationPuller puller(&follower, std::move(*puller_conn));
  puller.Start();

  // Writes through the backend and straight into the server: the WAL holds
  // both.
  std::vector<Activation> first = MakeActivations(gt.graph, 24);
  Result<SubmitAck> ack =
      leader.backend->Submit(first.data(), first.size());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  std::vector<Activation> direct =
      MakeActivations(gt.graph, 24, /*seed=*/5, /*t0=*/100.0);
  ASSERT_TRUE(server.SubmitBatch(direct.data(), direct.size()).ok());

  // A regressed timestamp mid-batch: the ingest queue (no clamping by
  // default) refuses that entry and keeps the rest, so shard-0 tickets
  // fall one behind the global ones from here on.
  std::vector<Activation> torn =
      MakeActivations(gt.graph, 24, /*seed=*/6, /*t0=*/200.0);
  torn[3].time = 1.0;
  Result<SubmitAck> partial = leader.backend->Submit(torn.data(), torn.size());
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_GT(partial->accepted, 0u);
  EXPECT_LT(partial->accepted, torn.size());

  std::vector<Activation> after =
      MakeActivations(gt.graph, 24, /*seed=*/7, /*t0=*/300.0);
  ASSERT_TRUE(server.SubmitBatch(after.data(), after.size()).ok());
  ASSERT_TRUE(server.FlushDurable(kAwait).ok());

  const uint64_t durable = server.shard(0).durable_watermark().seq;
  EXPECT_EQ(durable, first.size() + direct.size() + partial->accepted +
                         after.size());
  Status caught_up = follower.AwaitApplied(durable, kAwait);
  ASSERT_TRUE(caught_up.ok())
      << caught_up.ToString() << " / " << puller.last_status().ToString();
  puller.Stop();
  EXPECT_EQ(follower.applied_leader_seq(), durable);

  const shard::ShardedView leader_view = server.View();
  const shard::ShardedView follower_view = follower.server().View();
  ASSERT_EQ(follower_view.num_levels(), leader_view.num_levels());
  for (uint32_t level = 1; level <= leader_view.num_levels(); ++level) {
    const Clustering ours = follower_view.Clusters(level);
    const Clustering theirs = leader_view.Clusters(level);
    EXPECT_EQ(ours.num_clusters, theirs.num_clusters) << "level " << level;
    EXPECT_EQ(ours.labels, theirs.labels) << "level " << level;
    for (NodeId v = 0; v < gt.graph.NumNodes(); ++v) {
      EXPECT_EQ(follower_view.LocalCluster(v, level),
                leader_view.LocalCluster(v, level))
          << "node " << v << " level " << level;
    }
  }
}

TEST(NetReplicationTest, NonDurableLeaderRefusesToReplicate) {
  GroundTruthGraph gt = SmallCommunityGraph();
  std::unique_ptr<shard::ShardedServer> server =
      StartSharded(gt.graph, ShardOptions(1));
  ASSERT_NE(server, nullptr);
  ShardedBackend backend(server.get());
  std::vector<Activation> batch = MakeActivations(gt.graph, 8);
  ASSERT_TRUE(backend.Submit(batch.data(), batch.size()).ok());
  ASSERT_TRUE(backend.Flush(kAwait).ok());

  Result<LogChunkBody> chunk = backend.PullLog(PullLogBody{});
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kFailedPrecondition);
  server->Stop();
}

TEST(NetReplicationTest, RecoveredLeaderRefusesToReplicate) {
  GroundTruthGraph gt = SmallCommunityGraph();
  std::string dir;
  shard::ShardedOptions options = DurableOptions(&dir);
  {
    std::unique_ptr<shard::ShardedServer> server =
        StartSharded(gt.graph, options);
    ASSERT_NE(server, nullptr);
    std::vector<Activation> batch = MakeActivations(gt.graph, 40);
    ASSERT_TRUE(server->SubmitBatch(batch.data(), batch.size()).ok());
    ASSERT_TRUE(server->FlushDurable(kAwait).ok());
    server->Stop();
  }
  auto recovered = shard::ShardedServer::RecoverAll(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  shard::ShardedServer& server = **recovered;
  ASSERT_TRUE(server.Start().ok());
  ShardedBackend backend(&server);

  // The new session's tickets restart at 1 on top of the recovered state,
  // so its log would not replay from a fresh follower's initial state.
  Result<LogChunkBody> chunk = backend.PullLog(PullLogBody{});
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kFailedPrecondition);
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(NetReplicationTest, FollowerRefusesATicketGap) {
  GroundTruthGraph gt = SmallCommunityGraph();
  std::vector<Activation> first = MakeActivations(gt.graph, 8);
  std::vector<Activation> later =
      MakeActivations(gt.graph, 8, /*seed=*/9, /*t0=*/100.0);
  // Tickets 1-8, then 17-24: the record holding 9-16 was lost.
  LogChunkBody gapped;
  store::AppendWalFrame(&gapped.frames, first.data(), first.size(),
                        /*first_seq=*/1);
  store::AppendWalFrame(&gapped.frames, later.data(), later.size(),
                        /*first_seq=*/17);

  auto follower_created = Follower::Create(gt.graph, SmallConfig());
  ASSERT_TRUE(follower_created.ok());
  Follower& follower = **follower_created;
  Status applied = follower.ApplyChunk(gapped);
  EXPECT_EQ(applied.code(), StatusCode::kFailedPrecondition)
      << applied.ToString();
  EXPECT_EQ(follower.applied_leader_seq(), 8u)
      << "the prefix before the gap is published, nothing past it applied";
}

TEST(NetReplicationTest, DurableLeaderShipsOnlyDurableTickets) {
  GroundTruthGraph gt = SmallCommunityGraph();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "anc_net_durable_ship")
          .string();
  std::filesystem::remove_all(dir);
  shard::ShardedOptions options = ShardOptions(1);
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  std::unique_ptr<shard::ShardedServer> created =
      StartSharded(gt.graph, options);
  ASSERT_NE(created, nullptr);
  shard::ShardedServer& server = *created;
  ShardedBackend backend(&server);

  auto follower_created = Follower::Create(gt.graph, SmallConfig());
  ASSERT_TRUE(follower_created.ok());
  Follower& follower = **follower_created;

  // One follower pulls after every write; no chunk may ship a ticket the
  // leader's WAL has not fsynced.
  const auto pull = [&] {
    PullLogBody req;
    req.after_seq = follower.applied_leader_seq();
    req.max_records = 256;
    req.follower_id = 1;
    Result<LogChunkBody> chunk = backend.PullLog(req);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    EXPECT_LE(chunk->ship_seq, server.durable_watermark().seq);
    ASSERT_TRUE(follower.ApplyChunk(*chunk).ok());
  };
  for (int round = 0; round < 8; ++round) {
    std::vector<Activation> batch = MakeActivations(
        gt.graph, 16, /*seed=*/40 + round, /*t0=*/100.0 * round);
    ASSERT_TRUE(backend.Submit(batch.data(), batch.size()).ok());
    pull();
  }
  ASSERT_TRUE(backend.FlushDurable(kAwait).ok());
  pull();
  EXPECT_EQ(follower.applied_leader_seq(), server.watermark().seq);
  const shard::ShardedView leader_view = server.View();
  const shard::ShardedView follower_view = follower.server().View();
  EXPECT_EQ(follower_view.Clusters().labels, leader_view.Clusters().labels);
  for (NodeId v = 0; v < gt.graph.NumNodes(); v += 5) {
    EXPECT_EQ(follower_view.LocalCluster(v, follower_view.DefaultLevel()),
              leader_view.LocalCluster(v, leader_view.DefaultLevel()))
        << "node " << v;
  }

  // Freeze the durable mark (the next WAL append fails): the leader keeps
  // publishing, and nothing past the frozen mark may ship.
  const uint64_t frozen = server.durable_watermark().seq;
  store::TestHooks::ArmCrash(store::CrashPoint::kPostAppendPreFsync);
  std::vector<Activation> more =
      MakeActivations(gt.graph, 16, /*seed=*/99, /*t0=*/1000.0);
  ASSERT_TRUE(backend.Submit(more.data(), more.size()).ok());
  ASSERT_TRUE(backend.Flush(kAwait).ok());
  store::TestHooks::Disarm();
  EXPECT_GT(server.watermark().seq, frozen);
  EXPECT_EQ(server.durable_watermark().seq, frozen);
  pull();
  EXPECT_EQ(follower.applied_leader_seq(), frozen);

  server.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace anc
