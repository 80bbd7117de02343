#ifndef ANC_NET_PROTOCOL_H_
#define ANC_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "activation/activeness.h"
#include "graph/graph.h"
#include "util/status.h"

namespace anc::net {

/// Wire format of the ANC RPC protocol (docs/networking.md). Everything is
/// little-endian host byte order, matching core/serialization and the WAL.
///
///   Frame:    [4B magic "ANCR"][u32 payload_len][u32 crc32c(payload)]
///             [payload_len bytes of payload]
///   Request:  payload = [u64 request_id][u64 tenant_id][u16 op][u16 flags]
///             [op-specific body]
///   Response: payload = [u64 request_id][u16 op][u16 flags][i32 code]
///             [body on OK | status message bytes on error]
///
/// The frame decoder follows the PR 7 parser discipline: every length is
/// validated before allocation (kMaxFramePayloadBytes guard), the CRC is
/// checked before any field is read, and malformed input of any shape
/// yields a Status — never a crash, hang or unbounded allocation
/// (fuzz/fuzz_rpc.cc holds the line).
inline constexpr char kFrameMagic[4] = {'A', 'N', 'C', 'R'};
inline constexpr size_t kFrameHeaderBytes = 12;  // magic + len + crc
/// Corruption guard: a frame length beyond this is rejected, never
/// allocated. Sized for the largest legitimate payload (a full Clusters
/// response over a multi-million-node graph).
inline constexpr uint32_t kMaxFramePayloadBytes = 64u << 20;

/// RPC operations. Values are wire format — append only, never renumber.
enum class Op : uint16_t {
  kPing = 1,
  kSubmit = 2,
  kSubmitBatch = 3,
  kFlush = 4,
  kAwaitSeq = 5,
  kFlushDurable = 6,
  kClusters = 7,
  kLocalCluster = 8,
  kSmallestCluster = 9,
  kZoom = 10,
  kStats = 11,
  kHealth = 12,
  kMetrics = 13,  // Prometheus text exposition (docs/observability.md)
  kWatermark = 14,
  kPullLog = 15,  // replication: WAL frames after a sequence number
};

bool OpKnown(uint16_t raw);
const char* OpName(Op op);

// Response flags.
inline constexpr uint16_t kFlagCacheHit = 1u << 0;   ///< answered from cache
inline constexpr uint16_t kFlagFollower = 1u << 1;   ///< served by a follower

struct RequestHeader {
  uint64_t request_id = 0;
  uint64_t tenant_id = 0;
  Op op = Op::kPing;
  uint16_t flags = 0;
};
inline constexpr size_t kRequestHeaderBytes = 20;

struct ResponseHeader {
  uint64_t request_id = 0;
  Op op = Op::kPing;
  uint16_t flags = 0;
  StatusCode code = StatusCode::kOk;
};
inline constexpr size_t kResponseHeaderBytes = 16;

// --- Bounds-checked byte cursor -------------------------------------------

/// Sequential reader over untrusted bytes: every read validates remaining
/// length first and fails with InvalidArgument instead of reading past the
/// end. The payload buffer must outlive views handed out by ReadBytes.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ == size_; }

  Status ReadU16(uint16_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadF64(double* out);
  Status ReadBytes(size_t count, std::string_view* out);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Little-endian append helpers (the writer side needs no bounds checks).
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI32(std::string* out, int32_t v);
void PutF64(std::string* out, double v);

// --- Framing ---------------------------------------------------------------

/// Wraps `payload` in a CRC frame, appended to *out.
void AppendFrame(std::string* out, std::string_view payload);

/// Decodes one frame from the front of `data`: on OK, *payload views into
/// `data` and *consumed advances past the frame. InvalidArgument on bad
/// magic / oversized length / CRC mismatch; OutOfRange when the buffer
/// holds only a prefix of a frame (read more bytes and retry).
Status DecodeFrame(const uint8_t* data, size_t size, std::string_view* payload,
                   size_t* consumed);

// --- Envelope --------------------------------------------------------------

void AppendRequestHeader(std::string* out, const RequestHeader& header);
Status DecodeRequestHeader(ByteReader* in, RequestHeader* out);
void AppendResponseHeader(std::string* out, const ResponseHeader& header);
Status DecodeResponseHeader(ByteReader* in, ResponseHeader* out);

// --- Typed bodies ----------------------------------------------------------
// Every body has an Append* writer and a Decode* reader; the reader
// validates counts against the remaining payload before allocating.

/// kSubmit carries exactly one activation; kSubmitBatch any number.
struct SubmitBody {
  std::vector<Activation> activations;
};
void AppendSubmitBody(std::string* out, const SubmitBody& body);
Status DecodeSubmitBody(ByteReader* in, SubmitBody* out);

/// Response of kSubmit / kSubmitBatch.
struct SubmitAck {
  uint64_t accepted = 0;  ///< activations the ingest queue accepted
  uint64_t last_seq = 0;  ///< last ticket issued (0 if none)
};
void AppendSubmitAck(std::string* out, const SubmitAck& ack);
Status DecodeSubmitAck(ByteReader* in, SubmitAck* out);

/// kAwaitSeq request.
struct AwaitBody {
  uint64_t seq = 0;
  uint32_t timeout_ms = 60000;
};
void AppendAwaitBody(std::string* out, const AwaitBody& body);
Status DecodeAwaitBody(ByteReader* in, AwaitBody* out);

/// Response of kFlush / kAwaitSeq / kFlushDurable / kWatermark / kPing.
struct WatermarkBody {
  uint64_t seq = 0;        ///< published watermark ticket
  double time = 0.0;       ///< published watermark time
  uint64_t durable_seq = 0;
  double durable_time = 0.0;
  uint64_t epoch = 0;      ///< current publish stamp (cache key epoch)
};
void AppendWatermarkBody(std::string* out, const WatermarkBody& body);
Status DecodeWatermarkBody(ByteReader* in, WatermarkBody* out);

/// Shared request shape of the read ops (kClusters / kLocalCluster /
/// kSmallestCluster / kZoom). `min_seq` is the read barrier: the answer
/// must reflect every leader ticket <= min_seq, or the server refuses
/// Unavailable (the client then retries against the leader —
/// docs/networking.md "Bounded staleness").
struct QueryBody {
  uint32_t node = 0;      ///< kLocalCluster / kSmallestCluster / kZoom
  uint32_t level = 0;     ///< 0 = the server's default level
  uint32_t min_size = 2;  ///< kSmallestCluster only
  uint64_t min_seq = 0;   ///< read barrier (0 = any snapshot will do)
};
void AppendQueryBody(std::string* out, const QueryBody& body);
Status DecodeQueryBody(ByteReader* in, QueryBody* out);

/// Response of kClusters: full label assignment at one level.
struct ClustersBody {
  uint64_t epoch = 0;          ///< the epoch this answer is pinned to
  uint64_t watermark_seq = 0;  ///< the answering snapshot's watermark
  uint32_t level = 0;          ///< the level actually served
  uint32_t num_clusters = 0;
  std::vector<uint32_t> labels;
};
void AppendClustersBody(std::string* out, const ClustersBody& body);
Status DecodeClustersBody(ByteReader* in, ClustersBody* out);

/// Response of kLocalCluster / kSmallestCluster: one membership list.
struct MembersBody {
  uint64_t epoch = 0;
  uint64_t watermark_seq = 0;
  uint32_t level = 0;  ///< the level answered (kSmallestCluster reports it)
  std::vector<NodeId> members;
};
void AppendMembersBody(std::string* out, const MembersBody& body);
Status DecodeMembersBody(ByteReader* in, MembersBody* out);

/// Response of kZoom: the node's cluster size at every level — the
/// whole zoom-in/zoom-out trajectory of Problem 1 in one round trip.
struct ZoomBody {
  uint64_t epoch = 0;
  uint64_t watermark_seq = 0;
  uint32_t default_level = 0;
  std::vector<uint32_t> cluster_sizes;  ///< index i = level i+1
};
void AppendZoomBody(std::string* out, const ZoomBody& body);
Status DecodeZoomBody(ByteReader* in, ZoomBody* out);

/// Response of kStats (JSON) / kHealth (JSON) / kMetrics (Prometheus text).
struct TextBody {
  std::string text;
};
void AppendTextBody(std::string* out, const TextBody& body);
Status DecodeTextBody(ByteReader* in, TextBody* out);

/// kPullLog request: replication pull of WAL frames.
struct PullLogBody {
  uint64_t after_seq = 0;     ///< ship records with seq > after_seq
  uint32_t max_records = 64;  ///< bound per round trip
  /// The pulling follower's identity. Wire-optional (a body without it
  /// decodes as 0); the leader ignores it.
  uint64_t follower_id = 0;
};
void AppendPullLogBody(std::string* out, const PullLogBody& body);
Status DecodePullLogBody(ByteReader* in, PullLogBody* out);

/// kPullLog response: concatenated store:: WAL frames, the leader's
/// on-disk bytes (decode with store::DecodeWalFrame), plus the leader's
/// ship mark: its durable watermark. Followers may never apply past it.
struct LogChunkBody {
  uint64_t ship_seq = 0;  ///< highest seq the leader will currently ship
  std::string frames;     ///< zero or more WAL frames, contiguous
};
void AppendLogChunkBody(std::string* out, const LogChunkBody& body);
Status DecodeLogChunkBody(ByteReader* in, LogChunkBody* out);

// --- Canonical cache keys ---------------------------------------------------

/// The canonical argument bytes of a read op, as used in the query cache
/// key (epoch, op, args) — docs/networking.md "Epoch-keyed caching". Two
/// requests that must share a cache entry produce identical bytes; the
/// read barrier is deliberately excluded (it gates admission, not the
/// answer).
std::string CanonicalQueryArgs(Op op, const QueryBody& query);

}  // namespace anc::net

#endif  // ANC_NET_PROTOCOL_H_
