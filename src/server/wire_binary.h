#ifndef COVERAGE_SERVER_WIRE_BINARY_H_
#define COVERAGE_SERVER_WIRE_BINARY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "dataset/schema.h"
#include "persist/codec.h"
#include "service/coverage_service.h"

namespace coverage {
namespace wire {

/// Wire v2: a negotiated length-prefixed binary encoding for the two
/// hot-path response types (audit results and coverage-query batches).
/// Clients opt in per request with `Accept: application/x-coverage-bin`;
/// everything else — requests, errors, the control-plane routes — stays
/// JSON, so the binary path is a pure bandwidth/CPU optimisation with the
/// JSON encoding as the single source of semantic truth.
///
/// Frame layout (all integers little-endian, via persist::ByteWriter):
///
///   "CVW2"            4-byte magic
///   u8  version       currently 1
///   u8  msg_type      1 = audit result, 2 = query batch result
///   u32 crc32c        over the payload bytes that follow (persist::Crc32c)
///   payload           message-specific, below
///
/// Audit payload (msg_type 1):
///
///   string algorithm          (u64 length prefix + bytes)
///   i64    max_level
///   u64    num_rows
///   string planner_rationale
///   u64    coverage_queries   ┐
///   u64    nodes_generated    │ MupSearchStats
///   u64    nodes_pruned       │
///   u64    num_mups           │
///   u64    seconds            ┘ IEEE-754 bits of the double
///   u64    tau
///   u8     mup_kind           1 = sparse cells, 2 = pattern strings
///   u64    mup_count
///   per MUP, kind 1:  u16 level, then level x (u16 attr, u16 value) —
///     only the deterministic cells travel; the decoder rebuilds the packed
///     set from the schema's codec. A level-3 MUP costs 14 bytes against
///     ~100 for its JSON object.
///   per MUP, kind 2:  string pattern ("X1X0"), u16 level — for results
///     that carry no packed set (session audits read the engine's
///     materialized MUPs).
///
/// Query batch payload (msg_type 2):
///
///   u64 coverage_queries
///   u64 seconds              IEEE-754 bits
///   u64 result_count
///   per result: u64 coverage, u8 covered
///
/// Decoders are strict, like every persist-layer reader: bad magic,
/// version, checksum, truncation, out-of-range cells, or trailing bytes
/// all fail with InvalidArgument. The round-trip contract is exact:
/// `wire::ToJson(Decode(Encode(r)))` is byte-identical to
/// `wire::ToJson(r)` (tests/wire_binary_test.cc fuzzes this).

/// The negotiated media type, as it appears in Accept / Content-Type.
inline constexpr char kBinaryContentType[] = "application/x-coverage-bin";

std::string EncodeAuditResultBinary(const AuditResult& result);

/// `schema` must be the schema the audit ran against (the decoder rebuilds
/// the pattern codec from it to expand sparse cells).
StatusOr<AuditResult> DecodeAuditResultBinary(std::string_view bytes,
                                              const Schema& schema);

std::string EncodeQueryBatchResultBinary(const QueryBatchResult& result);

StatusOr<QueryBatchResult> DecodeQueryBatchResultBinary(
    std::string_view bytes);

/// Shared CVW2 framing, reused by the cluster's internal shard-merge
/// messages (src/cluster/cluster_wire.h): magic + version + msg_type + a
/// CRC32C over the payload that follows. Message types 1–2 are the public
/// responses above; the cluster layer owns types 3+. Every framed message —
/// public or internal — goes through this one pair, so the strictness rules
/// (bad magic / version / checksum / type → InvalidArgument) hold uniformly.
std::string FrameBinaryMessage(std::uint8_t msg_type, std::string payload);
StatusOr<std::string_view> UnframeBinaryMessage(std::string_view bytes,
                                                std::uint8_t want_type);

/// The MupSearchStats field block (five u64s, seconds as IEEE-754 bits),
/// shared between the audit payload and the cluster's candidate messages.
void EncodeMupSearchStatsBinary(const MupSearchStats& stats,
                                persist::ByteWriter* out);
Status DecodeMupSearchStatsBinary(persist::ByteReader* in,
                                  MupSearchStats* stats);

}  // namespace wire
}  // namespace coverage

#endif  // COVERAGE_SERVER_WIRE_BINARY_H_
