#ifndef DPPR_NET_FRAME_H_
#define DPPR_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dppr {

/// \file
/// Wire framing for TCP Transport messages (the in-process transport hands
/// payloads over without a header). A frame is a fixed-size header naming
/// the message class, the sending machine, the destination, and the round it
/// belongs to, followed by `payload_bytes` of opaque payload guarded by a
/// checksum. A TCP byte stream is just a concatenation of frames, so a
/// receiver can demultiplex many concurrent rounds off one connection.
///
/// Decoding is hostile-input-hardened in the same spirit as the existing
/// deserializers (ByteReader, VectorRecord): a truncated header, an unknown
/// kind, an absurd or wrapping length, or a checksum mismatch DPPR_CHECK-fail
/// instead of hanging the gatherer or handing garbage to the reducer.

/// Message classes moved by a Transport.
enum class FrameKind : uint8_t {
  /// Machine → coordinator: one end-of-round payload per machine.
  kGather = 0,
  /// Machine → machine: one p2p payload of an exchange (shuffle) round.
  kExchange = 1,
};

/// `dst` of a coordinator-bound frame (the coordinator is not a machine, so
/// no machine index may alias it).
inline constexpr uint32_t kCoordinatorDst = 0xFFFFFFFFu;

/// Upper bound on one frame's payload. Real payloads (a machine's serialized
/// vectors for one superstep) stay orders of magnitude below this; the bound
/// exists so a corrupt or hostile length field dies at decode instead of
/// wrapping arithmetic or committing the receive loop to buffering huge
/// amounts of unverified bytes before the checksum can run. Raise it if a
/// workload ever legitimately ships gigabyte supersteps.
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 30;

/// "DPRF" in little-endian byte order.
inline constexpr uint32_t kFrameMagic = 0x46525044u;

/// magic u32 | kind u8 | src u32 | dst u32 | round u64 | length u64 |
/// checksum u64: 37 bytes. Frames carry no trace context; attribution rides
/// the thread that runs each machine task (SimCluster re-establishes the
/// caller's obs::TraceContext there).
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4 + 4 + 8 + 8 + 8;

struct FrameHeader {
  FrameKind kind = FrameKind::kGather;
  /// Sending machine index.
  uint32_t src = 0;
  /// Destination machine index, or kCoordinatorDst for gather frames.
  uint32_t dst = kCoordinatorDst;
  /// Transport round the payload belongs to (Transport::AllocateRound).
  uint64_t round = 0;
  uint64_t payload_bytes = 0;
  /// FrameChecksum over the payload bytes.
  uint64_t checksum = 0;
};

/// XXH64 (seed 0) over the payload: 32-byte stripes folded by four
/// independent multiply-rotate lanes, then 8-, 4- and 1-byte tails and a
/// final avalanche. Every frame is hashed twice, by its sender and again by
/// its receiver, so the hash reads whole words (in the byte order ByteWriter
/// writes) rather than single bytes. Not cryptographic — it catches
/// corruption and framing bugs (a reader that lost sync), not an adversary
/// who can also recompute the hash.
uint64_t FrameChecksum(std::span<const uint8_t> payload);

/// The one place a header is assembled for `payload` (length + checksum
/// filled in; DPPR_CHECK-fails on a payload over kMaxFramePayloadBytes, at
/// the origin rather than at every receiver). Both the contiguous BuildFrame
/// and the TCP sender's zero-copy scatter/gather path go through this.
FrameHeader MakeFrameHeader(FrameKind kind, uint64_t round, uint32_t src,
                            uint32_t dst, std::span<const uint8_t> payload);

/// Writes the fixed-size header; `out.size()` must be >= kFrameHeaderBytes.
void EncodeFrameHeader(const FrameHeader& header, std::span<uint8_t> out);

/// Parses and validates a header. DPPR_CHECK-fails on a truncated buffer,
/// wrong magic, unknown kind, or a payload length over kMaxFramePayloadBytes
/// (which also catches wrapping lengths near UINT64_MAX).
FrameHeader DecodeFrameHeader(std::span<const uint8_t> bytes);

/// One whole frame (header + payload) as a contiguous buffer, checksum
/// filled in. The TCP sender scatter/gathers header and payload instead of
/// copying them together; this form is for tests and small control frames.
std::vector<uint8_t> BuildFrame(FrameKind kind, uint64_t round, uint32_t src,
                                uint32_t dst, std::span<const uint8_t> payload);

}  // namespace dppr

#endif  // DPPR_NET_FRAME_H_
