#include "dppr/net/frame.h"

#include <bit>
#include <cstring>

#include "dppr/common/macros.h"
#include "dppr/common/serialize.h"

namespace dppr {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// Native-order word loads: the same byte order ByteWriter writes every
// integer in, so sender and receiver agree wherever the wire format does.
uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t FrameChecksum(std::span<const uint8_t> payload) {
  const uint8_t* p = payload.data();
  const uint8_t* const end = p + payload.size();
  uint64_t hash;
  if (payload.size() >= 32) {
    // Four independent multiply-rotate lanes, one 8-byte word each per
    // 32-byte stripe: the lanes' multiply chains overlap in the pipeline.
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    hash = MergeRound(hash, v1);
    hash = MergeRound(hash, v2);
    hash = MergeRound(hash, v3);
    hash = MergeRound(hash, v4);
  } else {
    hash = kPrime5;
  }
  hash += payload.size();
  // Tails: whole words, then one half word, then single bytes.
  for (; end - p >= 8; p += 8) {
    hash ^= Round(0, Load64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    hash ^= Load32(p) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= *p * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  // Final avalanche: every input bit reaches every output bit.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

void EncodeFrameHeader(const FrameHeader& header, std::span<uint8_t> out) {
  DPPR_CHECK_GE(out.size(), kFrameHeaderBytes);
  // Same ByteWriter the rest of the wire format goes through — one place
  // owns the byte-order convention and the field layout.
  ByteWriter writer;
  writer.PutU32(kFrameMagic);
  writer.PutU8(static_cast<uint8_t>(header.kind));
  writer.PutU32(header.src);
  writer.PutU32(header.dst);
  writer.PutU64(header.round);
  writer.PutU64(header.payload_bytes);
  writer.PutU64(header.checksum);
  DPPR_CHECK_EQ(writer.size(), kFrameHeaderBytes);
  std::memcpy(out.data(), writer.bytes().data(), kFrameHeaderBytes);
}

FrameHeader DecodeFrameHeader(std::span<const uint8_t> bytes) {
  // A truncated header is hostile input, not a retryable condition: the
  // stream parser only calls this once kFrameHeaderBytes are buffered.
  DPPR_CHECK_GE(bytes.size(), kFrameHeaderBytes);
  ByteReader reader(bytes.data(), bytes.size());
  DPPR_CHECK_EQ(reader.GetU32(), kFrameMagic);
  uint8_t kind = reader.GetU8();
  DPPR_CHECK_LE(kind, static_cast<uint8_t>(FrameKind::kExchange));
  FrameHeader header;
  header.kind = static_cast<FrameKind>(kind);
  header.src = reader.GetU32();
  header.dst = reader.GetU32();
  header.round = reader.GetU64();
  header.payload_bytes = reader.GetU64();
  header.checksum = reader.GetU64();
  // Also rejects lengths that would wrap `header + payload` arithmetic.
  DPPR_CHECK_LE(header.payload_bytes, kMaxFramePayloadBytes);
  return header;
}

FrameHeader MakeFrameHeader(FrameKind kind, uint64_t round, uint32_t src,
                            uint32_t dst, std::span<const uint8_t> payload) {
  // Producers fail here, at the origin, rather than shipping a frame every
  // receiver is contractually required to reject.
  DPPR_CHECK_LE(payload.size(), kMaxFramePayloadBytes);
  FrameHeader header;
  header.kind = kind;
  header.src = src;
  header.dst = dst;
  header.round = round;
  header.payload_bytes = payload.size();
  header.checksum = FrameChecksum(payload);
  return header;
}

std::vector<uint8_t> BuildFrame(FrameKind kind, uint64_t round, uint32_t src,
                                uint32_t dst, std::span<const uint8_t> payload) {
  FrameHeader header = MakeFrameHeader(kind, round, src, dst, payload);
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(header, frame);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(), payload.size());
  }
  return frame;
}

}  // namespace dppr
