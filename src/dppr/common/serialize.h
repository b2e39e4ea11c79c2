#ifndef DPPR_COMMON_SERIALIZE_H_
#define DPPR_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "dppr/common/macros.h"

namespace dppr {

/// Append-only little-endian byte sink. Used to serialize PPV fragments and
/// precomputed vectors; the serialized size is what the cluster simulator
/// charges as network traffic / storage, so all wire formats go through here.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  /// LEB128 variable-length unsigned integer (compact node ids / counts).
  void PutVarU64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  void PutString(const std::string& s) {
    PutVarU64(s.size());
    PutRaw(s.data(), s.size());
  }

  /// Length-prefixed opaque byte blob. Framing nested payloads this way lets
  /// a reader skip or bounds-check a sub-message (e.g. one vector inside a
  /// precomputation record) without understanding its contents.
  void PutBlob(const void* data, size_t n) {
    PutVarU64(n);
    PutRaw(data, n);
  }
  void PutBlob(std::span<const uint8_t> blob) { PutBlob(blob.data(), blob.size()); }

  void PutRaw(const void* data, size_t n) {
    if (n == 0) return;  // empty blobs may legally pass data == nullptr
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential reader over a byte buffer written by ByteWriter.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint8_t GetU8() {
    DPPR_CHECK_LT(pos_, size_);
    return data_[pos_++];
  }
  uint32_t GetU32() { return GetRaw<uint32_t>(); }
  uint64_t GetU64() { return GetRaw<uint64_t>(); }
  double GetDouble() { return GetRaw<double>(); }

  uint64_t GetVarU64() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      DPPR_CHECK_LT(pos_, size_);
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      DPPR_CHECK_LT(shift, 64);
    }
    return v;
  }

  std::string GetString() {
    uint64_t n = GetVarU64();
    // Compare against the remaining bytes: `pos_ + n` wraps for hostile
    // lengths near SIZE_MAX and would pass the check into an OOB read.
    DPPR_CHECK_LE(n, static_cast<uint64_t>(size_ - pos_));
    std::string s(reinterpret_cast<const char*>(data_ + pos_), static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }

  /// View of a blob written by PutBlob; no copy, valid while the underlying
  /// buffer lives. Same wrap-safe bounds check as GetString.
  std::span<const uint8_t> GetBlob() {
    uint64_t n = GetVarU64();
    DPPR_CHECK_LE(n, static_cast<uint64_t>(size_ - pos_));
    std::span<const uint8_t> blob(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return blob;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Current read offset from the start of the buffer. Together with Slice
  /// this lets a consumer that just parsed (and thereby validated) a message
  /// recover its exact wire bytes — e.g. the disk store streams each ingested
  /// record's raw bytes to its spill file instead of re-serializing.
  size_t position() const { return pos_; }

  /// View of the bytes in [begin, end); bounds-checked, no copy, valid while
  /// the underlying buffer lives.
  std::span<const uint8_t> Slice(size_t begin, size_t end) const {
    DPPR_CHECK_LE(begin, end);
    DPPR_CHECK_LE(end, size_);
    return {data_ + begin, end - begin};
  }

 private:
  template <typename T>
  T GetRaw() {
    DPPR_CHECK_LE(sizeof(T), size_ - pos_);
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace dppr

#endif  // DPPR_COMMON_SERIALIZE_H_
