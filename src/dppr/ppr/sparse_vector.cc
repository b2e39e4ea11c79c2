#include "dppr/ppr/sparse_vector.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "dppr/common/macros.h"

namespace dppr {

SparseVector SparseVector::FromEntries(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.index < b.index; });
  SparseVector v;
  v.entries_.reserve(entries.size());
  size_t i = 0;
  while (i < entries.size()) {
    NodeId index = entries[i].index;
    double sum = 0.0;
    for (; i < entries.size() && entries[i].index == index; ++i) {
      sum += entries[i].value;
    }
    // Duplicates that cancel to exactly 0.0 (and explicit zero entries) are
    // dropped: a stored zero inflates SerializedBytes, the paper's
    // coordinator-bytes comm metric. Same |value| > threshold semantics as
    // FromDense / Pruned at threshold 0.
    if (std::abs(sum) > 0.0) v.entries_.push_back({index, sum});
  }
  return v;
}

SparseVector SparseVector::FromSortedUnique(std::vector<Entry> entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    DPPR_DCHECK(entries[i - 1].index < entries[i].index);
  }
  SparseVector v;
  v.entries_ = std::move(entries);
  return v;
}

SparseVector SparseVector::FromDense(std::span<const double> dense,
                                     double prune_below) {
  SparseVector v;
  for (size_t i = 0; i < dense.size(); ++i) {
    if (std::abs(dense[i]) > prune_below) {
      v.entries_.push_back({static_cast<NodeId>(i), dense[i]});
    }
  }
  return v;
}

double SparseVector::ValueAt(NodeId index) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const Entry& e, NodeId idx) { return e.index < idx; });
  if (it != entries_.end() && it->index == index) return it->value;
  return 0.0;
}

double SparseVector::L1Norm() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += std::abs(e.value);
  return sum;
}

void SparseVector::AddScaledTo(std::span<double> dense, double scale) const {
  if (entries_.empty()) return;
  // Entries are sorted, so one check on the last index bounds them all and
  // the loop body stays a pure load-multiply-add-store chain.
  DPPR_DCHECK(entries_.back().index < dense.size());
  double* out = dense.data();
  for (const Entry& e : entries_) out[e.index] += scale * e.value;
}

SparseVector SparseVector::Pruned(double threshold) const {
  SparseVector v;
  for (const Entry& e : entries_) {
    if (std::abs(e.value) > threshold) v.entries_.push_back(e);
  }
  return v;
}

void SparseVector::SerializeTo(ByteWriter& writer) const {
  writer.PutVarU64(entries_.size());
  NodeId prev = 0;
  for (const Entry& e : entries_) {
    writer.PutVarU64(e.index - prev);
    writer.PutDouble(e.value);
    prev = e.index;
  }
}

SparseVectorReader::SparseVectorReader(ByteReader& reader)
    : reader_(&reader), count_(reader.GetVarU64()) {
  // Every entry needs at least one varint byte plus a double, so a count
  // beyond remaining()/9 is corrupt; checking up front keeps a hostile count
  // from driving a huge reserve() before the per-entry reads would fail.
  DPPR_CHECK_LE(count_, reader.remaining() / 9);
}

bool SparseVectorReader::Next(SparseVector::Entry& entry) {
  if (read_ == count_) return false;
  uint64_t delta = reader_->GetVarU64();
  // A well-framed hostile payload could still smuggle wrapped or duplicate
  // indices past the framing checks. Deltas must keep ids strictly
  // increasing (after the first) — the sorted-unique invariant ValueAt and
  // DenseAccumulator::AddVector's one-compare bound rely on —
  // and inside the 30-bit id range every node id in the system obeys (see
  // MakeVectorKey). The reader does not know the graph's node count, so an
  // id in [num_nodes, 2^30) passes here and dies at AddVector's bound.
  DPPR_CHECK(read_ == 0 || delta > 0);
  uint64_t index = prev_ + delta;
  DPPR_CHECK_LT(index, 1u << 30);
  entry = {static_cast<NodeId>(index), reader_->GetDouble()};
  prev_ = index;
  ++read_;
  return true;
}

SparseVector SparseVector::Deserialize(ByteReader& reader) {
  SparseVectorReader entries(reader);
  SparseVector v;
  v.entries_.reserve(entries.size());
  Entry entry;
  while (entries.Next(entry)) v.entries_.push_back(entry);
  return v;
}

namespace {
size_t VarintBytes(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

size_t SparseVector::SerializedBytes() const {
  size_t total = VarintBytes(entries_.size());
  NodeId prev = 0;
  for (const Entry& e : entries_) {
    total += VarintBytes(e.index - prev) + sizeof(double);
    prev = e.index;
  }
  return total;
}

void DenseAccumulator::AddVector(const SparseVector& vec, double scale) {
  std::span<const SparseVector::Entry> entries = vec.entries();
  const size_t n = entries.size();
  if (n == 0) return;
  // Entries are sorted: the last index bounds them all, so this always-on
  // check costs one compare per vector. Fragments arrive from the wire, and
  // Deserialize only bounds ids by 2^30, not by this accumulator's size.
  DPPR_CHECK_LT(entries.back().index, values_.size());
  const SparseVector::Entry* e = entries.data();
  double* values = values_.data();
  // Pass 1 — value accumulation, unconditionally: no touched branch, no
  // allocation, nothing but the scaled add per entry. Same multiply-then-add
  // per index, in the same entry order, as the scalar Add loop this split
  // replaced, so the floating-point results are bit-identical.
  for (size_t i = 0; i < n; ++i) values[e[i].index] += scale * e[i].value;
  // Pass 2 — touched bookkeeping, one bitmap read-modify-write per 64-id
  // block: sorted entries make each block's indices consecutive, so the mask
  // is built branch-free and the dirty-word test runs once per block.
  size_t i = 0;
  while (i < n) {
    const size_t word = e[i].index >> 6;
    uint64_t mask = 0;
    do {
      mask |= uint64_t{1} << (e[i].index & 63);
      ++i;
    } while (i < n && (e[i].index >> 6) == word);
    MarkWord(word, mask);
  }
}

std::vector<uint32_t> DenseAccumulator::SortedDirtyWords() const {
  std::vector<uint32_t> words = dirty_words_;
  std::sort(words.begin(), words.end());
  return words;
}

std::vector<NodeId> DenseAccumulator::TouchedIndices() const {
  std::vector<NodeId> indices;
  for (uint32_t w : SortedDirtyWords()) {
    uint64_t bits = touched_words_[w];
    while (bits != 0) {
      indices.push_back((static_cast<NodeId>(w) << 6) +
                        static_cast<NodeId>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return indices;
}

SparseVector DenseAccumulator::ToSparse(double prune_below) const {
  // Walking the bitmap in word order yields indices already sorted and
  // unique, so the result adopts the entries directly — the sort-and-merge
  // pass FromEntries pays is gone from the query fold. The emitted set is
  // unchanged: |value| > prune_below, exact zeros excluded either way.
  std::vector<SparseVector::Entry> entries;
  entries.reserve(dirty_words_.size());  // >= one touched index per word
  for (uint32_t w : SortedDirtyWords()) {
    uint64_t bits = touched_words_[w];
    const double* values = values_.data() + (static_cast<size_t>(w) << 6);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      if (std::abs(values[bit]) > prune_below) {
        entries.push_back(
            {(static_cast<NodeId>(w) << 6) + static_cast<NodeId>(bit),
             values[bit]});
      }
    }
  }
  return SparseVector::FromSortedUnique(std::move(entries));
}

void DenseAccumulator::Clear() {
  for (uint32_t w : dirty_words_) {
    uint64_t bits = touched_words_[w];
    touched_words_[w] = 0;
    double* values = values_.data() + (static_cast<size_t>(w) << 6);
    while (bits != 0) {
      values[std::countr_zero(bits)] = 0.0;
      bits &= bits - 1;
    }
  }
  dirty_words_.clear();
}

}  // namespace dppr
