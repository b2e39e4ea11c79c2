#ifndef DPPR_PPR_SPARSE_VECTOR_H_
#define DPPR_PPR_SPARSE_VECTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dppr/common/macros.h"
#include "dppr/common/serialize.h"
#include "dppr/graph/types.h"

namespace dppr {

/// Immutable sparse vector of (node, score) entries sorted by node id. The
/// unit of storage and network transfer throughout the library: precomputed
/// partial/skeleton vectors and query-time PPV fragments are SparseVectors,
/// and their SerializedBytes() is what the cluster simulator charges.
class SparseVector {
 public:
  struct Entry {
    NodeId index;
    double value;
    bool operator==(const Entry&) const = default;
  };

  SparseVector() = default;

  /// From unsorted entries; merges duplicates by summing.
  static SparseVector FromEntries(std::vector<Entry> entries);

  /// Adopts entries that are already sorted by strictly increasing index (no
  /// duplicates, no filtering) — the zero-cost path for producers that emit
  /// sorted output, like DenseAccumulator::ToSparse. Sortedness is
  /// DPPR_DCHECKed, not re-established.
  static SparseVector FromSortedUnique(std::vector<Entry> entries);

  /// From a dense array, keeping |value| > prune_below.
  static SparseVector FromDense(std::span<const double> dense,
                                double prune_below = 0.0);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::span<const Entry> entries() const { return entries_; }

  /// Value at `index` (0.0 when absent); binary search.
  double ValueAt(NodeId index) const;

  /// out[i] = vectors[i]->ValueAt(index), bit for bit, for every i. The
  /// searches run in lockstep, up to 16 at a time: each pass advances every
  /// lane by one branchless lower-bound step and prefetches that lane's next
  /// probe, so the lanes' cache misses overlap instead of forming one
  /// dependent chain per vector.
  static void ValuesAt(std::span<const SparseVector* const> vectors,
                       NodeId index, double* out);

  double L1Norm() const;

  /// dense[e.index] += scale * e.value for every entry.
  void AddScaledTo(std::span<double> dense, double scale) const;

  /// Copy with entries |value| <= threshold removed (HGPA_ad storage prune).
  SparseVector Pruned(double threshold) const;

  /// Wire format: varint count, then delta-varint ids + float64 values.
  void SerializeTo(ByteWriter& writer) const;
  static SparseVector Deserialize(ByteReader& reader);

  /// Exact size of SerializeTo's output without materializing it.
  size_t SerializedBytes() const;

  /// In-memory footprint used for storage accounting.
  size_t MemoryBytes() const { return entries_.size() * sizeof(Entry); }

  bool operator==(const SparseVector&) const = default;

 private:
  std::vector<Entry> entries_;
};

/// Reusable dense accumulator for summing many sparse vectors (coordinator
/// aggregation, per-machine partial sums). The query fold's hot kernel:
/// AddVector accumulates values in one unconditional pass over the entry
/// array (no per-entry branch, no allocation), and touched-index tracking is
/// a bitmap updated with one read-modify-write per 64-id block — sparse
/// vectors are sorted, so a block's entries are consecutive. Clear() and
/// ToSparse() walk only the dirty bitmap words, so both stay O(touched), and
/// ToSparse emits entries already in index order (no sort, no merge).
///
/// The accumulation order — and therefore every floating-point sum — is
/// identical to the scalar per-entry loop this replaced; sparse_vector_test
/// checks bit-identity against a dense-array oracle on randomized folds.
class DenseAccumulator {
 public:
  explicit DenseAccumulator(size_t size)
      : values_(size, 0.0), touched_words_((size + 63) / 64, 0) {}

  void Add(NodeId index, double value) {
    DPPR_DCHECK(index < values_.size());
    values_[index] += value;
    MarkWord(index >> 6, uint64_t{1} << (index & 63));
  }

  /// acc[e.index] += scale * e.value for every entry of `vec`.
  void AddVector(const SparseVector& vec, double scale);

  double ValueAt(NodeId index) const { return values_[index]; }
  size_t size() const { return values_.size(); }

  /// Touched indices in increasing order, materialized from the bitmap
  /// (tests and diagnostics; the hot paths never need the list).
  std::vector<NodeId> TouchedIndices() const;

  /// Extracts entries with |value| > prune_below as a sparse vector.
  SparseVector ToSparse(double prune_below = 0.0) const;

  /// Full dense copy (tests / metrics).
  std::vector<double> ToDense() const { return values_; }

  void Clear();

 private:
  /// Sets `mask` in bitmap word `word`, recording the word as dirty when it
  /// transitions from empty (so dirty_words_ stays duplicate-free).
  void MarkWord(size_t word, uint64_t mask) {
    uint64_t& bits = touched_words_[word];
    if (bits == 0) dirty_words_.push_back(static_cast<uint32_t>(word));
    bits |= mask;
  }
  /// Dirty word indices in increasing order (copy; members stay untouched).
  std::vector<uint32_t> SortedDirtyWords() const;

  std::vector<double> values_;
  /// Bit i of word i/64 set iff index i was touched since the last Clear.
  std::vector<uint64_t> touched_words_;
  /// Words of touched_words_ that are nonzero, in first-touch order.
  std::vector<uint32_t> dirty_words_;
};

}  // namespace dppr

#endif  // DPPR_PPR_SPARSE_VECTOR_H_
