#ifndef EBI_INDEX_VALUE_LIST_INDEX_H_
#define EBI_INDEX_VALUE_LIST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "index/index.h"
#include "util/ewah_bitmap.h"

namespace ebi {

/// Options for the hybrid value-list index.
struct ValueListIndexOptions {
  /// A key stores a bitmap when its rows-per-distinct-value density
  /// (posting size / table size) is at least this; sparser keys store RID
  /// lists. 1/64 means "a bitmap costs no more than ~2x the RID list".
  double bitmap_density_threshold = 1.0 / 64.0;
};

/// The hybrid value-list index of Sections 3.2/4: a B-tree-like sorted key
/// directory whose leaf entries hold either a bitmap vector (dense keys) or
/// a tuple-id list (sparse keys).
///
/// The paper's critique is built in and observable: as cardinality grows,
/// postings fall below the density threshold, every entry degrades to a
/// RID list, and the structure "reduces to a B-tree" — losing bitmap
/// cooperativity. `FractionBitmapKeys()` exposes exactly that degradation.
class ValueListIndex : public SecondaryIndex {
 public:
  ValueListIndex(const Column* column, const BitVector* existence,
                 IoAccountant* io,
                 ValueListIndexOptions options = ValueListIndexOptions())
      : SecondaryIndex(column, existence, io), options_(options) {}

  std::string Name() const override { return "value-list-hybrid"; }

  Status Build() override;
  Status Append(size_t row) override;

  Result<BitVector> EvaluateEquals(const Value& value) override;
  Result<BitVector> EvaluateIn(const std::vector<Value>& values) override;
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  size_t SizeBytes() const override;
  size_t NumVectors() const override;

  /// One key-directory descent per value (ranges share one) plus the
  /// posting payload: compressed bitmaps for dense keys, RID pages for
  /// sparse ones.
  double EstimatePages(const SelectionShape& shape) const override {
    const double per_key =
        entries_.empty()
            ? 1.0
            : std::max(1.0, static_cast<double>(SizeBytes()) /
                                static_cast<double>(entries_.size()) /
                                static_cast<double>(io_->page_size()));
    const double delta = static_cast<double>(shape.delta);
    const double descents =
        shape.kind == SelectionShape::Kind::kRange ? 1.0 : delta;
    return descents + delta * per_key + 1.0;
  }

  /// Fraction of keys currently stored as bitmaps (1.0 = pure bitmap
  /// index, 0.0 = degraded to a plain B-tree).
  double FractionBitmapKeys() const;

 private:
  struct Entry {
    int64_t key = 0;           // Sort key (value or string rank).
    ValueId id = 0;            // Dictionary id.
    bool is_bitmap = false;
    EwahBitmap bitmap;         // When is_bitmap.
    std::vector<uint32_t> rids;  // Otherwise.
  };

  int64_t KeyOf(ValueId id) const;
  /// Charges the simulated key-directory descent: ceil(log_M(#keys)) node
  /// pages, M derived from the page size.
  void ChargeDescent();
  /// Reads (and charges) one entry's rows into `out`.
  void EmitEntry(const Entry& entry, BitVector* out);
  /// (Re)derives one entry's representation from its density.
  void Pack(Entry* entry, const std::vector<uint32_t>& rids);
  Result<BitVector> EvaluateIds(const std::vector<ValueId>& ids);

  ValueListIndexOptions options_;
  bool built_ = false;
  size_t rows_indexed_ = 0;
  std::vector<Entry> entries_;  // Sorted by key.
  std::vector<int64_t> string_rank_;
};

}  // namespace ebi

#endif  // EBI_INDEX_VALUE_LIST_INDEX_H_
