#include "index/value_list_index.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace ebi {

int64_t ValueListIndex::KeyOf(ValueId id) const {
  if (column_->type() == Column::Type::kInt64) {
    return column_->ValueOf(id).int_value;
  }
  return string_rank_[id];
}

void ValueListIndex::Pack(Entry* entry, const std::vector<uint32_t>& rids) {
  const double density =
      rows_indexed_ == 0
          ? 0.0
          : static_cast<double>(rids.size()) /
                static_cast<double>(rows_indexed_);
  entry->is_bitmap = density >= options_.bitmap_density_threshold;
  if (entry->is_bitmap) {
    BitVector bits(rows_indexed_);
    for (uint32_t rid : rids) {
      bits.Set(rid);
    }
    entry->bitmap = EwahBitmap::Compress(bits);
    entry->rids.clear();
  } else {
    entry->rids = rids;
    entry->bitmap = EwahBitmap();
  }
}

Status ValueListIndex::Build() {
  if (column_->type() == Column::Type::kString) {
    const size_t m = column_->Cardinality();
    std::vector<ValueId> order(m);
    for (ValueId i = 0; i < m; ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [this](ValueId a, ValueId b) {
      return column_->ValueOf(a).string_value <
             column_->ValueOf(b).string_value;
    });
    string_rank_.assign(m, 0);
    for (size_t rank = 0; rank < m; ++rank) {
      string_rank_[order[rank]] = static_cast<int64_t>(rank);
    }
  }

  rows_indexed_ = column_->size();
  std::map<int64_t, std::pair<ValueId, std::vector<uint32_t>>> groups;
  for (size_t row = 0; row < rows_indexed_; ++row) {
    const ValueId id = column_->ValueIdAt(row);
    if (id == kNullValueId) {
      continue;
    }
    auto& slot = groups[KeyOf(id)];
    slot.first = id;
    slot.second.push_back(static_cast<uint32_t>(row));
  }

  entries_.clear();
  entries_.reserve(groups.size());
  for (auto& [key, slot] : groups) {
    Entry entry;
    entry.key = key;
    entry.id = slot.first;
    Pack(&entry, slot.second);
    entries_.push_back(std::move(entry));
  }
  built_ = true;
  return Status::OK();
}

Status ValueListIndex::Append(size_t row) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (row != rows_indexed_) {
    return Status::InvalidArgument("rows must be appended in order");
  }
  const ValueId id = column_->ValueIdAt(row);
  ++rows_indexed_;
  if (id == kNullValueId) {
    return Status::OK();
  }
  if (column_->type() == Column::Type::kString &&
      id >= string_rank_.size()) {
    string_rank_.resize(id + 1, 0);
    string_rank_[id] = static_cast<int64_t>(string_rank_.size()) - 1;
  }
  const int64_t key = KeyOf(id);
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, int64_t k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) {
    Entry entry;
    entry.key = key;
    entry.id = id;
    Pack(&entry, {static_cast<uint32_t>(row)});
    entries_.insert(it, std::move(entry));
    return Status::OK();
  }
  // Existing key: materialize its RIDs, add the row, re-pack (the packed
  // form may flip between bitmap and RID list as density changes).
  std::vector<uint32_t> rids;
  if (it->is_bitmap) {
    rids = it->bitmap.Decompress().ToPositions();
  } else {
    rids = it->rids;
  }
  rids.push_back(static_cast<uint32_t>(row));
  Pack(&*it, rids);
  return Status::OK();
}

void ValueListIndex::ChargeDescent() {
  const size_t fanout = std::max<size_t>(4, io_->page_size() / 16);
  size_t levels = 1;
  size_t reach = fanout;
  while (reach < entries_.size()) {
    ++levels;
    reach *= fanout;
  }
  for (size_t i = 0; i < levels; ++i) {
    io_->ChargeNodeRead(io_->page_size());
  }
}

void ValueListIndex::EmitEntry(const Entry& entry, BitVector* out) {
  if (entry.is_bitmap) {
    io_->ChargeVectorRead(entry.bitmap.SizeBytes());
    BitVector bits = entry.bitmap.Decompress();
    bits.Resize(rows_indexed_);
    out->OrWith(bits);
  } else {
    io_->ChargeBytes(entry.rids.size() * sizeof(uint32_t));
    for (uint32_t rid : entry.rids) {
      out->Set(rid);
    }
  }
}

Result<BitVector> ValueListIndex::EvaluateIds(
    const std::vector<ValueId>& ids) {
  BitVector result(rows_indexed_);
  for (ValueId id : ids) {
    ChargeDescent();
    const int64_t key = KeyOf(id);
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, int64_t k) { return e.key < k; });
    if (it != entries_.end() && it->key == key) {
      EmitEntry(*it, &result);
    }
  }
  io_->ChargeVectorRead(existence_->SizeBytes());
  result.AndWith(*existence_);
  return result;
}

Result<BitVector> ValueListIndex::EvaluateEquals(const Value& value) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  return EvaluateIds(IdsOf({value}));
}

Result<BitVector> ValueListIndex::EvaluateIn(
    const std::vector<Value>& values) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  return EvaluateIds(IdsOf(values));
}

Result<BitVector> ValueListIndex::EvaluateRange(int64_t lo, int64_t hi) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (column_->type() != Column::Type::kInt64) {
    return Status::InvalidArgument("range selection on non-integer column");
  }
  // One descent, then a leaf-level sweep across the key range.
  ChargeDescent();
  BitVector result(rows_indexed_);
  for (const Entry& entry : entries_) {
    if (entry.key < lo) {
      continue;
    }
    if (entry.key > hi) {
      break;
    }
    EmitEntry(entry, &result);
  }
  io_->ChargeVectorRead(existence_->SizeBytes());
  result.AndWith(*existence_);
  return result;
}

size_t ValueListIndex::SizeBytes() const {
  size_t total = 0;
  for (const Entry& entry : entries_) {
    total += sizeof(int64_t);
    total += entry.is_bitmap ? entry.bitmap.SizeBytes()
                             : entry.rids.size() * sizeof(uint32_t);
  }
  return total;
}

size_t ValueListIndex::NumVectors() const {
  size_t bitmaps = 0;
  for (const Entry& entry : entries_) {
    bitmaps += entry.is_bitmap ? 1 : 0;
  }
  return bitmaps;
}

double ValueListIndex::FractionBitmapKeys() const {
  if (entries_.empty()) {
    return 0.0;
  }
  return static_cast<double>(NumVectors()) /
         static_cast<double>(entries_.size());
}

}  // namespace ebi
