#include "dataset/aggregate.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace coverage {

AggregatedData::AggregatedData(Schema schema) : schema_(std::move(schema)) {
  keyable_ = schema_.NumValueCombinations() < Schema::kCombinationLimit;
}

AggregatedData::AggregatedData(const Dataset& dataset)
    : AggregatedData(dataset.schema()) {
  index_.reserve(dataset.num_rows());
  AppendRows(dataset);
}

StatusOr<AggregatedData> AggregatedData::Restore(
    Schema schema, std::vector<Value> cells,
    std::vector<std::uint64_t> counts) {
  AggregatedData agg(std::move(schema));
  const std::size_t d = static_cast<std::size_t>(agg.num_attributes());
  if (d == 0) {
    return Status::InvalidArgument("restore: schema has no attributes");
  }
  if (cells.size() != counts.size() * d) {
    return Status::InvalidArgument(
        "restore: cells/counts shape mismatch (" +
        std::to_string(cells.size()) + " cells for " +
        std::to_string(counts.size()) + " combinations of width " +
        std::to_string(d) + ")");
  }
  agg.index_.reserve(counts.size());
  agg.cells_ = std::move(cells);
  agg.counts_ = std::move(counts);
  for (std::size_t k = 0; k < agg.counts_.size(); ++k) {
    const std::span<const Value> combo = agg.combination(k);
    for (std::size_t i = 0; i < d; ++i) {
      if (combo[i] < 0 ||
          combo[i] >= agg.schema_.cardinality(static_cast<int>(i))) {
        return Status::InvalidArgument(
            "restore: combination " + std::to_string(k) + " attribute " +
            std::to_string(i) + " value " + std::to_string(combo[i]) +
            " out of range");
      }
    }
    if (!agg.Insert(combo, k).second) {
      return Status::InvalidArgument("restore: duplicate combination at id " +
                                     std::to_string(k));
    }
    agg.total_count_ += agg.counts_[k];
    if (agg.counts_[k] == 0) ++agg.tombstones_;
  }
  return agg;
}

void AggregatedData::AppendRow(std::span<const Value> row) {
  assert(static_cast<int>(row.size()) == num_attributes());
  const auto [id, inserted] = Insert(row, counts_.size());
  if (inserted) {
    cells_.insert(cells_.end(), row.begin(), row.end());
    counts_.push_back(0);
  } else if (counts_[id] == 0) {
    --tombstones_;  // the combination revives in place, keeping its id
  }
  ++counts_[id];
  ++total_count_;
}

bool AggregatedData::DecrementRow(std::span<const Value> row) {
  assert(static_cast<int>(row.size()) == num_attributes());
  const std::size_t id = IdOf(row);
  if (id == kAbsent || counts_[id] == 0) return false;
  if (--counts_[id] == 0) ++tombstones_;
  --total_count_;
  return true;
}

void AggregatedData::AppendRows(const Dataset& rows) {
  assert(rows.schema() == schema_);
  for (std::size_t r = 0; r < rows.num_rows(); ++r) AppendRow(rows.row(r));
}

std::uint64_t AggregatedData::KeyOf(std::span<const Value> combination) const {
  std::uint64_t key = 0;
  if (keyable_) {
    for (int i = 0; i < num_attributes(); ++i) {
      key = key * static_cast<std::uint64_t>(schema_.cardinality(i)) +
            static_cast<std::uint64_t>(
                combination[static_cast<std::size_t>(i)]);
    }
    return key;
  }
  // A polynomial in an odd multiplier: unlike the radix-2^k products of a
  // wide binary schema, it never shifts a leading cell out of the key.
  for (const Value v : combination) {
    key = key * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(v);
  }
  return key;
}

std::pair<std::size_t, bool> AggregatedData::Insert(
    std::span<const Value> combination, std::size_t id) {
  for (std::uint64_t key = KeyOf(combination);; ++key) {
    const auto [it, inserted] = index_.try_emplace(key, id);
    if (inserted) return {id, true};
    if (keyable_ || std::ranges::equal(this->combination(it->second),
                                       combination)) {
      return {it->second, false};
    }
  }
}

std::size_t AggregatedData::IdOf(std::span<const Value> combination) const {
  for (std::uint64_t key = KeyOf(combination);; ++key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return kAbsent;
    if (keyable_ || std::ranges::equal(this->combination(it->second),
                                       combination)) {
      return it->second;
    }
  }
}

std::uint64_t AggregatedData::CountOf(
    std::span<const Value> combination) const {
  const std::size_t id = IdOf(combination);
  return id == kAbsent ? 0 : counts_[id];
}

}  // namespace coverage
