#include "coverage/bitmap_coverage.h"

#include <algorithm>
#include <cassert>

namespace coverage {

BitmapCoverage::BitmapCoverage(const AggregatedData& data) : data_(data) {
  const Schema& schema = data.schema();
  const int d = schema.num_attributes();
  offsets_.resize(static_cast<std::size_t>(d));
  int total = 0;
  for (int i = 0; i < d; ++i) {
    offsets_[static_cast<std::size_t>(i)] = total;
    total += schema.cardinality(i);
  }
  indices_.assign(static_cast<std::size_t>(total),
                  BitVector(data.num_combinations()));
  for (std::size_t k = 0; k < data.num_combinations(); ++k) {
    const auto combo = data.combination(k);
    for (int i = 0; i < d; ++i) {
      indices_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i)]) +
               static_cast<std::size_t>(combo[static_cast<std::size_t>(i)])]
          .Set(k, true);
    }
  }
  index_popcounts_.reserve(indices_.size());
  for (const BitVector& bv : indices_) index_popcounts_.push_back(bv.Count());
}

BitmapCoverage::BitmapCoverage(const AggregatedData& data,
                               const BitmapCoverage& prev)
    : data_(data),
      offsets_(prev.offsets_),
      indices_(prev.indices_),
      index_popcounts_(prev.index_popcounts_) {
  assert(data.schema() == prev.data_.schema());
  assert(prev.data_.num_tombstones() == 0 &&
         "a prefix with tombstones may revive combinations; use the "
         "decremental constructor");
  ExtendWithNewCombinations(prev.data_.num_combinations());
}

BitmapCoverage::BitmapCoverage(const AggregatedData& data,
                               const BitmapCoverage& prev,
                               std::span<const std::size_t> tombstoned,
                               std::span<const std::size_t> revived)
    : data_(data),
      offsets_(prev.offsets_),
      indices_(prev.indices_),
      index_popcounts_(prev.index_popcounts_) {
  assert(data.schema() == prev.data_.schema());
  const std::size_t prev_n = prev.data_.num_combinations();
  for (const std::size_t k : tombstoned) {
    assert(k < prev_n && data.count(k) == 0);
    SetCombinationBits(k, false);
  }
  for (const std::size_t k : revived) {
    assert(k < prev_n && data.count(k) > 0);
    SetCombinationBits(k, true);
  }
  ExtendWithNewCombinations(prev_n);
}

void BitmapCoverage::SetCombinationBits(std::size_t k, bool value) {
  const auto combo = data_.combination(k);
  const int d = data_.schema().num_attributes();
  for (int i = 0; i < d; ++i) {
    const std::size_t slot =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i)]) +
        static_cast<std::size_t>(combo[static_cast<std::size_t>(i)]);
    assert(indices_[slot].Get(k) != value);
    indices_[slot].Set(k, value);
    if (value) {
      ++index_popcounts_[slot];
    } else {
      --index_popcounts_[slot];
    }
  }
}

void BitmapCoverage::ExtendWithNewCombinations(std::size_t prev_n) {
  const std::size_t new_n = data_.num_combinations();
  assert(prev_n <= new_n);
  if (prev_n == new_n) return;
  const int d = data_.schema().num_attributes();
  // Pack the new combinations' membership bits slot-major, then extend every
  // slot vector with one AppendWords call.
  const std::size_t delta_words =
      (new_n - prev_n + BitVector::kBitsPerWord - 1) / BitVector::kBitsPerWord;
  std::vector<BitVector::Word> deltas(indices_.size() * delta_words, 0);
  for (std::size_t k = prev_n; k < new_n; ++k) {
    const auto combo = data_.combination(k);
    const std::size_t j = k - prev_n;
    for (int i = 0; i < d; ++i) {
      const std::size_t slot =
          static_cast<std::size_t>(offsets_[static_cast<std::size_t>(i)]) +
          static_cast<std::size_t>(combo[static_cast<std::size_t>(i)]);
      deltas[slot * delta_words + j / BitVector::kBitsPerWord] |=
          BitVector::Word{1} << (j % BitVector::kBitsPerWord);
      ++index_popcounts_[slot];
    }
  }
  for (std::size_t slot = 0; slot < indices_.size(); ++slot) {
    indices_[slot].AppendWords(deltas.data() + slot * delta_words,
                               new_n - prev_n);
  }
}

int BitmapCoverage::GatherSlots(const Pattern& pattern,
                                QueryContext& ctx) const {
  ctx.slots.clear();
  for (int i = 0; i < pattern.num_attributes(); ++i) {
    if (!pattern.is_deterministic(i)) continue;
    ctx.slots.push_back(&index(i, pattern.cell(i)));
  }
  const BitVector* base = indices_.data();
  std::sort(ctx.slots.begin(), ctx.slots.end(),
            [&](const BitVector* a, const BitVector* b) {
              return index_popcounts_[static_cast<std::size_t>(a - base)] <
                     index_popcounts_[static_cast<std::size_t>(b - base)];
            });
  return static_cast<int>(ctx.slots.size());
}

std::uint64_t BitmapCoverage::Coverage(const Pattern& pattern,
                                       QueryContext& ctx) const {
  ctx.CountQuery();
  // No selectivity sort here: without an early exit the fused chain does
  // identical work in any operand order.
  ctx.slots.clear();
  for (int i = 0; i < pattern.num_attributes(); ++i) {
    if (!pattern.is_deterministic(i)) continue;
    ctx.slots.push_back(&index(i, pattern.cell(i)));
  }
  if (ctx.slots.empty()) return data_.total_count();
  return BitVector::AndChainDot(ctx.slots.data(),
                                static_cast<int>(ctx.slots.size()),
                                data_.counts());
}

bool BitmapCoverage::CoverageAtLeast(const Pattern& pattern, std::uint64_t tau,
                                     QueryContext& ctx) const {
  ctx.CountQuery();
  const int num_det = GatherSlots(pattern, ctx);
  if (num_det == 0) return data_.total_count() >= tau;
  return BitVector::AndChainAtLeast(ctx.slots.data(), num_det, data_.counts(),
                                    tau);
}

std::uint64_t BitmapCoverage::Coverage(PackedKeyView pattern,
                                       const PatternCodec& codec,
                                       QueryContext& ctx) const {
  ctx.CountQuery();
  ctx.slots.clear();
  codec.ForEachDeterministic(pattern, [&](int attr) {
    ctx.slots.push_back(&index(attr, codec.cell(pattern, attr)));
  });
  if (ctx.slots.empty()) return data_.total_count();
  return BitVector::AndChainDot(ctx.slots.data(),
                                static_cast<int>(ctx.slots.size()),
                                data_.counts());
}

bool BitmapCoverage::CoverageAtLeast(PackedKeyView pattern,
                                     const PatternCodec& codec,
                                     std::uint64_t tau,
                                     QueryContext& ctx) const {
  ctx.CountQuery();
  ctx.slots.clear();
  codec.ForEachDeterministic(pattern, [&](int attr) {
    ctx.slots.push_back(&index(attr, codec.cell(pattern, attr)));
  });
  if (ctx.slots.empty()) return data_.total_count() >= tau;
  const BitVector* base = indices_.data();
  std::sort(ctx.slots.begin(), ctx.slots.end(),
            [&](const BitVector* a, const BitVector* b) {
              return index_popcounts_[static_cast<std::size_t>(a - base)] <
                     index_popcounts_[static_cast<std::size_t>(b - base)];
            });
  return BitVector::AndChainAtLeast(ctx.slots.data(),
                                    static_cast<int>(ctx.slots.size()),
                                    data_.counts(), tau);
}

BitVector BitmapCoverage::MatchVector(const Pattern& pattern) const {
  BitVector acc(data_.num_combinations(), true);
  for (int i = 0; i < pattern.num_attributes(); ++i) {
    if (!pattern.is_deterministic(i)) continue;
    acc.AndWith(index(i, pattern.cell(i)));
  }
  return acc;
}

}  // namespace coverage
