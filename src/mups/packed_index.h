#ifndef COVERAGE_MUPS_PACKED_INDEX_H_
#define COVERAGE_MUPS_PACKED_INDEX_H_

#include <algorithm>
#include <cassert>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "dataset/schema.h"
#include "pattern/packed_pattern.h"

namespace coverage {

/// The Appendix-B MUP-dominance index keyed by PackedPattern<W>: identical
/// slot-bitvector design to MupDominanceIndex (one wildcard vector plus one
/// vector per value per attribute, one bit per registered MUP), but every
/// pattern touch goes through the codec's O(1) field accessors and the
/// membership set hashes W words instead of d cells. The searches and the
/// engine's maintenance use this.
///
/// Thread-safety: none. Parallel DEEPDIVER gives each worker its own replica.
template <int W>
class PackedMupIndex {
 public:
  using Key = PackedPattern<W>;

  /// `codec` must outlive the index.
  PackedMupIndex(const Schema& schema, const PatternCodec& codec)
      : codec_(&codec) {
    const int d = schema.num_attributes();
    assert(codec.num_attributes() == d);
    offsets_.resize(static_cast<std::size_t>(d));
    int total = 0;
    for (int i = 0; i < d; ++i) {
      offsets_[static_cast<std::size_t>(i)] = total;
      total += 1 + schema.cardinality(i);  // wildcard slot + one per value
    }
    indices_.assign(static_cast<std::size_t>(total), BitVector());
  }

  void Add(const Key& mup) {
    assert(!member_index_.contains(mup));
    const std::size_t bit = mups_.size();
    if (bit >= reserved_bits_) {
      reserved_bits_ = std::max<std::size_t>(2 * reserved_bits_,
                                             16 * BitVector::kBitsPerWord);
      for (BitVector& index : indices_) index.Reserve(reserved_bits_);
    }
    mups_.push_back(mup);
    member_index_.emplace(mup, bit);
    for (BitVector& index : indices_) index.PushBack(false);
    const int d = static_cast<int>(offsets_.size());
    for (int i = 0; i < d; ++i) {
      indices_[slot_of(mup, i)].Set(bit, true);
    }
  }

  /// Registers `mups` in one shot; one AppendWords pass per slot. The batch
  /// must be duplicate-free and disjoint from the registered set.
  void AddBatch(std::span<const Key> mups) {
    if (mups.empty()) return;
    const std::size_t base = mups_.size();
    const std::size_t k = mups.size();
    const int d = static_cast<int>(offsets_.size());
    const std::size_t delta_words =
        (k + BitVector::kBitsPerWord - 1) / BitVector::kBitsPerWord;
    std::vector<BitVector::Word> deltas(indices_.size() * delta_words, 0);
    mups_.reserve(base + k);
    for (std::size_t j = 0; j < k; ++j) {
      const Key& mup = mups[j];
      assert(!member_index_.contains(mup));
      mups_.push_back(mup);
      member_index_.emplace(mup, base + j);
      for (int i = 0; i < d; ++i) {
        deltas[slot_of(mup, i) * delta_words + j / BitVector::kBitsPerWord] |=
            BitVector::Word{1} << (j % BitVector::kBitsPerWord);
      }
    }
    for (std::size_t slot = 0; slot < indices_.size(); ++slot) {
      indices_[slot].AppendWords(deltas.data() + slot * delta_words, k);
    }
    if (base + k > reserved_bits_) reserved_bits_ = base + k;
  }

  /// Swap-with-last removal; returns false if `mup` was never registered.
  bool Remove(const Key& mup) {
    const auto it = member_index_.find(mup);
    if (it == member_index_.end()) return false;
    const std::size_t pos = it->second;
    const std::size_t last = mups_.size() - 1;
    member_index_.erase(it);
    if (pos != last) {
      for (BitVector& index : indices_) index.Set(pos, index.Get(last));
      mups_[pos] = mups_[last];
      member_index_[mups_[pos]] = pos;
    }
    mups_.pop_back();
    for (BitVector& index : indices_) index.Resize(last);
    return true;
  }

  std::size_t size() const { return mups_.size(); }
  const std::vector<Key>& mups() const { return mups_; }
  const PatternCodec& codec() const { return *codec_; }

  bool Contains(const Key& pattern) const {
    return member_index_.contains(pattern);
  }

  /// True iff some registered MUP strictly dominates `pattern`: the AND over
  /// attributes of (wildcard | value) candidate vectors, exactly like
  /// MupDominanceIndex::IsDominated with cells read through the codec.
  bool IsDominated(const Key& pattern) const {
    if (mups_.empty()) return false;
    BitVector acc(mups_.size(), true);
    BitVector scratch;
    const int d = static_cast<int>(offsets_.size());
    for (int i = 0; i < d; ++i) {
      const Value v = codec_->cell(pattern, i);
      if (v != kWildcard) {
        scratch = wildcard_index(i);
        scratch.OrWith(value_index(i, v));
        acc.AndWith(scratch);
      } else {
        acc.AndWith(wildcard_index(i));
      }
      if (acc.None()) return false;
    }
    return SomeOtherThan(acc, pattern);
  }

  /// True iff `pattern` strictly dominates some registered MUP.
  bool DominatesSome(const Key& pattern) const {
    if (mups_.empty()) return false;
    BitVector acc(mups_.size(), true);
    const int d = static_cast<int>(offsets_.size());
    for (int i = 0; i < d; ++i) {
      const Value v = codec_->cell(pattern, i);
      if (v == kWildcard) continue;
      acc.AndWith(value_index(i, v));
      if (acc.None()) return false;
    }
    return SomeOtherThan(acc, pattern);
  }

 private:
  /// True iff the candidate bits name a registered MUP other than `pattern`
  /// itself (dominance is strict).
  bool SomeOtherThan(const BitVector& acc, const Key& pattern) const {
    const std::size_t hits = acc.Count();
    if (hits == 0) return false;
    if (hits > 1) return true;
    return !member_index_.contains(pattern);
  }

  const BitVector& value_index(int attr, Value v) const {
    return indices_[static_cast<std::size_t>(offsets_[
        static_cast<std::size_t>(attr)]) + 1 + static_cast<std::size_t>(v)];
  }
  const BitVector& wildcard_index(int attr) const {
    return indices_[static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(attr)])];
  }
  std::size_t slot_of(const Key& p, int attr) const {
    const Value v = codec_->cell(p, attr);
    return static_cast<std::size_t>(offsets_[static_cast<std::size_t>(attr)] +
                                    (v == kWildcard ? 0 : 1 + v));
  }

  const PatternCodec* codec_;
  std::vector<int> offsets_;  // attr -> slot of its wildcard vector
  std::vector<BitVector> indices_;
  std::vector<Key> mups_;
  std::unordered_map<Key, std::size_t, PackedPatternHash<W>> member_index_;
  std::size_t reserved_bits_ = 0;
};

}  // namespace coverage

#endif  // COVERAGE_MUPS_PACKED_INDEX_H_
