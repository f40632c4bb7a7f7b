#ifndef COVERAGE_PATTERN_PACKED_SET_H_
#define COVERAGE_PATTERN_PACKED_SET_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/arena.h"
#include "pattern/packed_pattern.h"

namespace coverage {

/// Open-addressing hash set of PackedPattern<W> keys, storage carved from an
/// Arena. Linear probing over a power-of-two table with a parallel byte of
/// occupancy state — the all-zero pattern is a legal key, so there is no
/// in-band empty sentinel. Rehashing allocates fresh arrays and strands the
/// old ones in the arena; the intended lifetime is one BFS level or one
/// search, after which the owner resets the arena wholesale.
///
/// No erase: the search frontiers only ever insert, and dropping tombstone
/// logic keeps the probe loop two compares long.
template <int W>
class PackedPatternSet {
 public:
  using Key = PackedPattern<W>;

  explicit PackedPatternSet(Arena* arena, std::size_t expected = 0)
      : arena_(arena) {
    std::size_t capacity = kMinCapacity;
    while (capacity * kMaxLoadNum < expected * kMaxLoadDen) capacity *= 2;
    AllocateTable(capacity);
  }

  /// Inserts `key`; returns false if it was already present.
  bool Insert(const Key& key) {
    if ((size_ + 1) * kMaxLoadDen > capacity_ * kMaxLoadNum) Rehash();
    std::size_t i = key.Hash() & (capacity_ - 1);
    while (states_[i] != 0) {
      if (keys_[i] == key) return false;
      i = (i + 1) & (capacity_ - 1);
    }
    states_[i] = 1;
    keys_[i] = key;
    ++size_;
    return true;
  }

  bool Contains(const Key& key) const {
    std::size_t i = key.Hash() & (capacity_ - 1);
    while (states_[i] != 0) {
      if (keys_[i] == key) return true;
      i = (i + 1) & (capacity_ - 1);
    }
    return false;
  }

  std::size_t size() const { return size_; }

 private:
  void AllocateTable(std::size_t capacity) {
    capacity_ = capacity;
    keys_ = arena_->AllocateArray<Key>(capacity);
    states_ = arena_->AllocateArray<std::uint8_t>(capacity);
    std::memset(states_, 0, capacity);
  }

  void Rehash() {
    const Key* old_keys = keys_;
    const std::uint8_t* old_states = states_;
    const std::size_t old_capacity = capacity_;
    AllocateTable(capacity_ * 2);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_states[i] == 0) continue;
      std::size_t j = old_keys[i].Hash() & (capacity_ - 1);
      while (states_[j] != 0) j = (j + 1) & (capacity_ - 1);
      states_[j] = 1;
      keys_[j] = old_keys[i];
    }
  }

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxLoadNum = 7;  // grow past 7/10 load
  static constexpr std::size_t kMaxLoadDen = 10;

  Arena* arena_;
  Key* keys_ = nullptr;
  std::uint8_t* states_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

/// Open-addressing map from PackedPattern<W> to a trivially copyable value;
/// same layout and lifetime story as PackedPatternSet.
template <int W, typename V>
class PackedPatternMap {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  using Key = PackedPattern<W>;

  explicit PackedPatternMap(Arena* arena, std::size_t expected = 0)
      : arena_(arena) {
    std::size_t capacity = kMinCapacity;
    while (capacity * kMaxLoadNum < expected * kMaxLoadDen) capacity *= 2;
    AllocateTable(capacity);
  }

  /// Returns the value slot for `key`, inserting `initial` first if absent.
  V& FindOrInsert(const Key& key, const V& initial) {
    if ((size_ + 1) * kMaxLoadDen > capacity_ * kMaxLoadNum) Rehash();
    std::size_t i = key.Hash() & (capacity_ - 1);
    while (states_[i] != 0) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & (capacity_ - 1);
    }
    states_[i] = 1;
    keys_[i] = key;
    values_[i] = initial;
    ++size_;
    return values_[i];
  }

  /// Returns the value for `key`, or nullptr.
  const V* Find(const Key& key) const {
    std::size_t i = key.Hash() & (capacity_ - 1);
    while (states_[i] != 0) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & (capacity_ - 1);
    }
    return nullptr;
  }

  /// Visits every (key, value) pair. Iteration order is the table's probe
  /// order — callers that need determinism must sort what they build from it.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (states_[i] != 0) fn(keys_[i], values_[i]);
    }
  }

  std::size_t size() const { return size_; }

 private:
  void AllocateTable(std::size_t capacity) {
    capacity_ = capacity;
    keys_ = arena_->AllocateArray<Key>(capacity);
    values_ = arena_->AllocateArray<V>(capacity);
    states_ = arena_->AllocateArray<std::uint8_t>(capacity);
    std::memset(states_, 0, capacity);
  }

  void Rehash() {
    const Key* old_keys = keys_;
    const V* old_values = values_;
    const std::uint8_t* old_states = states_;
    const std::size_t old_capacity = capacity_;
    AllocateTable(capacity_ * 2);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_states[i] == 0) continue;
      std::size_t j = old_keys[i].Hash() & (capacity_ - 1);
      while (states_[j] != 0) j = (j + 1) & (capacity_ - 1);
      states_[j] = 1;
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
  }

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 10;

  Arena* arena_;
  Key* keys_ = nullptr;
  V* values_ = nullptr;
  std::uint8_t* states_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace coverage

#endif  // COVERAGE_PATTERN_PACKED_SET_H_
