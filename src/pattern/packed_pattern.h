#ifndef COVERAGE_PATTERN_PACKED_PATTERN_H_
#define COVERAGE_PATTERN_PACKED_PATTERN_H_

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "dataset/schema.h"
#include "pattern/pattern.h"

namespace coverage {

class PatternCodec;

/// Width-free read access to a packed key: its value words and its
/// field-expanded deterministic mask, each PatternCodec::num_words() long.
/// PatternCodec's accessors take this, so code that only reads keys — the
/// coverage oracles, PackedMupSet, the wire encoders — never depends on the
/// key width. Every PackedPattern converts to one implicitly.
struct PackedKeyView {
  const std::uint64_t* words;
  const std::uint64_t* det;
};

/// Fixed-width pattern key of W 64-bit words. Each attribute occupies a
/// variable-width bit field (ceil(log2(c+1)) bits, laid out by
/// PatternCodec); a deterministic cell stores its value, a wildcard stores
/// the field's all-ones code. The all-ones wildcard encoding makes the value
/// words alone a unique key, so equality and hashing are O(W) with no schema
/// in sight. W is one of kPackedKeyWidths; PatternCodec::Build picks the
/// smallest that holds the schema and WithKeyWidth dispatches on it.
///
/// Alongside the value words we keep a field-expanded deterministic mask
/// (every bit of a deterministic field set) and the level, both maintained
/// incrementally by PatternCodec's mutators. They are derived from the value
/// words + codec and deliberately excluded from equality/hash.
///
/// Dominance (paper Definition 9) collapses to word ops:
///   P ⪰ Q  ⇔  (P.words ^ Q.words) & P.det == 0   for every word.
/// If Q leaves one of P's deterministic fields wild, that field reads
/// all-ones in Q and the XOR trips; no per-cell loop needed.
template <int W>
class PackedPattern {
 public:
  static constexpr int kWords = W;

  PackedPattern() = default;

  bool operator==(const PackedPattern& other) const {
    return words_ == other.words_;
  }
  bool operator!=(const PackedPattern& other) const {
    return !(*this == other);
  }

  /// Number of deterministic cells, O(1).
  int level() const { return level_; }

  /// True iff this pattern dominates-or-equals `other` (every deterministic
  /// cell of ours fixed identically in `other`). O(W).
  bool DominatesOrEquals(const PackedPattern& other) const {
    std::uint64_t diff = 0;
    for (int w = 0; w < W; ++w) {
      diff |= (words_[w] ^ other.words_[w]) & det_[w];
    }
    return diff == 0;
  }

  /// Strict dominance: DominatesOrEquals and not equal. O(W).
  bool Dominates(const PackedPattern& other) const {
    return DominatesOrEquals(other) && words_ != other.words_;
  }

  /// Mixed multiply-xor over the value words; for unordered containers and
  /// the open-addressing tables in packed_set.h.
  std::size_t Hash() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int w = 0; w < W; ++w) {
      std::uint64_t x = words_[w];
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 31;
      h = (h ^ x) * 0x94d049bb133111ebull;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  operator PackedKeyView() const { return {words_.data(), det_.data()}; }

 private:
  friend class PatternCodec;

  std::array<std::uint64_t, W> words_{};
  std::array<std::uint64_t, W> det_{};
  std::int16_t level_ = 0;
};

// The 256-bit key is the one nearly every schema uses; its layout (and so
// its cache footprint in the search frontiers) must not grow.
static_assert(sizeof(PackedPattern<4>) == 72);

/// The key widths, in 64-bit words, in ascending order: 256, 512 and 1024
/// bits. PatternCodec::Build picks the first that holds the schema; schemas
/// past the last fail with kResourceExhausted.
inline constexpr std::array<int, 3> kPackedKeyWidths = {4, 8, 16};

/// The widest key's capacity in bits.
inline constexpr int kMaxPackedKeyBits = kPackedKeyWidths.back() * 64;

template <int W>
struct PackedPatternHash {
  std::size_t operator()(const PackedPattern<W>& p) const { return p.Hash(); }
};

/// Bit layout for one schema: where each attribute's field lives and how to
/// move patterns between the packed and vector<int> representations. Built
/// once per schema; Build fails with kResourceExhausted when the schema
/// needs more than kMaxPackedKeyBits. Fields never straddle a word boundary,
/// so a field that does not fit in the current word's remaining bits starts
/// the next word — this is what puts the 33rd binary attribute (2-bit
/// fields) into word 1 and keeps every field extractable with one
/// shift+mask.
class PatternCodec {
 public:
  PatternCodec() = default;

  static StatusOr<PatternCodec> Build(const Schema& schema);

  int num_attributes() const { return static_cast<int>(fields_.size()); }
  /// Words the layout occupies; every key word past these is zero.
  int num_words() const { return num_words_; }
  /// The key width (an entry of kPackedKeyWidths) this schema's keys use.
  int key_words() const { return key_words_; }

  /// The all-wildcard root pattern.
  template <int W>
  PackedPattern<W> Root() const {
    PackedPattern<W> root;
    for (int w = 0; w < num_words_; ++w) root.words_[w] = layout_[w];
    return root;
  }

  /// Packs an existing vector<int>-shaped pattern.
  template <int W>
  PackedPattern<W> Encode(const Pattern& pattern) const {
    PackedPattern<W> out;
    out.level_ = static_cast<std::int16_t>(
        EncodeCells(pattern.cells(), out.words_.data(), out.det_.data()));
    return out;
  }

  /// Packs a fully deterministic value combination.
  template <int W>
  PackedPattern<W> EncodeTuple(std::span<const Value> tuple) const {
    PackedPattern<W> out;
    out.level_ = static_cast<std::int16_t>(
        EncodeCells(tuple, out.words_.data(), out.det_.data()));
    return out;
  }

  /// Unpacks to the vector<int> representation.
  Pattern Decode(PackedKeyView packed) const;

  /// Cell accessors, O(1).
  Value cell(PackedKeyView p, int attr) const {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    const std::uint64_t code = (p.words[f.word] >> f.shift) & f.low_mask;
    return code == f.low_mask ? kWildcard : static_cast<Value>(code);
  }
  bool is_deterministic(PackedKeyView p, int attr) const {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    return (p.det[f.word] >> f.shift) & 1u;
  }

  /// Number of deterministic cells, O(words). PackedPattern::level() is the
  /// O(1) form for callers that hold the typed key.
  int level(PackedKeyView p) const;

  /// Returns a copy with attribute `attr` set to `v` (kWildcard allowed).
  /// O(1); level and the deterministic mask are maintained incrementally.
  template <int W>
  PackedPattern<W> WithCell(const PackedPattern<W>& p, int attr,
                            Value v) const {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    PackedPattern<W> out = p;
    const bool was_det = (p.det_[f.word] >> f.shift) & 1u;
    const std::uint64_t field_mask = f.low_mask << f.shift;
    out.words_[f.word] &= ~field_mask;
    if (v == kWildcard) {
      out.words_[f.word] |= field_mask;  // all-ones wildcard code
      out.det_[f.word] &= ~field_mask;
      out.level_ = static_cast<std::int16_t>(p.level_ - (was_det ? 1 : 0));
    } else {
      out.words_[f.word] |= static_cast<std::uint64_t>(v) << f.shift;
      out.det_[f.word] |= field_mask;
      out.level_ = static_cast<std::int16_t>(p.level_ + (was_det ? 0 : 1));
    }
    return out;
  }

  /// Index of the right-most deterministic cell, or -1 if none. O(words).
  int RightmostDeterministic(PackedKeyView p) const;

  /// Index of the right-most wildcard cell, or -1 if none. O(words).
  int RightmostWildcard(PackedKeyView p) const;

  /// Calls `fn(attr)` for each deterministic attribute, ascending. O(level)
  /// plus a word scan; no allocation — this replaces Pattern::Parents() in
  /// the packed search loops (parent = WithCell(attr, kWildcard)).
  template <typename Fn>
  void ForEachDeterministic(PackedKeyView p, Fn&& fn) const {
    for (int w = 0; w < num_words_; ++w) {
      std::uint64_t bits = p.det[w] & first_bits_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        fn(attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)]);
      }
    }
  }

  /// Calls `fn(attr)` for each wildcard attribute, ascending.
  template <typename Fn>
  void ForEachWildcard(PackedKeyView p, Fn&& fn) const {
    for (int w = 0; w < num_words_; ++w) {
      std::uint64_t bits = (layout_[w] & ~p.det[w]) & first_bits_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        fn(attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)]);
      }
    }
  }

  int cardinality(int attr) const {
    return cardinalities_[static_cast<std::size_t>(attr)];
  }

  /// Same rendering as Pattern::ToString / ToLabelledString, straight from
  /// the packed form (the wire encoder uses these so audit responses never
  /// materialize a vector<int> per MUP).
  std::string ToString(PackedKeyView p) const;
  std::string ToLabelledString(PackedKeyView p, const Schema& schema) const;

  /// Cell-wise lexicographic comparison matching Pattern::operator<
  /// (wildcard sorts first), so packed result sets sort into the same order
  /// FindMups reports.
  bool Less(PackedKeyView a, PackedKeyView b) const;

  /// Writes `cells` (kWildcard allowed) into zeroed `words` / `det` arrays
  /// of at least num_words() entries; returns the level.
  int EncodeCells(std::span<const Value> cells, std::uint64_t* words,
                  std::uint64_t* det) const;

 private:
  struct Field {
    std::uint8_t word = 0;
    std::uint8_t shift = 0;
    std::uint8_t bits = 0;
    std::uint64_t low_mask = 0;  // (1 << bits) - 1, unshifted
  };

  static constexpr int kMaxWords = kPackedKeyWidths.back();

  std::vector<Field> fields_;
  std::vector<int> cardinalities_;
  std::array<std::uint64_t, kMaxWords> layout_{};
  std::array<std::uint64_t, kMaxWords> first_bits_{};
  std::vector<std::int16_t> attr_of_bit_;  // num_words * 64, -1 when unused
  int num_words_ = 1;
  int key_words_ = kPackedKeyWidths.front();
};

/// The one place that maps a codec's key width to a compiled one: calls
/// `fn(std::integral_constant<int, W>{})` with W = codec.key_words(), so
/// callers write `[&]<int W>(std::integral_constant<int, W>) { ... }` and
/// get PackedPattern<W> code instantiated for every entry of
/// kPackedKeyWidths.
template <typename Fn>
decltype(auto) WithKeyWidth(const PatternCodec& codec, Fn&& fn) {
  static_assert(kPackedKeyWidths.size() == 3);
  switch (codec.key_words()) {
    case kPackedKeyWidths[0]:
      return fn(std::integral_constant<int, kPackedKeyWidths[0]>{});
    case kPackedKeyWidths[1]:
      return fn(std::integral_constant<int, kPackedKeyWidths[1]>{});
    default:
      return fn(std::integral_constant<int, kPackedKeyWidths[2]>{});
  }
}

/// Sort helper: strict weak order matching Pattern::operator<.
struct PackedLess {
  const PatternCodec* codec;
  bool operator()(PackedKeyView a, PackedKeyView b) const {
    return codec->Less(a, b);
  }
};

}  // namespace coverage

#endif  // COVERAGE_PATTERN_PACKED_PATTERN_H_
