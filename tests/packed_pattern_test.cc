// Property tests for the packed pattern key: over hundreds of random
// schemas of every key width (4, 8 and 16 words, so fields land in words
// 0–15), including word-boundary and max-cardinality shapes, every
// PackedPattern operation must agree with the vector<int> Pattern it
// mirrors — round-trip, cell access, parent/child moves, dominance, level,
// rightmost scans, ordering, hashing, and string rendering.

#include "pattern/packed_pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "mups/mups.h"
#include "pattern/packed_set.h"
#include "pattern/pattern.h"

namespace coverage {
namespace {

/// A random pattern over `schema`: each cell wildcard with probability
/// `wild`, else a uniform value.
Pattern RandomPattern(const Schema& schema, Rng& rng, double wild) {
  std::vector<Value> cells(static_cast<std::size_t>(schema.num_attributes()));
  for (int i = 0; i < schema.num_attributes(); ++i) {
    if (rng.NextBool(wild)) {
      cells[static_cast<std::size_t>(i)] = kWildcard;
    } else {
      cells[static_cast<std::size_t>(i)] = static_cast<Value>(
          rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(i))));
    }
  }
  return Pattern(std::move(cells));
}

/// One schema's worth of agreement checks between the two representations,
/// on the key width the codec chose.
template <int W>
void CheckSchemaAt(const Schema& schema, const PatternCodec& codec,
                   std::uint64_t seed) {
  const int d = schema.num_attributes();
  Rng rng(seed);
  std::vector<Pattern> samples;
  samples.push_back(Pattern::Root(d));
  // A fully deterministic max-value pattern exercises every field's top
  // code (the one adjacent to the all-ones wildcard encoding).
  {
    std::vector<Value> cells(static_cast<std::size_t>(d));
    for (int i = 0; i < d; ++i) {
      cells[static_cast<std::size_t>(i)] =
          static_cast<Value>(schema.cardinality(i) - 1);
    }
    samples.push_back(Pattern(std::move(cells)));
  }
  for (int k = 0; k < 12; ++k) {
    samples.push_back(RandomPattern(schema, rng, 0.4));
  }

  for (const Pattern& p : samples) {
    const PackedPattern<W> packed = codec.Encode<W>(p);

    // Round-trip and cell-level agreement.
    EXPECT_EQ(codec.Decode(packed), p);
    EXPECT_EQ(packed.level(), p.level());
    EXPECT_EQ(codec.level(packed), p.level());
    for (int i = 0; i < d; ++i) {
      EXPECT_EQ(codec.cell(packed, i), p.cell(i));
      EXPECT_EQ(codec.is_deterministic(packed, i), p.is_deterministic(i));
    }
    EXPECT_EQ(codec.RightmostDeterministic(packed),
              p.RightmostDeterministic());
    EXPECT_EQ(codec.RightmostWildcard(packed), p.RightmostWildcard());

    // Iteration order: ascending attributes, exactly the det/wild split.
    std::vector<int> det, wild;
    codec.ForEachDeterministic(packed, [&](int a) { det.push_back(a); });
    codec.ForEachWildcard(packed, [&](int a) { wild.push_back(a); });
    std::vector<int> expect_det, expect_wild;
    for (int i = 0; i < d; ++i) {
      (p.is_deterministic(i) ? expect_det : expect_wild).push_back(i);
    }
    EXPECT_EQ(det, expect_det);
    EXPECT_EQ(wild, expect_wild);

    // Rendering is byte-identical.
    EXPECT_EQ(codec.ToString(packed), p.ToString());
    EXPECT_EQ(codec.ToLabelledString(packed, schema),
              p.ToLabelledString(schema));

    // Parent/child moves through WithCell agree cell-for-cell.
    for (int i = 0; i < d; ++i) {
      const Value flip = p.is_deterministic(i) ? kWildcard : Value{0};
      EXPECT_EQ(codec.Decode(codec.WithCell(packed, i, flip)),
                p.WithCell(i, flip));
    }

    // Pairwise dominance, equality, ordering, and hashing against every
    // other sample.
    for (const Pattern& q : samples) {
      const PackedPattern<W> packed_q = codec.Encode<W>(q);
      EXPECT_EQ(packed.Dominates(packed_q), p.Dominates(q));
      EXPECT_EQ(packed.DominatesOrEquals(packed_q), p.DominatesOrEquals(q));
      EXPECT_EQ(packed == packed_q, p == q);
      EXPECT_EQ(codec.Less(packed, packed_q), p < q);
      if (p == q) {
        EXPECT_EQ(packed.Hash(), packed_q.Hash());
      }
    }
  }

  // EncodeTuple matches Pattern::FromTuple on a random full combination.
  std::vector<Value> tuple(static_cast<std::size_t>(d));
  for (int i = 0; i < d; ++i) {
    tuple[static_cast<std::size_t>(i)] = static_cast<Value>(
        rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(i))));
  }
  EXPECT_EQ(codec.Decode(codec.EncodeTuple<W>(tuple)),
            Pattern::FromTuple(tuple));

  // The width-free PackedMupSet stores exactly what the typed keys hold.
  PackedMupSet set(codec);
  for (const Pattern& p : samples) set.Append(codec.Encode<W>(p));
  for (const Pattern& p : samples) set.Append(p.cells());
  ASSERT_EQ(set.size(), 2 * samples.size());
  std::vector<Pattern> twice = samples;
  twice.insert(twice.end(), samples.begin(), samples.end());
  EXPECT_EQ(set.Materialize(), twice);
}

/// Checks `schema` on the width PatternCodec::Build picks, which must be
/// `expected_words`.
void CheckSchema(const Schema& schema, std::uint64_t seed,
                 int expected_words) {
  auto built = PatternCodec::Build(schema);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const PatternCodec& codec = *built;
  ASSERT_EQ(codec.num_attributes(), schema.num_attributes());
  ASSERT_EQ(codec.key_words(), expected_words);
  WithKeyWidth(codec, [&]<int W>(std::integral_constant<int, W>) {
    CheckSchemaAt<W>(schema, codec, seed);
  });
}

/// Random cardinalities (skewed low, like bucketized categorical data) whose
/// layout needs exactly `words`-word keys.
std::vector<int> RandomCardinalities(Rng& rng, int words) {
  const auto draw = [&] { return 1 + static_cast<int>(rng.NextUint64(9)); };
  std::vector<int> cards;
  if (words == kPackedKeyWidths[0]) {
    const int d = 1 + static_cast<int>(rng.NextUint64(12));
    for (int i = 0; i < d; ++i) cards.push_back(draw());
    return cards;
  }
  // Grow until the layout reaches the requested width, then keep going for
  // a random stretch without spilling into the next one.
  for (;;) {
    cards.push_back(draw());
    auto codec = PatternCodec::Build(Schema::Uniform(cards));
    if (!codec.ok() || codec->key_words() > words) {
      cards.pop_back();
      return cards;
    }
    if (codec->key_words() == words && rng.NextBool(0.02)) return cards;
  }
}

TEST(PackedPattern, FiveHundredRandomSchemas) {
  Rng rng(2026);
  for (int s = 0; s < 500; ++s) {
    const int words = kPackedKeyWidths[static_cast<std::size_t>(s % 3)];
    const std::vector<int> cards = RandomCardinalities(rng, words);
    CheckSchema(Schema::Uniform(cards), 3000 + static_cast<std::uint64_t>(s),
                words);
  }
}

TEST(PackedPattern, WordBoundaryBinarySchema) {
  // Binary attributes take 2-bit fields (value, plus the all-ones wildcard
  // code): 32 fit in a word, so the 33rd binary attribute is the first to
  // land in word 1, the 129th the first past the 4-word key, the 257th the
  // first past the 8-word key. Check shapes straddling each boundary.
  const std::pair<int, int> shapes[] = {
      {32, 4},  {33, 4},  {34, 4},  {64, 4},  {65, 4},  {96, 4},
      {97, 4},  {128, 4}, {129, 8}, {160, 8}, {161, 8}, {256, 8},
      {257, 16}, {288, 16}, {289, 16}, {480, 16}, {481, 16}, {512, 16}};
  for (const auto& [d, words] : shapes) {
    const Schema schema = Schema::Uniform(std::vector<int>(
        static_cast<std::size_t>(d), 2));
    CheckSchema(schema, 5000 + static_cast<std::uint64_t>(d), words);
  }
}

TEST(PackedPattern, WordBoundaryHighCardinalitySchema) {
  // Cardinality-30 attributes take 5-bit fields; 12 fit in a word (60 bits,
  // 4 spare), so the 13th starts word 1 — and because fields never straddle
  // words, its field begins at bit 0 of word 1, not bit 60 of word 0. The
  // 49th starts word 4 (8-word key), the 97th word 8 (16-word key).
  const std::pair<int, int> shapes[] = {
      {12, 4}, {13, 4}, {14, 4},  {25, 4},  {26, 4},   {48, 4},
      {49, 8}, {61, 8}, {96, 8},  {97, 16}, {181, 16}, {192, 16}};
  for (const auto& [d, words] : shapes) {
    const Schema schema = Schema::Uniform(std::vector<int>(
        static_cast<std::size_t>(d), 30));
    CheckSchema(schema, 6000 + static_cast<std::uint64_t>(d), words);
  }
}

TEST(PackedPattern, MaxCardinalityAttribute) {
  // A large-cardinality attribute next to tiny ones exercises wide fields
  // and mixed layouts. 32767 is the largest cardinality Value (int16_t) can
  // express; its 15-bit field's wildcard code is the all-ones 32767.
  CheckSchema(Schema::Uniform({1024, 2, 3}), 7001, 4);
  CheckSchema(Schema::Uniform({2, 32767, 2}), 7002, 4);
  CheckSchema(Schema::Uniform({32767, 32767, 32767}), 7003, 4);
  // Four 15-bit fields fill a word with 4 spare bits; 40 of them need ten
  // words, so the last ones sit in words 8 and 9 of a 16-word key.
  CheckSchema(Schema::Uniform(std::vector<int>(40, 32767)), 7004, 16);
}

TEST(PackedPattern, CapacityLimit) {
  // 128 binary attributes = 256 bits: the last 4-word schema; 512 binary
  // attributes = 1024 bits: exactly the widest key. 513 exceeds it, and the
  // error names the bits needed and the cap.
  EXPECT_EQ(
      PatternCodec::Build(Schema::Uniform(std::vector<int>(128, 2)))
          ->key_words(),
      4);
  EXPECT_EQ(
      PatternCodec::Build(Schema::Uniform(std::vector<int>(512, 2)))
          ->key_words(),
      16);
  auto over = PatternCodec::Build(Schema::Uniform(std::vector<int>(513, 2)));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.status().message().find("1026"), std::string::npos)
      << over.status().message();
  EXPECT_NE(over.status().message().find("1024"), std::string::npos)
      << over.status().message();
}

TEST(PackedPattern, ZeroAttributeSchema) {
  const Schema schema = Schema::Uniform(std::vector<int>{});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(codec->key_words(), 4);
  const PackedPattern<4> root = codec->Root<4>();
  EXPECT_EQ(root.level(), 0);
  EXPECT_EQ(codec->Decode(root), Pattern::Root(0));
  EXPECT_EQ(codec->ToString(root), Pattern::Root(0).ToString());
}

/// {3, 4, 2, 5} behind W/2 words of binary padding: the codec picks W-word
/// keys and the interesting fields sit in word W/2.
Schema PaddedSchema(int words) {
  std::vector<int> cards(static_cast<std::size_t>(words / 2 * 32), 2);
  cards.insert(cards.end(), {3, 4, 2, 5});
  return Schema::Uniform(cards);
}

template <int W>
void CheckSetAgainstStdSet() {
  const Schema schema = PaddedSchema(W);
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());
  ASSERT_EQ(codec->key_words(), W);
  const int d = schema.num_attributes();
  Rng rng(99);
  Arena arena;
  PackedPatternSet<W> set(&arena);
  std::unordered_set<Pattern, PatternHash> reference;
  for (int i = 0; i < 2000; ++i) {
    // Wild padding, random tail: 360 distinct keys, so most inserts repeat.
    std::vector<Value> cells(static_cast<std::size_t>(d), kWildcard);
    for (int a = d - 4; a < d; ++a) {
      if (rng.NextBool(0.3)) continue;
      cells[static_cast<std::size_t>(a)] = static_cast<Value>(
          rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))));
    }
    const Pattern p(std::move(cells));
    const bool inserted_ref = reference.insert(p).second;
    const bool inserted = set.Insert(codec->Encode<W>(p));
    EXPECT_EQ(inserted, inserted_ref);
    EXPECT_EQ(set.size(), reference.size());
  }
  for (const Pattern& p : reference) {
    EXPECT_TRUE(set.Contains(codec->Encode<W>(p)));
  }
  // The fully deterministic all-zeros pattern packs to all-zero value
  // words; the set has no in-band empty sentinel, so it must behave like
  // any other key.
  const Pattern zeros(std::vector<Value>(static_cast<std::size_t>(d), 0));
  const PackedPattern<W> packed_zeros = codec->Encode<W>(zeros);
  EXPECT_EQ(set.Contains(packed_zeros), reference.contains(zeros));
  set.Insert(packed_zeros);
  EXPECT_TRUE(set.Contains(packed_zeros));
}

TEST(PackedPatternSet, InsertContainsAgainstStdSet) {
  CheckSetAgainstStdSet<4>();
  CheckSetAgainstStdSet<8>();
  CheckSetAgainstStdSet<16>();
}

TEST(PackedPatternMap, FindOrInsertAccumulates) {
  const Schema schema = Schema::Uniform({4, 4, 4});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());
  Arena arena;
  PackedPatternMap<4, std::uint64_t> map(&arena);
  Rng rng(7);
  std::vector<Pattern> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(RandomPattern(schema, rng, 0.5));
  for (int round = 0; round < 3; ++round) {
    for (const Pattern& p : keys) {
      ++map.FindOrInsert(codec->Encode<4>(p), std::uint64_t{0});
    }
  }
  std::unordered_set<Pattern, PatternHash> distinct(keys.begin(), keys.end());
  EXPECT_EQ(map.size(), distinct.size());
  std::size_t visited = 0;
  std::uint64_t total = 0;
  map.ForEach([&](const PackedPattern<4>& k, const std::uint64_t& v) {
    ++visited;
    total += v;
    EXPECT_TRUE(distinct.contains(codec->Decode(k)));
  });
  EXPECT_EQ(visited, distinct.size());
  EXPECT_EQ(total, std::uint64_t{3} * keys.size());
}

}  // namespace
}  // namespace coverage
