// The Appendix-B dominance index, in both key forms: every case runs against
// MupDominanceIndex (vector<int> keys) and against PackedMupIndex at each key
// width. For the 8- and 16-word widths the schema is padded with leading
// wildcard-only binary attributes, so the cells under test sit in key words
// 4+ and 8+ respectively.

#include "mups/mup_index.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.h"
#include "mups/packed_index.h"

namespace coverage {
namespace {

Pattern P(const std::string& text, const Schema& schema) {
  auto p = Pattern::Parse(text, schema);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

/// PackedMupIndex<W> behind MupDominanceIndex's Pattern-keyed interface.
template <int W>
class PackedKeyIndex {
 public:
  explicit PackedKeyIndex(const Schema& schema)
      : pad_(W == 4 ? 0 : W / 2 * 32),
        schema_(Padded(schema, pad_)),
        codec_(*PatternCodec::Build(schema_)),
        index_(schema_, codec_) {
    EXPECT_EQ(codec_.key_words(), W);
  }

  void Add(const Pattern& mup) { index_.Add(Key(mup)); }
  void AddBatch(std::span<const Pattern> mups) {
    std::vector<PackedPattern<W>> keys;
    for (const Pattern& m : mups) keys.push_back(Key(m));
    index_.AddBatch(keys);
  }
  bool Remove(const Pattern& mup) { return index_.Remove(Key(mup)); }
  std::size_t size() const { return index_.size(); }
  std::vector<Pattern> mups() const {
    std::vector<Pattern> out;
    for (const PackedPattern<W>& key : index_.mups()) {
      const Pattern decoded = codec_.Decode(key);
      out.emplace_back(std::vector<Value>(decoded.cells().begin() + pad_,
                                          decoded.cells().end()));
    }
    return out;
  }
  bool Contains(const Pattern& p) const { return index_.Contains(Key(p)); }
  bool IsDominated(const Pattern& p) const {
    return index_.IsDominated(Key(p));
  }
  bool DominatesSome(const Pattern& p) const {
    return index_.DominatesSome(Key(p));
  }

 private:
  static Schema Padded(const Schema& schema, int pad) {
    std::vector<int> cards(static_cast<std::size_t>(pad), 2);
    for (int i = 0; i < schema.num_attributes(); ++i) {
      cards.push_back(schema.cardinality(i));
    }
    return Schema::Uniform(cards);
  }

  PackedPattern<W> Key(const Pattern& p) const {
    std::vector<Value> cells(static_cast<std::size_t>(pad_), kWildcard);
    cells.insert(cells.end(), p.cells().begin(), p.cells().end());
    return codec_.Encode<W>(Pattern(std::move(cells)));
  }

  int pad_;
  Schema schema_;
  PatternCodec codec_;
  PackedMupIndex<W> index_;
};

template <typename Index>
class MupIndexTest : public ::testing::Test {};

using IndexTypes = ::testing::Types<MupDominanceIndex, PackedKeyIndex<4>,
                                    PackedKeyIndex<8>, PackedKeyIndex<16>>;
TYPED_TEST_SUITE(MupIndexTest, IndexTypes);

TYPED_TEST(MupIndexTest, EmptyIndexDominatesNothing) {
  const Schema schema = Schema::Binary(3);
  TypeParam index(schema);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.IsDominated(P("111", schema)));
  EXPECT_FALSE(index.DominatesSome(Pattern::Root(3)));
  EXPECT_FALSE(index.Contains(Pattern::Root(3)));
}

TYPED_TEST(MupIndexTest, MembershipIsExact) {
  const Schema schema = Schema::Binary(3);
  TypeParam index(schema);
  index.Add(P("1XX", schema));
  EXPECT_TRUE(index.Contains(P("1XX", schema)));
  EXPECT_FALSE(index.Contains(P("0XX", schema)));
  EXPECT_EQ(index.size(), 1u);
}

TYPED_TEST(MupIndexTest, DescendantIsDominated) {
  const Schema schema = Schema::Binary(4);
  TypeParam index(schema);
  index.Add(P("1XXX", schema));
  EXPECT_TRUE(index.IsDominated(P("10X1", schema)));
  EXPECT_TRUE(index.IsDominated(P("1111", schema)));
  EXPECT_TRUE(index.IsDominated(P("1XX0", schema)));
}

TYPED_TEST(MupIndexTest, NonDescendantNotDominated) {
  const Schema schema = Schema::Binary(4);
  TypeParam index(schema);
  index.Add(P("1XXX", schema));
  EXPECT_FALSE(index.IsDominated(P("0XXX", schema)));
  EXPECT_FALSE(index.IsDominated(P("X1XX", schema)));  // incomparable
  EXPECT_FALSE(index.IsDominated(Pattern::Root(4)));   // ancestor
  EXPECT_FALSE(index.IsDominated(P("1XXX", schema)));  // equality is strict
}

TYPED_TEST(MupIndexTest, AncestorDominatesSome) {
  const Schema schema = Schema::Binary(4);
  TypeParam index(schema);
  index.Add(P("10X1", schema));
  EXPECT_TRUE(index.DominatesSome(Pattern::Root(4)));
  EXPECT_TRUE(index.DominatesSome(P("1XXX", schema)));
  EXPECT_TRUE(index.DominatesSome(P("10XX", schema)));
  EXPECT_FALSE(index.DominatesSome(P("11XX", schema)));
  EXPECT_FALSE(index.DominatesSome(P("10X1", schema)));  // strict
  EXPECT_FALSE(index.DominatesSome(P("1011", schema)));  // descendant
}

TYPED_TEST(MupIndexTest, MultipleMupsAnyMatchCounts) {
  const Schema schema = Schema::Binary(4);
  TypeParam index(schema);
  index.Add(P("1XXX", schema));
  index.Add(P("X0X0", schema));
  EXPECT_TRUE(index.IsDominated(P("1010", schema)));  // dominated by both
  EXPECT_TRUE(index.IsDominated(P("X0X0", schema).WithCell(0, 0)));  // 00X0
  EXPECT_TRUE(index.DominatesSome(P("XXX0", schema)));  // ancestor of X0X0
  EXPECT_FALSE(index.IsDominated(P("01X1", schema)));
}

TYPED_TEST(MupIndexTest, MixedCardinalities) {
  const Schema schema = Schema::Uniform({3, 4, 2});
  TypeParam index(schema);
  index.Add(P("2XX", schema));
  index.Add(P("X31", schema));
  EXPECT_TRUE(index.IsDominated(P("23X", schema)));
  EXPECT_TRUE(index.IsDominated(P("231", schema)));
  EXPECT_FALSE(index.IsDominated(P("13X", schema)));
  EXPECT_TRUE(index.DominatesSome(P("X3X", schema)));
  EXPECT_TRUE(index.DominatesSome(P("XX1", schema)));
  EXPECT_FALSE(index.DominatesSome(P("X2X", schema)));
}

TYPED_TEST(MupIndexTest, AgreesWithDirectDominanceChecks) {
  // Property: index answers equal brute-force checks over all patterns of a
  // small graph for an arbitrary antichain.
  const Schema schema = Schema::Uniform({2, 3, 2});
  TypeParam index(schema);
  const std::vector<Pattern> mups = {P("1XX", schema), P("X2X", schema),
                                     P("X01", schema)};
  for (const Pattern& m : mups) index.Add(m);

  for (Value a = -1; a < 2; ++a) {
    for (Value b = -1; b < 3; ++b) {
      for (Value c = -1; c < 2; ++c) {
        const Pattern p({a, b, c});
        bool dominated = false, dominates = false;
        for (const Pattern& m : mups) {
          dominated = dominated || m.Dominates(p);
          dominates = dominates || p.Dominates(m);
        }
        EXPECT_EQ(index.IsDominated(p), dominated) << p.ToString();
        EXPECT_EQ(index.DominatesSome(p), dominates) << p.ToString();
      }
    }
  }
}

TYPED_TEST(MupIndexTest, GrowsPastWordBoundary) {
  // More than 64 MUPs exercises multi-word bit vectors.
  const Schema schema = Schema::Uniform({100, 2});
  TypeParam index(schema);
  for (Value v = 0; v < 100; ++v) {
    index.Add(Pattern({v, kWildcard}));
  }
  EXPECT_EQ(index.size(), 100u);
  for (Value v = 0; v < 100; ++v) {
    EXPECT_TRUE(index.IsDominated(Pattern({v, Value{1}})));
  }
  EXPECT_TRUE(index.DominatesSome(Pattern::Root(2)));
  EXPECT_FALSE(index.IsDominated(Pattern({kWildcard, Value{1}})));
}

TYPED_TEST(MupIndexTest, AddBatchMatchesSequentialAdds) {
  const Schema schema = Schema::Uniform({5, 3, 4});
  // An antichain mixing levels and wildcard positions.
  const std::vector<Pattern> batch = {
      Pattern({Value{0}, kWildcard, Value{1}}),
      Pattern({Value{1}, Value{2}, kWildcard}),
      Pattern({kWildcard, Value{0}, Value{3}}),
      Pattern({Value{4}, kWildcard, kWildcard}),
  };
  TypeParam batched(schema);
  batched.AddBatch(batch);
  TypeParam sequential(schema);
  for (const Pattern& m : batch) sequential.Add(m);

  ASSERT_EQ(batched.size(), sequential.size());
  EXPECT_EQ(batched.mups(), sequential.mups());
  // Every probe answer must agree over the full level-<=2 pattern space.
  for (Value a = -1; a < 5; ++a) {
    for (Value b = -1; b < 3; ++b) {
      for (Value c = -1; c < 4; ++c) {
        const Pattern p({a, b, c});
        EXPECT_EQ(batched.Contains(p), sequential.Contains(p));
        EXPECT_EQ(batched.IsDominated(p), sequential.IsDominated(p))
            << p.ToString();
        EXPECT_EQ(batched.DominatesSome(p), sequential.DominatesSome(p))
            << p.ToString();
      }
    }
  }
}

TYPED_TEST(MupIndexTest, AddBatchAfterAddsCrossesWordBoundary) {
  // Seed 60 single Adds so the batch append starts mid-word, then grow past
  // the 64-bit boundary in one AddBatch.
  const Schema schema = Schema::Uniform({100, 2});
  TypeParam index(schema);
  std::vector<Pattern> batch;
  for (Value v = 0; v < 100; ++v) {
    if (v < 60) {
      index.Add(Pattern({v, kWildcard}));
    } else {
      batch.push_back(Pattern({v, kWildcard}));
    }
  }
  index.AddBatch(batch);
  EXPECT_EQ(index.size(), 100u);
  for (Value v = 0; v < 100; ++v) {
    EXPECT_TRUE(index.Contains(Pattern({v, kWildcard})));
    EXPECT_TRUE(index.IsDominated(Pattern({v, Value{1}}))) << v;
  }
  EXPECT_TRUE(index.DominatesSome(Pattern::Root(2)));
  EXPECT_FALSE(index.IsDominated(Pattern({kWildcard, Value{1}})));
}

TYPED_TEST(MupIndexTest, AddBatchEmptyIsNoOp) {
  const Schema schema = Schema::Binary(3);
  TypeParam index(schema);
  index.AddBatch({});
  EXPECT_EQ(index.size(), 0u);
  index.Add(Pattern({Value{1}, kWildcard, kWildcard}));
  index.AddBatch({});
  EXPECT_EQ(index.size(), 1u);
}

TYPED_TEST(MupIndexTest, RemoveUnregistersAndCompacts) {
  const Schema schema = Schema::Uniform({2, 3, 2});
  TypeParam index(schema);
  index.Add(P("1XX", schema));
  index.Add(P("X2X", schema));
  index.Add(P("X01", schema));

  // Removing an unknown pattern is a rejected no-op.
  EXPECT_FALSE(index.Remove(P("0XX", schema)));
  EXPECT_EQ(index.size(), 3u);

  // Removing the middle entry swaps the last into its position; probes must
  // behave as if only the two survivors were ever added.
  EXPECT_TRUE(index.Remove(P("X2X", schema)));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.Contains(P("X2X", schema)));
  EXPECT_FALSE(index.Remove(P("X2X", schema)));
  EXPECT_FALSE(index.IsDominated(P("X21", schema)));  // only X2X dominated it
  EXPECT_TRUE(index.IsDominated(P("101", schema)));
  EXPECT_TRUE(index.DominatesSome(P("XX1", schema)));  // above X01
  EXPECT_FALSE(index.DominatesSome(P("X2X", schema)));

  // Removing down to empty and re-adding keeps the bit layout consistent.
  EXPECT_TRUE(index.Remove(P("1XX", schema)));
  EXPECT_TRUE(index.Remove(P("X01", schema)));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.IsDominated(P("101", schema)));
  index.Add(P("0XX", schema));
  EXPECT_TRUE(index.IsDominated(P("01X", schema)));
  EXPECT_FALSE(index.IsDominated(P("11X", schema)));
}

TYPED_TEST(MupIndexTest, RandomAddRemoveAgreesWithDirectChecks) {
  // Property: after an arbitrary interleaving of Adds and Removes (crossing
  // the 64-bit word boundary), every probe equals the brute-force check
  // against the surviving set.
  const Schema schema = Schema::Uniform({40, 2, 2});
  TypeParam index(schema);
  std::vector<Pattern> live;
  Rng rng(77);
  for (int step = 0; step < 300; ++step) {
    const bool remove = !live.empty() && rng.NextUint64(3) == 0;
    if (remove) {
      const std::size_t pick = rng.NextUint64(live.size());
      ASSERT_TRUE(index.Remove(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Level-1 patterns on a wide attribute keep the set an antichain-ish
      // mix; skip duplicates to respect the Add contract.
      const Pattern p({static_cast<Value>(rng.NextUint64(40)),
                       static_cast<Value>(rng.NextInt(-1, 1)),
                       static_cast<Value>(rng.NextInt(-1, 1))});
      if (index.Contains(p)) continue;
      index.Add(p);
      live.push_back(p);
    }
  }
  ASSERT_EQ(index.size(), live.size());
  ASSERT_GT(live.size(), 64u);  // crossed a word boundary at some point

  Rng probe_rng(78);
  for (int trial = 0; trial < 500; ++trial) {
    const Pattern p({static_cast<Value>(probe_rng.NextInt(-1, 39)),
                     static_cast<Value>(probe_rng.NextInt(-1, 1)),
                     static_cast<Value>(probe_rng.NextInt(-1, 1))});
    bool dominated = false, dominates = false, member = false;
    for (const Pattern& m : live) {
      dominated = dominated || m.Dominates(p);
      dominates = dominates || p.Dominates(m);
      member = member || m == p;
    }
    EXPECT_EQ(index.Contains(p), member) << p.ToString();
    EXPECT_EQ(index.IsDominated(p), dominated) << p.ToString();
    EXPECT_EQ(index.DominatesSome(p), dominates) << p.ToString();
  }
}

}  // namespace
}  // namespace coverage
