#include <gtest/gtest.h>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "coverage/scan_coverage.h"
#include "dataset/aggregate.h"
#include "pattern/pattern_graph.h"

namespace coverage {
namespace {

Dataset MakeExample1() {
  Dataset data(Schema::Binary(3));
  data.AppendRow(std::vector<Value>{0, 1, 0});
  data.AppendRow(std::vector<Value>{0, 0, 1});
  data.AppendRow(std::vector<Value>{0, 0, 0});
  data.AppendRow(std::vector<Value>{0, 1, 1});
  data.AppendRow(std::vector<Value>{0, 0, 1});
  return data;
}

Pattern P(const std::string& text, const Schema& schema) {
  auto p = Pattern::Parse(text, schema);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(ScanCoverage, AppendixAWorkedExample) {
  // Appendix A computes cov(0X1) = 3 on Example 1.
  const Dataset data = MakeExample1();
  ScanCoverage oracle(data);
  QueryContext ctx;
  EXPECT_EQ(oracle.Coverage(P("0X1", data.schema()), ctx), 3u);
}

TEST(ScanCoverage, RootCoversEverything) {
  const Dataset data = MakeExample1();
  ScanCoverage oracle(data);
  QueryContext ctx;
  EXPECT_EQ(oracle.Coverage(Pattern::Root(3), ctx), 5u);
}

TEST(ScanCoverage, UncoveredRegion) {
  const Dataset data = MakeExample1();
  ScanCoverage oracle(data);
  QueryContext ctx;
  EXPECT_EQ(oracle.Coverage(P("1XX", data.schema()), ctx), 0u);
  EXPECT_EQ(oracle.Coverage(P("111", data.schema()), ctx), 0u);
}

TEST(ScanCoverage, CountsQueries) {
  const Dataset data = MakeExample1();
  ScanCoverage oracle(data);
  QueryContext ctx;
  EXPECT_EQ(ctx.num_queries(), 0u);
  oracle.Coverage(Pattern::Root(3), ctx);
  oracle.Coverage(Pattern::Root(3), ctx);
  EXPECT_EQ(ctx.num_queries(), 2u);
  ctx.ResetQueryCounter();
  EXPECT_EQ(ctx.num_queries(), 0u);
}

TEST(BitmapCoverage, MatchesWorkedExample) {
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  BitmapCoverage oracle(agg);
  QueryContext ctx;
  EXPECT_EQ(oracle.Coverage(P("0X1", data.schema()), ctx), 3u);
  EXPECT_EQ(oracle.Coverage(Pattern::Root(3), ctx), 5u);
  EXPECT_EQ(oracle.Coverage(P("1XX", data.schema()), ctx), 0u);
  EXPECT_EQ(oracle.Coverage(P("001", data.schema()), ctx), 2u);
}

TEST(BitmapCoverage, IsCoveredThreshold) {
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  BitmapCoverage oracle(agg);
  QueryContext ctx;
  EXPECT_TRUE(oracle.IsCovered(P("0X1", data.schema()), 3, ctx));
  EXPECT_FALSE(oracle.IsCovered(P("0X1", data.schema()), 4, ctx));
}

TEST(BitmapCoverage, MatchVectorSelectsCombinations) {
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  BitmapCoverage oracle(agg);
  const BitVector mv = oracle.MatchVector(P("0X1", data.schema()));
  std::uint64_t total = 0;
  mv.ForEachSetBit([&](std::size_t k) {
    EXPECT_TRUE(P("0X1", data.schema()).Matches(agg.combination(k)));
    total += agg.count(k);
  });
  EXPECT_EQ(total, 3u);
}

TEST(BitmapCoverage, EmptyDataset) {
  const Dataset data(Schema::Binary(3));
  const AggregatedData agg(data);
  BitmapCoverage oracle(agg);
  QueryContext ctx;
  EXPECT_EQ(oracle.Coverage(Pattern::Root(3), ctx), 0u);
  EXPECT_EQ(oracle.Coverage(P("101", data.schema()), ctx), 0u);
}

TEST(BitmapCoverage, AgreesWithScanOnRandomData) {
  // Property: the inverted-index oracle equals the definitional scan on the
  // full pattern graph of random datasets with mixed cardinalities.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const Schema schema = Schema::Uniform({2, 3, 2, 4});
    Dataset data(schema);
    std::vector<Value> row(4);
    const std::size_t n = 50 + seed * 100;
    for (std::size_t i = 0; i < n; ++i) {
      for (int a = 0; a < 4; ++a) {
        row[static_cast<std::size_t>(a)] = static_cast<Value>(
            rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))));
      }
      data.AppendRow(row);
    }
    const AggregatedData agg(data);
    BitmapCoverage bitmap(agg);
    ScanCoverage scan(data);
    PatternGraph graph(schema);
    auto all = graph.EnumerateAll(100000);
    ASSERT_TRUE(all.ok());
    QueryContext bctx, sctx;
    for (const Pattern& p : *all) {
      EXPECT_EQ(bitmap.Coverage(p, bctx), scan.Coverage(p, sctx))
          << p.ToString();
    }
  }
}

TEST(BitmapCoverage, SkewedDataStillExact) {
  // Heavily duplicated rows stress the count-vector dot product.
  Dataset data(Schema::Binary(2));
  for (int i = 0; i < 1000; ++i) data.AppendRow(std::vector<Value>{0, 0});
  data.AppendRow(std::vector<Value>{1, 1});
  const AggregatedData agg(data);
  EXPECT_EQ(agg.num_combinations(), 2u);
  BitmapCoverage oracle(agg);
  QueryContext ctx;
  EXPECT_EQ(oracle.Coverage(P("0X", data.schema()), ctx), 1000u);
  EXPECT_EQ(oracle.Coverage(P("X1", data.schema()), ctx), 1u);
  EXPECT_EQ(oracle.Coverage(Pattern::Root(2), ctx), 1001u);
}

TEST(BitmapCoverage, IndexExposesPerValueVectors) {
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  BitmapCoverage oracle(agg);
  // Attribute A1 value 0 covers all distinct combinations in Example 1.
  EXPECT_EQ(oracle.index(0, 0).Count(), agg.num_combinations());
  EXPECT_EQ(oracle.index(0, 1).Count(), 0u);
}

TEST(BitmapCoverage, DecrementalBuildMasksTombstonedBits) {
  const Dataset data = MakeExample1();
  AggregatedData agg(data);
  const BitmapCoverage base(agg);

  // Tombstone 001 (id 1, multiplicity 2) by retracting both occurrences.
  AggregatedData shrunk = agg;
  ASSERT_TRUE(shrunk.DecrementRow(std::vector<Value>{0, 0, 1}));
  ASSERT_TRUE(shrunk.DecrementRow(std::vector<Value>{0, 0, 1}));
  const std::vector<std::size_t> tombstoned = {1};
  const BitmapCoverage dec(shrunk, base, tombstoned, {});

  // Queries agree with a from-scratch oracle over the surviving rows.
  Dataset surviving(data.schema());
  surviving.AppendRow(std::vector<Value>{0, 1, 0});
  surviving.AppendRow(std::vector<Value>{0, 0, 0});
  surviving.AppendRow(std::vector<Value>{0, 1, 1});
  const AggregatedData fresh(surviving);
  const BitmapCoverage scratch(fresh);
  PatternGraph graph(data.schema());
  const auto all = graph.EnumerateAll(100000);
  ASSERT_TRUE(all.ok());
  QueryContext dctx, sctx;
  for (const Pattern& p : *all) {
    EXPECT_EQ(dec.Coverage(p, dctx), scratch.Coverage(p, sctx))
        << p.ToString();
  }

  // The tombstoned combination's bits really are masked, so its match
  // vector is empty (a zero count alone would already keep the dot exact).
  EXPECT_FALSE(dec.MatchVector(P("001", data.schema())).Any());
  EXPECT_EQ(dec.index(2, 1).Count(), 1u);  // only 011 remains with A3=1

  // Reviving the combination through the mixed build re-sets its bits.
  AggregatedData regrown = shrunk;
  regrown.AppendRow(std::vector<Value>{0, 0, 1});
  regrown.AppendRow(std::vector<Value>{1, 1, 1});  // and a new combination
  const std::vector<std::size_t> revived = {1};
  const BitmapCoverage rev(regrown, dec, {}, revived);
  EXPECT_EQ(rev.Coverage(P("001", data.schema()), dctx), 1u);
  EXPECT_EQ(rev.Coverage(P("111", data.schema()), dctx), 1u);
  EXPECT_EQ(rev.Coverage(Pattern::Root(3), dctx), 5u);
  EXPECT_EQ(rev.index(2, 1).Count(), 3u);  // 001 back, 011, 111
}

}  // namespace
}  // namespace coverage
