#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "dataset/aggregate.h"
#include "dataset/bucketize.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"

namespace coverage {
namespace {

// ---------------------------------------------------------------- Schema --

TEST(Schema, UniformBuildsNamedAttributes) {
  const Schema schema = Schema::Uniform({2, 3, 4});
  EXPECT_EQ(schema.num_attributes(), 3);
  EXPECT_EQ(schema.attribute(0).name, "A1");
  EXPECT_EQ(schema.attribute(2).name, "A3");
  EXPECT_EQ(schema.cardinality(1), 3);
  EXPECT_EQ(schema.cardinalities(), (std::vector<int>{2, 3, 4}));
}

TEST(Schema, BinaryShorthand) {
  const Schema schema = Schema::Binary(5);
  EXPECT_EQ(schema.num_attributes(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(schema.cardinality(i), 2);
}

TEST(Schema, NumValueCombinations) {
  EXPECT_EQ(Schema::Uniform({2, 3, 4}).NumValueCombinations(), 24u);
  EXPECT_EQ(Schema::Binary(10).NumValueCombinations(), 1024u);
}

TEST(Schema, NumPatternsIsProductOfCardinalityPlusOne) {
  // The pattern graph for three binary attributes has 27 nodes (§III-B).
  EXPECT_EQ(Schema::Binary(3).NumPatterns(), 27u);
  EXPECT_EQ(Schema::Uniform({2, 3}).NumPatterns(), 12u);
}

TEST(Schema, CombinationCountSaturates) {
  const Schema schema = Schema::Uniform(std::vector<int>(80, 3));
  EXPECT_EQ(schema.NumValueCombinations(), Schema::kCombinationLimit);
  EXPECT_EQ(schema.NumPatterns(), Schema::kCombinationLimit);
}

TEST(Schema, AttributeAndValueLookup) {
  Schema schema = Schema::Uniform({2, 2});
  auto idx = schema.AttributeIndex("A2");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1);
  EXPECT_FALSE(schema.AttributeIndex("missing").ok());
  auto v = schema.ValueIndex(0, "1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(schema.ValueIndex(0, "nope").ok());
}

TEST(Schema, ProjectReordersAttributes) {
  const Schema schema = Schema::Uniform({2, 3, 4});
  const Schema projected = schema.Project({2, 0});
  EXPECT_EQ(projected.num_attributes(), 2);
  EXPECT_EQ(projected.attribute(0).name, "A3");
  EXPECT_EQ(projected.cardinality(0), 4);
  EXPECT_EQ(projected.attribute(1).name, "A1");
}

TEST(Schema, EqualityComparesNamesAndValues) {
  EXPECT_EQ(Schema::Binary(3), Schema::Binary(3));
  EXPECT_FALSE(Schema::Binary(3) == Schema::Binary(4));
  EXPECT_FALSE(Schema::Binary(2) == Schema::Uniform({2, 3}));
}

// --------------------------------------------------------------- Dataset --

Dataset MakeExample1() {
  // Example 1 of the paper: binary A1..A3 with tuples
  // 010, 001, 000, 011, 001.
  Dataset data(Schema::Binary(3));
  data.AppendRow(std::vector<Value>{0, 1, 0});
  data.AppendRow(std::vector<Value>{0, 0, 1});
  data.AppendRow(std::vector<Value>{0, 0, 0});
  data.AppendRow(std::vector<Value>{0, 1, 1});
  data.AppendRow(std::vector<Value>{0, 0, 1});
  return data;
}

TEST(Dataset, AppendAndAccess) {
  const Dataset data = MakeExample1();
  EXPECT_EQ(data.num_rows(), 5u);
  EXPECT_EQ(data.num_attributes(), 3);
  EXPECT_EQ(data.at(0, 1), 1);
  EXPECT_EQ(data.at(2, 2), 0);
  const auto row = data.row(3);
  EXPECT_EQ(row[2], 1);
}

TEST(Dataset, ProjectKeepsValues) {
  const Dataset data = MakeExample1();
  const Dataset projected = data.Project({2, 1});
  EXPECT_EQ(projected.num_rows(), 5u);
  EXPECT_EQ(projected.num_attributes(), 2);
  EXPECT_EQ(projected.at(0, 0), 0);  // was A3 of row 0
  EXPECT_EQ(projected.at(0, 1), 1);  // was A2 of row 0
}

TEST(Dataset, HeadTakesPrefix) {
  const Dataset data = MakeExample1();
  const Dataset head = data.Head(2);
  EXPECT_EQ(head.num_rows(), 2u);
  EXPECT_EQ(head.at(1, 2), 1);
}

TEST(Dataset, SampleWithoutReplacement) {
  const Dataset data = MakeExample1();
  Rng rng(1);
  const Dataset sample = data.Sample(3, rng);
  EXPECT_EQ(sample.num_rows(), 3u);
  EXPECT_EQ(sample.num_attributes(), 3);
}

TEST(Dataset, CsvRoundTrip) {
  const Dataset data = MakeExample1();
  std::stringstream ss;
  ASSERT_TRUE(data.WriteCsv(ss).ok());
  auto parsed = Dataset::ReadCsv(ss, data.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    for (int c = 0; c < data.num_attributes(); ++c) {
      EXPECT_EQ(parsed->at(r, c), data.at(r, c));
    }
  }
}

TEST(Dataset, CsvUsesValueLabels) {
  Schema schema({Attribute{"color", {"red", "green"}}});
  Dataset data(schema);
  data.AppendRow(std::vector<Value>{1});
  std::stringstream ss;
  ASSERT_TRUE(data.WriteCsv(ss).ok());
  EXPECT_EQ(ss.str(), "color\ngreen\n");
}

TEST(Dataset, CsvRejectsMissingHeader) {
  std::stringstream ss("");
  EXPECT_FALSE(Dataset::ReadCsv(ss, Schema::Binary(2)).ok());
}

TEST(Dataset, CsvRejectsWrongColumnCount) {
  std::stringstream ss("A1,A2\n0\n");
  const auto result = Dataset::ReadCsv(ss, Schema::Binary(2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Dataset, CsvRejectsUnknownLabel) {
  std::stringstream ss("A1,A2\n0,7\n");
  EXPECT_FALSE(Dataset::ReadCsv(ss, Schema::Binary(2)).ok());
}

TEST(Dataset, CsvRejectsMismatchedHeader) {
  std::stringstream ss("A1,B2\n0,1\n");
  EXPECT_FALSE(Dataset::ReadCsv(ss, Schema::Binary(2)).ok());
}

TEST(Dataset, CsvSkipsBlankLines) {
  std::stringstream ss("A1,A2\n0,1\n\n1,0\n");
  const auto result = Dataset::ReadCsv(ss, Schema::Binary(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

// -------------------------------------------------------- AggregatedData --

TEST(AggregatedData, GroupsDuplicates) {
  const Dataset data = MakeExample1();
  const AggregatedData agg(data);
  EXPECT_EQ(agg.num_combinations(), 4u);  // 001 appears twice
  EXPECT_EQ(agg.total_count(), 5u);
  EXPECT_EQ(agg.CountOf(std::vector<Value>{0, 0, 1}), 2u);
  EXPECT_EQ(agg.CountOf(std::vector<Value>{0, 1, 0}), 1u);
  EXPECT_EQ(agg.CountOf(std::vector<Value>{1, 1, 1}), 0u);
}

TEST(AggregatedData, EmptyDataset) {
  const Dataset data(Schema::Binary(3));
  const AggregatedData agg(data);
  EXPECT_EQ(agg.num_combinations(), 0u);
  EXPECT_EQ(agg.total_count(), 0u);
  EXPECT_EQ(agg.CountOf(std::vector<Value>{0, 0, 0}), 0u);
}

TEST(AggregatedData, CountsSumToRows) {
  Rng rng(9);
  Dataset data(Schema::Uniform({3, 2, 4}));
  std::vector<Value> row(3);
  for (int i = 0; i < 500; ++i) {
    row[0] = static_cast<Value>(rng.NextUint64(3));
    row[1] = static_cast<Value>(rng.NextUint64(2));
    row[2] = static_cast<Value>(rng.NextUint64(4));
    data.AppendRow(row);
  }
  const AggregatedData agg(data);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < agg.num_combinations(); ++k) {
    total += agg.count(k);
    EXPECT_EQ(agg.CountOf(agg.combination(k)), agg.count(k));
  }
  EXPECT_EQ(total, 500u);
  EXPECT_LE(agg.num_combinations(), 24u);
}

TEST(AggregatedData, DecrementTombstonesAndRevivesInPlace) {
  const Schema schema = Schema::Binary(2);
  AggregatedData agg(schema);
  agg.AppendRow(std::vector<Value>{0, 0});
  agg.AppendRow(std::vector<Value>{0, 1});
  agg.AppendRow(std::vector<Value>{0, 0});
  ASSERT_EQ(agg.num_combinations(), 2u);
  ASSERT_EQ(agg.total_count(), 3u);
  EXPECT_EQ(agg.num_tombstones(), 0u);

  EXPECT_TRUE(agg.DecrementRow(std::vector<Value>{0, 0}));
  EXPECT_EQ(agg.CountOf(std::vector<Value>{0, 0}), 1u);
  EXPECT_EQ(agg.total_count(), 2u);
  EXPECT_EQ(agg.num_tombstones(), 0u);

  // A count reaching 0 tombstones the combination: the id and the slot
  // survive, so the table width never shrinks.
  EXPECT_TRUE(agg.DecrementRow(std::vector<Value>{0, 0}));
  EXPECT_EQ(agg.num_tombstones(), 1u);
  EXPECT_EQ(agg.num_combinations(), 2u);
  EXPECT_EQ(agg.CountOf(std::vector<Value>{0, 0}), 0u);
  EXPECT_EQ(agg.count(0), 0u);

  // Decrementing an absent or zero-count combination is a rejected no-op.
  EXPECT_FALSE(agg.DecrementRow(std::vector<Value>{0, 0}));
  EXPECT_FALSE(agg.DecrementRow(std::vector<Value>{1, 1}));
  EXPECT_EQ(agg.total_count(), 1u);

  // Re-appending the combination revives id 0 in place: prefix stability
  // holds through any append/retract interleaving.
  agg.AppendRow(std::vector<Value>{0, 0});
  EXPECT_EQ(agg.num_tombstones(), 0u);
  EXPECT_EQ(agg.num_combinations(), 2u);
  EXPECT_EQ(agg.count(0), 1u);
  agg.AppendRow(std::vector<Value>{1, 0});  // new combos still go to the end
  EXPECT_EQ(agg.num_combinations(), 3u);
  EXPECT_EQ(agg.CountOf(std::vector<Value>{1, 0}), 1u);
}

TEST(AggregatedData, CombinationSpacePast64BitsKeepsRowsDistinct) {
  // 130 binary attributes: Π c_i = 2^130 has no exact 64-bit code. Rows
  // that differ only in their leading attributes — whose mixed-radix digits
  // a 64-bit key would shift out — must stay distinct combinations.
  const Schema schema = Schema::Binary(130);
  std::vector<Value> zeros(130, 0);
  std::vector<Value> lead = zeros;
  lead[0] = 1;
  std::vector<Value> second = zeros;
  second[1] = 1;
  AggregatedData agg(schema);
  agg.AppendRow(zeros);
  agg.AppendRow(lead);
  agg.AppendRow(second);
  agg.AppendRow(lead);
  ASSERT_EQ(agg.num_combinations(), 3u);
  EXPECT_EQ(agg.CountOf(zeros), 1u);
  EXPECT_EQ(agg.CountOf(lead), 2u);
  EXPECT_EQ(agg.CountOf(second), 1u);
  EXPECT_EQ(agg.IdOf(second), 2u);

  EXPECT_TRUE(agg.DecrementRow(zeros));
  EXPECT_FALSE(agg.DecrementRow(zeros));
  EXPECT_EQ(agg.CountOf(lead), 2u);

  // Restore rebuilds the same index and still rejects true duplicates.
  std::vector<Value> cells;
  for (std::size_t k = 0; k < agg.num_combinations(); ++k) {
    cells.insert(cells.end(), agg.combination(k).begin(),
                 agg.combination(k).end());
  }
  auto restored = AggregatedData::Restore(schema, cells, agg.counts());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->CountOf(lead), 2u);
  EXPECT_EQ(restored->IdOf(second), 2u);
  cells.insert(cells.end(), lead.begin(), lead.end());
  std::vector<std::uint64_t> counts = agg.counts();
  counts.push_back(1);
  EXPECT_FALSE(AggregatedData::Restore(schema, cells, counts).ok());
}

// ------------------------------------------------------------ Bucketizer --

TEST(Bucketizer, EquiWidthBounds) {
  const Bucketizer b = Bucketizer::EquiWidth("age", 0.0, 100.0, 4);
  EXPECT_EQ(b.num_buckets(), 4);
  EXPECT_EQ(b.Bucket(-5.0), 0);
  EXPECT_EQ(b.Bucket(10.0), 0);
  EXPECT_EQ(b.Bucket(30.0), 1);
  EXPECT_EQ(b.Bucket(60.0), 2);
  EXPECT_EQ(b.Bucket(99.0), 3);
  EXPECT_EQ(b.Bucket(1000.0), 3);
}

TEST(Bucketizer, BoundaryGoesToLowerBucket) {
  const Bucketizer b("x", {10.0, 20.0});
  EXPECT_EQ(b.Bucket(10.0), 0);  // x <= 10 -> bucket 0
  EXPECT_EQ(b.Bucket(10.5), 1);
  EXPECT_EQ(b.Bucket(20.0), 1);
  EXPECT_EQ(b.Bucket(20.1), 2);
}

TEST(Bucketizer, EquiDepthBalances) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(static_cast<double>(i));
  auto b = Bucketizer::EquiDepth("x", values, 4);
  ASSERT_TRUE(b.ok());
  std::vector<int> counts(static_cast<std::size_t>(b->num_buckets()), 0);
  for (double v : values) ++counts[static_cast<std::size_t>(b->Bucket(v))];
  for (int c : counts) EXPECT_NEAR(c, 25, 2);
}

TEST(Bucketizer, EquiDepthRejectsEmpty) {
  EXPECT_FALSE(Bucketizer::EquiDepth("x", {}, 3).ok());
  EXPECT_FALSE(Bucketizer::EquiDepth("x", {1.0}, 0).ok());
}

TEST(Bucketizer, EquiDepthCollapsesDuplicateBounds) {
  // All-equal values cannot support multiple buckets.
  auto b = Bucketizer::EquiDepth("x", std::vector<double>(50, 3.0), 4);
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->num_buckets(), 2);
}

TEST(Bucketizer, ToAttributeLabels) {
  const Bucketizer b("income", {1000.0, 5000.0});
  const Attribute attr = b.ToAttribute();
  EXPECT_EQ(attr.name, "income");
  ASSERT_EQ(attr.cardinality(), 3);
  EXPECT_EQ(attr.value_names[0], "<=1000");
  EXPECT_EQ(attr.value_names[1], "(1000,5000]");
  EXPECT_EQ(attr.value_names[2], ">5000");
}

TEST(Bucketizer, BucketizedColumnFeedsSchema) {
  // End-to-end §II preprocessing: continuous ages -> categorical attribute.
  const Bucketizer b = Bucketizer::EquiWidth("age", 0.0, 80.0, 4);
  Schema schema({b.ToAttribute()});
  Dataset data(schema);
  for (double age : {5.0, 25.0, 45.0, 70.0, 79.0}) {
    data.AppendRow(std::vector<Value>{b.Bucket(age)});
  }
  EXPECT_EQ(data.num_rows(), 5u);
  const AggregatedData agg(data);
  EXPECT_EQ(agg.CountOf(std::vector<Value>{3}), 2u);
}

}  // namespace
}  // namespace coverage
