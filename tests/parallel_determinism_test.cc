// The contract of MupSearchOptions::num_threads: for any worker count, the
// parallel PATTERN-BREAKER and DEEPDIVER return *exactly* the serial MUP set
// (same patterns, same order). Exercised on the COMPAS workload and on
// adversarial data whose MUPs sit at many different levels, plus the
// thread-safety contract of a shared BitmapCoverage.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "coverage_lib.h"

namespace coverage {
namespace {

std::string Render(const std::vector<Pattern>& mups) {
  std::string out;
  for (const Pattern& p : mups) {
    out += p.ToString();
    out += '\n';
  }
  return out;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminismTest, PatternBreakerMatchesSerialOnCompas) {
  const Dataset data = datagen::MakeCompas().data;
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 10;
  const auto serial = FindMupsPatternBreaker(oracle, options);
  ASSERT_FALSE(serial.empty());

  options.num_threads = GetParam();
  MupSearchStats stats;
  const auto parallel = FindMupsPatternBreaker(oracle, options, &stats);
  EXPECT_EQ(Render(parallel), Render(serial));
  EXPECT_EQ(stats.num_mups, serial.size());
  // The parallel frontier evaluation issues exactly the serial queries.
  MupSearchStats serial_stats;
  options.num_threads = 1;
  FindMupsPatternBreaker(oracle, options, &serial_stats);
  EXPECT_EQ(stats.coverage_queries, serial_stats.coverage_queries);
  EXPECT_EQ(stats.nodes_generated, serial_stats.nodes_generated);
}

TEST_P(ParallelDeterminismTest, DeepDiverMatchesSerialOnCompas) {
  const Dataset data = datagen::MakeCompas().data;
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 10;
  const auto serial = FindMupsDeepDiver(oracle, options);
  ASSERT_FALSE(serial.empty());

  options.num_threads = GetParam();
  const auto parallel = FindMupsDeepDiver(oracle, options);
  EXPECT_EQ(Render(parallel), Render(serial));
  EXPECT_TRUE(ValidateMupSet(parallel, oracle, options.tau).ok());
}

TEST_P(ParallelDeterminismTest, BothAlgorithmsMatchOnDiagonalData) {
  // MakeDiagonal spreads MUPs across levels; run every dominance mode so
  // DEEPDIVER's per-worker index replicas are exercised through all three
  // strategies.
  const Dataset data = datagen::MakeDiagonal(8);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  for (const auto mode : {MupSearchOptions::DominanceMode::kBitmapIndex,
                          MupSearchOptions::DominanceMode::kLinearScan,
                          MupSearchOptions::DominanceMode::kNoPruning}) {
    MupSearchOptions options;
    options.tau = 1;
    options.dominance_mode = mode;
    const auto serial_diver = FindMupsDeepDiver(oracle, options);
    const auto serial_breaker = FindMupsPatternBreaker(oracle, options);
    EXPECT_EQ(Render(serial_diver), Render(serial_breaker));

    options.num_threads = GetParam();
    EXPECT_EQ(Render(FindMupsDeepDiver(oracle, options)),
              Render(serial_diver));
    EXPECT_EQ(Render(FindMupsPatternBreaker(oracle, options)),
              Render(serial_breaker));
  }
}

TEST_P(ParallelDeterminismTest, PatternCombinerMatchesSerialOnCompas) {
  // The sharded level-d pass: identical uncovered-combination map contents
  // for any worker count, so the MUP set and every stat are bit-identical.
  const Dataset data = datagen::MakeCompas(2000, 3).data;
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 10;
  MupSearchStats serial_stats;
  const auto serial = FindMupsPatternCombiner(oracle, options, &serial_stats);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->empty());

  options.num_threads = GetParam();
  MupSearchStats stats;
  const auto parallel = FindMupsPatternCombiner(oracle, options, &stats);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Render(*parallel), Render(*serial));
  EXPECT_EQ(stats.coverage_queries, serial_stats.coverage_queries);
  EXPECT_EQ(stats.nodes_generated, serial_stats.nodes_generated);
  EXPECT_EQ(stats.num_mups, serial_stats.num_mups);
}

TEST_P(ParallelDeterminismTest, PatternCombinerMatchesSerialOnRandomSchemas) {
  // Property sweep: mixed cardinalities (block sharding cuts across several
  // attribute prefixes) and a tau high enough to leave many uncovered
  // combinations. Parallel output must equal DEEPDIVER's too.
  for (std::uint64_t seed : {3u, 7u, 11u}) {
    Rng rng(seed);
    const Schema schema = Schema::Uniform({3, 2, 4, 2, 3});
    Dataset data(schema);
    std::vector<Value> row(5);
    for (int i = 0; i < 400; ++i) {
      for (int a = 0; a < 5; ++a) {
        row[static_cast<std::size_t>(a)] = static_cast<Value>(std::min(
            rng.NextUint64(static_cast<std::uint64_t>(schema.cardinality(a))),
            rng.NextUint64(
                static_cast<std::uint64_t>(schema.cardinality(a)))));
      }
      data.AppendRow(row);
    }
    const AggregatedData agg(data);
    const BitmapCoverage oracle(agg);
    MupSearchOptions options;
    options.tau = 5;
    const auto serial = FindMupsPatternCombiner(oracle, options);
    ASSERT_TRUE(serial.ok());

    options.num_threads = GetParam();
    const auto parallel = FindMupsPatternCombiner(oracle, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(Render(*parallel), Render(*serial)) << "seed=" << seed;
    options.num_threads = 1;
    EXPECT_EQ(Render(*parallel), Render(FindMupsDeepDiver(oracle, options)))
        << "seed=" << seed;
  }
}

TEST_P(ParallelDeterminismTest, LevelLimitedSearchMatchesSerial) {
  const Dataset data = datagen::MakeAirbnb(20000, 10);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 40;
  options.max_level = 4;
  const auto serial = FindMupsDeepDiver(oracle, options);

  options.num_threads = GetParam();
  EXPECT_EQ(Render(FindMupsDeepDiver(oracle, options)), Render(serial));
  EXPECT_EQ(Render(FindMupsPatternBreaker(oracle, options)), Render(serial));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelDeterminismTest,
                         ::testing::Values(1, 2, 8));

// Edge cases of DEEPDIVER's idle/publish protocol: searches with almost no
// work to share (termination with idle workers), more workers than the root
// has children, and level caps that stop the dive at the root or its
// children. Every worker count and dominance mode must return the 1-worker
// set, sorted and free of duplicates (two workers may climb to the same MUP
// before either sees the other's publication).
class DiveExchangeEdgeCases : public ::testing::TestWithParam<int> {
 protected:
  static Dataset FromRows(const Schema& schema,
                          const std::vector<std::vector<Value>>& rows) {
    Dataset data(schema);
    for (const auto& row : rows) data.AppendRow(row);
    return data;
  }

  /// Runs DEEPDIVER with 1 and GetParam() workers under every dominance
  /// mode and returns the 1-worker set.
  std::vector<Pattern> ExpectMatchesSerial(const Dataset& data,
                                           std::uint64_t tau,
                                           int max_level = -1) {
    const AggregatedData agg(data);
    const BitmapCoverage oracle(agg);
    std::vector<Pattern> serial_bitmap;
    for (const auto mode : {MupSearchOptions::DominanceMode::kBitmapIndex,
                            MupSearchOptions::DominanceMode::kLinearScan,
                            MupSearchOptions::DominanceMode::kNoPruning}) {
      MupSearchOptions options;
      options.tau = tau;
      options.max_level = max_level;
      options.dominance_mode = mode;
      const auto serial = FindMupsDeepDiver(oracle, options);
      options.num_threads = GetParam();
      MupSearchStats stats;
      const auto parallel = FindMupsDeepDiver(oracle, options, &stats);
      for (std::size_t i = 1; i < parallel.size(); ++i) {
        EXPECT_TRUE(parallel[i - 1] < parallel[i])
            << "unsorted or duplicated at " << parallel[i].ToString();
      }
      EXPECT_EQ(Render(parallel), Render(serial));
      EXPECT_EQ(stats.num_mups, serial.size());
      if (mode == MupSearchOptions::DominanceMode::kBitmapIndex) {
        serial_bitmap = serial;
      } else {
        EXPECT_EQ(Render(serial), Render(serial_bitmap));
      }
    }
    return serial_bitmap;
  }
};

TEST_P(DiveExchangeEdgeCases, RootIsTheOnlyMup) {
  const Dataset data =
      FromRows(Schema::Binary(3), {{0, 0, 0}, {1, 1, 0}, {0, 1, 1}});
  const auto mups = ExpectMatchesSerial(data, /*tau=*/4);
  ASSERT_EQ(mups.size(), 1u);
  EXPECT_EQ(mups[0].level(), 0);
}

TEST_P(DiveExchangeEdgeCases, NoMups) {
  std::vector<std::vector<Value>> rows;
  for (Value a = 0; a < 2; ++a) {
    for (Value b = 0; b < 2; ++b) {
      for (Value c = 0; c < 2; ++c) rows.push_back({a, b, c});
    }
  }
  EXPECT_TRUE(ExpectMatchesSerial(FromRows(Schema::Binary(3), rows), 1)
                  .empty());
}

TEST_P(DiveExchangeEdgeCases, MaxLevelZeroAndOne) {
  const Dataset data = datagen::MakeAirbnb(3000, 8);
  // Level 0 with a covered root: no MUP at or above level 0.
  EXPECT_TRUE(ExpectMatchesSerial(data, 40, /*max_level=*/0).empty());
  // Level 0 with an uncovered root: the root itself.
  EXPECT_EQ(ExpectMatchesSerial(data, 3001, /*max_level=*/0).size(), 1u);
  // Level 1: exactly the uncovered single-attribute values.
  const auto level1 = ExpectMatchesSerial(data, 400, /*max_level=*/1);
  ASSERT_FALSE(level1.empty());
  for (const Pattern& p : level1) EXPECT_EQ(p.level(), 1);
}

TEST_P(DiveExchangeEdgeCases, MoreWorkersThanRootFanOut) {
  // Two binary attributes: the root has four children, so at 8 workers
  // most of them never receive a node and must still terminate.
  const Dataset data =
      FromRows(Schema::Binary(2), {{0, 0}, {0, 0}, {0, 1}, {1, 0}, {0, 0}});
  const auto mups = ExpectMatchesSerial(data, /*tau=*/2);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  EXPECT_EQ(Render(mups), Render(FindMupsPatternBreaker(
                              oracle, MupSearchOptions{.tau = 2})));
  EXPECT_EQ(mups.size(), 2u);  // 1X and X1
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DiveExchangeEdgeCases,
                         ::testing::Values(2, 4, 8));

TEST(SharedOracle, ConcurrentQueriesOneInstance) {
  // The thread-safety contract of the redesigned oracle: many threads, one
  // BitmapCoverage, one QueryContext per thread. Under TSan this is the
  // canary for any shared mutable query state.
  const Dataset data = datagen::MakeAirbnb(20000, 8);
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const ScanCoverage reference(data);

  PatternGraph graph(data.schema());
  const auto all = graph.EnumerateAll(1u << 20);
  ASSERT_TRUE(all.ok());

  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      QueryContext scan_ctx;
      for (std::size_t i = static_cast<std::size_t>(t); i < all->size();
           i += 8) {
        const Pattern& p = (*all)[i];
        if (oracle.Coverage(p, ctx) != reference.Coverage(p, scan_ctx)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (oracle.CoverageAtLeast(p, 25, ctx) !=
            (reference.Coverage(p, scan_ctx) >= 25)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
}

}  // namespace
}  // namespace coverage
