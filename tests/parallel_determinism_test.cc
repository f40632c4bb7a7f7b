// The contract of MupSearchOptions::num_threads: for any worker count, the
// parallel PATTERN-BREAKER and DEEPDIVER return *exactly* the serial MUP set
// (same patterns, same order). Exercised on the COMPAS workload and on
// adversarial data whose MUPs sit at many different levels, plus the
// thread-safety contract of a shared BitmapCoverage and every parallel path
// finishing on its caller when the shared executor is saturated.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <string>
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

/// Holds every helper of the shared executor inside one job, blocked on a
/// latch, for the object's lifetime: while it lives, every other Run finds no
/// idle helper and runs on its caller alone.
class HoldAllHelpers {
 public:
  HoldAllHelpers()
      : holder_([this] {
          Executor::Shared().Run(Executor::Shared().num_helpers() + 1,
                                 [this](int) {
                                   held_.fetch_add(1);
                                   release_.wait();
                                 });
        }) {}
  ~HoldAllHelpers() {
    release_.count_down();
    holder_.join();
  }

  /// True once the holder and every helper are inside the job.
  bool AllHeld() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const int want = Executor::Shared().num_helpers() + 1;
    while (held_.load() < want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return held_.load() == want;
  }

 private:
  std::latch release_{1};
  std::atomic<int> held_{0};
  std::thread holder_;
};

/// A saturated executor must not stall a parallel request: with every helper
/// held, 4-worker DEEPDIVER (its exchange counts the workers that actually
/// joined), PATTERN-BREAKER, PATTERN-COMBINER, a QueryBatch and a 4-thread
/// session append through the parallel recheck each finish on the caller
/// alone, with the 1-worker answer.
TEST(SaturatedExecutor, EveryParallelPathFinishesOnItsCaller) {
  using DominanceMode = MupSearchOptions::DominanceMode;
  const Dataset compas = datagen::MakeCompas().data;
  const AggregatedData agg(compas);
  const BitmapCoverage oracle(agg);
  const Dataset small = datagen::MakeCompas(2000, 3).data;
  const AggregatedData small_agg(small);
  const BitmapCoverage small_oracle(small_agg);
  MupSearchOptions serial;
  serial.tau = 10;

  // 1-worker references, taken before the helpers are held.
  std::vector<std::string> diver_serial;
  for (const auto mode : {DominanceMode::kBitmapIndex,
                          DominanceMode::kLinearScan,
                          DominanceMode::kNoPruning}) {
    MupSearchOptions options = serial;
    options.dominance_mode = mode;
    diver_serial.push_back(Render(FindMupsDeepDiver(oracle, options)));
  }
  MupSearchStats breaker_stats_serial;
  const std::string breaker_serial =
      Render(FindMupsPatternBreaker(oracle, serial, &breaker_stats_serial));
  const auto combiner_serial = FindMupsPatternCombiner(small_oracle, serial);
  ASSERT_TRUE(combiner_serial.ok());

  ServiceOptions one_worker;
  auto service_serial = CoverageService::FromDataset(compas, one_worker);
  ASSERT_TRUE(service_serial.ok());
  ServiceOptions four_workers;
  four_workers.num_threads = 4;
  auto service = CoverageService::FromDataset(compas, four_workers);
  ASSERT_TRUE(service.ok());
  QueryBatchRequest batch;
  PatternGraph graph(compas.schema());
  const auto patterns = graph.EnumerateAll(1u << 12);
  ASSERT_TRUE(patterns.ok());
  for (const Pattern& p : *patterns) {
    batch.queries.push_back(QueryRequest{p, p.level() % 2 == 0 ? 0u : 10u});
  }
  const auto batch_serial = service_serial->QueryBatch(batch);
  ASSERT_TRUE(batch_serial.ok());

  // The diagonal leaves hundreds of MUPs after the first append, so the
  // second append's old-MUP recheck (>= 128) takes the parallel path.
  const Dataset diagonal = datagen::MakeDiagonal(12);
  Dataset more(diagonal.schema());
  for (std::size_t r = 0; r < diagonal.num_rows(); r += 7) {
    more.AppendRow(diagonal.row(r));
  }
  CoverageService::SessionOptions session_options;
  session_options.tau = 7;
  auto session_serial =
      CoverageService::OpenSession(diagonal.schema(), session_options);
  ASSERT_TRUE(session_serial.ok());
  ASSERT_TRUE(session_serial->Append(diagonal).ok());
  ASSERT_GE(session_serial->Audit().mups.size(), 128u);
  ASSERT_TRUE(session_serial->Append(more).ok());
  session_options.num_threads = 4;
  auto session =
      CoverageService::OpenSession(diagonal.schema(), session_options);
  ASSERT_TRUE(session.ok());

  const HoldAllHelpers hold;
  ASSERT_TRUE(hold.AllHeld());
  const int helpers = Executor::Shared().num_helpers();
  ASSERT_EQ(Executor::Shared().busy(), helpers);

  MupSearchOptions parallel = serial;
  parallel.num_threads = 4;
  std::size_t m = 0;
  for (const auto mode : {DominanceMode::kBitmapIndex,
                          DominanceMode::kLinearScan,
                          DominanceMode::kNoPruning}) {
    MupSearchOptions options = parallel;
    options.dominance_mode = mode;
    EXPECT_EQ(Render(FindMupsDeepDiver(oracle, options)), diver_serial[m++])
        << "mode=" << static_cast<int>(mode);
  }
  MupSearchStats breaker_stats;
  EXPECT_EQ(Render(FindMupsPatternBreaker(oracle, parallel, &breaker_stats)),
            breaker_serial);
  EXPECT_EQ(breaker_stats.coverage_queries,
            breaker_stats_serial.coverage_queries);
  const auto combiner = FindMupsPatternCombiner(small_oracle, parallel);
  ASSERT_TRUE(combiner.ok());
  EXPECT_EQ(Render(*combiner), Render(*combiner_serial));

  const auto answered = service->QueryBatch(batch);
  ASSERT_TRUE(answered.ok());
  ASSERT_EQ(answered->results.size(), batch_serial->results.size());
  for (std::size_t i = 0; i < answered->results.size(); ++i) {
    EXPECT_EQ(answered->results[i].coverage, batch_serial->results[i].coverage);
    EXPECT_EQ(answered->results[i].covered, batch_serial->results[i].covered);
  }

  ASSERT_TRUE(session->Append(diagonal).ok());
  const auto rechecked = session->Append(more);
  ASSERT_TRUE(rechecked.ok());
  EXPECT_GE(rechecked->mups_rechecked, 128u);
  EXPECT_EQ(Render(session->Audit().mups), Render(session_serial->Audit().mups));

  // Nothing ran on a helper: they were all held the whole time.
  EXPECT_EQ(Executor::Shared().busy(), helpers);
}

}  // namespace
}  // namespace coverage
