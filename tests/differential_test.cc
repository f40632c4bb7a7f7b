// Differential proof of the MUP searches and the streaming engine against
// oracles that share no code with them: for every algorithm, every
// dominance mode, and serial + parallel execution, the MUP set must equal
// NAIVE's — the §III-A pattern-graph enumeration with a pairwise maximality
// filter — computed over ScanCoverage, which answers each query by scanning
// the raw rows (no bitmap index, no packed keys). The engine is held to the
// same reference after every append and retraction epoch. Parallel runs
// must also reproduce the serial run's query counts wherever the schedule
// cannot change them, and the packed-encoded audit response must be
// byte-identical to the materialized one.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "coverage/scan_coverage.h"
#include "engine/coverage_engine.h"
#include "mups/mups.h"
#include "persist/durable_engine.h"
#include "persist/fault_fs.h"
#include "persist/snapshot.h"
#include "server/json.h"
#include "server/wire.h"
#include "service/coverage_service.h"

namespace coverage {
namespace {
using DominanceMode = MupSearchOptions::DominanceMode;

struct DiffCase {
  std::vector<int> cardinalities;
  std::size_t num_rows;
  std::uint64_t tau;
  std::uint64_t seed;
  double skew;
  DominanceMode mode;
  int num_threads;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  std::string name = "c";
  for (int c : info.param.cardinalities) name += std::to_string(c);
  name += "_n" + std::to_string(info.param.num_rows);
  name += "_tau" + std::to_string(info.param.tau);
  name += "_s" + std::to_string(info.param.seed);
  switch (info.param.mode) {
    case DominanceMode::kBitmapIndex: name += "_bitmap"; break;
    case DominanceMode::kLinearScan: name += "_linear"; break;
    case DominanceMode::kNoPruning: name += "_none"; break;
  }
  name += "_t" + std::to_string(info.param.num_threads);
  return name;
}

Dataset GenerateSkewed(const std::vector<int>& cardinalities,
                       std::size_t num_rows, std::uint64_t seed, double skew) {
  const Schema schema = Schema::Uniform(cardinalities);
  Rng rng(seed);
  Dataset data(schema);
  std::vector<Value> row(cardinalities.size());
  for (std::size_t r = 0; r < num_rows; ++r) {
    for (std::size_t a = 0; a < cardinalities.size(); ++a) {
      const auto card = static_cast<std::uint64_t>(cardinalities[a]);
      std::uint64_t v = rng.NextUint64(card);
      if (rng.NextBool(skew)) v = std::min(v, rng.NextUint64(card));
      row[a] = static_cast<Value>(v);
    }
    data.AppendRow(row);
  }
  return data;
}

/// NAIVE over the scanning oracle: the reference MUP set of `data`.
std::vector<Pattern> Reference(const Dataset& data, std::uint64_t tau,
                               int max_level = -1) {
  const ScanCoverage scan(data);
  MupSearchOptions options{.tau = tau, .max_level = max_level};
  auto mups = FindMupsNaive(scan, data.schema(), options);
  EXPECT_TRUE(mups.ok()) << mups.status().ToString();
  return mups.ok() ? *mups : std::vector<Pattern>{};
}

class NaiveScanDifferential : public ::testing::TestWithParam<DiffCase> {
 protected:
  void SetUp() override {
    const DiffCase& c = GetParam();
    data_ = GenerateSkewed(c.cardinalities, c.num_rows, c.seed, c.skew);
    reference_ = Reference(data_, c.tau);
  }

  MupSearchOptions Options(int num_threads) const {
    MupSearchOptions options{.tau = GetParam().tau};
    options.dominance_mode = GetParam().mode;
    options.num_threads = num_threads;
    return options;
  }

  Dataset data_{Schema()};
  std::vector<Pattern> reference_;
};

TEST_P(NaiveScanDifferential, EveryAlgorithmMatchesNaiveScan) {
  const DiffCase& c = GetParam();
  const AggregatedData agg(data_);
  const BitmapCoverage oracle(agg);
  for (const MupAlgorithm algorithm :
       {MupAlgorithm::kPatternBreaker, MupAlgorithm::kDeepDiver,
        MupAlgorithm::kPatternCombiner, MupAlgorithm::kApriori}) {
    MupSearchStats stats;
    auto mups = FindMups(algorithm, oracle, Options(c.num_threads), &stats);
    ASSERT_TRUE(mups.ok()) << ToString(algorithm) << ": "
                           << mups.status().ToString();
    EXPECT_EQ(*mups, reference_) << ToString(algorithm);
    EXPECT_EQ(stats.num_mups, reference_.size()) << ToString(algorithm);
  }
}

TEST_P(NaiveScanDifferential, SearchesOverTheScanOracleAgree) {
  // The searches' packed entry points default to decoding through the
  // vector<int> path on a non-indexed oracle; same set, and — on the
  // deterministic serial paths — the same queries as over the bitmap index.
  const AggregatedData agg(data_);
  const BitmapCoverage bitmap(agg);
  const ScanCoverage scan(data_);
  const Schema& schema = data_.schema();
  MupSearchStats on_bitmap, on_scan;
  EXPECT_EQ(FindMupsPatternBreaker(scan, schema, Options(1), &on_scan),
            reference_);
  FindMupsPatternBreaker(bitmap, schema, Options(1), &on_bitmap);
  EXPECT_EQ(on_scan.coverage_queries, on_bitmap.coverage_queries);
  EXPECT_EQ(FindMupsDeepDiver(scan, schema, Options(1), &on_scan),
            reference_);
  FindMupsDeepDiver(bitmap, schema, Options(1), &on_bitmap);
  EXPECT_EQ(on_scan.coverage_queries, on_bitmap.coverage_queries);
  EXPECT_EQ(on_scan.nodes_pruned, on_bitmap.nodes_pruned);
}

TEST_P(NaiveScanDifferential, ParallelMatchesSerial) {
  // Serial configurations compare against 3 workers.
  const int workers = GetParam().num_threads > 1 ? GetParam().num_threads : 3;
  const AggregatedData agg(data_);
  const BitmapCoverage oracle(agg);
  for (const MupAlgorithm algorithm :
       {MupAlgorithm::kPatternBreaker, MupAlgorithm::kDeepDiver,
        MupAlgorithm::kPatternCombiner}) {
    MupSearchStats serial_stats, parallel_stats;
    auto serial = FindMups(algorithm, oracle, Options(1), &serial_stats);
    auto parallel =
        FindMups(algorithm, oracle, Options(workers), &parallel_stats);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*serial, *parallel) << ToString(algorithm);
    // The breaker's merge is queue-ordered and the combiner's level-d pass
    // counts every combination once, so their counts cannot depend on the
    // schedule; DEEPDIVER's work stealing makes its counts
    // schedule-dependent, so only its set is pinned.
    if (algorithm != MupAlgorithm::kDeepDiver) {
      EXPECT_EQ(serial_stats.coverage_queries,
                parallel_stats.coverage_queries)
          << ToString(algorithm);
      EXPECT_EQ(serial_stats.nodes_generated, parallel_stats.nodes_generated)
          << ToString(algorithm);
    }
  }
}

TEST_P(NaiveScanDifferential, AuditWireBytesBitIdentical) {
  // The full service path: a materialized response and a packed-only
  // (materialize_patterns = false) response must serialize to the same
  // bytes, and both must carry the reference set.
  const DiffCase& c = GetParam();
  ServiceOptions sopts;
  sopts.num_threads = c.num_threads;
  auto service = CoverageService::FromDataset(data_, sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  AuditRequest request;
  request.tau = c.tau;
  request.dominance_mode = c.mode;

  request.materialize_patterns = true;
  auto materialized = service->Audit(request);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_TRUE(materialized->packed.has_value());
  EXPECT_EQ(materialized->mups, reference_);
  EXPECT_EQ(materialized->packed->Materialize(), reference_);

  request.materialize_patterns = false;
  auto packed_only = service->Audit(request);
  ASSERT_TRUE(packed_only.ok());
  EXPECT_TRUE(packed_only->mups.empty());

  // Wall-clock is legitimately nondeterministic; with multiple worker
  // threads, the parallel DEEPDIVER's query/node counters are
  // schedule-dependent too (each worker stops counting at a different
  // point), so two independent Audit runs may differ in them. The MUP set
  // itself — the bytes this test is about — is deterministic either way.
  materialized->stats.seconds = 0.0;
  packed_only->stats.seconds = 0.0;
  if (c.num_threads > 1) {
    packed_only->stats.coverage_queries = materialized->stats.coverage_queries;
    packed_only->stats.nodes_generated = materialized->stats.nodes_generated;
    packed_only->stats.nodes_pruned = materialized->stats.nodes_pruned;
  }

  // Wire bytes from the packed encoder, both responses.
  const std::string a =
      json::Serialize(wire::ToJson(*materialized, service->schema()));
  const std::string b =
      json::Serialize(wire::ToJson(*packed_only, service->schema()));
  EXPECT_EQ(a, b);

  // And against the Pattern encoder: strip the packed form so ToJson
  // renders the materialized patterns.
  AuditResult pattern_encoded = *materialized;
  pattern_encoded.packed.reset();
  const std::string l =
      json::Serialize(wire::ToJson(pattern_encoded, service->schema()));
  EXPECT_EQ(l, a);
}

TEST_P(NaiveScanDifferential, EngineMaintenanceMatchesNaiveScan) {
  // Append + retract epochs: after each, the engine's maintained MUP set
  // equals NAIVE over the scanning oracle on exactly the surviving rows.
  const DiffCase& c = GetParam();
  EngineOptions options;
  options.tau = c.tau;
  options.dominance_mode = c.mode;
  options.num_threads = c.num_threads;
  CoverageEngine engine(data_.schema(), options);

  // Split the rows into three append batches, then retract the middle one.
  const std::size_t third = data_.num_rows() / 3;
  std::vector<Dataset> batches;
  for (int b = 0; b < 3; ++b) {
    Dataset batch(data_.schema());
    const std::size_t begin = static_cast<std::size_t>(b) * third;
    const std::size_t end = b == 2 ? data_.num_rows() : begin + third;
    for (std::size_t r = begin; r < end; ++r) batch.AppendRow(data_.row(r));
    batches.push_back(std::move(batch));
  }
  Dataset surviving(data_.schema());
  for (const Dataset& batch : batches) {
    ASSERT_TRUE(engine.AppendRows(batch).ok());
    for (std::size_t r = 0; r < batch.num_rows(); ++r) {
      surviving.AppendRow(batch.row(r));
    }
    EXPECT_EQ(engine.Mups(), Reference(surviving, c.tau));
  }
  if (batches[1].num_rows() > 0) {
    ASSERT_TRUE(engine.RetractRows(batches[1]).ok());
    Dataset kept(data_.schema());
    for (const int b : {0, 2}) {
      for (std::size_t r = 0; r < batches[b].num_rows(); ++r) {
        kept.AppendRow(batches[b].row(r));
      }
    }
    EXPECT_EQ(engine.Mups(), Reference(kept, c.tau));
  }
}

// 14 random schema / dominance / thread configurations; key-width and
// word-boundary shapes are covered by packed_pattern_test and the frozen
// wide-schema goldens of golden_mups_test.
INSTANTIATE_TEST_SUITE_P(
    Sweep, NaiveScanDifferential,
    ::testing::Values(
        DiffCase{{2, 2, 2}, 40, 3, 101, 0.4, DominanceMode::kBitmapIndex, 1},
        DiffCase{{2, 2, 2, 2}, 80, 4, 102, 0.5, DominanceMode::kLinearScan,
                 1},
        DiffCase{{2, 2, 2, 2, 2}, 150, 5, 103, 0.6,
                 DominanceMode::kNoPruning, 1},
        DiffCase{{3, 2, 4}, 90, 4, 104, 0.5, DominanceMode::kBitmapIndex, 1},
        DiffCase{{4, 3, 3, 2}, 160, 5, 105, 0.5, DominanceMode::kLinearScan,
                 1},
        DiffCase{{5, 2, 4}, 110, 6, 106, 0.6, DominanceMode::kBitmapIndex,
                 1},
        DiffCase{{1, 2, 3}, 40, 3, 107, 0.4, DominanceMode::kBitmapIndex, 1},
        DiffCase{{2, 6, 2, 3}, 140, 4, 108, 0.4, DominanceMode::kNoPruning,
                 1},
        DiffCase{{3, 3}, 3, 10, 109, 0.2, DominanceMode::kBitmapIndex, 1},
        DiffCase{{2, 3, 3}, 30, 1, 110, 0.7, DominanceMode::kLinearScan, 1},
        // Parallel configurations (2 and 4 workers).
        DiffCase{{2, 2, 2, 2}, 120, 4, 111, 0.5, DominanceMode::kBitmapIndex,
                 2},
        DiffCase{{3, 3, 3}, 90, 9, 112, 0.8, DominanceMode::kBitmapIndex, 2},
        DiffCase{{2, 2, 2, 2, 2}, 200, 6, 113, 0.4,
                 DominanceMode::kLinearScan, 4},
        DiffCase{{4, 4}, 12, 1, 114, 0.6, DominanceMode::kBitmapIndex, 4}),
    CaseName);

TEST(KeyWidth, WideSchemaRunsOnEightWordKeys) {
  // 50 binary attributes (2 key bits each) plus 160 cardinality-1
  // attributes (1 bit each) need 260 bits: one past the 4-word key, so
  // every search and the engine run on 8-word keys.
  std::vector<int> wide(50, 2);
  wide.insert(wide.end(), 160, 1);
  const Schema schema = Schema::Uniform(wide);
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(codec->key_words(), 8);

  Dataset data(schema);
  Rng rng(260);
  std::vector<Value> row(wide.size(), 0);
  for (int r = 0; r < 60; ++r) {
    for (int a = 0; a < 50; ++a) {
      row[static_cast<std::size_t>(a)] = rng.NextBool(0.15) ? 1 : 0;
    }
    data.AppendRow(row);
  }
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  const ScanCoverage scan(data);
  MupSearchOptions options{.tau = 3, .max_level = 2};

  auto packed = FindMupsPacked(MupAlgorithm::kPatternBreaker, oracle, options);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->codec().key_words(), 8);
  const std::vector<Pattern> breaker = packed->Materialize();
  ASSERT_FALSE(breaker.empty());
  // The invariants, checked against the scanning oracle.
  EXPECT_TRUE(ValidateMupSet(breaker, scan, options.tau).ok());
  for (const MupAlgorithm algorithm :
       {MupAlgorithm::kDeepDiver, MupAlgorithm::kApriori}) {
    auto mups = FindMups(algorithm, oracle, options);
    ASSERT_TRUE(mups.ok());
    EXPECT_EQ(*mups, breaker) << ToString(algorithm);
  }

  EngineOptions eopts;
  eopts.tau = options.tau;
  eopts.max_level = options.max_level;
  auto engine = CoverageEngine::Create(schema, eopts);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AppendRows(data).ok());
  EXPECT_EQ((*engine)->Mups(), breaker);
}

class TooWideSchema : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("too_wide_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// 50 binary attributes plus 930 cardinality-1 attributes: 1030 key bits,
  /// six past the widest key, over a combination space small enough to
  /// aggregate.
  static Schema MakeSchema() {
    std::vector<int> cards(50, 2);
    cards.insert(cards.end(), 930, 1);
    return Schema::Uniform(cards);
  }

  const Schema schema_ = MakeSchema();
  std::string dir_;
};

void ExpectTooWide(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_NE(status.message().find("1030"), std::string::npos)
      << status.ToString();
}

TEST_F(TooWideSchema, RejectedAtConstruction) {
  ExpectTooWide(PatternCodec::Build(schema_).status());

  Dataset data(schema_);
  data.AppendRow(std::vector<Value>(980, 0));
  ExpectTooWide(CoverageService::FromDataset(data).status());

  ExpectTooWide(CoverageEngine::Create(schema_).status());
  ExpectTooWide(CoverageService::OpenSession(schema_).status());
  ExpectTooWide(CoverageService::OpenDurableSession(
                    dir_, schema_, CoverageService::SessionOptions())
                    .status());
  EXPECT_FALSE(std::filesystem::exists(dir_))
      << "a rejected durable session must not leave a directory behind";

  // An engine built directly refuses every epoch instead of searching.
  CoverageEngine engine(schema_);
  ExpectTooWide(engine.AppendRows(data));
  ExpectTooWide(engine.RetractRows(data));
}

TEST_F(TooWideSchema, RejectedAtRecovery) {
  // A session directory whose snapshot carries the too-wide schema (as an
  // older build could have written) fails recovery with the same typed
  // error rather than being treated as corruption.
  std::filesystem::create_directories(dir_);
  EngineImage image;
  image.schema = schema_;
  image.options.tau = 1;
  image.mups.push_back(Pattern::Root(schema_.num_attributes()));
  ASSERT_TRUE(persist::WriteSnapshotFile(persist::FileSystem::Default(), dir_,
                                         image)
                  .ok());

  ExpectTooWide(
      persist::DurableEngine::Recover(dir_, EngineOptions()).status());
  ExpectTooWide(CoverageService::ReopenDurableSession(
                    dir_, CoverageService::SessionOptions())
                    .status());
}

}  // namespace
}  // namespace coverage
