// The CoverageService façade: request validation, audit parity with the
// hand-wired pipeline, the kAuto planner's decision table, ingestion-path
// equivalence, batched query determinism, and the concurrent-batch canary
// (run under TSan in CI).

#include "service/coverage_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "coverage/scan_coverage.h"
#include "datagen/airbnb.h"
#include "datagen/compas.h"
#include "pattern/pattern_graph.h"

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

CoverageService MustBuild(const Dataset& data, ServiceOptions options = {}) {
  auto service = CoverageService::FromDataset(data, options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

// -------------------------------------------------- Validate() rejections --

TEST(ServiceValidate, ServiceOptionsRejections) {
  ServiceOptions o;
  o.num_threads = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ServiceOptions();
  o.num_threads = 1025;
  EXPECT_FALSE(o.Validate().ok());
  o = ServiceOptions();
  o.max_cardinality = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ServiceOptions();
  o.csv_chunk_rows = 0;
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_TRUE(ServiceOptions().Validate().ok());
}

TEST(ServiceValidate, AuditRequestRejections) {
  AuditRequest r;
  r.tau = 0;
  EXPECT_FALSE(r.Validate().ok());
  r = AuditRequest();
  r.max_level = -2;
  EXPECT_FALSE(r.Validate().ok());
  r = AuditRequest();
  r.enumeration_limit = 0;
  EXPECT_FALSE(r.Validate().ok());
  EXPECT_TRUE(AuditRequest().Validate().ok());
}

TEST(ServiceValidate, EnhanceRequestRejections) {
  EnhanceRequest r;
  r.tau = 0;
  EXPECT_FALSE(r.Validate().ok());
  r = EnhanceRequest();
  r.lambda = -1;
  EXPECT_FALSE(r.Validate().ok());
  r = EnhanceRequest();
  ValidationOracle validator;
  r.rules = {"a in {b}"};
  r.validator = &validator;
  EXPECT_FALSE(r.Validate().ok());  // pick one mechanism, not both
  EXPECT_TRUE(EnhanceRequest().Validate().ok());
}

TEST(ServiceValidate, SessionOptionsRejections) {
  CoverageService::SessionOptions o;
  o.tau = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = CoverageService::SessionOptions();
  o.num_threads = 0;
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_TRUE(CoverageService::SessionOptions().Validate().ok());
}

TEST(ServiceValidate, DatagenSpecRejections) {
  DatagenSpec spec;
  spec.name = "frobnicate";
  EXPECT_FALSE(spec.Validate().ok());
  spec = DatagenSpec{.name = "airbnb", .d = 0};
  EXPECT_FALSE(spec.Validate().ok());
  spec = DatagenSpec{.name = "airbnb", .d = 37};
  EXPECT_FALSE(spec.Validate().ok());
  EXPECT_TRUE(DatagenSpec{.name = "compas"}.Validate().ok());
}

TEST(ServiceValidate, QueryBatchRejectsMalformedPatterns) {
  const auto service = MustBuild(datagen::MakeCompas(500, 3).data);
  QueryBatchRequest bad_width;
  bad_width.queries.push_back(QueryRequest{Pattern::Root(2), 0});
  const auto r1 = service.QueryBatch(bad_width);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  QueryBatchRequest bad_value;
  bad_value.queries.push_back(
      QueryRequest{Pattern(std::vector<Value>{9, kWildcard, kWildcard,
                                              kWildcard}),
                   0});
  const auto r2 = service.QueryBatch(bad_value);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("out-of-range"), std::string::npos);
}

TEST(Service, EntryPointsRejectInvalidRequests) {
  const auto service = MustBuild(datagen::MakeCompas(500, 3).data);
  AuditRequest audit;
  audit.tau = 0;
  EXPECT_EQ(service.Audit(audit).status().code(),
            StatusCode::kInvalidArgument);

  EnhanceRequest enhance;
  enhance.lambda = 9;  // > 4 attributes
  EXPECT_EQ(service.Enhance(enhance).status().code(),
            StatusCode::kInvalidArgument);

  EnhanceRequest bad_rule;
  bad_rule.rules = {"nope nope"};
  const auto r = service.Enhance(bad_rule);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad rule"), std::string::npos);
}

// ------------------------------------------------------------ audit parity --

struct ParityCase {
  std::string name;
  MupSearchOptions::DominanceMode mode;
};

class AuditParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(AuditParityTest, MatchesHandWiredPipelineOnCompas) {
  const Dataset data = datagen::MakeCompas(2000, 3).data;
  const std::uint64_t tau = 10;

  // The hand-wired pipeline every consumer used to re-assemble.
  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions search;
  search.tau = tau;
  search.dominance_mode = GetParam().mode;
  const auto expected = FindMupsDeepDiver(oracle, search);
  ASSERT_FALSE(expected.empty());

  const auto service = MustBuild(data);
  AuditRequest request;
  request.tau = tau;
  request.dominance_mode = GetParam().mode;
  const auto result = service.Audit(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Render(result->mups), Render(expected));
  EXPECT_EQ(result->num_rows, data.num_rows());
  EXPECT_EQ(result->tau, tau);
  EXPECT_FALSE(result->planner_rationale.empty());  // kAuto records why
  EXPECT_EQ(result->algorithm,
            ToString(PlanMupSearch(agg, search).algorithm));
  EXPECT_TRUE(ValidateMupSet(result->mups, oracle, tau).ok());
}

TEST_P(AuditParityTest, MatchesHandWiredPipelineOnAirbnb) {
  const Dataset data = datagen::MakeAirbnb(20000, 10);
  const std::uint64_t tau = 40;

  const AggregatedData agg(data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions search;
  search.tau = tau;
  search.dominance_mode = GetParam().mode;
  const auto expected = FindMupsDeepDiver(oracle, search);

  const auto service = MustBuild(data);
  AuditRequest request;
  request.tau = tau;
  request.dominance_mode = GetParam().mode;
  const auto result = service.Audit(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Render(result->mups), Render(expected));
}

INSTANTIATE_TEST_SUITE_P(
    DominanceModes, AuditParityTest,
    ::testing::Values(
        ParityCase{"bitmap", MupSearchOptions::DominanceMode::kBitmapIndex},
        ParityCase{"linear", MupSearchOptions::DominanceMode::kLinearScan},
        ParityCase{"nopruning", MupSearchOptions::DominanceMode::kNoPruning}),
    [](const auto& info) { return info.param.name; });

TEST(Service, ExplicitAlgorithmIsHonoured) {
  const auto service = MustBuild(datagen::MakeCompas(2000, 3).data);
  for (const MupAlgorithm algo :
       {MupAlgorithm::kDeepDiver, MupAlgorithm::kPatternBreaker,
        MupAlgorithm::kPatternCombiner}) {
    AuditRequest request;
    request.tau = 10;
    request.algorithm = algo;
    const auto result = service.Audit(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->algorithm, ToString(algo));
    EXPECT_TRUE(result->planner_rationale.empty());  // no planner involved
  }
}

// --------------------------------------------------- planner decision table --

TEST(Planner, DenseDataPicksDeepDiver) {
  // COMPAS covers ~69% of its 224-combination space: deep MUPs.
  const AggregatedData agg(datagen::MakeCompas(2000, 3).data);
  const PlannerDecision decision = PlanMupSearch(agg, MupSearchOptions{});
  EXPECT_EQ(decision.algorithm, MupAlgorithm::kDeepDiver);
  EXPECT_EQ(decision.max_level, -1);
  EXPECT_NE(decision.rationale.find("DEEPDIVER"), std::string::npos);
}

TEST(Planner, SparseDataPicksPatternBreaker) {
  // 40 distinct rows over a 10^4 space: density 0.4% <= 1/16.
  const Schema schema = Schema::Uniform({10, 10, 10, 10});
  Rng rng(5);
  Dataset data(schema);
  std::vector<Value> row(4);
  for (int i = 0; i < 40; ++i) {
    for (int a = 0; a < 4; ++a) {
      row[static_cast<std::size_t>(a)] =
          static_cast<Value>(rng.NextUint64(10));
    }
    data.AppendRow(row);
  }
  const AggregatedData agg(data);
  const PlannerDecision decision = PlanMupSearch(agg, MupSearchOptions{});
  EXPECT_EQ(decision.algorithm, MupAlgorithm::kPatternBreaker);
  EXPECT_EQ(decision.max_level, -1);
}

TEST(Planner, WideSchemaFallsBackToLevelLimitedSearch) {
  // 3^31 pattern-graph nodes blow the budget: clamp to the general levels.
  const Dataset data = datagen::MakeAirbnb(200, 31);
  const AggregatedData agg(data);
  ASSERT_GT(agg.schema().NumPatterns(), kPlannerPatternGraphBudget);
  const PlannerDecision decision = PlanMupSearch(agg, MupSearchOptions{});
  EXPECT_EQ(decision.algorithm, MupAlgorithm::kDeepDiver);
  EXPECT_EQ(decision.max_level, kPlannerWideMaxLevel);
  EXPECT_NE(decision.rationale.find("level-limited"), std::string::npos);
}

TEST(Planner, ExplicitLevelCapDisablesWideFallback) {
  // A caller-set cap means the wide-schema clamp must not override it; the
  // density rule decides the algorithm (200 rows over 2^31 combos: sparse).
  const Dataset data = datagen::MakeAirbnb(200, 31);
  const AggregatedData agg(data);
  MupSearchOptions options;
  options.max_level = 2;
  const PlannerDecision decision = PlanMupSearch(agg, options);
  EXPECT_EQ(decision.max_level, 2);
  EXPECT_EQ(decision.algorithm, MupAlgorithm::kPatternBreaker);
}

TEST(Planner, FindMupsAutoMatchesResolvedAlgorithm) {
  const AggregatedData agg(datagen::MakeCompas(2000, 3).data);
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 10;
  const PlannerDecision decision = PlanMupSearch(agg, options);
  const auto via_auto = FindMups(MupAlgorithm::kAuto, oracle, options);
  ASSERT_TRUE(via_auto.ok());
  MupSearchOptions resolved = options;
  resolved.max_level = decision.max_level;
  const auto direct = FindMups(decision.algorithm, oracle, resolved);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Render(*via_auto), Render(*direct));
}

// -------------------------------------------------- ingestion-path parity --

TEST(Service, IngestionPathsAgree) {
  const Dataset data = datagen::MakeCompas(700, 3).data;
  std::ostringstream csv;
  ASSERT_TRUE(data.WriteCsv(csv).ok());

  // Encode through the same CSV-inference grammar as the streaming paths so
  // the value dictionaries (and therefore the encoded MUPs) line up.
  std::istringstream reparse(csv.str());
  auto inferred = Dataset::InferFromCsv(reparse);
  ASSERT_TRUE(inferred.ok());
  const auto from_dataset = MustBuild(*inferred);

  std::istringstream stream(csv.str());
  auto from_csv = CoverageService::FromCsv(stream);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();

  const std::string path = ::testing::TempDir() + "/service_test_compas.csv";
  {
    std::ofstream file(path);
    file << csv.str();
  }
  ServiceOptions small_chunks;
  small_chunks.csv_chunk_rows = 97;  // force many chunks on the file path
  auto from_file = CoverageService::FromCsvFile(path, small_chunks);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();

  AuditRequest request;
  request.tau = 10;
  const auto a = from_dataset.Audit(request);
  const auto b = from_csv->Audit(request);
  const auto c = from_file->Audit(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(Render(a->mups), Render(b->mups));
  EXPECT_EQ(Render(a->mups), Render(c->mups));
  EXPECT_EQ(a->num_rows, c->num_rows);
}

TEST(Service, FromSpecBuildsTheNamedDataset) {
  auto service = CoverageService::FromSpec(
      DatagenSpec{.name = "compas", .n = 500, .seed = 9});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(service->num_rows(), 500u);
  EXPECT_EQ(service->schema().num_attributes(), 4);

  EXPECT_EQ(CoverageService::FromSpec(DatagenSpec{.name = "nope"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Service, FromCsvFileMissingFileIsNotFound) {
  EXPECT_EQ(CoverageService::FromCsvFile("/nonexistent/x.csv").status().code(),
            StatusCode::kNotFound);
}

// ----------------------------------------------------------- query batches --

TEST(Service, QueryBatchMatchesReferenceAndThreadCountsAgree) {
  const Dataset data = datagen::MakeAirbnb(20000, 8);
  ScanCoverage reference(data);
  Rng rng(23);

  QueryBatchRequest request;
  for (int i = 0; i < 300; ++i) {
    std::vector<Value> cells(8, kWildcard);
    for (int a = 0; a < 8; ++a) {
      if (rng.NextBool(0.4)) {
        cells[static_cast<std::size_t>(a)] =
            static_cast<Value>(rng.NextUint64(2));
      }
    }
    // Mix exact counts and threshold probes.
    request.queries.push_back(
        QueryRequest{Pattern(std::move(cells)),
                     (i % 3 == 0) ? 1 + rng.NextUint64(100) : 0});
  }

  ServiceOptions serial_opts;
  serial_opts.num_threads = 1;
  ServiceOptions pooled_opts;
  pooled_opts.num_threads = 8;
  const auto serial = MustBuild(data, serial_opts);
  const auto pooled = MustBuild(data, pooled_opts);

  const auto serial_result = serial.QueryBatch(request);
  const auto pooled_result = pooled.QueryBatch(request);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(pooled_result.ok());
  ASSERT_EQ(serial_result->results.size(), request.queries.size());
  ASSERT_EQ(pooled_result->results.size(), request.queries.size());

  QueryContext ctx;
  for (std::size_t i = 0; i < request.queries.size(); ++i) {
    const QueryRequest& q = request.queries[i];
    const std::uint64_t expected = reference.Coverage(q.pattern, ctx);
    const QueryOutcome& s = serial_result->results[i];
    const QueryOutcome& p = pooled_result->results[i];
    if (q.tau > 0) {
      EXPECT_EQ(s.covered, expected >= q.tau) << i;
    } else {
      EXPECT_EQ(s.coverage, expected) << i;
      EXPECT_EQ(s.covered, expected >= 1) << i;
    }
    // Deterministic result order: worker count never changes an answer.
    EXPECT_EQ(p.coverage, s.coverage) << i;
    EXPECT_EQ(p.covered, s.covered) << i;
  }
}

TEST(Service, ConcurrentQueryBatchCanary) {
  // Several threads share one service and issue batches simultaneously; the
  // batches share the process-wide executor, the oracle is immutable, and
  // every answer must be right. This is the TSan canary for the batched path.
  const Dataset data = datagen::MakeAirbnb(10000, 6);
  ScanCoverage reference(data);
  ServiceOptions options;
  options.num_threads = 4;
  const auto service = MustBuild(data, options);

  QueryBatchRequest request;
  PatternGraph graph(data.schema());
  const auto all = graph.EnumerateAll(1u << 12);
  ASSERT_TRUE(all.ok());
  for (const Pattern& p : *all) {
    request.queries.push_back(QueryRequest{p, 0});
  }
  std::vector<std::uint64_t> expected;
  {
    QueryContext ctx;
    for (const Pattern& p : *all) {
      expected.push_back(reference.Coverage(p, ctx));
    }
  }

  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const auto result = service.QueryBatch(request);
        if (!result.ok()) {
          ++mismatches[static_cast<std::size_t>(t)];
          continue;
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
          if (result->results[i].coverage != expected[i]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
  }
}

/// Concurrent QueryBatch callers on one service: every caller's results
/// equal the serial run, however the executor's helpers are split among them.
TEST(ConcurrentQueryBatch, CallersFanOutAndAgreeWithSerial) {
  ServiceOptions options;
  options.num_threads = 2;
  auto service = CoverageService::FromSpec(DatagenSpec{"compas", 0, 13, 1},
                                           options);
  ASSERT_TRUE(service.ok());

  QueryBatchRequest request;
  const Schema& schema = service->schema();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    for (Value v = 0; v < static_cast<Value>(schema.cardinality(a)); ++v) {
      request.queries.push_back(
          QueryRequest{Pattern::Root(schema.num_attributes()).WithCell(a, v),
                       0});
    }
  }
  auto expected = service->QueryBatch(request);
  ASSERT_TRUE(expected.ok());

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        auto result = service->QueryBatch(request);
        if (!result.ok() ||
            result->results.size() != expected->results.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < result->results.size(); ++i) {
          if (result->results[i].coverage != expected->results[i].coverage ||
              result->results[i].covered != expected->results[i].covered) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentQueryBatch, SessionsSharingTheExecutorStayCorrect) {
  CoverageService::SessionOptions options;
  options.tau = 2;
  options.num_threads = 4;
  const Schema schema = Schema::Uniform({2, 2, 2});
  auto first = CoverageService::OpenSession(schema, options);
  auto second = CoverageService::OpenSession(schema, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  Dataset rows(schema);
  for (std::size_t r = 0; r < 500; ++r) {
    rows.AppendRow(std::vector<Value>{static_cast<Value>(r % 2),
                                      static_cast<Value>((r / 2) % 2),
                                      static_cast<Value>((r / 4) % 2)});
  }
  ASSERT_TRUE(first->Append(rows).ok());
  ASSERT_TRUE(second->Append(rows).ok());

  QueryBatchRequest request;
  for (const char* text : {"XXX", "0XX", "X1X", "011", "111"}) {
    auto pattern = Pattern::Parse(text, schema);
    ASSERT_TRUE(pattern.ok());
    request.queries.push_back(QueryRequest{*pattern, 0});
  }
  auto expected = first->QueryBatch(request);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->results[0].coverage, 500u);
  // Both sessions answer concurrently; a batch that finds every helper busy
  // runs inline — results must equal the serial run either way.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const auto& session = (t % 2 == 0) ? *first : *second;
      for (int round = 0; round < 10; ++round) {
        auto result = session.QueryBatch(request);
        if (!result.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < result->results.size(); ++i) {
          if (result->results[i].coverage != expected->results[i].coverage) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --------------------------------------------------------------- sessions --

TEST(ServiceSession, ChunkedIngestMatchesImmutableService) {
  const Dataset data = datagen::MakeCompas(1500, 3).data;
  std::ostringstream csv;
  ASSERT_TRUE(data.WriteCsv(csv).ok());

  CoverageService::SessionOptions options;
  options.tau = 10;
  auto session = CoverageService::OpenSession(data.schema(), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::istringstream stream(csv.str());
  const auto ingest = session->IngestCsv(stream, 256);
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  EXPECT_EQ(ingest->rows, data.num_rows());

  const AuditResult incremental = session->Audit();
  EXPECT_EQ(incremental.algorithm, "ENGINE-INCREMENTAL");
  EXPECT_EQ(incremental.num_rows, data.num_rows());

  const auto service = MustBuild(data);
  AuditRequest request;
  request.tau = 10;
  const auto from_scratch = service.Audit(request);
  ASSERT_TRUE(from_scratch.ok());
  EXPECT_EQ(Render(incremental.mups), Render(from_scratch->mups));

  // Batched probes against the session answer like the immutable service.
  QueryBatchRequest probes;
  probes.queries.push_back(QueryRequest{Pattern::Root(4), 0});
  for (const Pattern& p : incremental.mups) {
    probes.queries.push_back(QueryRequest{p, 0});
    if (probes.queries.size() >= 8) break;
  }
  const auto a = session->QueryBatch(probes);
  const auto b = service.QueryBatch(probes);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < probes.queries.size(); ++i) {
    EXPECT_EQ(a->results[i].coverage, b->results[i].coverage) << i;
  }
}

TEST(ServiceSession, AppendAndRetractRoundTrip) {
  const Schema schema = Schema::Binary(3);
  CoverageService::SessionOptions options;
  options.tau = 1;
  auto session = CoverageService::OpenSession(schema, options);
  ASSERT_TRUE(session.ok());

  Dataset batch(schema);
  batch.AppendRow(std::vector<Value>{0, 1, 0});
  batch.AppendRow(std::vector<Value>{0, 0, 1});
  const auto appended = session->Append(batch);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(session->num_rows(), 2u);

  Dataset gone(schema);
  gone.AppendRow(std::vector<Value>{0, 1, 0});
  const auto retracted = session->Retract(gone);
  ASSERT_TRUE(retracted.ok()) << retracted.status().ToString();
  EXPECT_EQ(session->num_rows(), 1u);

  // Retracting a row that is not present must fail atomically.
  Dataset absent(schema);
  absent.AppendRow(std::vector<Value>{1, 1, 1});
  EXPECT_FALSE(session->Retract(absent).ok());
  EXPECT_EQ(session->num_rows(), 1u);
}

TEST(ServiceSession, RejectsEmptySchemaAndBadOptions) {
  EXPECT_FALSE(CoverageService::OpenSession(Schema()).ok());
  CoverageService::SessionOptions bad;
  bad.tau = 0;
  EXPECT_FALSE(CoverageService::OpenSession(Schema::Binary(2), bad).ok());
}

}  // namespace
}  // namespace coverage
