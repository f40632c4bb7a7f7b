// The kAuto planner's worker pick (PlannerDecision::num_threads): serial
// callers get byte-identical rationales (the golden CLI transcripts pin
// them), small pattern graphs stay serial regardless of the cap, large
// graphs fan out up to the root's fan-out, and a service-level audit runs
// the pick on the shared executor with the 1-worker answer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "datagen/compas.h"
#include "dataset/aggregate.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "mups/mups.h"
#include "service/coverage_service.h"

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

/// A {7,7,7,7} relation: 8^4 = 4096 pattern-graph nodes, exactly at the
/// planner's parallel threshold, with root fan-out 28.
Dataset MakeWideUniform(std::size_t rows) {
  Dataset data(Schema::Uniform({7, 7, 7, 7}));
  Rng rng(7);
  std::vector<Value> row(4);
  for (std::size_t i = 0; i < rows; ++i) {
    for (int a = 0; a < 4; ++a) {
      row[a] = static_cast<Value>(rng.NextUint64(7));
    }
    data.AppendRow(row);
  }
  return data;
}

TEST(PlannerThreads, SerialCapKeepsRationaleByteIdentical) {
  const AggregatedData agg(datagen::MakeCompas().data);
  MupSearchOptions options;
  options.tau = 10;
  options.num_threads = 1;
  const PlannerDecision serial = PlanMupSearch(agg, options);
  EXPECT_EQ(serial.num_threads, 1);
  // COMPAS's graph sits under the parallel threshold, so a parallel cap
  // answers serial too — with the reasoning appended after the serial
  // planner's exact sentence (which golden transcripts pin).
  ASSERT_LT(agg.schema().NumPatterns(), kPlannerParallelMinPatternGraph);
  options.num_threads = 8;
  const PlannerDecision capped = PlanMupSearch(agg, options);
  EXPECT_EQ(capped.num_threads, 1);
  EXPECT_EQ(capped.algorithm, serial.algorithm);
  ASSERT_TRUE(capped.rationale.starts_with(serial.rationale));
  EXPECT_NE(capped.rationale.find("serial search"), std::string::npos);
}

TEST(PlannerThreads, LargeGraphFansOutUpToRootFanOut) {
  const AggregatedData agg(MakeWideUniform(500));
  ASSERT_GE(agg.schema().NumPatterns(), kPlannerParallelMinPatternGraph);
  MupSearchOptions options;
  options.tau = 2;
  options.num_threads = 8;
  const PlannerDecision eight = PlanMupSearch(agg, options);
  EXPECT_EQ(eight.num_threads, 8);
  EXPECT_NE(eight.rationale.find("8 workers"), std::string::npos);
  // The cap never exceeds the root's fan-out (sum of cardinalities = 28):
  // workers beyond the top-level partition would idle.
  options.num_threads = 64;
  const PlannerDecision wide = PlanMupSearch(agg, options);
  EXPECT_EQ(wide.num_threads, 28);
  EXPECT_NE(wide.rationale.find("28 workers (root fan-out 28"),
            std::string::npos);
}

TEST(PlannerThreads, AutoDispatchMatchesSerialMupSet) {
  const AggregatedData agg(MakeWideUniform(500));
  const BitmapCoverage oracle(agg);
  MupSearchOptions options;
  options.tau = 2;
  options.num_threads = 1;
  const auto serial = FindMups(MupAlgorithm::kAuto, oracle, options);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->empty());
  options.num_threads = 8;
  const auto parallel = FindMups(MupAlgorithm::kAuto, oracle, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Render(*parallel), Render(*serial));
}

TEST(PlannerThreads, ServiceAuditAtEightWorkersMatchesSerial) {
  // The planner picks 8 workers; the executor decides how many join. The
  // answer is the 1-worker MUP set and the rationale has no budget clause.
  ServiceOptions serial_options;
  auto serial_service =
      CoverageService::FromDataset(MakeWideUniform(500), serial_options);
  ASSERT_TRUE(serial_service.ok()) << serial_service.status().ToString();
  ServiceOptions options;
  options.num_threads = 8;
  auto service = CoverageService::FromDataset(MakeWideUniform(500), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  AuditRequest request;
  request.tau = 2;
  const auto serial = serial_service->Audit(request);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const auto result = service->Audit(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(serial->mups.empty());
  EXPECT_EQ(Render(result->mups), Render(serial->mups));
  EXPECT_NE(result->planner_rationale.find("8 workers"), std::string::npos)
      << result->planner_rationale;
  EXPECT_EQ(result->planner_rationale.find("budget"), std::string::npos)
      << result->planner_rationale;
}

}  // namespace
}  // namespace coverage
