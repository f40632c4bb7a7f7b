// Frozen MUP sets: every search algorithm under every dominance mode must
// reproduce the MUP set and the per-algorithm coverage-query count recorded
// in tests/golden/mups_<case>.txt. The goldens were written while the
// vector<int> search implementations still existed and agreed with the
// packed ones; the two 260-bit cases were answered by the vector<int> code,
// so they pin the 8-word packed key to an implementation that shares no key
// code with it.
//
// Regenerate only after an intentional change to search output or query
// counts, and review the diff like an API change:
//   COVERAGE_UPDATE_GOLDEN=1 ./build/golden_mups_test
// (scripts/update_golden_files.py does this together with the CLI goldens).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "datagen/airbnb.h"
#include "mups/mups.h"

namespace coverage {
namespace {

using DominanceMode = MupSearchOptions::DominanceMode;

struct GoldenCase {
  std::string name;
  std::string description;
  Dataset data;
  std::uint64_t tau;
  int max_level;
};

/// Binary rows whose per-attribute rates spread over [0.02, 0.5], so
/// level-2 combinations of rare attributes fall below a small τ.
Dataset SkewedBinary(int d, std::size_t n, std::uint64_t seed) {
  Dataset data(Schema::Binary(d));
  Rng rng(seed);
  std::vector<Value> row(static_cast<std::size_t>(d));
  for (std::size_t r = 0; r < n; ++r) {
    for (int a = 0; a < d; ++a) {
      const double rate = 0.02 + 0.48 * static_cast<double>((a * 37) % d) /
                                     static_cast<double>(d);
      row[static_cast<std::size_t>(a)] = rng.NextBool(rate) ? 1 : 0;
    }
    data.AppendRow(row);
  }
  return data;
}

/// 50 binary attributes (2 key bits each) followed by 160 cardinality-1
/// attributes (1 bit each): 260 key bits over a 2^50 combination space.
Dataset BinaryPlusConstant(std::size_t n, std::uint64_t seed) {
  std::vector<int> cards(50, 2);
  cards.insert(cards.end(), 160, 1);
  Dataset data(Schema::Uniform(cards));
  Rng rng(seed);
  std::vector<Value> row(cards.size(), 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (int a = 0; a < 50; ++a) {
      row[static_cast<std::size_t>(a)] = rng.NextBool(0.1 + 0.01 * a) ? 1 : 0;
    }
    data.AppendRow(row);
  }
  return data;
}

std::vector<GoldenCase> Cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"dense_d13", "MakeAirbnb(n=4000, d=13, seed=13)",
                   datagen::MakeAirbnb(4000, 13, 13), 25, -1});
  cases.push_back({"sparse_d36_l3", "MakeAirbnb(n=3000, d=36, seed=36)",
                   datagen::MakeAirbnb(3000, 36, 36), 20, 3});
  cases.push_back({"wide130_l2", "SkewedBinary(d=130, n=600, seed=130)",
                   SkewedBinary(130, 600, 130), 5, 2});
  cases.push_back({"wide50x2_160x1_l2", "BinaryPlusConstant(n=400, seed=210)",
                   BinaryPlusConstant(400, 210), 8, 2});
  return cases;
}

const MupAlgorithm kAlgorithms[] = {
    MupAlgorithm::kPatternBreaker, MupAlgorithm::kDeepDiver,
    MupAlgorithm::kPatternCombiner, MupAlgorithm::kApriori};

const char* ModeName(DominanceMode mode) {
  switch (mode) {
    case DominanceMode::kBitmapIndex: return "bitmap";
    case DominanceMode::kLinearScan: return "linear";
    case DominanceMode::kNoPruning: return "none";
  }
  return "?";
}

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "?";
}

/// Sparse rendering, one MUP per line: "attr=value" pairs, "*" for the
/// root. Keeps 130- and 210-attribute goldens readable.
std::string Sparse(const Pattern& p) {
  std::string out;
  for (int a = 0; a < p.num_attributes(); ++a) {
    if (!p.is_deterministic(a)) continue;
    if (!out.empty()) out += ' ';
    out += std::to_string(a) + "=" + std::to_string(p.cell(a));
  }
  return out.empty() ? "*" : out;
}

/// Runs every algorithm × dominance mode serially and renders the golden
/// document. APRIORI's query count is not pinned: it counts support
/// evaluations, which the goldens predate.
std::string Render(const GoldenCase& c, std::vector<Pattern>* mups_out) {
  const AggregatedData agg(c.data);
  const BitmapCoverage oracle(agg);
  std::ostringstream results;
  std::vector<Pattern> reference;
  bool have_reference = false;
  for (const MupAlgorithm algorithm : kAlgorithms) {
    for (const DominanceMode mode :
         {DominanceMode::kBitmapIndex, DominanceMode::kLinearScan,
          DominanceMode::kNoPruning}) {
      MupSearchOptions options{.tau = c.tau, .max_level = c.max_level};
      options.dominance_mode = mode;
      MupSearchStats stats;
      auto mups = FindMups(algorithm, oracle, options, &stats);
      results << "result " << ToString(algorithm) << ' ' << ModeName(mode);
      if (!mups.ok()) {
        results << " error=" << CodeName(mups.status().code()) << '\n';
        continue;
      }
      if (algorithm == MupAlgorithm::kApriori) {
        results << " queries=unpinned";
      } else {
        results << " queries=" << stats.coverage_queries;
      }
      results << '\n';
      if (!have_reference) {
        reference = *mups;
        have_reference = true;
      } else {
        EXPECT_EQ(*mups, reference)
            << ToString(algorithm) << ' ' << ModeName(mode);
      }
    }
  }
  std::ostringstream doc;
  doc << "# " << c.description << ", tau=" << c.tau
      << ", max_level=" << c.max_level << ", "
      << c.data.schema().num_attributes() << " attributes\n";
  doc << results.str();
  doc << "mups " << reference.size() << '\n';
  for (const Pattern& p : reference) doc << Sparse(p) << '\n';
  *mups_out = std::move(reference);
  return doc.str();
}

class GoldenMups : public ::testing::TestWithParam<int> {};

TEST_P(GoldenMups, MatchesFrozenSet) {
  const GoldenCase c = Cases()[static_cast<std::size_t>(GetParam())];
  const std::string path = std::string(COVERAGE_REPO_DIR) +
                           "/tests/golden/mups_" + c.name + ".txt";
  std::vector<Pattern> mups;
  const std::string doc = Render(c, &mups);
  ASSERT_FALSE(mups.empty()) << c.name << ": no algorithm produced a set";
  if (std::getenv("COVERAGE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << doc;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate per tests/golden/README.md)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(doc, expected.str())
      << c.name << " drifted from its golden — if intentional, regenerate "
      << "with COVERAGE_UPDATE_GOLDEN=1";

  // Parallel searches return the same set (their query counts are
  // schedule-dependent for DEEPDIVER, so only the set is compared).
  const AggregatedData agg(c.data);
  const BitmapCoverage oracle(agg);
  for (const MupAlgorithm algorithm :
       {MupAlgorithm::kPatternBreaker, MupAlgorithm::kDeepDiver}) {
    MupSearchOptions options{.tau = c.tau, .max_level = c.max_level};
    options.num_threads = 4;
    auto parallel = FindMups(algorithm, oracle, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(*parallel, mups) << ToString(algorithm) << " with 4 workers";
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenMups, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return Cases()[static_cast<std::size_t>(
                                              info.param)]
                               .name;
                         });

}  // namespace
}  // namespace coverage
