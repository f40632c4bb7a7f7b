#include "mups/mups.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"

namespace coverage {

namespace {

/// Resolves PlannerDecision::num_threads from the caller's cap and the
/// pattern-graph shape, appending the reasoning to the rationale. Serial
/// callers (cap <= 1) leave the decision and the rationale untouched, so
/// the planner's output is byte-identical to the single-threaded planner
/// for every existing caller.
void PlanWorkers(const Schema& schema, const MupSearchOptions& options,
                 PlannerDecision* decision) {
  if (options.num_threads <= 1) return;
  if (schema.NumPatterns() < kPlannerParallelMinPatternGraph) {
    decision->num_threads = 1;
    decision->rationale += "; serial search (pattern graph under " +
                           std::to_string(kPlannerParallelMinPatternGraph) +
                           " nodes, fan-out overhead would dominate)";
    return;
  }
  // The root's children — one per (attribute, value) — are the widest
  // natural partition of independent work; more workers than that idle.
  std::uint64_t fan_out = 0;
  for (int i = 0; i < schema.num_attributes(); ++i) {
    fan_out += static_cast<std::uint64_t>(schema.cardinality(i));
  }
  decision->num_threads = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options.num_threads),
      std::max<std::uint64_t>(fan_out, 1)));
  decision->rationale += "; " + std::to_string(decision->num_threads) +
                         " workers (root fan-out " + std::to_string(fan_out) +
                         ", graph " + std::to_string(schema.NumPatterns()) +
                         " nodes)";
}

}  // namespace

std::string ToString(MupAlgorithm algorithm) {
  switch (algorithm) {
    case MupAlgorithm::kNaive:
      return "NAIVE";
    case MupAlgorithm::kPatternBreaker:
      return "PATTERN-BREAKER";
    case MupAlgorithm::kPatternCombiner:
      return "PATTERN-COMBINER";
    case MupAlgorithm::kDeepDiver:
      return "DEEPDIVER";
    case MupAlgorithm::kApriori:
      return "APRIORI";
    case MupAlgorithm::kAuto:
      return "AUTO";
  }
  return "UNKNOWN";
}

PlannerDecision PlanMupSearch(const AggregatedData& data,
                              const MupSearchOptions& options) {
  const Schema& schema = data.schema();
  PlannerDecision decision;
  decision.max_level = options.max_level;

  // §V-C3 / Fig. 16: a wide schema's pattern graph cannot be explored
  // exhaustively; cap the search at the general levels where the dangerous
  // gaps live. Only applies when the caller did not set a cap themselves.
  if (options.max_level < 0 &&
      schema.NumPatterns() > kPlannerPatternGraphBudget) {
    decision.algorithm = MupAlgorithm::kDeepDiver;
    decision.max_level = kPlannerWideMaxLevel;
    decision.rationale =
        "pattern graph has " + std::to_string(schema.NumPatterns()) +
        " nodes (> " + std::to_string(kPlannerPatternGraphBudget) +
        "): level-limited DEEPDIVER at level <= " +
        std::to_string(kPlannerWideMaxLevel) + " (§V-C3, Fig. 16)";
    PlanWorkers(schema, options, &decision);
    return decision;
  }

  // Fig. 15's cost drivers: PATTERN-BREAKER pays one coverage query per
  // covered node above the MUP frontier, DEEPDIVER one dive per MUP. Sparse
  // data (few live combinations relative to Pi c_i) leaves the frontier near
  // the top of the graph, where the BFS terminates after a few cheap levels;
  // dense data pushes the MUPs deep, where the targeted dives win.
  const std::size_t live =
      data.num_combinations() - data.num_tombstones();
  const double density =
      static_cast<double>(live) /
      static_cast<double>(std::max<std::uint64_t>(
          schema.NumValueCombinations(), 1));
  if (density <= kPlannerSparseDensity) {
    decision.algorithm = MupAlgorithm::kPatternBreaker;
    decision.rationale =
        std::to_string(live) + " live combinations cover " +
        FormatDouble(density * 100.0, 2) + "% of the value space (<= " +
        FormatDouble(kPlannerSparseDensity * 100.0, 2) +
        "%): shallow MUP frontier, top-down PATTERN-BREAKER (§V, Fig. 15)";
  } else {
    decision.algorithm = MupAlgorithm::kDeepDiver;
    decision.rationale =
        std::to_string(live) + " live combinations cover " +
        FormatDouble(density * 100.0, 2) + "% of the value space (> " +
        FormatDouble(kPlannerSparseDensity * 100.0, 2) +
        "%): deep MUPs, dominance-pruned DEEPDIVER dives (§V, Fig. 15)";
  }
  PlanWorkers(schema, options, &decision);
  return decision;
}

StatusOr<std::vector<Pattern>> FindMups(MupAlgorithm algorithm,
                                        const BitmapCoverage& oracle,
                                        const MupSearchOptions& options,
                                        MupSearchStats* stats) {
  if (algorithm == MupAlgorithm::kNaive) {
    return FindMupsNaive(oracle, oracle.data().schema(), options, stats);
  }
  auto packed = FindMupsPacked(algorithm, oracle, options, stats);
  COVERAGE_RETURN_IF_ERROR(packed.status());
  return packed->Materialize();
}

std::vector<Pattern> PackedMupSet::Materialize() const {
  std::vector<Pattern> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out.push_back(codec_.Decode((*this)[i]));
  }
  return out;
}

StatusOr<PackedMupSet> FindMupsPacked(MupAlgorithm algorithm,
                                      const BitmapCoverage& oracle,
                                      const MupSearchOptions& options,
                                      MupSearchStats* stats) {
  const Schema& schema = oracle.data().schema();
  auto codec = PatternCodec::Build(schema);
  COVERAGE_RETURN_IF_ERROR(codec.status());
  switch (algorithm) {
    case MupAlgorithm::kNaive: {
      // NAIVE has no packed core; compute on vector<int> and encode.
      auto mups = FindMupsNaive(oracle, schema, options, stats);
      COVERAGE_RETURN_IF_ERROR(mups.status());
      PackedMupSet result(std::move(*codec));
      for (const Pattern& p : *mups) result.Append(p.cells());
      return result;
    }
    case MupAlgorithm::kPatternBreaker:
      return FindMupsPatternBreakerPacked(oracle, schema, *codec, options,
                                          stats);
    case MupAlgorithm::kPatternCombiner:
      return FindMupsPatternCombinerPacked(oracle, *codec, options, stats);
    case MupAlgorithm::kDeepDiver:
      return FindMupsDeepDiverPacked(oracle, schema, *codec, options, stats);
    case MupAlgorithm::kApriori:
      return FindMupsAprioriPacked(oracle, *codec, options, stats);
    case MupAlgorithm::kAuto: {
      const PlannerDecision decision = PlanMupSearch(oracle.data(), options);
      MupSearchOptions resolved = options;
      resolved.max_level = decision.max_level;
      resolved.num_threads = decision.num_threads;
      return FindMupsPacked(decision.algorithm, oracle, resolved, stats);
    }
  }
  return Status::InvalidArgument("unknown MUP algorithm");
}

Status ValidateMupSet(const std::vector<Pattern>& mups,
                      const CoverageOracle& oracle, std::uint64_t tau) {
  QueryContext ctx;
  for (const Pattern& p : mups) {
    if (oracle.Coverage(p, ctx) >= tau) {
      return Status::Internal("pattern " + p.ToString() +
                              " is covered, not a MUP");
    }
    for (const Pattern& parent : p.Parents()) {
      if (oracle.Coverage(parent, ctx) < tau) {
        return Status::Internal("MUP " + p.ToString() +
                                " has uncovered parent " + parent.ToString());
      }
    }
  }
  for (std::size_t i = 0; i < mups.size(); ++i) {
    for (std::size_t j = 0; j < mups.size(); ++j) {
      if (i != j && mups[i].Dominates(mups[j])) {
        return Status::Internal("MUP " + mups[i].ToString() + " dominates " +
                                mups[j].ToString());
      }
    }
  }
  return Status::OK();
}

std::vector<std::size_t> MupLevelHistogram(const std::vector<Pattern>& mups,
                                           int num_attributes) {
  std::vector<std::size_t> histogram(
      static_cast<std::size_t>(num_attributes) + 1, 0);
  for (const Pattern& p : mups) {
    ++histogram[static_cast<std::size_t>(p.level())];
  }
  return histogram;
}

int MaximumCoveredLevel(const std::vector<Pattern>& mups, int num_attributes) {
  int min_mup_level = num_attributes + 1;
  for (const Pattern& p : mups) {
    min_mup_level = std::min(min_mup_level, p.level());
  }
  return min_mup_level - 1;
}

}  // namespace coverage
