#ifndef COVERAGE_MUPS_MUPS_H_
#define COVERAGE_MUPS_MUPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "coverage/bitmap_coverage.h"
#include "coverage/coverage_oracle.h"
#include "dataset/schema.h"
#include "obs/trace.h"
#include "pattern/packed_pattern.h"
#include "pattern/pattern.h"

namespace coverage {

/// Options shared by all MUP-identification algorithms (Problem 1).
struct MupSearchOptions {
  /// Coverage threshold τ (Definition 3). Patterns with cov < tau are
  /// uncovered.
  std::uint64_t tau = 1;

  /// When >= 0, restrict discovery to MUPs of level <= max_level (the
  /// level-limited exploration of §V-C3 / Fig. 16 that scales the search to
  /// tens of attributes). -1 means unlimited.
  int max_level = -1;

  /// Worker cap for PATTERN-BREAKER, DEEPDIVER, and PATTERN-COMBINER.
  /// 1 (the default) runs the serial algorithms; N > 1 evaluates
  /// PATTERN-BREAKER's BFS frontiers and DEEPDIVER's dives on up to N
  /// workers of the process-wide Executor sharing one oracle (each worker
  /// queries through its own QueryContext), and shards PATTERN-COMBINER's
  /// level-d pass over the combination space. The returned MUP set is
  /// identical to the serial one for any N and however many workers join.
  /// Other algorithms ignore this.
  int num_threads = 1;

  /// Upper bound on guarded exponential enumerations (naive pattern-graph
  /// walk, PATTERN-COMBINER's level-d pass, APRIORI candidate sets). The
  /// affected algorithms return ResourceExhausted instead of blowing up.
  std::uint64_t enumeration_limit = std::uint64_t{1} << 26;

  /// How DEEPDIVER checks candidates against the discovered MUPs. The
  /// Appendix-B bit-vector index is the paper's design; the linear scan and
  /// the no-pruning mode exist for the ablation study (all three produce
  /// identical output).
  enum class DominanceMode { kBitmapIndex, kLinearScan, kNoPruning };
  DominanceMode dominance_mode = DominanceMode::kBitmapIndex;

  /// Optional request trace. When set, PATTERN-BREAKER records one
  /// `search_level_<k>` stage per BFS level (the per-level breakdown that
  /// shows where a deep search spends its time). The trace is not
  /// synchronised — it must belong to the calling thread. Other algorithms
  /// ignore it.
  obs::Trace* trace = nullptr;
};

/// Instrumentation filled in by each search; the paper's efficiency argument
/// is about how few nodes are visited / coverage queries are issued.
struct MupSearchStats {
  std::uint64_t coverage_queries = 0;  ///< cov() oracle calls
  std::uint64_t nodes_generated = 0;   ///< candidate patterns materialised
  std::uint64_t nodes_pruned = 0;      ///< candidates discarded by dominance
  double seconds = 0.0;                ///< wall-clock time
  std::size_t num_mups = 0;            ///< output size

  void Reset() { *this = MupSearchStats{}; }
};

/// The algorithms of §III (plus the §V-C APRIORI adaptation).
enum class MupAlgorithm {
  kNaive,
  kPatternBreaker,
  kPatternCombiner,
  kDeepDiver,
  kApriori,
  /// Let PlanMupSearch choose: the §V "which algorithm when" guidance as an
  /// executable cost model over schema width, cardinalities, and the
  /// aggregated-combination count. FindMups resolves kAuto before
  /// dispatching; the other FindMups* entry points never see it.
  kAuto,
};

/// Display name, e.g. "PATTERN-BREAKER".
std::string ToString(MupAlgorithm algorithm);

// ---------------------------------------------------------------------------
// The kAuto planner (§V). Thresholds are exposed so the decision table is
// testable against exactly the numbers the planner applies.

/// A pattern graph with more than this many nodes (Π (c_i + 1)) is "wide":
/// exhaustive exploration is off the table and the planner falls back to the
/// level-limited search of §V-C3 / Fig. 16. Raised from 2^24 to 2^26 with
/// the PackedPattern refactor: per-node cost (hash, equality, parent checks,
/// allocation) dropped by the packed-key + arena work, so the exhaustive
/// algorithms stay affordable on a 4x larger graph.
inline constexpr std::uint64_t kPlannerPatternGraphBudget = std::uint64_t{1}
                                                            << 26;

/// The level cap the planner imposes on wide schemas: the dangerous coverage
/// gaps are the *general* ones (combinations of up to three attributes —
/// the Fig. 16 framing), and level-limited DEEPDIVER finds exactly those.
inline constexpr int kPlannerWideMaxLevel = 3;

/// Density = live distinct combinations / Π c_i. At or below this the data
/// covers so little of the combination space that the MUP frontier sits near
/// the top of the graph, where top-down PATTERN-BREAKER terminates after a
/// few cheap BFS levels (Fig. 15's cost driver: BREAKER pays for every
/// *covered* node above the frontier, DEEPDIVER for every dive to a deep
/// MUP).
inline constexpr double kPlannerSparseDensity = 1.0 / 16.0;

/// Below this many pattern-graph nodes a parallel search is not worth its
/// fan-out and work-sharing synchronisation: every algorithm's per-node
/// cost is a handful of bitmap intersections, so a graph this small is over
/// before the workers warm up. The planner answers num_threads = 1 here
/// regardless of the caller's cap.
inline constexpr std::uint64_t kPlannerParallelMinPatternGraph =
    std::uint64_t{1} << 12;

/// What the planner decided and why. `algorithm` is always concrete (never
/// kAuto); `max_level` is the effective cap the search should run with (the
/// caller's own cap when one was set, kPlannerWideMaxLevel when the wide-
/// schema fallback clamped an unlimited search, -1 otherwise).
struct PlannerDecision {
  MupAlgorithm algorithm = MupAlgorithm::kDeepDiver;
  int max_level = -1;
  /// Worker count the search should run with. Never exceeds the caller's
  /// MupSearchOptions::num_threads (that is the cap, not a demand); 1 when
  /// the cap is 1 or the pattern graph is too small to amortise fan-out
  /// (kPlannerParallelMinPatternGraph), otherwise the cap clamped to the
  /// root's fan-out (sum of cardinalities — the widest natural partition
  /// of independent top-level work). The MUP set is identical for any
  /// value (see MupSearchOptions::num_threads).
  int num_threads = 1;
  /// One human-readable sentence citing the §V evidence for the choice;
  /// surfaced through AuditResult for observability.
  std::string rationale;
};

/// Resolves kAuto: inspects the schema (width, cardinalities, pattern-graph
/// size) and the aggregated relation (live combination count) and picks
/// PATTERN-BREAKER or DEEPDIVER, falling back to level-limited DEEPDIVER for
/// wide schemas (§V-C3). Deterministic in its inputs.
PlannerDecision PlanMupSearch(const AggregatedData& data,
                              const MupSearchOptions& options);

/// §III-A: enumerate the whole pattern graph, compute every coverage, and
/// filter non-maximal uncovered patterns pairwise. Exponential; guarded by
/// `options.enumeration_limit`.
StatusOr<std::vector<Pattern>> FindMupsNaive(const CoverageOracle& oracle,
                                             const Schema& schema,
                                             const MupSearchOptions& options,
                                             MupSearchStats* stats = nullptr);

/// §III-C, Algorithm 1: top-down BFS with Rule-1 candidate generation.
///
/// Implementation note: we keep the *covered* candidates of the previous
/// level in Qp (rather than all candidates). With Qp as the literal previous
/// queue, a candidate whose every parent was generated-but-skipped passes the
/// parent check and can be emitted even though it is dominated (e.g.
/// D = {1101, 1110}, τ = 1 wrongly emits 1100 next to the real MUP XX00).
/// Tracking covered candidates restores the intended invariant: a node's
/// coverage is computed only if all its parents are verified covered.
///
/// Like FindMupsDeepDiver, this cannot report an error: the schema must fit
/// a pattern key (PatternCodec::Build succeeds). A wider schema yields an
/// empty set; CoverageService and CoverageEngine::Create reject such schemas
/// with kResourceExhausted before any search runs.
std::vector<Pattern> FindMupsPatternBreaker(const CoverageOracle& oracle,
                                            const Schema& schema,
                                            const MupSearchOptions& options,
                                            MupSearchStats* stats = nullptr);

inline std::vector<Pattern> FindMupsPatternBreaker(
    const BitmapCoverage& oracle, const MupSearchOptions& options,
    MupSearchStats* stats = nullptr) {
  return FindMupsPatternBreaker(oracle, oracle.data().schema(), options,
                                stats);
}

/// §III-D, Algorithm 2: bottom-up combination with Rule-2 candidate
/// generation; coverage of a parent is the sum over a partition family of
/// children, so the dataset is only consulted for the level-d pass. That pass
/// enumerates all Π c_i full combinations and is guarded by
/// `options.enumeration_limit`; with `options.num_threads > 1` it is sharded
/// over the shared Executor (bit-identical output for any worker count).
StatusOr<std::vector<Pattern>> FindMupsPatternCombiner(
    const BitmapCoverage& oracle, const MupSearchOptions& options,
    MupSearchStats* stats = nullptr);

/// §III-E, Algorithm 3: DFS dive to an uncovered node, climb to a MUP, prune
/// everything dominating or dominated by discovered MUPs (via the Appendix-B
/// inverted indices; see MupSearchOptions::dominance_mode for the ablation
/// alternatives). Same schema precondition as FindMupsPatternBreaker.
std::vector<Pattern> FindMupsDeepDiver(const CoverageOracle& oracle,
                                       const Schema& schema,
                                       const MupSearchOptions& options,
                                       MupSearchStats* stats = nullptr);

inline std::vector<Pattern> FindMupsDeepDiver(const BitmapCoverage& oracle,
                                              const MupSearchOptions& options,
                                              MupSearchStats* stats = nullptr) {
  return FindMupsDeepDiver(oracle, oracle.data().schema(), options, stats);
}

/// §V-C: the apriori adaptation — frequent item-set mining over
/// (attribute, value) items; MUPs are the valid members of the negative
/// border. Kept as the baseline the paper compares against.
StatusOr<std::vector<Pattern>> FindMupsApriori(const BitmapCoverage& oracle,
                                               const MupSearchOptions& options,
                                               MupSearchStats* stats = nullptr);

/// Dispatch on `algorithm`; results are sorted lexicographically so that all
/// algorithms produce identical output for identical inputs.
StatusOr<std::vector<Pattern>> FindMups(MupAlgorithm algorithm,
                                        const BitmapCoverage& oracle,
                                        const MupSearchOptions& options,
                                        MupSearchStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Packed-representation entry points. The FindMups* functions above run on
// packed keys internally and decode at the boundary; these let callers that
// can consume packed results — the service/wire layer, the benchmarks — skip
// the decode entirely.

/// A MUP set in packed form plus the codec that gives the keys meaning,
/// sorted in the same lexicographic cell order FindMups reports. Keys are
/// stored width-free — codec().num_words() value words, then as many
/// deterministic-mask words, per key — and read back as PackedKeyView, so
/// consumers never depend on the key width.
class PackedMupSet {
 public:
  explicit PackedMupSet(PatternCodec codec) : codec_(std::move(codec)) {}
  template <int W>
  PackedMupSet(PatternCodec codec, const std::vector<PackedPattern<W>>& keys)
      : codec_(std::move(codec)) {
    words_.reserve(keys.size() * 2 * stride());
    for (const PackedPattern<W>& key : keys) Append(key);
  }

  const PatternCodec& codec() const { return codec_; }
  std::size_t size() const { return words_.size() / (2 * stride()); }
  bool empty() const { return words_.empty(); }

  PackedKeyView operator[](std::size_t i) const {
    const std::uint64_t* key = words_.data() + i * 2 * stride();
    return {key, key + stride()};
  }

  template <int W>
  void Append(const PackedPattern<W>& key) {
    const PackedKeyView view = key;
    words_.insert(words_.end(), view.words, view.words + stride());
    words_.insert(words_.end(), view.det, view.det + stride());
  }

  /// Appends the pattern with these cells (kWildcard allowed).
  void Append(std::span<const Value> cells) {
    words_.resize(words_.size() + 2 * stride(), 0);
    std::uint64_t* key = words_.data() + words_.size() - 2 * stride();
    codec_.EncodeCells(cells, key, key + stride());
  }

  std::vector<Pattern> Materialize() const;

 private:
  std::size_t stride() const {
    return static_cast<std::size_t>(codec_.num_words());
  }

  PatternCodec codec_;
  std::vector<std::uint64_t> words_;
};

/// The algorithms over an already-built codec (which must come from the
/// oracle's schema). Results are sorted (same order as the public entry
/// points); stats are filled identically.
PackedMupSet FindMupsPatternBreakerPacked(const CoverageOracle& oracle,
                                          const Schema& schema,
                                          const PatternCodec& codec,
                                          const MupSearchOptions& options,
                                          MupSearchStats* stats = nullptr);

PackedMupSet FindMupsDeepDiverPacked(const CoverageOracle& oracle,
                                     const Schema& schema,
                                     const PatternCodec& codec,
                                     const MupSearchOptions& options,
                                     MupSearchStats* stats = nullptr);

StatusOr<PackedMupSet> FindMupsPatternCombinerPacked(
    const BitmapCoverage& oracle, const PatternCodec& codec,
    const MupSearchOptions& options, MupSearchStats* stats = nullptr);

StatusOr<PackedMupSet> FindMupsAprioriPacked(const BitmapCoverage& oracle,
                                             const PatternCodec& codec,
                                             const MupSearchOptions& options,
                                             MupSearchStats* stats = nullptr);

/// Dispatch on `algorithm` returning packed results (NAIVE, which has no
/// packed core, is computed on vector<int> patterns and encoded). Fails with
/// kResourceExhausted if the schema needs more than kMaxPackedKeyBits.
StatusOr<PackedMupSet> FindMupsPacked(MupAlgorithm algorithm,
                                      const BitmapCoverage& oracle,
                                      const MupSearchOptions& options,
                                      MupSearchStats* stats = nullptr);

/// Checks the MUP invariants directly against an oracle: every pattern is
/// uncovered, every parent of every pattern is covered, and no pattern
/// dominates another. Used by tests and exposed for users who want to audit
/// third-party MUP lists.
Status ValidateMupSet(const std::vector<Pattern>& mups,
                      const CoverageOracle& oracle, std::uint64_t tau);

/// Histogram of MUP levels, indices 0..d (Fig. 6).
std::vector<std::size_t> MupLevelHistogram(const std::vector<Pattern>& mups,
                                           int num_attributes);

/// Maximum covered level λ of Definition 6: the largest λ such that every
/// MUP has level > λ. (d if there are no MUPs at all.)
int MaximumCoveredLevel(const std::vector<Pattern>& mups, int num_attributes);

}  // namespace coverage

#endif  // COVERAGE_MUPS_MUPS_H_
