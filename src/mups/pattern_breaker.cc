#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/executor.h"
#include "common/stopwatch.h"
#include "mups/mups.h"
#include "pattern/packed_set.h"

namespace coverage {

namespace {

/// Per-frontier-node outcome of the (parallelisable) evaluation step. The
/// evaluation only reads shared state (the previous level's covered set and
/// the MUPs found at earlier levels) and every write happens in the
/// queue-order merge, so the output and the query count are identical for
/// any worker count.
enum class NodeOutcome : std::uint8_t { kSkipped, kMup, kCovered };

template <int W>
NodeOutcome EvaluateNode(const PackedPattern<W>& p, const PatternCodec& codec,
                         const CoverageOracle& oracle, std::uint64_t tau,
                         const PackedPatternSet<W>& prev_covered,
                         const PackedPatternSet<W>& mup_set,
                         QueryContext& ctx) {
  // Skip candidates with an unverified or uncovered parent; they cannot be
  // MUPs (either pruned region or dominated by one). Parents are visited in
  // ascending attribute order, matching Pattern::Parents().
  const int d = codec.num_attributes();
  for (int i = 0; i < d; ++i) {
    if (!codec.is_deterministic(p, i)) continue;
    const PackedPattern<W> parent = codec.WithCell(p, i, kWildcard);
    if (!prev_covered.Contains(parent) || mup_set.Contains(parent)) {
      return NodeOutcome::kSkipped;
    }
  }
  return oracle.CoverageAtLeast(p, codec, tau, ctx) ? NodeOutcome::kCovered
                                                    : NodeOutcome::kMup;
}

template <int W>
std::vector<PackedPattern<W>> PatternBreaker(const CoverageOracle& oracle,
                                             const Schema& schema,
                                             const PatternCodec& codec,
                                             const MupSearchOptions& options,
                                             MupSearchStats* stats) {
  Stopwatch timer;
  const int d = schema.num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  const int num_workers = options.num_threads > 1 ? options.num_threads : 1;
  std::vector<QueryContext> contexts(static_cast<std::size_t>(num_workers));

  // Frontier memory: the queue and covered set of one BFS level live in one
  // arena; each new level builds into the other arena and the exhausted one
  // is bulk-reset. Steady state allocates nothing from the OS beyond the
  // high-water level.
  Arena mup_arena;
  Arena level_arenas[2];
  Arena* cur_arena = &level_arenas[0];
  Arena* next_arena = &level_arenas[1];

  ArenaVector<PackedPattern<W>> queue(cur_arena);
  queue.push_back(codec.Root<W>());
  std::vector<PackedPattern<W>> mups;
  PackedPatternSet<W> mup_set(&mup_arena);
  // Covered candidates of the previous level (see mups.h's implementation
  // note: tracking only covered candidates keeps the parent check sound).
  PackedPatternSet<W> prev_covered(cur_arena);
  std::uint64_t nodes_generated = 1;
  std::vector<NodeOutcome> outcomes;
  // values_from[a] = Σ_{b >= a} c_b: a covered node's Rule-1 child count is
  // values_from[right-most deterministic cell + 1].
  std::vector<std::size_t> values_from(static_cast<std::size_t>(d) + 1, 0);
  for (int a = d - 1; a >= 0; --a) {
    values_from[static_cast<std::size_t>(a)] =
        values_from[static_cast<std::size_t>(a) + 1] +
        static_cast<std::size_t>(schema.cardinality(a));
  }

  for (int level = 0; level <= max_level && !queue.empty(); ++level) {
    obs::ScopedStage level_stage(options.trace,
                                 "search_level_" + std::to_string(level));
    outcomes.assign(queue.size(), NodeOutcome::kSkipped);
    if (num_workers > 1 && queue.size() > 1) {
      Executor::Shared().ParallelFor(
          queue.size(), /*chunk=*/16, num_workers,
          [&](int worker, std::size_t i) {
            outcomes[i] = EvaluateNode(
                queue[i], codec, oracle, options.tau, prev_covered, mup_set,
                contexts[static_cast<std::size_t>(worker)]);
          });
    } else {
      for (std::size_t i = 0; i < queue.size(); ++i) {
        outcomes[i] = EvaluateNode(queue[i], codec, oracle, options.tau,
                                   prev_covered, mup_set, contexts[0]);
      }
    }

    // Size the next level up front, so its frontier and covered set are
    // allocated once instead of growing by copy through the arena. The last
    // level builds neither: nothing reads them.
    std::size_t num_covered = 0;
    std::size_t num_children = 0;
    for (std::size_t i = 0; level < max_level && i < queue.size(); ++i) {
      if (outcomes[i] != NodeOutcome::kCovered) continue;
      ++num_covered;
      num_children += values_from[static_cast<std::size_t>(
          codec.RightmostDeterministic(queue[i]) + 1)];
    }

    // Deterministic merge in queue order: identical to the serial loop.
    next_arena->Reset();
    ArenaVector<PackedPattern<W>> next_queue(next_arena);
    next_queue.reserve(num_children);
    PackedPatternSet<W> covered_here(next_arena, num_covered);
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const PackedPattern<W>& p = queue[i];
      switch (outcomes[i]) {
        case NodeOutcome::kSkipped:
          break;
        case NodeOutcome::kMup:
          mup_set.Insert(p);
          mups.push_back(p);
          break;
        case NodeOutcome::kCovered: {
          if (level == max_level) break;
          // Rule-1 children: every attribute right of the right-most
          // deterministic cell is a wildcard; assign each of its values.
          const int start = codec.RightmostDeterministic(p) + 1;
          for (int a = start; a < d; ++a) {
            const Value c = static_cast<Value>(schema.cardinality(a));
            for (Value v = 0; v < c; ++v) {
              next_queue.push_back(codec.WithCell(p, a, v));
            }
          }
          covered_here.Insert(p);
          break;
        }
      }
    }
    nodes_generated += num_children;
    prev_covered = covered_here;
    queue = next_queue;
    std::swap(cur_arena, next_arena);
  }

  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  if (stats != nullptr) {
    std::uint64_t queries = 0;
    for (const QueryContext& ctx : contexts) queries += ctx.num_queries();
    stats->coverage_queries = queries;
    stats->nodes_generated = nodes_generated;
    stats->seconds = timer.ElapsedSeconds();
    stats->num_mups = mups.size();
  }
  return mups;
}

}  // namespace

PackedMupSet FindMupsPatternBreakerPacked(const CoverageOracle& oracle,
                                          const Schema& schema,
                                          const PatternCodec& codec,
                                          const MupSearchOptions& options,
                                          MupSearchStats* stats) {
  return WithKeyWidth(codec, [&]<int W>(std::integral_constant<int, W>) {
    return PackedMupSet(
        codec, PatternBreaker<W>(oracle, schema, codec, options, stats));
  });
}

std::vector<Pattern> FindMupsPatternBreaker(const CoverageOracle& oracle,
                                            const Schema& schema,
                                            const MupSearchOptions& options,
                                            MupSearchStats* stats) {
  auto codec = PatternCodec::Build(schema);
  if (!codec.ok()) return {};
  return FindMupsPatternBreakerPacked(oracle, schema, *codec, options, stats)
      .Materialize();
}

}  // namespace coverage
