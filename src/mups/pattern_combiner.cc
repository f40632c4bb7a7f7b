#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/executor.h"
#include "common/stopwatch.h"
#include "mups/mups.h"
#include "pattern/packed_set.h"
#include "pattern/pattern_ops.h"

namespace coverage {

namespace {

template <int W>
StatusOr<std::vector<PackedPattern<W>>> PatternCombiner(
    const BitmapCoverage& oracle, const PatternCodec& codec,
    const MupSearchOptions& options, MupSearchStats* stats) {
  Stopwatch timer;
  const Schema& schema = oracle.data().schema();
  const AggregatedData& data = oracle.data();
  const int d = schema.num_attributes();

  if (schema.NumValueCombinations() > options.enumeration_limit) {
    return Status::ResourceExhausted(
        "PATTERN-COMBINER's level-d pass needs " +
        std::to_string(schema.NumValueCombinations()) +
        " combinations, limit is " + std::to_string(options.enumeration_limit));
  }

  // Count maps live in a two-arena ping-pong: `count` (this level) in one
  // arena, `next_count` (one level up) built into the other after a bulk
  // reset. Keys are packed words, so the maps never touch the heap per node.
  Arena map_arenas[2];
  Arena* cur_arena = &map_arenas[0];
  Arena* next_arena = &map_arenas[1];

  // Level-d pass: one count per full combination, sharded over blocks of
  // the leading attributes' values when parallel. The map contents are
  // order-independent, so the result does not depend on the sharding.
  std::uint64_t nodes_generated = 0;
  std::uint64_t level_d_queries = 0;
  PackedPatternMap<W, std::uint64_t> count(cur_arena);
  const int num_workers = options.num_threads > 1 ? options.num_threads : 1;
  std::uint64_t num_blocks = 1;
  int prefix_len = 0;
  while (prefix_len < d &&
         num_blocks < static_cast<std::uint64_t>(4 * num_workers)) {
    num_blocks *= static_cast<std::uint64_t>(schema.cardinality(prefix_len));
    ++prefix_len;
  }
  if (num_workers > 1 && num_blocks > 1) {
    using Uncovered =
        std::vector<std::pair<PackedPattern<W>, std::uint64_t>>;
    std::vector<Uncovered> block_uncovered(num_blocks);
    std::vector<std::uint64_t> block_nodes(num_blocks, 0);
    Executor::Shared().ParallelFor(
        num_blocks, /*chunk=*/1, num_workers,
        [&](int /*worker*/, std::size_t b) {
          Pattern block = Pattern::Root(d);
          std::uint64_t rest = b;
          for (int a = prefix_len - 1; a >= 0; --a) {
            const auto c = static_cast<std::uint64_t>(schema.cardinality(a));
            block = block.WithCell(a, static_cast<Value>(rest % c));
            rest /= c;
          }
          const Status st = ForEachMatchingCombination(
              block, schema, options.enumeration_limit,
              [&](const std::vector<Value>& combo) {
                ++block_nodes[b];
                const std::uint64_t c = data.CountOf(combo);
                if (c < options.tau) {
                  block_uncovered[b].emplace_back(
                      codec.EncodeTuple<W>(combo), c);
                }
              });
          // Cannot fire: the whole space already passed the upfront guard.
          (void)st;
        });
    for (std::size_t b = 0; b < num_blocks; ++b) {
      nodes_generated += block_nodes[b];
      level_d_queries += block_nodes[b];
      for (const auto& [p, c] : block_uncovered[b]) {
        count.FindOrInsert(p, c);
      }
    }
  } else {
    const Status st = ForEachMatchingCombination(
        Pattern::Root(d), schema, options.enumeration_limit,
        [&](const std::vector<Value>& combo) {
          ++nodes_generated;
          ++level_d_queries;
          const std::uint64_t c = data.CountOf(combo);
          if (c < options.tau) {
            count.FindOrInsert(codec.EncodeTuple<W>(combo), c);
          }
        });
    COVERAGE_RETURN_IF_ERROR(st);
  }

  std::vector<PackedPattern<W>> mups;
  if (count.size() != 0) {
    for (int level = d; level >= 0; --level) {
      // Combine: generate the uncovered candidates one level up. Each parent
      // is generated exactly once (Rule 2 / Theorem 4); its coverage is the
      // sum over the partition family at its right-most wildcard, where
      // children absent from `count` are covered and contribute at least τ
      // (capped — only the "< τ" outcome matters).
      next_arena->Reset();
      PackedPatternMap<W, std::uint64_t> next_count(next_arena);
      count.ForEach([&](const PackedPattern<W>& p, const std::uint64_t& cnt) {
        (void)cnt;
        // Rule-2 parents: wildcard a 0-valued cell right of the right-most
        // wildcard, so each parent is generated by exactly one child.
        const int start = codec.RightmostWildcard(p) + 1;
        for (int i = start; i < d; ++i) {
          if (codec.cell(p, i) != 0) continue;
          const PackedPattern<W> parent = codec.WithCell(p, i, kWildcard);
          ++nodes_generated;
          const int pivot = codec.RightmostWildcard(parent);
          std::uint64_t sum = 0;
          bool covered = false;
          const Value card = static_cast<Value>(schema.cardinality(pivot));
          for (Value v = 0; v < card; ++v) {
            const std::uint64_t* it =
                count.Find(codec.WithCell(parent, pivot, v));
            if (it == nullptr) {
              covered = true;  // a covered child already implies sum >= tau
              break;
            }
            sum += *it;
            if (sum >= options.tau) {
              covered = true;
              break;
            }
          }
          if (!covered) next_count.FindOrInsert(parent, sum);
        }
      });
      // A node at this level is a MUP iff none of its parents is uncovered.
      count.ForEach([&](const PackedPattern<W>& p, const std::uint64_t& cnt) {
        (void)cnt;
        if (options.max_level >= 0 && p.level() > options.max_level) return;
        for (int i = 0; i < d; ++i) {
          if (!codec.is_deterministic(p, i)) continue;
          if (next_count.Find(codec.WithCell(p, i, kWildcard)) != nullptr) {
            return;
          }
        }
        mups.push_back(p);
      });
      if (next_count.size() == 0) break;
      count = next_count;
      std::swap(cur_arena, next_arena);
    }
  }

  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  if (stats != nullptr) {
    stats->coverage_queries = level_d_queries;
    stats->nodes_generated = nodes_generated;
    stats->seconds = timer.ElapsedSeconds();
    stats->num_mups = mups.size();
  }
  return mups;
}

}  // namespace

StatusOr<PackedMupSet> FindMupsPatternCombinerPacked(
    const BitmapCoverage& oracle, const PatternCodec& codec,
    const MupSearchOptions& options, MupSearchStats* stats) {
  return WithKeyWidth(
      codec, [&]<int W>(std::integral_constant<int, W>)
                 -> StatusOr<PackedMupSet> {
        auto mups = PatternCombiner<W>(oracle, codec, options, stats);
        COVERAGE_RETURN_IF_ERROR(mups.status());
        return PackedMupSet(codec, *mups);
      });
}

StatusOr<std::vector<Pattern>> FindMupsPatternCombiner(
    const BitmapCoverage& oracle, const MupSearchOptions& options,
    MupSearchStats* stats) {
  return FindMups(MupAlgorithm::kPatternCombiner, oracle, options, stats);
}

}  // namespace coverage
