#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mups/mups.h"
#include "mups/packed_index.h"
#include "pattern/packed_set.h"

namespace coverage {

namespace {

/// Covered/uncovered answers with a memo over packed keys. Dives and climbs
/// revisit the same ancestors over and over, so the memo saves most oracle
/// calls; the table's storage comes from the worker's arena, so a dive
/// session costs zero per-node allocations.
template <int W>
class CachingCoverage {
 public:
  CachingCoverage(const CoverageOracle& oracle, const PatternCodec& codec,
                  std::uint64_t tau, Arena* arena)
      : oracle_(oracle), codec_(codec), tau_(tau), cache_(arena) {}

  bool Covered(const PackedPattern<W>& p) {
    if (const bool* hit = cache_.Find(p)) return *hit;
    const bool covered = oracle_.CoverageAtLeast(p, codec_, tau_, ctx_);
    cache_.FindOrInsert(p, covered);
    return covered;
  }

  std::uint64_t num_queries() const { return ctx_.num_queries(); }

 private:
  const CoverageOracle& oracle_;
  const PatternCodec& codec_;
  const std::uint64_t tau_;
  QueryContext ctx_;
  PackedPatternMap<W, bool> cache_;
};

using DominanceMode = MupSearchOptions::DominanceMode;

/// DominanceMode dispatch over the packed index: the Appendix-B bitmap
/// probe, a linear scan over the discovered MUPs, or no pruning at all.
template <int W>
bool ModeIsDominated(const PackedMupIndex<W>& index, DominanceMode mode,
                     const PackedPattern<W>& p) {
  switch (mode) {
    case DominanceMode::kBitmapIndex:
      return index.IsDominated(p);
    case DominanceMode::kLinearScan: {
      for (const PackedPattern<W>& m : index.mups()) {
        if (m.Dominates(p)) return true;
      }
      return false;
    }
    case DominanceMode::kNoPruning:
      return false;
  }
  return false;
}

template <int W>
bool ModeDominatesSome(const PackedMupIndex<W>& index, DominanceMode mode,
                       const PackedPattern<W>& p) {
  switch (mode) {
    case DominanceMode::kBitmapIndex:
      return index.DominatesSome(p);
    case DominanceMode::kLinearScan: {
      for (const PackedPattern<W>& m : index.mups()) {
        if (p.Dominates(m)) return true;
      }
      return false;
    }
    case DominanceMode::kNoPruning:
      return false;
  }
  return false;
}

/// Discovered-MUP set for the serial search. Membership is exact in every
/// mode (needed for termination).
template <int W>
class DominanceChecker {
 public:
  DominanceChecker(const Schema& schema, const PatternCodec& codec,
                   DominanceMode mode)
      : mode_(mode), index_(schema, codec) {}

  void Add(const PackedPattern<W>& mup) { index_.Add(mup); }
  bool Contains(const PackedPattern<W>& p) const { return index_.Contains(p); }
  bool IsDominated(const PackedPattern<W>& p) const {
    return ModeIsDominated(index_, mode_, p);
  }
  bool DominatesSome(const PackedPattern<W>& p) const {
    return ModeDominatesSome(index_, mode_, p);
  }
  const std::vector<PackedPattern<W>>& mups() const { return index_.mups(); }

 private:
  DominanceMode mode_;
  PackedMupIndex<W> index_;
};

/// The same strategies against the reader/writer-locked shared index.
template <int W>
class SharedDominanceChecker {
 public:
  SharedDominanceChecker(const Schema& schema, const PatternCodec& codec,
                         DominanceMode mode)
      : mode_(mode), index_(schema, codec) {}

  bool AddIfAbsent(const PackedPattern<W>& mup) {
    return index_.AddIfAbsent(mup);
  }
  bool Contains(const PackedPattern<W>& p) const { return index_.Contains(p); }
  bool IsDominated(const PackedPattern<W>& p) const {
    return index_.WithReadLock([&](const PackedMupIndex<W>& idx) {
      return ModeIsDominated(idx, mode_, p);
    });
  }
  bool DominatesSome(const PackedPattern<W>& p) const {
    return index_.WithReadLock([&](const PackedMupIndex<W>& idx) {
      return ModeDominatesSome(idx, mode_, p);
    });
  }
  std::vector<PackedPattern<W>> Snapshot() const { return index_.Snapshot(); }

 private:
  DominanceMode mode_;
  SharedPackedMupIndex<W> index_;
};

/// The shared dive frontier of the parallel search: a LIFO stack of
/// pending nodes plus a count of nodes being processed. Pop blocks while
/// the stack is empty but some worker may still push children, and returns
/// false once both are exhausted. PackedPattern is a small trivially
/// copyable value, so the stack moves whole keys, not heap cells.
template <int W>
class DiveQueue {
 public:
  explicit DiveQueue(const PackedPattern<W>& root) { stack_.push_back(root); }

  bool Pop(PackedPattern<W>& out) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!stack_.empty()) {
        out = stack_.back();
        stack_.pop_back();
        ++active_;
        return true;
      }
      if (active_ == 0) {
        cv_.notify_all();
        return false;
      }
      cv_.wait(lock);
    }
  }

  void Push(const PackedPattern<W>* items, std::size_t count) {
    if (count == 0) return;
    {
      std::unique_lock<std::mutex> lock(mu_);
      stack_.insert(stack_.end(), items, items + count);
    }
    cv_.notify_all();
  }

  void FinishItem() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--active_ == 0 && stack_.empty()) cv_.notify_all();
  }

  class ItemGuard {
   public:
    explicit ItemGuard(DiveQueue& queue) : queue_(queue) {}
    ~ItemGuard() { queue_.FinishItem(); }
    ItemGuard(const ItemGuard&) = delete;
    ItemGuard& operator=(const ItemGuard&) = delete;

   private:
    DiveQueue& queue_;
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PackedPattern<W>> stack_;
  int active_ = 0;
};

/// Climbs from an uncovered node through uncovered parents until every
/// parent is covered; that node is a MUP. Parents are tried in ascending
/// attribute order (same as Pattern::Parents()), so the climb endpoint — and
/// with it the query sequence — is deterministic.
template <int W>
PackedPattern<W> ClimbToMup(const PackedPattern<W>& start,
                            const PatternCodec& codec,
                            CachingCoverage<W>& cov) {
  PackedPattern<W> current = start;
  const int d = codec.num_attributes();
  for (;;) {
    bool moved = false;
    for (int i = 0; i < d; ++i) {
      if (!codec.is_deterministic(current, i)) continue;
      const PackedPattern<W> parent = codec.WithCell(current, i, kWildcard);
      if (!cov.Covered(parent)) {
        current = parent;
        moved = true;
        break;
      }
    }
    if (!moved) return current;
  }
}

/// Appends p's Rule-1 children to `out`; returns how many were generated.
template <int W, typename Vec>
std::size_t PushRule1Children(const PackedPattern<W>& p,
                              const PatternCodec& codec,
                              const Schema& schema, Vec& out) {
  std::size_t generated = 0;
  const int d = codec.num_attributes();
  const int start = codec.RightmostDeterministic(p) + 1;
  for (int a = start; a < d; ++a) {
    const Value c = static_cast<Value>(schema.cardinality(a));
    for (Value v = 0; v < c; ++v) {
      out.push_back(codec.WithCell(p, a, v));
      ++generated;
    }
  }
  return generated;
}

template <int W>
std::vector<PackedPattern<W>> DeepDiverParallel(
    const CoverageOracle& oracle, const Schema& schema,
    const PatternCodec& codec, const MupSearchOptions& options,
    MupSearchStats* stats) {
  const int d = schema.num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  SharedDominanceChecker<W> index(schema, codec, options.dominance_mode);
  DiveQueue<W> queue(codec.Root<W>());

  ThreadPool pool(options.num_threads);
  const int workers = pool.num_workers();
  std::vector<std::uint64_t> worker_queries(
      static_cast<std::size_t>(workers), 0);
  std::vector<std::uint64_t> worker_generated(
      static_cast<std::size_t>(workers), 0);
  std::vector<std::uint64_t> worker_pruned(
      static_cast<std::size_t>(workers), 0);

  pool.RunOnAll([&](int worker) {
    Arena arena;
    CachingCoverage<W> cov(oracle, codec, options.tau, &arena);
    std::vector<PackedPattern<W>> children;
    std::uint64_t generated = 0;
    std::uint64_t pruned = 0;
    PackedPattern<W> p;
    while (queue.Pop(p)) {
      const typename DiveQueue<W>::ItemGuard guard(queue);
      if (index.Contains(p) || index.IsDominated(p)) {
        ++pruned;
        continue;
      }

      bool covered;
      if (index.DominatesSome(p)) {
        covered = true;
      } else {
        covered = cov.Covered(p);
      }

      if (covered) {
        if (p.level() < max_level) {
          children.clear();
          generated += PushRule1Children(p, codec, schema, children);
          queue.Push(children.data(), children.size());
        }
        continue;
      }

      index.AddIfAbsent(ClimbToMup(p, codec, cov));
    }
    worker_queries[static_cast<std::size_t>(worker)] = cov.num_queries();
    worker_generated[static_cast<std::size_t>(worker)] = generated;
    worker_pruned[static_cast<std::size_t>(worker)] = pruned;
  });

  std::vector<PackedPattern<W>> mups = index.Snapshot();
  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  if (stats != nullptr) {
    for (int w = 0; w < workers; ++w) {
      stats->coverage_queries += worker_queries[static_cast<std::size_t>(w)];
      stats->nodes_generated += worker_generated[static_cast<std::size_t>(w)];
      stats->nodes_pruned += worker_pruned[static_cast<std::size_t>(w)];
    }
    stats->nodes_generated += 1;  // the root
  }
  return mups;
}

template <int W>
std::vector<PackedPattern<W>> DeepDiverSerial(const CoverageOracle& oracle,
                                              const Schema& schema,
                                              const PatternCodec& codec,
                                              const MupSearchOptions& options,
                                              MupSearchStats* stats) {
  const int d = schema.num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  Arena arena;
  CachingCoverage<W> cov(oracle, codec, options.tau, &arena);
  DominanceChecker<W> index(schema, codec, options.dominance_mode);
  ArenaVector<PackedPattern<W>> stack(&arena);
  stack.push_back(codec.Root<W>());
  std::uint64_t nodes_generated = 1;
  std::uint64_t nodes_pruned = 0;

  while (!stack.empty()) {
    const PackedPattern<W> p = stack.back();
    stack.pop_back();

    if (index.Contains(p) || index.IsDominated(p)) {
      ++nodes_pruned;
      continue;
    }

    bool covered;
    if (index.DominatesSome(p)) {
      covered = true;
    } else {
      covered = cov.Covered(p);
    }

    if (covered) {
      if (p.level() < max_level) {
        nodes_generated += PushRule1Children(p, codec, schema, stack);
      }
      continue;
    }

    const PackedPattern<W> mup = ClimbToMup(p, codec, cov);
    if (!index.Contains(mup)) index.Add(mup);
  }

  std::vector<PackedPattern<W>> mups = index.mups();
  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  if (stats != nullptr) {
    stats->coverage_queries = cov.num_queries();
    stats->nodes_generated = nodes_generated;
    stats->nodes_pruned = nodes_pruned;
    stats->num_mups = mups.size();
  }
  return mups;
}

}  // namespace

PackedMupSet FindMupsDeepDiverPacked(const CoverageOracle& oracle,
                                     const Schema& schema,
                                     const PatternCodec& codec,
                                     const MupSearchOptions& options,
                                     MupSearchStats* stats) {
  Stopwatch timer;
  if (stats != nullptr) stats->Reset();
  PackedMupSet mups =
      WithKeyWidth(codec, [&]<int W>(std::integral_constant<int, W>) {
        return PackedMupSet(
            codec, options.num_threads > 1
                       ? DeepDiverParallel<W>(oracle, schema, codec, options,
                                              stats)
                       : DeepDiverSerial<W>(oracle, schema, codec, options,
                                            stats));
      });
  if (stats != nullptr) {
    stats->seconds = timer.ElapsedSeconds();
    stats->num_mups = mups.size();
  }
  return mups;
}

std::vector<Pattern> FindMupsDeepDiver(const CoverageOracle& oracle,
                                       const Schema& schema,
                                       const MupSearchOptions& options,
                                       MupSearchStats* stats) {
  auto codec = PatternCodec::Build(schema);
  if (!codec.ok()) return {};
  return FindMupsDeepDiverPacked(oracle, schema, *codec, options, stats)
      .Materialize();
}

}  // namespace coverage
