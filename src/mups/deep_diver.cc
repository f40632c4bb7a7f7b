#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/arena.h"
#include "common/executor.h"
#include "common/stopwatch.h"
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

  /// One probe per call: a fresh slot holds -1 until the oracle answers.
  bool Covered(const PackedPattern<W>& p) {
    std::int8_t& slot = cache_.FindOrInsert(p, std::int8_t{-1});
    if (slot == -1) {
      slot = oracle_.CoverageAtLeast(p, codec_, tau_, ctx_) ? 1 : 0;
    }
    return slot == 1;
  }

  std::uint64_t num_queries() const { return ctx_.num_queries(); }

 private:
  const CoverageOracle& oracle_;
  const PatternCodec& codec_;
  const std::uint64_t tau_;
  QueryContext ctx_;
  PackedPatternMap<W, std::int8_t> cache_;
};

using DominanceMode = MupSearchOptions::DominanceMode;

/// One worker's replica of the discovered-MUP set, with the DominanceMode
/// dispatch: the Appendix-B bitmap probe, a linear scan over the discovered
/// MUPs, or no pruning at all. Membership is exact in every mode (needed for
/// termination).
template <int W>
class DominanceChecker {
 public:
  DominanceChecker(const Schema& schema, const PatternCodec& codec,
                   DominanceMode mode)
      : mode_(mode), index_(schema, codec) {}

  void Add(const PackedPattern<W>& mup) { index_.Add(mup); }
  bool Contains(const PackedPattern<W>& p) const { return index_.Contains(p); }

  bool IsDominated(const PackedPattern<W>& p) const {
    switch (mode_) {
      case DominanceMode::kBitmapIndex:
        return index_.IsDominated(p);
      case DominanceMode::kLinearScan:
        for (const PackedPattern<W>& m : index_.mups()) {
          if (m.Dominates(p)) return true;
        }
        return false;
      case DominanceMode::kNoPruning:
        return false;
    }
    return false;
  }

  bool DominatesSome(const PackedPattern<W>& p) const {
    switch (mode_) {
      case DominanceMode::kBitmapIndex:
        return index_.DominatesSome(p);
      case DominanceMode::kLinearScan:
        for (const PackedPattern<W>& m : index_.mups()) {
          if (p.Dominates(m)) return true;
        }
        return false;
      case DominanceMode::kNoPruning:
        return false;
    }
    return false;
  }

 private:
  DominanceMode mode_;
  PackedMupIndex<W> index_;
};

/// What the DEEPDIVER workers share, all of it behind one mutex: a spill
/// stack of undived nodes (seeded with the root), the counts of workers that
/// joined and of those waiting on the spill stack, and the append-only log
/// of discovered MUPs. Everything else — dive stack, memo, MUP-index replica
/// — is per worker, so a worker locks only to exchange something. The
/// executor decides at run time how many workers join, so termination is
/// "every worker that joined is idle", and a worker arriving after `done`
/// leaves at once. `found` mirrors `log.size()` and `idle` doubles as the
/// "someone is hungry" signal; both are written under the mutex and read
/// relaxed, so a worker with nothing to trade never locks.
template <int W>
struct DiveExchange {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<PackedPattern<W>> spill;
  std::vector<PackedPattern<W>> log;
  int joined = 0;
  bool done = false;
  std::atomic<std::size_t> found{0};
  std::atomic<int> idle{0};
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
template <int W>
std::size_t PushRule1Children(const PackedPattern<W>& p,
                              const PatternCodec& codec, const Schema& schema,
                              std::vector<PackedPattern<W>>& out) {
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

/// One DEEPDIVER worker: Algorithm 3's dive loop over a private LIFO stack,
/// memo and MUP-index replica, trading with the others through a
/// DiveExchange. A replica only ever holds true MUPs, and pruning against a
/// subset of the MUP set is sound in both directions (below a known MUP ⇒
/// uncovered, above one ⇒ covered), so stale replicas cost duplicate climbs,
/// never a wrong answer. With one worker nothing is ever traded and the loop
/// runs in exactly the serial order.
template <int W>
class DiveWorker {
 public:
  using Key = PackedPattern<W>;

  DiveWorker(const CoverageOracle& oracle, const Schema& schema,
             const PatternCodec& codec, const MupSearchOptions& options,
             DiveExchange<W>& exchange)
      : schema_(schema),
        codec_(codec),
        max_level_(options.max_level < 0 ? schema.num_attributes()
                                         : options.max_level),
        exchange_(exchange),
        cov_(oracle, codec, options.tau, &arena_),
        index_(schema, codec, options.dominance_mode) {}

  void Run() {
    while (!stack_.empty() || Refill()) {
      const Key p = stack_.back();
      stack_.pop_back();
      Visit(p);
      if (exchange_.found.load(std::memory_order_relaxed) != pulled_) {
        const std::lock_guard<std::mutex> lock(exchange_.mu);
        PullLocked();
      }
      if (stack_.size() >= 2 &&
          exchange_.idle.load(std::memory_order_relaxed) > 0) {
        Spill();
      }
    }
  }

  std::uint64_t queries() const { return cov_.num_queries(); }
  std::uint64_t generated() const { return generated_; }
  std::uint64_t pruned() const { return pruned_; }

 private:
  void Visit(const Key& p) {
    if (index_.Contains(p) || index_.IsDominated(p)) {
      ++pruned_;
      return;
    }
    const bool covered = index_.DominatesSome(p) || cov_.Covered(p);
    if (covered) {
      if (p.level() < max_level_) {
        generated_ += PushRule1Children(p, codec_, schema_, stack_);
      }
      return;
    }
    const Key mup = ClimbToMup(p, codec_, cov_);
    if (index_.Contains(mup)) return;
    index_.Add(mup);
    const std::lock_guard<std::mutex> lock(exchange_.mu);
    exchange_.log.push_back(mup);
    PullLocked();
  }

  /// Adds the log entries this worker has not seen to its replica; its own
  /// and other duplicate discoveries are already members.
  void PullLocked() {
    const std::vector<Key>& log = exchange_.log;
    for (; pulled_ < log.size(); ++pulled_) {
      if (!index_.Contains(log[pulled_])) index_.Add(log[pulled_]);
    }
    exchange_.found.store(log.size(), std::memory_order_relaxed);
  }

  /// Hands the bottom half of the stack — the shallowest nodes, whose
  /// subtrees are the largest — to the waiting workers.
  void Spill() {
    const std::size_t give = stack_.size() / 2;
    {
      const std::lock_guard<std::mutex> lock(exchange_.mu);
      exchange_.spill.insert(exchange_.spill.end(), stack_.begin(),
                             stack_.begin() + static_cast<std::ptrdiff_t>(give));
    }
    stack_.erase(stack_.begin(),
                 stack_.begin() + static_cast<std::ptrdiff_t>(give));
    exchange_.cv.notify_all();
  }

  /// Takes this worker's share of the spill stack, waiting while it is
  /// empty and some worker is still diving. Returns false once every worker
  /// is out of nodes: nothing can be spilled any more, so the search is over.
  bool Refill() {
    std::unique_lock<std::mutex> lock(exchange_.mu);
    for (;;) {
      PullLocked();
      std::vector<Key>& spill = exchange_.spill;
      if (!spill.empty()) {
        const int idle = exchange_.idle.load(std::memory_order_relaxed);
        const std::size_t take =
            (spill.size() + static_cast<std::size_t>(idle)) /
            (static_cast<std::size_t>(idle) + 1);
        const auto from = spill.end() - static_cast<std::ptrdiff_t>(take);
        stack_.insert(stack_.end(), from, spill.end());
        spill.erase(from, spill.end());
        if (!spill.empty()) exchange_.cv.notify_all();
        return true;
      }
      if (exchange_.done) return false;
      if (exchange_.idle.load(std::memory_order_relaxed) + 1 ==
          exchange_.joined) {
        exchange_.done = true;
        exchange_.cv.notify_all();
        return false;
      }
      exchange_.idle.fetch_add(1, std::memory_order_relaxed);
      exchange_.cv.wait(lock);
      exchange_.idle.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  const Schema& schema_;
  const PatternCodec& codec_;
  const int max_level_;
  DiveExchange<W>& exchange_;
  Arena arena_;
  CachingCoverage<W> cov_;
  DominanceChecker<W> index_;
  std::vector<Key> stack_;
  std::size_t pulled_ = 0;  // log prefix already in the replica
  std::uint64_t generated_ = 0;
  std::uint64_t pruned_ = 0;
};

template <int W>
std::vector<PackedPattern<W>> DeepDiver(const CoverageOracle& oracle,
                                        const Schema& schema,
                                        const PatternCodec& codec,
                                        const MupSearchOptions& options,
                                        MupSearchStats* stats) {
  DiveExchange<W> exchange;
  exchange.spill.push_back(codec.Root<W>());
  const int workers = options.num_threads > 1 ? options.num_threads : 1;
  std::vector<std::array<std::uint64_t, 3>> counters(
      static_cast<std::size_t>(workers));
  Executor::Shared().Run(workers, [&](int worker) {
    {
      const std::lock_guard<std::mutex> lock(exchange.mu);
      if (exchange.done) return;
      ++exchange.joined;
    }
    DiveWorker<W> diver(oracle, schema, codec, options, exchange);
    try {
      diver.Run();
    } catch (...) {
      // Release the waiting workers; Run rethrows once all return.
      const std::lock_guard<std::mutex> lock(exchange.mu);
      exchange.done = true;
      exchange.cv.notify_all();
      throw;
    }
    counters[static_cast<std::size_t>(worker)] = {
        diver.queries(), diver.generated(), diver.pruned()};
  });

  std::vector<PackedPattern<W>> mups = std::move(exchange.log);
  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  mups.erase(std::unique(mups.begin(), mups.end()), mups.end());
  if (stats != nullptr) {
    stats->nodes_generated = 1;  // the root
    for (const auto& [queries, generated, pruned] : counters) {
      stats->coverage_queries += queries;
      stats->nodes_generated += generated;
      stats->nodes_pruned += pruned;
    }
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
            codec, DeepDiver<W>(oracle, schema, codec, options, stats));
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
