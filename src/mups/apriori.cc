#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "mups/mups.h"

namespace coverage {

namespace {

/// An item is one (attribute, value) pair; an item-set is a sorted vector of
/// item ids. Level k of the item lattice holds the k-item sets; a set of
/// items over distinct attributes is exactly a level-k pattern. Each level's
/// frequent sets live in one flat buffer (all rows share a width) and MUPs
/// are emitted directly as packed keys.
struct ItemCatalog {
  std::vector<int> attr_of;    // item id -> attribute
  std::vector<Value> value_of; // item id -> value

  explicit ItemCatalog(const Schema& schema) {
    for (int i = 0; i < schema.num_attributes(); ++i) {
      for (Value v = 0; v < static_cast<Value>(schema.cardinality(i)); ++v) {
        attr_of.push_back(i);
        value_of.push_back(v);
      }
    }
  }

  std::size_t size() const { return attr_of.size(); }
};

/// Fixed-width rows of item ids in one contiguous buffer; a level's frequent
/// sets all have the same size, so the level needs exactly one allocation.
class FlatItemSets {
 public:
  explicit FlatItemSets(std::size_t width) : width_(width) {}

  std::size_t size() const { return rows_; }
  std::size_t width() const { return width_; }
  const int* row(std::size_t i) const { return data_.data() + i * width_; }

  void Push(const int* items) {
    data_.insert(data_.end(), items, items + width_);
    ++rows_;
  }

  /// Rows are appended in lexicographic order (the join preserves it), so
  /// membership is a binary search over row indices.
  bool Contains(const int* items) const {
    std::size_t lo = 0;
    std::size_t hi = rows_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const int* r = row(mid);
      int cmp = 0;
      for (std::size_t i = 0; i < width_; ++i) {
        if (r[i] != items[i]) {
          cmp = r[i] < items[i] ? -1 : 1;
          break;
        }
      }
      if (cmp == 0) return true;
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  }

 private:
  std::size_t width_;
  std::size_t rows_ = 0;
  std::vector<int> data_;
};

std::uint64_t Support(const int* items, std::size_t n,
                      const ItemCatalog& catalog, const BitmapCoverage& oracle) {
  if (n == 0) return oracle.data().total_count();
  BitVector acc = oracle.index(
      catalog.attr_of[static_cast<std::size_t>(items[0])],
      catalog.value_of[static_cast<std::size_t>(items[0])]);
  for (std::size_t k = 1; k < n; ++k) {
    acc.AndWith(oracle.index(
        catalog.attr_of[static_cast<std::size_t>(items[k])],
        catalog.value_of[static_cast<std::size_t>(items[k])]));
    if (acc.None()) return 0;
  }
  return acc.Dot(oracle.data().counts());
}

/// True iff every (k-1)-subset of `candidate` is frequent — the apriori
/// prune step. `scratch` must have room for candidate_size - 1 items.
bool AllSubsetsFrequent(const int* candidate, std::size_t candidate_size,
                        const FlatItemSets& frequent, int* scratch) {
  for (std::size_t skip = 0; skip < candidate_size; ++skip) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < candidate_size; ++i) {
      if (i != skip) scratch[out++] = candidate[i];
    }
    if (!frequent.Contains(scratch)) return false;
  }
  return true;
}

/// Converts a valid item-set (distinct attributes) to a packed pattern;
/// returns false for invalid ones (two values of the same attribute).
template <int W>
bool ToPacked(const int* items, std::size_t n, const ItemCatalog& catalog,
              const PatternCodec& codec, PackedPattern<W>* out) {
  PackedPattern<W> p = codec.Root<W>();
  for (std::size_t i = 0; i < n; ++i) {
    const int attr = catalog.attr_of[static_cast<std::size_t>(items[i])];
    if (codec.is_deterministic(p, attr)) return false;
    p = codec.WithCell(p, attr,
                       catalog.value_of[static_cast<std::size_t>(items[i])]);
  }
  *out = p;
  return true;
}

template <int W>
StatusOr<std::vector<PackedPattern<W>>> Apriori(
    const BitmapCoverage& oracle, const PatternCodec& codec,
    const MupSearchOptions& options, MupSearchStats* stats) {
  Stopwatch timer;
  const Schema& schema = oracle.data().schema();
  const int d = schema.num_attributes();
  const ItemCatalog catalog(schema);

  std::vector<PackedPattern<W>> mups;
  std::uint64_t nodes_generated = 0;
  std::uint64_t support_queries = 0;

  // Level 0: the empty item-set (the root pattern). If even it is
  // infrequent, it is the only MUP.
  if (oracle.data().total_count() < options.tau) {
    mups.push_back(codec.Root<W>());
    if (stats != nullptr) {
      stats->coverage_queries = 0;
      stats->nodes_generated = 1;
      stats->seconds = timer.ElapsedSeconds();
      stats->num_mups = mups.size();
    }
    return mups;
  }

  const int max_level = options.max_level < 0 ? d : options.max_level;

  // Level 1: singleton item-sets.
  FlatItemSets frequent(/*width=*/1);
  for (int item = 0; item < static_cast<int>(catalog.size()); ++item) {
    ++nodes_generated;
    ++support_queries;
    if (Support(&item, 1, catalog, oracle) >= options.tau) {
      frequent.Push(&item);
    } else {
      PackedPattern<W> p;
      if (ToPacked(&item, 1, catalog, codec, &p)) mups.push_back(p);
    }
  }

  // Levels 2..max: apriori-gen join + prune over the item lattice.
  std::vector<int> candidate;
  std::vector<int> scratch;
  for (int k = 2; k <= max_level && frequent.size() != 0; ++k) {
    FlatItemSets next_frequent(static_cast<std::size_t>(k));
    candidate.resize(static_cast<std::size_t>(k));
    scratch.resize(static_cast<std::size_t>(k - 1));
    const std::size_t w = frequent.width();
    for (std::size_t a = 0; a < frequent.size(); ++a) {
      for (std::size_t b = a + 1; b < frequent.size(); ++b) {
        // Join two sets sharing their first k-2 items.
        if (!std::equal(frequent.row(a), frequent.row(a) + w - 1,
                        frequent.row(b))) {
          break;  // sorted order: later b cannot share the prefix either
        }
        std::copy(frequent.row(a), frequent.row(a) + w, candidate.data());
        candidate[w] = frequent.row(b)[w - 1];
        ++nodes_generated;
        if (nodes_generated > options.enumeration_limit) {
          return Status::ResourceExhausted(
              "APRIORI generated more than " +
              std::to_string(options.enumeration_limit) + " item-sets");
        }
        if (!AllSubsetsFrequent(candidate.data(), candidate.size(), frequent,
                                scratch.data())) {
          continue;
        }
        ++support_queries;
        if (Support(candidate.data(), candidate.size(), catalog, oracle) >=
            options.tau) {
          next_frequent.Push(candidate.data());
        } else {
          // Negative border: infrequent, all subsets frequent. Valid members
          // are exactly the MUPs; invalid ones (duplicate attribute) are the
          // wasted work this adaptation cannot avoid.
          PackedPattern<W> p;
          if (ToPacked(candidate.data(), candidate.size(), catalog, codec,
                       &p)) {
            mups.push_back(p);
          }
        }
      }
    }
    frequent = std::move(next_frequent);
  }

  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  if (stats != nullptr) {
    stats->coverage_queries = support_queries;
    stats->nodes_generated = nodes_generated;
    stats->seconds = timer.ElapsedSeconds();
    stats->num_mups = mups.size();
  }
  return mups;
}

}  // namespace

StatusOr<PackedMupSet> FindMupsAprioriPacked(const BitmapCoverage& oracle,
                                             const PatternCodec& codec,
                                             const MupSearchOptions& options,
                                             MupSearchStats* stats) {
  return WithKeyWidth(
      codec, [&]<int W>(std::integral_constant<int, W>)
                 -> StatusOr<PackedMupSet> {
        auto mups = Apriori<W>(oracle, codec, options, stats);
        COVERAGE_RETURN_IF_ERROR(mups.status());
        return PackedMupSet(codec, *mups);
      });
}

StatusOr<std::vector<Pattern>> FindMupsApriori(const BitmapCoverage& oracle,
                                               const MupSearchOptions& options,
                                               MupSearchStats* stats) {
  return FindMups(MupAlgorithm::kApriori, oracle, options, stats);
}

}  // namespace coverage
