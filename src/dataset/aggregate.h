#ifndef COVERAGE_DATASET_AGGREGATE_H_
#define COVERAGE_DATASET_AGGREGATE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"

namespace coverage {

/// The aggregated relation of Appendix A: the distinct value combinations of
/// `D` together with their multiplicities. All coverage machinery operates on
/// this compression — its size is bounded by min(n, Π c_i), which is why data
/// size has little effect on MUP-identification runtime (paper, Fig. 14).
///
/// The relation is appendable: new rows either bump the multiplicity of an
/// existing combination in place or append a new combination *at the end*,
/// so combination ids are stable across appends. This prefix stability is
/// what lets BitmapCoverage extend a previous epoch's index instead of
/// rebuilding it (see the incremental constructor there).
///
/// The relation is also decrementable (sliding windows, GDPR erasure): a
/// combination whose multiplicity falls to 0 is *tombstoned* — it keeps its
/// id, its slot in the table, and its entry in the key index, so ids stay
/// prefix-stable through any append/retract interleaving — and revives in
/// place if the same combination is appended again. Tombstones contribute 0
/// to every coverage query by construction (the dot runs over counts), so
/// correctness never depends on compacting them; BitmapCoverage's
/// decremental constructor zeroes their bits to keep queries fast.
///
/// Not thread-safe; the streaming engine mutates copies under its writer
/// lock and publishes them as immutable snapshots.
class AggregatedData {
 public:
  /// An empty relation over `schema`; rows arrive through AppendRows.
  explicit AggregatedData(Schema schema);

  /// Groups the rows of `dataset` by full value combination.
  explicit AggregatedData(const Dataset& dataset);

  /// Rebuilds a relation from its serialized image: `cells` holds the
  /// distinct combinations row-major in combination-id order, `counts` the
  /// parallel multiplicities (zeros restore as tombstones). The key index,
  /// total count, and tombstone count are derived; shape, value ranges,
  /// and combination uniqueness are validated (a corrupt-but-checksummed
  /// snapshot must not crash recovery).
  static StatusOr<AggregatedData> Restore(Schema schema,
                                          std::vector<Value> cells,
                                          std::vector<std::uint64_t> counts);

  /// Folds in one row (must match the schema in width and value ranges).
  /// Amortised O(d) (one hash probe + possible tail append).
  void AppendRow(std::span<const Value> row);

  /// Folds in every row of `rows` (whose schema must equal ours).
  void AppendRows(const Dataset& rows);

  /// Removes one occurrence of `row`. Returns false — leaving the relation
  /// unchanged — if the combination is absent or already at multiplicity 0.
  /// When a count reaches 0 the combination is tombstoned, never erased
  /// (see the class comment). Amortised O(d).
  bool DecrementRow(std::span<const Value> row);

  const Schema& schema() const { return schema_; }

  /// Number of distinct value combinations, tombstones included (this is
  /// the width of every bitmap built over the relation).
  std::size_t num_combinations() const { return counts_.size(); }

  /// Number of combinations currently at multiplicity 0. Zero for any
  /// relation that has only ever been appended to.
  std::size_t num_tombstones() const { return tombstones_; }

  /// Total number of underlying rows (Σ counts).
  std::uint64_t total_count() const { return total_count_; }

  /// The k-th distinct combination.
  std::span<const Value> combination(std::size_t k) const {
    return {cells_.data() + k * static_cast<std::size_t>(num_attributes()),
            static_cast<std::size_t>(num_attributes())};
  }

  /// Multiplicity of the k-th combination.
  std::uint64_t count(std::size_t k) const { return counts_[k]; }

  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Multiplicity of an arbitrary full value combination (0 if absent). Used
  /// by PATTERN-COMBINER's level-d pass.
  std::uint64_t CountOf(std::span<const Value> combination) const;

  int num_attributes() const { return schema_.num_attributes(); }

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// The id of a full value combination, or kAbsent — the exact row
  /// identity, exposed so row-multiset bookkeeping outside the relation
  /// (e.g. the engine's sliding-window scrub) keys rows identically.
  std::size_t IdOf(std::span<const Value> combination) const;

 private:
  /// The index key a combination's probe starts at: its exact mixed-radix
  /// code when Π cᵢ fits in 64 bits, else a hash of its cells.
  std::uint64_t KeyOf(std::span<const Value> combination) const;

  /// Maps `combination` to `id` unless it is already present. Returns the
  /// combination's id and whether it was inserted. A hash key taken by a
  /// different combination moves on to the next key; combinations are never
  /// erased, so no probe sequence is ever cut short.
  std::pair<std::size_t, bool> Insert(std::span<const Value> combination,
                                      std::size_t id);
  Schema schema_;
  std::vector<Value> cells_;            // distinct combinations, row-major
  std::vector<std::uint64_t> counts_;   // parallel multiplicities
  std::uint64_t total_count_ = 0;
  std::size_t tombstones_ = 0;          // combinations at multiplicity 0
  bool keyable_ = false;                // Π c_i fits: keys are exact
  std::unordered_map<std::uint64_t, std::size_t> index_;  // key -> combo id
};

}  // namespace coverage

#endif  // COVERAGE_DATASET_AGGREGATE_H_
