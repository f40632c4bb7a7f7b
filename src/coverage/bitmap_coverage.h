#ifndef COVERAGE_COVERAGE_BITMAP_COVERAGE_H_
#define COVERAGE_COVERAGE_BITMAP_COVERAGE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/bitvector.h"
#include "coverage/coverage_oracle.h"
#include "dataset/aggregate.h"

namespace coverage {

/// The inverted-index coverage oracle of Appendix A. One bit vector per
/// (attribute, value) over the *distinct* value combinations of D; coverage
/// of a pattern is the AND of the vectors of its deterministic cells dotted
/// with the multiplicity vector.
///
/// Thread-safety: immutable after construction. All query state lives in
/// the caller's QueryContext and the AND chain is fused with the dot product
/// (BitVector::AndChainDot / AndChainAtLeast), so queries materialise no
/// intermediate vector, allocate nothing, and one oracle instance is safely
/// shareable across any number of threads (one QueryContext per thread).
///
/// Complexity: construction is O(N·d) bit sets over N distinct combinations;
/// a query is one fused word-blocked pass over ℓ(P) index vectors of
/// ⌈N/64⌉ words, i.e. O(ℓ(P)·N/64) word operations with early exit for the
/// threshold form.
class BitmapCoverage : public CoverageOracle {
 public:
  /// The aggregated data must outlive the oracle.
  explicit BitmapCoverage(const AggregatedData& data);

  /// Incremental build: `data` must extend `prev.data()` — same schema, and
  /// the first prev.data().num_combinations() combinations identical (the
  /// prefix stability AggregatedData::AppendRows guarantees). The per-slot
  /// vectors are copied from `prev` and grown by one word-blocked append
  /// that sets only the new combinations' bits; multiplicity changes of
  /// existing combinations live entirely in `data.counts()` and need no
  /// index work. This is the append-epoch path of the streaming engine,
  /// valid only while `prev` carries no tombstoned (zeroed) combinations.
  BitmapCoverage(const AggregatedData& data, const BitmapCoverage& prev);

  /// Decremental / mixed build: like the incremental constructor, but first
  /// applies liveness changes within the shared prefix. Bits of `tombstoned`
  /// combination ids (multiplicity fell to 0 since `prev`) are zeroed in all
  /// d of their index vectors; bits of `revived` ids (multiplicity rose from
  /// 0) are set again. Zero counts already keep query *results* correct
  /// without any masking — the masking is what keeps a long-lived sliding
  /// window *fast*: dead combinations would otherwise hold their bits
  /// forever, inflating the selectivity estimates and defeating the
  /// zero-word early exits of the threshold kernel. This is the
  /// retraction-epoch path of the streaming engine. O(prefix copy +
  /// (|tombstoned| + |revived|)·d + new-combination append).
  BitmapCoverage(const AggregatedData& data, const BitmapCoverage& prev,
                 std::span<const std::size_t> tombstoned,
                 std::span<const std::size_t> revived);

  using CoverageOracle::Coverage;
  using CoverageOracle::CoverageAtLeast;

  std::uint64_t Coverage(const Pattern& pattern,
                         QueryContext& ctx) const override;

  /// Threshold query with two early exits: the fused chain runs
  /// most-selective index first so blocks zero out as fast as possible, and
  /// the running dot product stops as soon as the partial sum reaches `tau`.
  /// This is the kernel PATTERN-BREAKER and DEEPDIVER issue millions of
  /// times.
  bool CoverageAtLeast(const Pattern& pattern, std::uint64_t tau,
                       QueryContext& ctx) const override;

  /// Packed-key forms: identical kernels, slots gathered by walking the
  /// codec's deterministic fields (O(level), no Pattern materialized). Slot
  /// order — ascending attribute, then the same popcount sort — matches the
  /// vector<int> path bit for bit, which the differential suite relies on.
  std::uint64_t Coverage(PackedKeyView pattern, const PatternCodec& codec,
                         QueryContext& ctx) const override;
  bool CoverageAtLeast(PackedKeyView pattern, const PatternCodec& codec,
                       std::uint64_t tau, QueryContext& ctx) const override;

  /// The bit vector of distinct combinations matching `pattern` (AND of the
  /// deterministic cells' vectors). Exposed for DEEPDIVER's climb phase and
  /// the tests.
  BitVector MatchVector(const Pattern& pattern) const;

  const AggregatedData& data() const { return data_; }

  /// Inverted index for attribute `attr` = value `v`.
  const BitVector& index(int attr, Value v) const {
    return indices_[static_cast<std::size_t>(offsets_[
        static_cast<std::size_t>(attr)]) + static_cast<std::size_t>(v)];
  }

 private:
  /// Fills `ctx.slots` with the pattern's deterministic-cell index vectors,
  /// ordered sparsest first. Returns the slot count.
  int GatherSlots(const Pattern& pattern, QueryContext& ctx) const;

  /// Shared tail of the incremental constructors: appends membership bits
  /// for combinations [prev_n, data.num_combinations()) to every slot in one
  /// word-blocked AppendWords pass per slot.
  void ExtendWithNewCombinations(std::size_t prev_n);

  /// Sets or clears combination `k`'s bit in each of its d index vectors,
  /// keeping the popcounts exact.
  void SetCombinationBits(std::size_t k, bool value);

  const AggregatedData& data_;
  std::vector<int> offsets_;        // attr -> first index slot
  std::vector<BitVector> indices_;  // per (attr, value), Σ c_i vectors
  std::vector<std::size_t> index_popcounts_;  // parallel to indices_
};

}  // namespace coverage

#endif  // COVERAGE_COVERAGE_BITMAP_COVERAGE_H_
