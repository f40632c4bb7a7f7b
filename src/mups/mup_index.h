#ifndef COVERAGE_MUPS_MUP_INDEX_H_
#define COVERAGE_MUPS_MUP_INDEX_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "dataset/schema.h"
#include "pattern/pattern.h"

namespace coverage {

/// The MUP-dominance index of Appendix B: per attribute, one bit vector per
/// value plus one for "wildcard here", with one bit per discovered MUP, so
/// both checks are word-wise AND / OR-AND chains over the discovered set.
/// This is the vector<int>-keyed form, used by the cluster merge
/// (distributed_audit.cc), which walks Pattern results; the searches and the
/// engine use the same design over packed keys (PackedMupIndex in
/// packed_index.h).
///
/// Thread-safety: none. Complexity: Add/Remove are O(Σ(cᵢ+1)) slot updates;
/// IsDominated / DominatesSome are O(d·⌈m/64⌉) word operations over m
/// registered MUPs, with a zero-accumulator early exit.
///
/// Both query directions double as *coverage* oracles relative to a set of
/// verified MUPs, which is what the streaming engine's retraction walk
/// exploits: a pattern strictly dominated by a MUP is more specific than an
/// uncovered pattern, hence itself uncovered; a pattern strictly dominating
/// a MUP generalises one of that MUP's (covered, by maximality) parents,
/// hence is covered.
class MupDominanceIndex {
 public:
  explicit MupDominanceIndex(const Schema& schema);

  /// Registers a newly discovered MUP. Per-slot bit vectors grow in 64-bit
  /// word blocks (with a geometric reservation schedule shared across all
  /// slots), so a long discovery run never rewrites existing words.
  void Add(const Pattern& mup);

  /// Registers `mups` in one shot: every slot vector is extended by
  /// |mups| bits with a single BitVector::AppendWords call, so the per-Add
  /// slot sweep is paid once per batch instead of once per MUP. Used by the
  /// incremental engine, which re-seeds the index from a surviving MUP set
  /// on every epoch. The batch must be duplicate-free and disjoint from the
  /// already-registered set.
  void AddBatch(std::span<const Pattern> mups);

  /// Unregisters a previously Added MUP: the last registered MUP is swapped
  /// into its bit position and every slot vector shrinks by one bit, so a
  /// removal costs O(Σ(cᵢ+1)) regardless of how many MUPs remain. Returns
  /// false (no-op) if `mup` was never registered. The streaming engine uses
  /// this on retraction epochs, where previously maximal MUPs can lose
  /// maximality and must leave the index before it is used for pruning.
  bool Remove(const Pattern& mup);

  std::size_t size() const { return mups_.size(); }
  const std::vector<Pattern>& mups() const { return mups_; }

  /// Exact membership (the discovered set is an antichain, so membership is
  /// not implied by either dominance direction).
  bool Contains(const Pattern& pattern) const {
    return member_index_.contains(pattern);
  }

  /// True iff some discovered MUP strictly dominates `pattern` (Definition 9:
  /// "pattern is dominated by M"). Such a node cannot be a MUP and its whole
  /// subtree is uncovered.
  bool IsDominated(const Pattern& pattern) const;

  /// True iff `pattern` strictly dominates some discovered MUP. Such a node
  /// is a strict ancestor of a MUP and is therefore covered (monotonicity),
  /// so its coverage query can be skipped.
  bool DominatesSome(const Pattern& pattern) const;

 private:
  const BitVector& value_index(int attr, Value v) const {
    return indices_[static_cast<std::size_t>(offsets_[
        static_cast<std::size_t>(attr)]) + 1 + static_cast<std::size_t>(v)];
  }
  const BitVector& wildcard_index(int attr) const {
    return indices_[static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(attr)])];
  }
  BitVector& mutable_value_index(int attr, Value v) {
    return indices_[static_cast<std::size_t>(offsets_[
        static_cast<std::size_t>(attr)]) + 1 + static_cast<std::size_t>(v)];
  }
  BitVector& mutable_wildcard_index(int attr) {
    return indices_[static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(attr)])];
  }

  const Schema& schema_;
  std::vector<int> offsets_;  // attr -> slot of its wildcard vector
  /// Layout per attribute: [wildcard vector, value 0, value 1, ...].
  std::vector<BitVector> indices_;
  std::vector<Pattern> mups_;
  /// Pattern -> its bit position in the slot vectors (also the exact-
  /// membership set). Kept positional so Remove can swap-with-last.
  std::unordered_map<Pattern, std::size_t, PatternHash> member_index_;
  std::size_t reserved_bits_ = 0;  // bits all slots have capacity for
};

}  // namespace coverage

#endif  // COVERAGE_MUPS_MUP_INDEX_H_
