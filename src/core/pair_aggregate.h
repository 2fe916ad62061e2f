// PAIR-AGGREGATE (Algorithm 1): the probabilistic-aggregation primitive.
//
// Each call touches exactly two probabilities pi, pj in (0,1), preserves
// their sum, agrees with them in expectation, and sets at least one of them
// to 0 or 1. A sequence of pair aggregations that sets every entry produces
// a VarOpt sample (Section 2); the *choice* of which pair to aggregate is
// free, and that freedom is what the structure-aware schemes exploit.

#ifndef SAS_CORE_PAIR_AGGREGATE_H_
#define SAS_CORE_PAIR_AGGREGATE_H_

#include <cstddef>
#include <vector>

#include "core/random.h"

namespace sas {

/// Probabilities within this distance of 0 or 1 are snapped to exactly 0 or
/// 1 after an aggregation step, so "is set" checks are exact.
inline constexpr double kProbEps = 1e-12;

/// True if p is settled (exactly 0 or 1 after snapping).
inline bool IsSet(double p) { return p == 0.0 || p == 1.0; }

/// Snaps values within kProbEps of {0,1} and clamps to [0,1].
double SnapProbability(double p);

/// Algorithm 1. Requires 0 < *pi < 1 and 0 < *pj < 1. On return, the sum
/// *pi + *pj is unchanged and at least one of them is exactly 0 or 1.
///
/// Case pi + pj < 1: all mass moves onto one key (the other is excluded);
///   the receiving key is i with probability pi / (pi + pj).
/// Case pi + pj >= 1: one key is included (set to 1) and the other keeps the
///   leftover pi + pj - 1; key i is the included one with probability
///   (1 - pj) / (2 - pi - pj).
void PairAggregate(double* pi, double* pj, Rng* rng);

/// Sentinel meaning "no open entry".
inline constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

/// Sequentially pair-aggregates the open entries of *probs listed in
/// `indices` (skipping entries that are already set), starting from an
/// optional open carry entry. After each aggregation exactly one open entry
/// survives as the new carry. Returns the index of the final open entry, or
/// kNoEntry if everything is set.
///
/// This is the "one active key" scan of Algorithm 5 (one group of
/// TreeAggregate below). It forwards to ChainAggregateRange with a local
/// draw stream, so it consumes exactly the draws of the classic
/// one-PairAggregate-per-merge loop and leaves the rng in the same state.
std::size_t ChainAggregate(std::vector<double>* probs,
                           const std::vector<std::size_t>& indices,
                           std::size_t carry, Rng* rng);

/// Batched fast path of the chain scan: consumes pre-generated blocks of
/// uniform draws from `draws` (one per merge, in merge order), keeps the
/// carry probability in a register so already-settled entries are skipped
/// without re-reading the vector, and settles each entry with a single
/// store. Aggregation arithmetic and draw consumption are bit-identical to
/// PairAggregate. `indices[0..count)` must be distinct and in range; `carry`
/// may be kNoEntry or an entry index (it may also already be settled).
///
/// Callers that run many chains in one pass (TreeAggregate) share a single
/// RngStream across all of them; its Flush repositions the Rng once.
std::size_t ChainAggregateRange(double* probs, const std::size_t* indices,
                                std::size_t count, std::size_t carry,
                                RngStream* draws);

/// A bottom-up aggregation order over the entries of a probability vector,
/// in CSR form: group g lists members[start[g] .. start[g+1]). Groups are
/// listed in aggregation order. A member m < num_entries names entry m; a
/// member m >= num_entries names the leftover (final open entry) of the
/// earlier group m - num_entries. The last group is the root.
///
/// Every structure-aware sampler is an emitter of such a tree (one group
/// for an order, a group per range plus a root for disjoint ranges, a
/// group per node in reverse id order for hierarchies and kd trees), and
/// TreeAggregate below is the one routine that aggregates them all. The
/// vectors keep their capacity across Clear, so a warm tree is refilled
/// without allocating.
struct AggregationTree {
  std::size_t num_entries = 0;
  std::vector<std::size_t> start;  // {0} once Cleared
  std::vector<std::size_t> members;

  /// Empties the tree over a vector of n entries.
  void Clear(std::size_t n) {
    num_entries = n;
    start.assign(1, 0);
    members.clear();
  }
  void Add(std::size_t member) { members.push_back(member); }
  /// Closes the group of the members added since the previous close.
  void CloseGroup() { start.push_back(members.size()); }
  std::size_t num_groups() const {
    return start.empty() ? 0 : start.size() - 1;
  }
};

/// Reusable working memory of TreeAggregate (capacity kept across calls).
struct TreeAggregateScratch {
  std::vector<std::size_t> leftover;  // per group
  std::vector<std::size_t> chain;     // one group, leftovers resolved
};

/// Aggregates the groups of `tree` in order, one ChainAggregateRange per
/// group over its members (settled entries and empty leftovers are
/// skipped), all drawing from one RngStream over `rng`, then resolves the
/// root's leftover with ResolveResidual. On return every entry of `probs`
/// (num_entries of them) is set. A tree without groups is a no-op.
void TreeAggregate(const AggregationTree& tree, double* probs, Rng* rng,
                   TreeAggregateScratch* scratch);

/// Resolves a final open entry by a Bernoulli draw (needed only when the
/// initial probability mass was non-integral or drifted by floating point).
/// No-op when `entry` is kNoEntry.
void ResolveResidual(std::vector<double>* probs, std::size_t entry, Rng* rng);

/// Stream overload for fast-path callers, consuming the draw (if any) from
/// the same stream as the chain that produced `entry`.
void ResolveResidual(double* probs, std::size_t entry, RngStream* draws);

}  // namespace sas

#endif  // SAS_CORE_PAIR_AGGREGATE_H_
