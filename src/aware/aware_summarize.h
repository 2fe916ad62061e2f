// The structure-aware build pipeline (Sections 3 and 4): one algorithm for
// every structure.
//
//   1. IPPS probabilities: SolveTau over the weights, fill, snap;
//   2. the open subset (keys with 0 < p < 1);
//   3. the structure's emitter lays the open keys out as an
//      AggregationTree (core/pair_aggregate.h): the order of pair
//      aggregations the lowest-LCA rule prescribes for it;
//   4. TreeAggregate settles every key along that tree;
//   5. the sample is the certain inclusions (p == 1) in ascending index
//      order, then the aggregation picks in ascending index order.
//
// An order is one chain (Algorithm 5), disjoint ranges are two levels, a
// hierarchy is its own tree, and a product structure is the kd hierarchy
// over the open keys (Algorithm 2). No structure at all is one chain in
// uniformly random order: the classic structure-oblivious VarOpt sample
// (Section 2), which the sample merge (aware/merge.h) and VarOptOffline
// draw. The emitters are public so tests and replays can run any stage on
// its own. The two-pass constructions (aware/two_pass.h) reuse the same
// tree emitters and TreeAggregate for their final step.
//
// The pipeline records the telemetry spans `build.solve_tau`,
// `build.ipps_fill` and `build.aggregate` (steps 2-5; a kd build inside it
// records its own nested `build.kd`).

#ifndef SAS_AWARE_AWARE_SUMMARIZE_H_
#define SAS_AWARE_AWARE_SUMMARIZE_H_

#include <cstddef>
#include <vector>

#include "aware/kd_build_core.h"
#include "aware/kd_hierarchy.h"
#include "aware/summarize_scratch.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/types.h"
#include "structure/hierarchy.h"

namespace sas {

/// The structure a build aggregates along. Make one with the named
/// constructors; a build reads only its kind's fields, which borrow the
/// caller's storage for the duration of the build. Item i of the build is
/// weights[i] of AwareSummarizeInto.
struct AwareStructure {
  enum class Kind { kOrder, kHierarchy, kDisjoint, kKd, kShuffled };
  Kind kind = Kind::kOrder;
  const WeightedKey* items = nullptr;  // order: by pt.x; kd: 2-D points
  const Coord* coords = nullptr;       // kd: flat points, `dims` per item
  int dims = 2;
  const Hierarchy* hierarchy = nullptr;  // item k sits at leaf_of_key(k)
  const int* range_of = nullptr;         // range of item i
  int num_ranges = 0;

  /// Items ordered by x (ties by index).
  static AwareStructure Order(const std::vector<WeightedKey>& items) {
    return {.kind = Kind::kOrder, .items = items.data()};
  }
  static AwareStructure OverHierarchy(const Hierarchy& h) {
    return {.kind = Kind::kHierarchy, .hierarchy = &h};
  }
  static AwareStructure Disjoint(const std::vector<int>& range_of,
                                 int num_ranges) {
    return {.kind = Kind::kDisjoint,
            .range_of = range_of.data(),
            .num_ranges = num_ranges};
  }
  /// The kd hierarchy over the items' 2-D points.
  static AwareStructure Kd(const std::vector<WeightedKey>& items) {
    return {.kind = Kind::kKd, .items = items.data()};
  }
  /// The kd hierarchy over flat d-dimensional points.
  static AwareStructure Kd(const std::vector<Coord>& coords, int dims) {
    return {.kind = Kind::kKd, .coords = coords.data(), .dims = dims};
  }
  /// No structure: the items in uniformly random order.
  static AwareStructure Shuffled() { return {.kind = Kind::kShuffled}; }
};

/// Draws a structure-aware VarOpt sample of (expected) size s over the
/// items: out->tau, out->probs (the snapped initial IPPS probabilities,
/// indexed like the items) and out->chosen (certain inclusions ascending,
/// then aggregation picks ascending). All working memory comes from
/// `scratch`; a warm (scratch, out) pair rebuilds without heap allocation.
/// `weights` may be scratch->weights.
void AwareSummarizeInto(const std::vector<Weight>& weights,
                        const AwareStructure& structure, double s, Rng* rng,
                        SummarizeScratch* scratch, SummarizeOutput* out);

// --- Emitters ---------------------------------------------------------------
// Each fills a tree the caller has just Cleared over its entries, with the
// groups in exactly the order the classic per-structure loops chained them
// (that order fixes which draw each merge consumes). A member naming the
// leftover of node u of an n-node tree is num_entries + n - 1 - u.

/// Order: one group, the open entries sorted by xs[i] (ties by index).
/// `open` must be ascending.
void EmitOrderTree(const Coord* xs, const std::vector<std::size_t>& open,
                   AggregationTree* tree);

/// Disjoint ranges: one group per range in id order over its open entries,
/// then a root group over their leftovers.
void EmitDisjointTree(const int* range_of, int num_ranges,
                      const std::vector<std::size_t>& open,
                      AggregationTree* tree);

/// Hierarchy: one group per node in reverse id order (children before
/// parents): the node's own entry entry_of_node[v] (kNoEntry for none),
/// then its children's leftovers. In memory a leaf holds its key; in the
/// two-pass final a selected node holds its cell's active key.
void EmitHierarchyTree(const Hierarchy& h,
                       const std::vector<std::size_t>& entry_of_node,
                       AggregationTree* tree);

/// Kd: one group per core node in reverse id order: a leaf lists its items
/// (entry_of_item[item_order[i]]), an internal node its two children's
/// leftovers.
void EmitKdTree(const KdCoreBuild& core,
                const std::vector<std::size_t>& item_order,
                const std::vector<std::size_t>& entry_of_item,
                AggregationTree* tree);

/// Shuffled: one group over all n entries, settled ones included, in the
/// order of a Fisher-Yates shuffle drawn with rng->NextBounded (n - 1
/// draws). The draws precede TreeAggregate's, exactly as the classic
/// shuffle-then-chain loop made them.
void EmitShuffledTree(std::size_t n, Rng* rng, AggregationTree* tree);

/// Kd over a built KdHierarchy whose build items are the entries.
void EmitKdTree(const KdHierarchy& kd, AggregationTree* tree);

/// Aggregates *probs (indexed like the build items of `kd`) bottom-up along
/// the kd tree: EmitKdTree, then TreeAggregate. Tree and chain memory come
/// from `scratch`.
void KdAggregate(std::vector<double>* probs, const KdHierarchy& kd,
                 Rng* rng, SummarizeScratch* scratch);

}  // namespace sas

#endif  // SAS_AWARE_AWARE_SUMMARIZE_H_
