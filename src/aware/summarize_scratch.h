// Reusable per-build workspace of the structure-aware build pipeline
// (aware/aware_summarize.h).
//
// AwareSummarizeInto routes ALL of its working memory — extracted weights,
// the open subset, aggregation probabilities, the kd open-subset points and
// masses, the kd arena and item order, and the aggregation tree — through
// one of these, so a caller that keeps a scratch and an output alive
// rebuilds summaries with zero steady-state heap allocations (pinned by
// the *Rebuild benches' allocs_per_iter counter in bench/micro_core.cc).
// The vectors grow to the largest build seen and keep their capacity; the
// kd arena does the same.
//
// Ownership mirrors KdBuildScratch / IppsScratch: a scratch may be reused
// across any number of builds but serves one build at a time, and nothing
// inside it outlives the build that filled it.

#ifndef SAS_AWARE_SUMMARIZE_SCRATCH_H_
#define SAS_AWARE_SUMMARIZE_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aware/kd_hierarchy.h"
#include "aware/kd_scratch.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/types.h"

namespace sas {

struct SummarizeScratch {
  IppsScratch ipps;               // SolveTau partition buffer
  KdBuildScratch kd;              // kd build arena
  KdHierarchy tree;               // recycled tree of KdHierarchy::BuildInto
  AggregationTree agg;            // the emitted aggregation tree
  TreeAggregateScratch agg_work;  // TreeAggregate's leftovers and chain

  std::vector<Weight> weights;           // extracted item weights
  std::vector<double> work;              // aggregated probabilities
  std::vector<double> mass;              // kd: open-subset masses
  std::vector<Coord> coords;             // kd: open flat points; order: xs
  std::vector<Point2D> pts;              // KdHierarchy::BuildInto input
  std::vector<std::size_t> open;         // open item indices, ascending
  std::vector<std::size_t> order;        // kd: item order of the build
  std::vector<std::size_t> node_entry;   // hierarchy: each node's own entry
};

/// Caller-owned result of AwareSummarizeInto; reusable across builds the
/// same way the scratch is. Indices refer to the build input.
struct SummarizeOutput {
  double tau = 0.0;
  std::vector<double> probs;          // snapped initial IPPS probabilities
  std::vector<std::uint32_t> chosen;  // certain inclusions, then picks
};

}  // namespace sas

#endif  // SAS_AWARE_SUMMARIZE_SCRATCH_H_
