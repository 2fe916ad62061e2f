// VarOpt sample merge (mergeability of IPPS/VarOpt summaries).
//
// A VarOpt sample answers subset-sum queries unbiasedly via the adjusted
// weights max(w_i, tau). Merging re-samples the union of the inputs'
// entries, *carrying each entry at its adjusted weight*: by the law of
// total expectation, an unbiased sample of unbiased estimates is itself
// unbiased for the original data. The merge is the build pipeline
// (aware/aware_summarize.h) over the combined entries with the shuffled
// emitter: one joint IPPS threshold, then pair aggregation in uniformly
// random order, i.e. the paper's structure-oblivious VarOpt step applied
// to the combined entry set.
//
// This is the primitive behind the sharded backend (api/sharded.h), the
// windowed ring (window/windowed.h) and distributed aggregation trees:
// parts sample independently, merges combine them pairwise or N-way in any
// order, and every intermediate result is a valid Sample over the same
// query interface.

#ifndef SAS_AWARE_MERGE_H_
#define SAS_AWARE_MERGE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/sample.h"

namespace sas {

/// Reusable workspace of MergeSamples: the combined entries and the build
/// pipeline's scratch and output. A caller that merges repeatedly — the
/// windowed ring re-merges its live bucket samples on every cache miss —
/// keeps one alive and pays no steady-state allocations for them. A
/// scratch may be reused freely across calls but not shared by concurrent
/// calls.
struct MergeScratch {
  std::vector<WeightedKey> entries;
  SummarizeScratch build;
  SummarizeOutput out;
};

/// Merges the parts into one sample of (expected) size s, with one joint
/// threshold over all their entries (an N-way merge is one re-sampling
/// round, statistically preferable to a cascade of pairwise merges).
/// Entries keep their adjusted weights, so the result is unbiased for the
/// union of the data the parts summarized; they are listed in merged-input
/// order (the parts in order, each part's entries in order). When the parts
/// together hold at most s entries, everything is kept (threshold 0) and no
/// randomness is consumed. Requires s >= 1; parts must not be null, but may
/// hold no entries.
Sample MergeSamples(std::span<const Sample* const> parts, std::size_t s,
                    Rng* rng, MergeScratch* scratch);

}  // namespace sas

#endif  // SAS_AWARE_MERGE_H_
