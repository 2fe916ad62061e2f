// Offline structure-oblivious VarOpt sampling via probabilistic aggregation.
//
// This is the paper's own framing of VarOpt (Section 2): compute IPPS
// probabilities for the exact threshold tau_s, then repeatedly
// PAIR-AGGREGATE entries until all are set. Aggregating pairs in *random*
// order ignores structure, producing the classic structure-oblivious VarOpt
// distribution with sample size exactly s. It is the build pipeline
// (aware/aware_summarize.h) with the shuffled emitter.

#ifndef SAS_SAMPLING_VAROPT_OFFLINE_H_
#define SAS_SAMPLING_VAROPT_OFFLINE_H_

#include <vector>

#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas {

/// Draws a VarOpt sample of size exactly floor/ceil of s (exactly s when the
/// IPPS probabilities sum to the integer s, which holds for the exact
/// offline threshold). Entries are listed in input order.
Sample VarOptOffline(const std::vector<WeightedKey>& items, double s,
                     Rng* rng);

}  // namespace sas

#endif  // SAS_SAMPLING_VAROPT_OFFLINE_H_
